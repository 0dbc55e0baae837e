"""BCSR SpMV kernels.

The vectorized BCSR kernel processes all blocks at once: the relevant
``c``-wide slices of x are gathered into an ``(nb, c)`` matrix, each block
contributes an ``(r,)`` partial result via an einsum contraction, and the
partials are scatter-added into the block rows of y.  Matrix edges are
handled by padding x/y up to whole blocks (the padded positions multiply
explicit stored zeros, so they contribute nothing).
"""

from __future__ import annotations

import numpy as np

from ..formats.bcsr import BCSRMatrix

__all__ = ["spmv_bcsr", "spmv_bcsr_scalar"]


def spmv_bcsr(bcsr: BCSRMatrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Vectorized BCSR SpMV, accumulating into ``out``."""
    if bcsr.n_blocks == 0:
        return out
    r, c = bcsr.block.r, bcsr.block.c
    n_bcols = -(-bcsr.ncols // c)
    xpad = x
    if n_bcols * c != x.shape[0]:
        xpad = np.zeros(n_bcols * c, dtype=x.dtype)
        xpad[: x.shape[0]] = x
    # Gather the c-slice of x for every block: shape (nb, c).
    starts = bcsr.bcol_ind * c
    xg = xpad[starts[:, None] + np.arange(c)]
    # Per-block partial results: (nb, r).
    partial = np.einsum("brc,bc->br", bcsr.bval, xg)
    # Scatter into block rows of y.
    ypad = np.zeros((bcsr.n_block_rows, r), dtype=out.dtype)
    np.add.at(ypad, bcsr.block_rows_of_blocks(), partial)
    out += ypad.reshape(-1)[: out.shape[0]]
    return out


def spmv_bcsr_scalar(bcsr: BCSRMatrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Loop-per-block BCSR SpMV (reference; small matrices only)."""
    r, c = bcsr.block.r, bcsr.block.c
    brows = bcsr.block_rows_of_blocks()
    for idx in range(bcsr.n_blocks):
        i0 = int(brows[idx]) * r
        j0 = int(bcsr.bcol_ind[idx]) * c
        for bi in range(r):
            if i0 + bi >= bcsr.nrows:
                break
            acc = 0.0
            for bj in range(c):
                if j0 + bj < bcsr.ncols:
                    acc += bcsr.bval[idx, bi, bj] * x[j0 + bj]
            out[i0 + bi] += acc
    return out
