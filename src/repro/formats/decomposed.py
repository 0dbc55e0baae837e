"""Decomposed blocking formats (BCSR-DEC and BCSD-DEC).

A decomposed format avoids padding by splitting the input matrix A into
k = 2 submatrices (paper Section II-B): A = A_blocked + A_rest, where
A_blocked holds only *completely full* blocks (no padding needed) in the
base blocked format, and A_rest holds every remaining nonzero in plain CSR.

SpMV runs one pass per submatrix, accumulating into the same output vector;
the working set therefore charges the x and y vectors once per (non-empty)
pass, which is exactly the extra traffic the paper identifies as the cost of
decomposition ("additional operations are needed to accumulate the partial
results").
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ConversionError, FormatError
from ..types import BlockShape, Precision
from .base import SparseFormat, XAccessStream
from .bcsd import BCSDMatrix
from .bcsr import BCSRMatrix
from .blockstats import bcsd_block_stats, bcsr_block_stats
from .coo import COOMatrix
from .csr import CSRMatrix

__all__ = ["DecomposedMatrix", "decompose_bcsr", "decompose_bcsd"]


class DecomposedMatrix(SparseFormat):
    """A sum of k sparse submatrices, applied as k accumulating SpMV passes."""

    kind = "decomposed"
    display_name = "DEC"

    def __init__(
        self,
        nrows: int,
        ncols: int,
        parts: Sequence[SparseFormat],
        kind: str,
        display_name: str,
    ) -> None:
        if not parts:
            raise FormatError("a decomposed matrix needs at least one part")
        for part in parts:
            if part.shape != (nrows, ncols):
                raise FormatError(
                    f"part shape {part.shape} != matrix shape ({nrows}, {ncols})"
                )
        super().__init__(nrows, ncols, sum(p.nnz for p in parts))
        self.parts = tuple(parts)
        self.kind = kind
        self.display_name = display_name

    # ------------------------------------------------------------------ #
    @property
    def nnz_stored(self) -> int:
        return sum(p.nnz_stored for p in self.parts)

    def index_bytes(self) -> int:
        return sum(p.index_bytes() for p in self.parts)

    def working_set(self, precision: Precision | str) -> int:
        # x and y are streamed once per pass (per non-empty submatrix), and
        # every pass after the first re-reads y to accumulate into it.
        p = Precision.coerce(precision)
        per_pass = sum(
            part.working_set_matrix_only(p) + part.vector_bytes(p)
            for part in self.parts
        )
        return per_pass + (len(self.parts) - 1) * p.itemsize * self.nrows

    @property
    def n_blocks(self) -> int:
        return sum(p.n_blocks for p in self.parts)

    @property
    def n_block_rows(self) -> int:
        return sum(p.n_block_rows for p in self.parts)

    def block_descriptor(self) -> tuple:
        return (self.kind, tuple(p.block_descriptor() for p in self.parts))

    def x_access_stream(self) -> XAccessStream:
        # Used only as a fallback; the simulator walks submatrices() and uses
        # each part's own stream, preserving per-pass access granularity.
        streams = [p.x_access_stream() for p in self.parts]
        starts = np.concatenate([s.starts for s in streams]) if streams else np.empty(0)
        width = max((s.width for s in streams), default=1)
        return XAccessStream(starts, width)

    def submatrices(self) -> Sequence[SparseFormat]:
        return self.parts

    @property
    def has_values(self) -> bool:
        return all(p.has_values for p in self.parts)

    # ------------------------------------------------------------------ #
    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        x, out = self._check_spmv_operands(x, out)
        for part in self.parts:
            part.spmv(x, out=out)
        return out

    def to_coo(self) -> COOMatrix:
        """Merge the parts back into one COO matrix."""
        if not self.has_values:
            raise FormatError("structure-only decomposition cannot be exported")
        parts = [p.to_coo() for p in self.parts]
        return COOMatrix(
            self.nrows,
            self.ncols,
            np.concatenate([p.rows for p in parts]),
            np.concatenate([p.cols for p in parts]),
            np.concatenate([p.values for p in parts]),
        )

    def to_dense(self) -> np.ndarray:
        if not self.has_values:
            raise FormatError("structure-only decomposition cannot be densified")
        dense = np.zeros(self.shape)
        for part in self.parts:
            dense = dense + part.to_dense()
        return dense


def decompose_bcsr(
    coo: COOMatrix,
    block: BlockShape | tuple[int, int],
    *,
    with_values: bool = True,
    stats=None,
) -> DecomposedMatrix:
    """Build BCSR-DEC: full ``r x c`` blocks + CSR remainder (k = 2).

    The blocked part is assembled straight from the parent's
    :class:`~repro.formats.blockstats.BlockStats` (full blocks are already
    enumerated in block order), avoiding a second structural analysis.
    """
    block = block if isinstance(block, BlockShape) else BlockShape(*block)
    if stats is None:
        stats = bcsr_block_stats(coo, block.r, block.c)
    full = stats.full_mask()
    in_full = full[stats.nnz_block]
    parts: list[SparseFormat] = []
    n_full = int(full.sum())
    if n_full:
        brow_ptr = _ptr_from_rows(stats.block_row[full], stats.n_block_rows)
        bcol_ind = stats.block_start_col[full] // block.c
        bval = None
        if with_values and coo.values is not None:
            new_index = np.cumsum(full, dtype=np.int64) - 1  # old block -> new
            bval = np.zeros((n_full, block.r, block.c), dtype=np.float64)
            flat = bval.reshape(n_full, block.elems)
            flat[
                new_index[stats.nnz_block[in_full]], stats.nnz_offset[in_full]
            ] = coo.values[in_full]
        parts.append(
            BCSRMatrix(
                coo.nrows,
                coo.ncols,
                block,
                brow_ptr,
                bcol_ind,
                bval,
                int(in_full.sum()),
            )
        )
    rest_coo = _subset(coo, ~in_full)
    if rest_coo.nnz or not parts:
        parts.append(CSRMatrix.from_coo(rest_coo, with_values=with_values))
    dec = DecomposedMatrix(coo.nrows, coo.ncols, parts, "bcsr_dec", "BCSR-DEC")
    if dec.padding:
        raise ConversionError("BCSR-DEC must be padding-free")  # pragma: no cover
    return dec


def decompose_bcsd(
    coo: COOMatrix,
    b: int,
    *,
    with_values: bool = True,
    stats=None,
) -> DecomposedMatrix:
    """Build BCSD-DEC: full size-``b`` diagonal blocks + CSR remainder."""
    if stats is None:
        stats = bcsd_block_stats(coo, b)
    full = stats.full_mask()
    in_full = full[stats.nnz_block]
    parts: list[SparseFormat] = []
    n_full = int(full.sum())
    if n_full:
        brow_ptr = _ptr_from_rows(stats.block_row[full], stats.n_block_rows)
        bcol_ind = stats.block_start_col[full]
        bval = None
        if with_values and coo.values is not None:
            new_index = np.cumsum(full, dtype=np.int64) - 1
            bval = np.zeros((n_full, b), dtype=np.float64)
            bval[
                new_index[stats.nnz_block[in_full]], stats.nnz_offset[in_full]
            ] = coo.values[in_full]
        parts.append(
            BCSDMatrix(
                coo.nrows,
                coo.ncols,
                b,
                brow_ptr,
                bcol_ind,
                bval,
                int(in_full.sum()),
            )
        )
    rest_coo = _subset(coo, ~in_full)
    if rest_coo.nnz or not parts:
        parts.append(CSRMatrix.from_coo(rest_coo, with_values=with_values))
    dec = DecomposedMatrix(coo.nrows, coo.ncols, parts, "bcsd_dec", "BCSD-DEC")
    if dec.padding:
        raise ConversionError("BCSD-DEC must be padding-free")  # pragma: no cover
    return dec


def _ptr_from_rows(block_row: np.ndarray, n_block_rows: int) -> np.ndarray:
    counts = np.bincount(block_row, minlength=n_block_rows)
    ptr = np.zeros(n_block_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def _subset(coo: COOMatrix, mask: np.ndarray) -> COOMatrix:
    values = coo.values[mask] if coo.values is not None else None
    return COOMatrix(
        coo.nrows, coo.ncols, coo.rows[mask], coo.cols[mask], values, canonical=True
    )
