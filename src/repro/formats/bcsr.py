"""Blocked Compressed Sparse Row (BCSR) — fixed ``r x c`` blocks, padded.

BCSR stores two-dimensional fixed-size blocks with at least one nonzero,
padding missing elements with explicit zeros.  Blocks are aligned: an
``r x c`` block always starts at ``(i, j)`` with ``i mod r == 0`` and
``j mod c == 0`` (paper Section II-A).  Three arrays:

* ``bval``  — the block values, one dense ``r x c`` tile per block,
* ``bcol_ind`` — the block-column index of each block,
* ``brow_ptr`` — pointers to the first block of each block row.
"""

from __future__ import annotations

import numpy as np

from ..errors import FormatError
from ..types import INDEX_BYTES, BlockShape
from .base import SparseFormat, XAccessStream
from .blockstats import BlockStats, bcsr_block_stats
from .coo import COOMatrix

__all__ = ["BCSRMatrix"]


class BCSRMatrix(SparseFormat):
    """Aligned fixed-size rectangular blocking with zero padding."""

    kind = "bcsr"
    display_name = "BCSR"

    def __init__(
        self,
        nrows: int,
        ncols: int,
        block: BlockShape,
        brow_ptr: np.ndarray,
        bcol_ind: np.ndarray,
        bval: np.ndarray | None,
        nnz: int,
    ) -> None:
        block = block if isinstance(block, BlockShape) else BlockShape(*block)
        brow_ptr = np.asarray(brow_ptr, dtype=np.int64)
        bcol_ind = np.asarray(bcol_ind, dtype=np.int64)
        n_brows = -(-nrows // block.r) if nrows else 0
        if brow_ptr.shape != (n_brows + 1,):
            raise FormatError(
                f"brow_ptr has length {brow_ptr.shape[0]}, expected {n_brows + 1}"
            )
        if brow_ptr[-1] != bcol_ind.shape[0]:
            raise FormatError("brow_ptr does not bracket bcol_ind")
        if bval is not None:
            bval = np.asarray(bval)
            if bval.shape != (bcol_ind.shape[0], block.r, block.c):
                raise FormatError(
                    f"bval has shape {bval.shape}, expected "
                    f"({bcol_ind.shape[0]}, {block.r}, {block.c})"
                )
        super().__init__(nrows, ncols, nnz)
        self.block = block
        self.brow_ptr = brow_ptr
        self.bcol_ind = bcol_ind
        self.bval = bval

    # ------------------------------------------------------------------ #
    @classmethod
    def from_coo(
        cls,
        coo: COOMatrix,
        block: BlockShape | tuple[int, int],
        *,
        with_values: bool = True,
        stats: BlockStats | None = None,
    ) -> "BCSRMatrix":
        block = block if isinstance(block, BlockShape) else BlockShape(*block)
        if stats is None:
            stats = bcsr_block_stats(coo, block.r, block.c)
        brow_ptr = _ptr_from_block_rows(stats.block_row, stats.n_block_rows)
        bcol_ind = stats.block_start_col // block.c
        bval = None
        if with_values and coo.values is not None:
            bval = np.zeros((stats.n_blocks, block.r, block.c), dtype=np.float64)
            flat = bval.reshape(stats.n_blocks, block.elems)
            flat[stats.nnz_block, stats.nnz_offset] = coo.values
        return cls(
            coo.nrows, coo.ncols, block, brow_ptr, bcol_ind, bval, coo.nnz
        )

    # ------------------------------------------------------------------ #
    @property
    def n_blocks(self) -> int:
        return int(self.bcol_ind.shape[0])

    @property
    def nnz_stored(self) -> int:
        return self.n_blocks * self.block.elems

    def index_bytes(self) -> int:
        return INDEX_BYTES * self.n_blocks + self._ptr_bytes(self.brow_ptr.shape[0])

    @property
    def n_block_rows(self) -> int:
        return int(self.brow_ptr.shape[0] - 1)

    def block_descriptor(self) -> tuple:
        return ("bcsr", (self.block.r, self.block.c))

    def x_access_stream(self) -> XAccessStream:
        return XAccessStream(self.bcol_ind * self.block.c, self.block.c)

    @property
    def has_values(self) -> bool:
        return self.bval is not None

    def block_rows_of_blocks(self) -> np.ndarray:
        """Block-row index of every block (length n_blocks)."""
        return np.repeat(
            np.arange(self.n_block_rows, dtype=np.int64), np.diff(self.brow_ptr)
        )

    # ------------------------------------------------------------------ #
    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        x, out = self._check_spmv_operands(x, out)
        from ..kernels.bcsr_kernels import spmv_bcsr

        return spmv_bcsr(self, x, out)

    def to_coo(self) -> COOMatrix:
        """Extract the true nonzeros (padding zeros are dropped)."""
        if not self.has_values:
            raise FormatError("structure-only BCSR cannot be exported")
        r, c = self.block.r, self.block.c
        brows = self.block_rows_of_blocks()
        rows = (
            brows[:, None, None] * r
            + np.arange(r, dtype=np.int64)[None, :, None]
        ) + np.zeros((1, 1, c), dtype=np.int64)
        cols = (
            self.bcol_ind[:, None, None] * c
            + np.arange(c, dtype=np.int64)[None, None, :]
        ) + np.zeros((1, r, 1), dtype=np.int64)
        mask = (self.bval != 0) & (rows < self.nrows) & (cols < self.ncols)
        return COOMatrix(
            self.nrows, self.ncols, rows[mask], cols[mask], self.bval[mask]
        )

    def to_dense(self) -> np.ndarray:
        if not self.has_values:
            raise FormatError("structure-only BCSR cannot be densified")
        r, c = self.block.r, self.block.c
        n_brows = self.n_block_rows
        n_bcols = -(-self.ncols // c)
        dense = np.zeros((n_brows * r, n_bcols * c), dtype=self.bval.dtype)
        brows = self.block_rows_of_blocks()
        for idx in range(self.n_blocks):
            i0 = int(brows[idx]) * r
            j0 = int(self.bcol_ind[idx]) * c
            dense[i0 : i0 + r, j0 : j0 + c] = self.bval[idx]
        return dense[: self.nrows, : self.ncols]


def _ptr_from_block_rows(block_row: np.ndarray, n_block_rows: int) -> np.ndarray:
    counts = np.bincount(block_row, minlength=n_block_rows)
    ptr = np.zeros(n_block_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr
