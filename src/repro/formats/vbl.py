"""One-dimensional Variable Block Length (1D-VBL) storage.

1D-VBL (Pinar & Heath, paper Section II-B) stores horizontal runs of
consecutive nonzeros as variable-length blocks, with no padding, at the
cost of one extra indexing structure.  Four arrays:

* ``val``      — the nonzero values (no padding, length nnz),
* ``row_ptr``  — pointers to the first *element* of each row in ``val``,
* ``bcol_ind`` — the starting column of each block,
* ``blk_size`` — the length of each block, stored in **one byte** per the
  paper's implementation; a run longer than 255 is split into
  255-element chunks.

The object also keeps a derived ``block_row_ptr`` (first *block* of each
row) for kernel convenience; it is reconstructible from ``row_ptr`` and
``blk_size`` and therefore excluded from the working-set accounting.
"""

from __future__ import annotations

import numpy as np

from ..errors import FormatError
from ..types import INDEX_BYTES, VBL_MAX_BLOCK, VBL_SIZE_BYTES
from .base import SparseFormat, XAccessStream
from .coo import COOMatrix

__all__ = ["VBLMatrix"]


class VBLMatrix(SparseFormat):
    """Variable-length horizontal blocks without padding."""

    kind = "vbl"
    display_name = "1D-VBL"

    def __init__(
        self,
        nrows: int,
        ncols: int,
        row_ptr: np.ndarray,
        bcol_ind: np.ndarray,
        blk_size: np.ndarray,
        block_row_ptr: np.ndarray,
        values: np.ndarray | None = None,
    ) -> None:
        row_ptr = np.asarray(row_ptr, dtype=np.int64)
        bcol_ind = np.asarray(bcol_ind, dtype=np.int64)
        blk_size = np.asarray(blk_size)
        block_row_ptr = np.asarray(block_row_ptr, dtype=np.int64)
        if blk_size.dtype != np.uint8:
            if blk_size.size and (blk_size.max(initial=0) > VBL_MAX_BLOCK):
                raise FormatError("1D-VBL block size exceeds 255")
            blk_size = blk_size.astype(np.uint8)
        if blk_size.size and blk_size.min() < 1:
            raise FormatError("1D-VBL blocks must be non-empty")
        if row_ptr.shape != (nrows + 1,) or block_row_ptr.shape != (nrows + 1,):
            raise FormatError("row_ptr / block_row_ptr must have length nrows+1")
        nnz = int(row_ptr[-1])
        if int(blk_size.astype(np.int64).sum()) != nnz:
            raise FormatError("sum of blk_size does not equal nnz")
        if bcol_ind.shape != blk_size.shape:
            raise FormatError("bcol_ind and blk_size lengths differ")
        if values is not None:
            values = np.asarray(values)
            if values.shape != (nnz,):
                raise FormatError("values length does not match row_ptr")
        super().__init__(nrows, ncols, nnz)
        self.row_ptr = row_ptr
        self.bcol_ind = bcol_ind
        self.blk_size = blk_size
        self.block_row_ptr = block_row_ptr
        self.values = values

    # ------------------------------------------------------------------ #
    @classmethod
    def from_coo(cls, coo: COOMatrix, *, with_values: bool = True) -> "VBLMatrix":
        rows, cols = coo.rows, coo.cols
        nnz = coo.nnz
        if nnz == 0:
            zptr = np.zeros(coo.nrows + 1, dtype=np.int64)
            return cls(
                coo.nrows,
                coo.ncols,
                zptr,
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.uint8),
                zptr.copy(),
                np.empty(0) if with_values and coo.values is not None else None,
            )
        # A new block starts at element 0, on a row change, or when the
        # column is not the immediate successor of the previous one.
        starts = np.empty(nnz, dtype=bool)
        starts[0] = True
        starts[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1] + 1)
        # Split runs longer than VBL_MAX_BLOCK: position within the run is
        # the element index minus the index of the run's first element.
        run_id = np.cumsum(starts) - 1
        run_first = np.flatnonzero(starts)
        pos_in_run = np.arange(nnz, dtype=np.int64) - run_first[run_id]
        starts |= (pos_in_run > 0) & (pos_in_run % VBL_MAX_BLOCK == 0)

        first_idx = np.flatnonzero(starts)
        bcol_ind = cols[first_idx]
        sizes = np.diff(np.append(first_idx, nnz)).astype(np.uint8)
        # Blocks per row -> block_row_ptr.
        blocks_per_row = np.bincount(rows[first_idx], minlength=coo.nrows)
        block_row_ptr = np.zeros(coo.nrows + 1, dtype=np.int64)
        np.cumsum(blocks_per_row, out=block_row_ptr[1:])
        # Elements per row -> row_ptr.
        row_ptr = np.zeros(coo.nrows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=coo.nrows), out=row_ptr[1:])
        values = coo.values if (with_values and coo.values is not None) else None
        return cls(
            coo.nrows, coo.ncols, row_ptr, bcol_ind, sizes, block_row_ptr, values
        )

    # ------------------------------------------------------------------ #
    @property
    def n_blocks(self) -> int:
        return int(self.bcol_ind.shape[0])

    @property
    def nnz_stored(self) -> int:
        return self.nnz  # no padding, ever

    def index_bytes(self) -> int:
        # bcol_ind (4 B) + blk_size (1 B) + row_ptr (4 B); the derived
        # block_row_ptr is not part of the paper's four-array layout.
        return (
            INDEX_BYTES * self.n_blocks
            + VBL_SIZE_BYTES * self.n_blocks
            + self._ptr_bytes(self.nrows + 1)
        )

    @property
    def n_block_rows(self) -> int:
        return self.nrows

    def block_descriptor(self) -> tuple:
        return ("vbl", None)

    def x_access_stream(self) -> XAccessStream:
        mean = int(self.blk_size.astype(np.int64).mean()) if self.n_blocks else 1
        return XAccessStream(
            self.bcol_ind, max(mean, 1), widths=self.blk_size.astype(np.int64)
        )

    @property
    def has_values(self) -> bool:
        return self.values is not None

    def rows_of_blocks(self) -> np.ndarray:
        """Row index of every block (length n_blocks)."""
        return np.repeat(
            np.arange(self.nrows, dtype=np.int64), np.diff(self.block_row_ptr)
        )

    def value_offsets(self) -> np.ndarray:
        """Offset into ``val`` of each block's first element."""
        off = np.zeros(self.n_blocks + 1, dtype=np.int64)
        np.cumsum(self.blk_size.astype(np.int64), out=off[1:])
        return off[:-1]

    def to_coo(self) -> COOMatrix:
        """Export the (padding-free) entries back to COO."""
        if not self.has_values:
            raise FormatError("structure-only 1D-VBL cannot be exported")
        sizes = self.blk_size.astype(np.int64)
        rows = np.repeat(self.rows_of_blocks(), sizes)
        cols = self.x_access_stream().element_columns()
        return COOMatrix(self.nrows, self.ncols, rows, cols, self.values)

    # ------------------------------------------------------------------ #
    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        x, out = self._check_spmv_operands(x, out)
        from ..kernels.vbl_kernels import spmv_vbl

        return spmv_vbl(self, x, out)

    def to_dense(self) -> np.ndarray:
        if not self.has_values:
            raise FormatError("structure-only 1D-VBL cannot be densified")
        dense = np.zeros(self.shape, dtype=self.values.dtype)
        rows = self.rows_of_blocks()
        offs = self.value_offsets()
        for idx in range(self.n_blocks):
            size = int(self.blk_size[idx])
            j0 = int(self.bcol_ind[idx])
            dense[rows[idx], j0 : j0 + size] = self.values[
                offs[idx] : offs[idx] + size
            ]
        return dense
