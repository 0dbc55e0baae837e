"""Blocked Compressed Sparse Diagonal (BCSD) — fixed diagonal blocks, padded.

BCSD is the diagonal analogue of BCSR (paper Section II-A): the matrix is
cut into row *segments* of height ``b`` (a size-``b`` block must start at a
row ``i`` with ``i mod b == 0``), and each block stores ``b`` elements along
a diagonal starting at ``(s*b, j0)``: positions ``(s*b + t, j0 + t)``.
Missing positions are padded with zeros; ``j0`` may run off the left or
right matrix edge for boundary diagonals, in which case the out-of-range
positions are padding as well.

Arrays: ``bval`` (one length-``b`` diagonal per block), ``bcol_ind`` (the
starting column ``j0`` of each block) and ``brow_ptr`` (pointers to the
first block of each segment).
"""

from __future__ import annotations

import numpy as np

from ..errors import FormatError
from ..types import INDEX_BYTES
from .base import SparseFormat, XAccessStream
from .blockstats import BlockStats, bcsd_block_stats
from .coo import COOMatrix

__all__ = ["BCSDMatrix"]


class BCSDMatrix(SparseFormat):
    """Aligned fixed-size diagonal blocking with zero padding."""

    kind = "bcsd"
    display_name = "BCSD"

    def __init__(
        self,
        nrows: int,
        ncols: int,
        b: int,
        brow_ptr: np.ndarray,
        bcol_ind: np.ndarray,
        bval: np.ndarray | None,
        nnz: int,
    ) -> None:
        if b < 1:
            raise FormatError(f"invalid BCSD block size {b}")
        brow_ptr = np.asarray(brow_ptr, dtype=np.int64)
        bcol_ind = np.asarray(bcol_ind, dtype=np.int64)
        n_segs = -(-nrows // b) if nrows else 0
        if brow_ptr.shape != (n_segs + 1,):
            raise FormatError(
                f"brow_ptr has length {brow_ptr.shape[0]}, expected {n_segs + 1}"
            )
        if brow_ptr[-1] != bcol_ind.shape[0]:
            raise FormatError("brow_ptr does not bracket bcol_ind")
        if bval is not None:
            bval = np.asarray(bval)
            if bval.shape != (bcol_ind.shape[0], b):
                raise FormatError(
                    f"bval has shape {bval.shape}, expected "
                    f"({bcol_ind.shape[0]}, {b})"
                )
        super().__init__(nrows, ncols, nnz)
        self.b = int(b)
        self.brow_ptr = brow_ptr
        self.bcol_ind = bcol_ind
        self.bval = bval

    # ------------------------------------------------------------------ #
    @classmethod
    def from_coo(
        cls,
        coo: COOMatrix,
        b: int,
        *,
        with_values: bool = True,
        stats: BlockStats | None = None,
    ) -> "BCSDMatrix":
        if stats is None:
            stats = bcsd_block_stats(coo, b)
        counts = np.bincount(stats.block_row, minlength=stats.n_block_rows)
        brow_ptr = np.zeros(stats.n_block_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=brow_ptr[1:])
        bval = None
        if with_values and coo.values is not None:
            bval = np.zeros((stats.n_blocks, b), dtype=np.float64)
            bval[stats.nnz_block, stats.nnz_offset] = coo.values
        return cls(
            coo.nrows, coo.ncols, b, brow_ptr, stats.block_start_col, bval, coo.nnz
        )

    # ------------------------------------------------------------------ #
    @property
    def n_blocks(self) -> int:
        return int(self.bcol_ind.shape[0])

    @property
    def nnz_stored(self) -> int:
        return self.n_blocks * self.b

    def index_bytes(self) -> int:
        return INDEX_BYTES * self.n_blocks + self._ptr_bytes(self.brow_ptr.shape[0])

    @property
    def n_block_rows(self) -> int:
        return int(self.brow_ptr.shape[0] - 1)

    def block_descriptor(self) -> tuple:
        return ("bcsd", self.b)

    def x_access_stream(self) -> XAccessStream:
        return XAccessStream(self.bcol_ind, self.b)

    @property
    def has_values(self) -> bool:
        return self.bval is not None

    def segments_of_blocks(self) -> np.ndarray:
        """Segment index of every block (length n_blocks)."""
        return np.repeat(
            np.arange(self.n_block_rows, dtype=np.int64), np.diff(self.brow_ptr)
        )

    # ------------------------------------------------------------------ #
    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        x, out = self._check_spmv_operands(x, out)
        from ..kernels.bcsd_kernels import spmv_bcsd

        return spmv_bcsd(self, x, out)

    def to_coo(self) -> COOMatrix:
        """Extract the true nonzeros (padding zeros are dropped)."""
        if not self.has_values:
            raise FormatError("structure-only BCSD cannot be exported")
        t = np.arange(self.b, dtype=np.int64)[None, :]
        rows = self.segments_of_blocks()[:, None] * self.b + t
        cols = self.bcol_ind[:, None] + t
        mask = (
            (self.bval != 0)
            & (rows < self.nrows)
            & (cols >= 0)
            & (cols < self.ncols)
        )
        return COOMatrix(
            self.nrows, self.ncols, rows[np.broadcast_to(mask, rows.shape)],
            cols[mask], self.bval[mask]
        )

    def to_dense(self) -> np.ndarray:
        if not self.has_values:
            raise FormatError("structure-only BCSD cannot be densified")
        dense = np.zeros(self.shape, dtype=self.bval.dtype)
        segs = self.segments_of_blocks()
        for idx in range(self.n_blocks):
            s = int(segs[idx])
            j0 = int(self.bcol_ind[idx])
            for t in range(self.b):
                i, j = s * self.b + t, j0 + t
                if 0 <= i < self.nrows and 0 <= j < self.ncols:
                    v = self.bval[idx, t]
                    if v != 0.0:
                        dense[i, j] = v
        return dense
