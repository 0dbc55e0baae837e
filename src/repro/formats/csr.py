"""Compressed Sparse Row (CSR) — the baseline format of the paper.

CSR stores an ``n x m`` matrix with ``nnz`` nonzeros in three arrays:
``val`` (nnz values), ``col_ind`` (nnz column indices) and ``row_ptr``
(n + 1 pointers into ``val``).  The performance models treat CSR as a
degenerate blocking method with 1x1 blocks and ``nb = nnz``.
"""

from __future__ import annotations

import numpy as np

from ..errors import FormatError
from ..types import INDEX_BYTES
from .base import SparseFormat, XAccessStream
from .coo import COOMatrix

__all__ = ["CSRMatrix"]


class CSRMatrix(SparseFormat):
    """Compressed Sparse Row storage."""

    kind = "csr"
    display_name = "CSR"

    def __init__(
        self,
        nrows: int,
        ncols: int,
        row_ptr: np.ndarray,
        col_ind: np.ndarray,
        values: np.ndarray | None = None,
    ) -> None:
        row_ptr = np.asarray(row_ptr, dtype=np.int64)
        col_ind = np.asarray(col_ind, dtype=np.int64)
        if row_ptr.shape != (nrows + 1,):
            raise FormatError(
                f"row_ptr has length {row_ptr.shape[0]}, expected {nrows + 1}"
            )
        if row_ptr[0] != 0 or row_ptr[-1] != col_ind.shape[0]:
            raise FormatError("row_ptr does not bracket col_ind")
        if np.any(np.diff(row_ptr) < 0):
            raise FormatError("row_ptr must be non-decreasing")
        if values is not None:
            values = np.asarray(values)
            if values.shape != col_ind.shape:
                raise FormatError("values and col_ind lengths differ")
        super().__init__(nrows, ncols, col_ind.shape[0])
        self.row_ptr = row_ptr
        self.col_ind = col_ind
        self.values = values

    # ------------------------------------------------------------------ #
    @classmethod
    def from_coo(cls, coo: COOMatrix, *, with_values: bool = True) -> "CSRMatrix":
        counts = np.bincount(coo.rows, minlength=coo.nrows)
        row_ptr = np.zeros(coo.nrows + 1, dtype=np.int64)
        np.cumsum(counts, out=row_ptr[1:])
        values = coo.values if (with_values and coo.values is not None) else None
        # COO is canonical (row-major sorted), so col_ind is already ordered.
        return cls(coo.nrows, coo.ncols, row_ptr, coo.cols, values)

    def to_coo(self) -> COOMatrix:
        rows = np.repeat(
            np.arange(self.nrows, dtype=np.int64), np.diff(self.row_ptr)
        )
        return COOMatrix(
            self.nrows, self.ncols, rows, self.col_ind, self.values, canonical=True
        )

    # ------------------------------------------------------------------ #
    @property
    def nnz_stored(self) -> int:
        return self.nnz

    def index_bytes(self) -> int:
        return INDEX_BYTES * self.nnz + self._ptr_bytes(self.nrows + 1)

    @property
    def n_blocks(self) -> int:
        # CSR as a degenerate 1x1 blocking: one "block" per element.
        return self.nnz

    @property
    def n_block_rows(self) -> int:
        return self.nrows

    def block_descriptor(self) -> tuple:
        return ("csr", None)

    def x_access_stream(self) -> XAccessStream:
        return XAccessStream(self.col_ind, 1)

    @property
    def has_values(self) -> bool:
        return self.values is not None

    def row_lengths(self) -> np.ndarray:
        return np.diff(self.row_ptr)

    # ------------------------------------------------------------------ #
    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        x, out = self._check_spmv_operands(x, out)
        from ..kernels.csr_kernels import spmv_csr

        return spmv_csr(self, x, out)

    def to_dense(self) -> np.ndarray:
        if not self.has_values:
            raise FormatError("structure-only CSR cannot be densified")
        return self.to_coo().to_dense()
