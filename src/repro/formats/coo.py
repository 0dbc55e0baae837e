"""Canonical coordinate (COO) container.

Every matrix in this package starts life as a :class:`COOMatrix`: the
synthetic generators emit COO, the Matrix Market reader emits COO and every
blocked-format converter consumes COO.  The container is *canonical*:
entries are sorted row-major, duplicates are summed, explicit zeros are kept
(they are legitimate nonzero *positions*; the paper's formats store
positions, not values).
"""

from __future__ import annotations

import numpy as np

from ..errors import FormatError, ShapeMismatchError
from ..types import INDEX_BYTES, Precision
from .base import SparseFormat, XAccessStream

__all__ = ["COOMatrix"]


class COOMatrix(SparseFormat):
    """An immutable, canonicalised coordinate-format sparse matrix."""

    kind = "coo"
    display_name = "COO"

    def __init__(
        self,
        nrows: int,
        ncols: int,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray | None = None,
        *,
        canonical: bool = False,
    ) -> None:
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        if rows.shape != cols.shape:
            raise ShapeMismatchError(
                f"rows and cols differ in length: {rows.shape} vs {cols.shape}"
            )
        if values is not None:
            values = np.asarray(values, dtype=np.float64).ravel()
            if values.shape != rows.shape:
                raise ShapeMismatchError(
                    f"values length {values.shape} != index length {rows.shape}"
                )
        if rows.size:
            if rows.min(initial=0) < 0 or cols.min(initial=0) < 0:
                raise FormatError("negative indices in COO data")
            if rows.max(initial=-1) >= nrows or cols.max(initial=-1) >= ncols:
                raise FormatError(
                    "indices exceed matrix shape "
                    f"({nrows}, {ncols}): max ({rows.max()}, {cols.max()})"
                )
        if not canonical:
            rows, cols, values = _canonicalise(nrows, ncols, rows, cols, values)
        super().__init__(nrows, ncols, rows.shape[0])
        self.rows = rows
        self.cols = cols
        self.values = values
        self.rows.setflags(write=False)
        self.cols.setflags(write=False)
        if self.values is not None:
            self.values.setflags(write=False)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "COOMatrix":
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ShapeMismatchError("from_dense expects a 2-D array")
        rows, cols = np.nonzero(dense)
        return cls(dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols])

    @classmethod
    def eye(cls, n: int) -> "COOMatrix":
        idx = np.arange(n, dtype=np.int64)
        return cls(n, n, idx, idx, np.ones(n), canonical=True)

    def with_values(self, values: np.ndarray) -> "COOMatrix":
        """Return a copy carrying ``values`` (same sparsity pattern)."""
        return COOMatrix(
            self.nrows, self.ncols, self.rows, self.cols, values, canonical=True
        )

    def pattern_only(self) -> "COOMatrix":
        """Return a structure-only copy (drops the value array)."""
        if self.values is None:
            return self
        return COOMatrix(
            self.nrows, self.ncols, self.rows, self.cols, None, canonical=True
        )

    # ------------------------------------------------------------------ #
    # SparseFormat interface
    # ------------------------------------------------------------------ #
    @property
    def nnz_stored(self) -> int:
        return self.nnz

    def index_bytes(self) -> int:
        # rows + cols, 4-byte entries (COO is never a candidate format in the
        # paper, but the accounting keeps it comparable).
        return 2 * INDEX_BYTES * self.nnz

    @property
    def n_blocks(self) -> int:
        return self.nnz

    @property
    def n_block_rows(self) -> int:
        return self.nrows

    def block_descriptor(self) -> tuple:
        return ("coo", None)

    def x_access_stream(self) -> XAccessStream:
        return XAccessStream(self.cols, 1)

    @property
    def has_values(self) -> bool:
        return self.values is not None

    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        x, out = self._check_spmv_operands(x, out)
        np.add.at(out, self.rows, self.values * x[self.cols])
        return out

    def to_dense(self) -> np.ndarray:
        if not self.has_values:
            raise FormatError("structure-only COO cannot be densified")
        dense = np.zeros(self.shape, dtype=self.values.dtype)
        dense[self.rows, self.cols] = self.values
        return dense

    # ------------------------------------------------------------------ #
    # Analysis helpers used by converters and statistics
    # ------------------------------------------------------------------ #
    def to_coo(self) -> "COOMatrix":
        return self

    def row_counts(self) -> np.ndarray:
        """nnz per row (length nrows)."""
        return np.bincount(self.rows, minlength=self.nrows).astype(np.int64)

    def working_set(self, precision: Precision | str = Precision.DP) -> int:
        return super().working_set(precision)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, COOMatrix):
            return NotImplemented
        same_pattern = (
            self.shape == other.shape
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.cols, other.cols)
        )
        if not same_pattern:
            return False
        if (self.values is None) != (other.values is None):
            return False
        return self.values is None or np.array_equal(self.values, other.values)

    __hash__ = None  # type: ignore[assignment]


#: Largest ``nrows * ncols`` whose row-major keys ``row * ncols + col``
#: (below ``nrows * ncols``) and ``ncols`` itself fit an int64.
_KEY_LIMIT = int(np.iinfo(np.int64).max)


def _canonicalise(
    nrows: int,
    ncols: int,
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Sort row-major and merge duplicate coordinates (summing values).

    Sorts one int64 key ``row * ncols + col``; a stable sort when values
    ride along, so duplicates are summed in input order, exactly as the
    ``lexsort`` the key replaces (kept for shapes whose keys overflow).
    """
    if rows.size == 0:
        return rows, cols, values
    if int(nrows) * int(ncols) <= _KEY_LIMIT:
        key = rows * np.int64(ncols) + cols
        if values is None:
            key = np.sort(key)
        else:
            order = np.argsort(key, kind="stable")
            key = key[order]
            values = values[order]
        rows, cols = np.divmod(key, np.int64(ncols))
        dup = key[1:] == key[:-1]
    else:
        order = np.lexsort((cols, rows))
        rows = rows[order]
        cols = cols[order]
        if values is not None:
            values = values[order]
        dup = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
    if dup.any():
        keep = np.concatenate(([True], ~dup))
        if values is not None:
            # Sum runs of duplicates into the first element of each run.
            group = np.cumsum(keep) - 1
            summed = np.zeros(int(group[-1]) + 1, dtype=np.float64)
            np.add.at(summed, group, values)
            values = summed
        rows = rows[keep]
        cols = cols[keep]
    return rows, cols, values
