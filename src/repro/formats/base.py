"""Abstract base class shared by every sparse storage format.

A *format* in this package is a compiled, read-only representation of a
sparse matrix that knows three things:

1. how to multiply itself with a vector (``spmv``) — the functional side,
2. how many bytes of each kind it occupies (``working_set``) — the paper's
   ``ws`` quantity, which drives the MEM part of every performance model,
3. what its *compute structure* looks like (number of blocks, block
   descriptor, block-row count, input-vector access stream) — which drives
   the compute and latency parts of the machine simulator.

Formats can be built **structure-only** (``values is None``): conversions in
the autotuning sweep never materialise the value arrays, because neither the
performance models nor the simulator need them.  Calling :meth:`spmv` on a
structure-only format raises :class:`~repro.errors.FormatError`.
"""

from __future__ import annotations

import abc
from typing import ClassVar, Sequence

import numpy as np

from ..errors import FormatError, ShapeMismatchError
from ..types import INDEX_BYTES, Precision

__all__ = ["SparseFormat", "XAccessStream"]


class XAccessStream:
    """The input-vector access pattern of a format, in execution order.

    ``starts`` holds the first column touched by each consecutive access and
    ``width`` how many consecutive columns each access covers (1 for CSR,
    ``c`` for an ``r x c`` BCSR block, ``b`` for a BCSD diagonal).  Formats
    with variable access widths (1D-VBL) pass a per-access ``widths`` array
    instead.  The cache model in :mod:`repro.machine.cache` consumes the
    *element-granularity* line stream, so the estimate depends on which x
    elements are gathered (padding included — padded blocks really do load
    those x lines) and in which order, not on how a format batches them.
    """

    __slots__ = ("starts", "width", "widths")

    def __init__(
        self,
        starts: np.ndarray,
        width: int,
        widths: np.ndarray | None = None,
    ) -> None:
        self.starts = np.asarray(starts, dtype=np.int64)
        self.width = int(width)
        self.widths = (
            None if widths is None else np.asarray(widths, dtype=np.int64)
        )
        if self.widths is not None and self.widths.shape != self.starts.shape:
            raise ValueError("widths must match starts in length")

    def __len__(self) -> int:
        return int(self.starts.shape[0])

    @property
    def n_elements(self) -> int:
        """Total x elements touched (accesses x widths)."""
        if self.widths is not None:
            return int(self.widths.sum())
        return len(self) * self.width

    def element_columns(self) -> np.ndarray:
        """The column of every x element touched, in execution order."""
        if self.widths is not None:
            # Variable widths: repeat starts and add the within-run offset.
            total = self.n_elements
            reps = np.repeat(self.starts, self.widths)
            first = np.concatenate(([0], np.cumsum(self.widths)[:-1]))
            offsets = np.arange(total, dtype=np.int64) - np.repeat(
                first, self.widths
            )
            return reps + offsets
        if self.width == 1:
            return self.starts
        return (
            self.starts[:, None] + np.arange(self.width, dtype=np.int64)
        ).ravel()

    def line_ids(self, line_elems: int) -> np.ndarray:
        """Cache-line id of every x *element* touched, in execution order.

        Negative columns (BCSD edge diagonals begin off-matrix) clip to
        line 0 — the kernel masks those lanes but the hardware gather of
        the surviving lanes starts at the first in-bounds line.
        """
        if line_elems < 1:
            raise ValueError("line_elems must be >= 1")
        return np.maximum(self.element_columns(), 0) // line_elems


class SparseFormat(abc.ABC):
    """Base class for all sparse matrix storage formats."""

    #: Short machine-readable kind, e.g. ``"csr"``, ``"bcsr"``; used as the
    #: key into kernel cost tables and profiles.
    kind: ClassVar[str] = "abstract"

    #: Human-readable name as used in the paper's tables.
    display_name: ClassVar[str] = "abstract"

    def __init__(self, nrows: int, ncols: int, nnz: int) -> None:
        if nrows < 0 or ncols < 0:
            raise ShapeMismatchError(f"negative matrix shape ({nrows}, {ncols})")
        if nnz < 0:
            raise FormatError(f"negative nnz {nnz}")
        self._nrows = int(nrows)
        self._ncols = int(ncols)
        self._nnz = int(nnz)

    # ------------------------------------------------------------------ #
    # Shape and population
    # ------------------------------------------------------------------ #
    @property
    def nrows(self) -> int:
        """Number of matrix rows."""
        return self._nrows

    @property
    def ncols(self) -> int:
        """Number of matrix columns."""
        return self._ncols

    @property
    def shape(self) -> tuple[int, int]:
        return (self._nrows, self._ncols)

    @property
    def nnz(self) -> int:
        """Number of *true* nonzero elements represented (excludes padding)."""
        return self._nnz

    @property
    @abc.abstractmethod
    def nnz_stored(self) -> int:
        """Number of stored value entries, *including* padding zeros."""

    @property
    def padding(self) -> int:
        """Number of explicit zero entries introduced by padding."""
        return self.nnz_stored - self.nnz

    @property
    def padding_ratio(self) -> float:
        """``nnz_stored / nnz`` (1.0 means no padding)."""
        if self.nnz == 0:
            return 1.0
        return self.nnz_stored / self.nnz

    # ------------------------------------------------------------------ #
    # Working set (the paper's ``ws``)
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def index_bytes(self) -> int:
        """Bytes occupied by all index structures (4-byte entries)."""

    def value_bytes(self, precision: Precision | str) -> int:
        """Bytes occupied by the stored values at ``precision``."""
        return self.nnz_stored * Precision.coerce(precision).itemsize

    def vector_bytes(self, precision: Precision | str) -> int:
        """Bytes of the input (x) and output (y) vectors for one pass."""
        e = Precision.coerce(precision).itemsize
        return e * (self._ncols + self._nrows)

    def working_set(self, precision: Precision | str) -> int:
        """Total working set in bytes: values + indices + x + y.

        Matches the accounting of Table I in the paper (verified against the
        published MiB figures for the ``dense`` and ``random`` matrices).
        """
        p = Precision.coerce(precision)
        return self.value_bytes(p) + self.index_bytes() + self.vector_bytes(p)

    def working_set_matrix_only(self, precision: Precision | str) -> int:
        """Working set excluding the x/y vectors (values + indices)."""
        return self.value_bytes(precision) + self.index_bytes()

    # ------------------------------------------------------------------ #
    # Compute structure (consumed by cost tables and the simulator)
    # ------------------------------------------------------------------ #
    @property
    @abc.abstractmethod
    def n_blocks(self) -> int:
        """Number of compute units nb (blocks; CSR: nnz)."""

    @property
    @abc.abstractmethod
    def n_block_rows(self) -> int:
        """Number of (block-)rows the kernel's outer loop iterates over."""

    @abc.abstractmethod
    def block_descriptor(self) -> tuple:
        """Hashable descriptor of the block type, e.g. ``("bcsr", (2, 3))``.

        Used as the key into kernel cost tables and block profiles
        (:class:`repro.core.profiling.BlockProfile`).
        """

    @abc.abstractmethod
    def x_access_stream(self) -> XAccessStream:
        """Input-vector accesses in execution order (for the cache model)."""

    def submatrices(self) -> Sequence["SparseFormat"]:
        """The k submatrices of the decomposition (just ``self`` if k = 1)."""
        return (self,)

    # ------------------------------------------------------------------ #
    # Functional side
    # ------------------------------------------------------------------ #
    @property
    @abc.abstractmethod
    def has_values(self) -> bool:
        """Whether value arrays were materialised (False for sweep builds)."""

    @abc.abstractmethod
    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Compute ``y = A @ x`` (accumulating into ``out`` if given)."""

    @abc.abstractmethod
    def to_dense(self) -> np.ndarray:
        """Expand to a dense 2-D array (tests and tiny examples only)."""

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def _check_spmv_operands(
        self, x: np.ndarray, out: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        if not self.has_values:
            raise FormatError(
                f"{self.kind} instance is structure-only; rebuild with values "
                "to run spmv"
            )
        x = np.asarray(x)
        if x.ndim != 1 or x.shape[0] != self._ncols:
            raise ShapeMismatchError(
                f"x has shape {x.shape}, expected ({self._ncols},)"
            )
        if out is None:
            out = np.zeros(self._nrows, dtype=np.result_type(x.dtype, np.float32))
        elif out.shape != (self._nrows,):
            raise ShapeMismatchError(
                f"out has shape {out.shape}, expected ({self._nrows},)"
            )
        return x, out

    @staticmethod
    def _ptr_bytes(n_ptrs: int) -> int:
        return INDEX_BYTES * n_ptrs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self._nrows}x{self._ncols} "
            f"nnz={self._nnz} stored={self.nnz_stored}>"
        )
