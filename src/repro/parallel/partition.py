"""Static row-wise partitioning for multithreaded SpMV (paper Section V-A).

The paper splits the input matrix row-wise into as many contiguous pieces
as threads, balancing the number of nonzeros per thread and — for the
padded formats — counting the padding zeros too, since the kernel computes
on them all the same.  Partitioning happens at *block-row* granularity so a
block is never split across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ModelError
from ..formats.base import SparseFormat

__all__ = [
    "RowPartition",
    "balanced_partition",
    "cumulative_partition",
    "cumulative_weights",
    "prefix_sums",
    "row_counts",
    "stored_per_block_row",
]


def prefix_sums(per_row: np.ndarray) -> np.ndarray:
    """Running float64 sum of a per-block-row quantity, with a leading 0."""
    return np.concatenate(([0.0], np.cumsum(per_row, dtype=np.float64)))


@dataclass(frozen=True)
class RowPartition:
    """A contiguous split of block rows across threads.

    ``boundaries`` has ``nthreads + 1`` entries; thread ``t`` owns block
    rows ``boundaries[t] : boundaries[t+1]``.
    """

    boundaries: np.ndarray

    @property
    def nthreads(self) -> int:
        return int(self.boundaries.shape[0] - 1)

    def slices(self) -> list[slice]:
        b = self.boundaries
        return [slice(int(b[t]), int(b[t + 1])) for t in range(self.nthreads)]

    def segment_sums(self, per_row: np.ndarray) -> np.ndarray:
        """Sum a per-block-row quantity over each thread's rows."""
        return self.prefix_segment_sums(prefix_sums(per_row))

    def prefix_segment_sums(self, prefix: np.ndarray) -> np.ndarray:
        """:meth:`segment_sums` read off a precomputed :func:`prefix_sums`."""
        return prefix[self.boundaries[1:]] - prefix[self.boundaries[:-1]]


def balanced_partition(weights: np.ndarray, nthreads: int) -> RowPartition:
    """Split block rows into ``nthreads`` contiguous, weight-balanced parts.

    Uses the quantile rule on the cumulative weight (the paper's static
    scheme): boundary ``t`` is placed where the running weight first reaches
    ``t/nthreads`` of the total.
    """
    return cumulative_partition(
        np.cumsum(np.asarray(weights, dtype=np.float64)), nthreads
    )


def cumulative_partition(csum: np.ndarray, nthreads: int) -> RowPartition:
    """:func:`balanced_partition` read off the running weight ``csum``
    (``np.cumsum`` of the weights), so one running sum serves every
    thread count."""
    if nthreads < 1:
        raise ModelError("nthreads must be >= 1")
    n = csum.shape[0]
    if nthreads == 1 or n == 0:
        return RowPartition(np.array([0, n], dtype=np.int64))
    total = csum[-1]
    if total <= 0:
        # Degenerate: split rows evenly.
        bounds = np.linspace(0, n, nthreads + 1).round().astype(np.int64)
        return RowPartition(bounds)
    targets = total * np.arange(1, nthreads) / nthreads
    inner = np.searchsorted(csum, targets, side="left") + 1
    bounds = np.concatenate(([0], np.minimum(inner, n), [n])).astype(np.int64)
    # Boundaries must be non-decreasing (they are, by construction).
    return RowPartition(bounds)


def row_counts(part: SparseFormat, ptr: str) -> np.ndarray:
    """``np.diff`` of the part's ``ptr`` row-pointer array as float64.

    Memoised on the part and read-only: the row costs of every (impl,
    precision) and the partition weights all read the same counts.
    """
    memo = part.__dict__.setdefault("_row_counts", {})
    counts = memo.get(ptr)
    if counts is None:
        pointer = getattr(part, ptr)
        counts = np.empty(pointer.shape[0] - 1, dtype=np.float64)
        # Integer differences below 2^53 convert exactly.
        np.subtract(pointer[1:], pointer[:-1], out=counts, casting="unsafe")
        counts.flags.writeable = False
        memo[ptr] = counts
    return counts


def _weight_pointer(part: SparseFormat) -> tuple[str, int]:
    """The row pointer that counts a part's stored items per block row,
    and the stored elements (padding included) of one item."""
    kind = part.block_descriptor()[0]
    if kind in ("csr", "vbl"):
        return "row_ptr", 1
    if kind == "bcsr":
        return "brow_ptr", part.block.elems
    if kind == "bcsd":
        return "brow_ptr", part.b
    raise ModelError(f"no partition weights for format kind {kind!r}")


def stored_per_block_row(part: SparseFormat) -> np.ndarray:
    """Stored elements (padding included) per block row of a format part.

    This is the load-balancing weight the paper uses: true nonzeros plus
    the padding zeros a padded format computes on.  Read-only for CSR and
    1D-VBL, whose weights are the memoised element counts themselves.
    """
    ptr, elems = _weight_pointer(part)
    counts = row_counts(part, ptr)
    return counts if elems == 1 else counts * elems


def cumulative_weights(part: SparseFormat) -> np.ndarray:
    """``np.cumsum(stored_per_block_row(part))``, read off the row pointer.

    Every weight and partial sum is an integer below 2^53, so each float64
    addition of the running sum is exact and the sum up to block row ``i``
    is the pointer's ``ptr[i + 1] - ptr[0]`` times the elements per item.
    """
    ptr, elems = _weight_pointer(part)
    pointer = getattr(part, ptr)
    csum = np.empty(pointer.shape[0] - 1, dtype=np.float64)
    np.subtract(pointer[1:], pointer[0], out=csum, casting="unsafe")
    if elems != 1:
        csum *= elems
    return csum
