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
    "pointer_partition",
    "prefix_sums",
    "stored_per_block_row",
    "weight_pointer",
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

    def segment_sums(self, per_row: np.ndarray) -> np.ndarray:
        """Sum a per-block-row quantity over each thread's rows."""
        prefix = prefix_sums(per_row)
        return prefix[self.boundaries[1:]] - prefix[self.boundaries[:-1]]


def balanced_partition(weights: np.ndarray, nthreads: int) -> RowPartition:
    """Split block rows into ``nthreads`` contiguous, weight-balanced parts.

    Uses the quantile rule on the cumulative weight (the paper's static
    scheme): boundary ``t`` is placed where the running weight first reaches
    ``t/nthreads`` of the total.
    """
    if nthreads < 1:
        raise ModelError("nthreads must be >= 1")
    csum = np.cumsum(np.asarray(weights, dtype=np.float64))
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


def pointer_partition(
    ptr: np.ndarray, elems: int, nthreads: int
) -> RowPartition:
    """:func:`balanced_partition` of the weights ``np.diff(ptr) * elems``,
    by an integer search on ``ptr`` for their running sum
    ``(ptr[1:] - ptr[0]) * elems``.

    Each running weight is an integer below 2^53, so it is exact as a
    float64, and it reaches a target exactly when its pointer count
    reaches ``q``, the least integer with ``q * elems >= target``.  That
    ``q`` is ``ceil(target / elems)`` computed in floats: the quotient is
    correctly rounded and integers are representable, so it is at most
    ``q`` when ``(q - 1) * elems < target <= q * elems``, and above
    ``q - 1`` because ``target`` is at least one ulp of
    ``(q - 1) * elems`` above it, more than ``elems`` times half an ulp
    of ``q - 1``.  (Every target is at least ``1 / nthreads``, so no
    quotient underflows.)  No float array of the rows is built.
    """
    if nthreads < 1:
        raise ModelError("nthreads must be >= 1")
    n = ptr.shape[0] - 1
    if nthreads == 1 or n == 0:
        return RowPartition(np.array([0, n], dtype=np.int64))
    total = float((int(ptr[-1]) - int(ptr[0])) * elems)
    if total <= 0:
        # Degenerate: split rows evenly.
        bounds = np.linspace(0, n, nthreads + 1).round().astype(np.int64)
        return RowPartition(bounds)
    targets = total * np.arange(1, nthreads) / nthreads
    # q never exceeds the pointer's total count, so the key fits its dtype.
    keys = ptr[0] + np.ceil(targets / elems).astype(ptr.dtype)
    inner = np.searchsorted(ptr[1:], keys, side="left") + 1
    bounds = np.concatenate(([0], np.minimum(inner, n), [n])).astype(np.int64)
    return RowPartition(bounds)


def weight_pointer(part: SparseFormat) -> tuple[np.ndarray, int]:
    """The row pointer that counts a part's stored items per block row,
    and the stored elements (padding included) of one item."""
    kind = part.block_descriptor()[0]
    if kind in ("csr", "vbl"):
        return part.row_ptr, 1
    if kind == "bcsr":
        return part.brow_ptr, part.block.elems
    if kind == "bcsd":
        return part.brow_ptr, part.b
    raise ModelError(f"no partition weights for format kind {kind!r}")


def stored_per_block_row(part: SparseFormat) -> np.ndarray:
    """Stored elements (padding included) per block row of a format part.

    This is the load-balancing weight the paper uses: true nonzeros plus
    the padding zeros a padded format computes on.
    """
    ptr, elems = weight_pointer(part)
    counts = np.empty(ptr.shape[0] - 1, dtype=np.float64)
    # Integer differences below 2^53 convert exactly.
    np.subtract(ptr[1:], ptr[:-1], out=counts, casting="unsafe")
    if elems != 1:
        counts *= elems
    return counts
