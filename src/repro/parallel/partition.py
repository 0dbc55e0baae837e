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
    "prefix_sums",
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
    if nthreads < 1:
        raise ModelError("nthreads must be >= 1")
    weights = np.asarray(weights, dtype=np.float64)
    n = weights.shape[0]
    if nthreads == 1 or n == 0:
        return RowPartition(np.array([0, n], dtype=np.int64))
    csum = np.cumsum(weights)
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


def stored_per_block_row(part: SparseFormat) -> np.ndarray:
    """Stored elements (padding included) per block row of a format part.

    This is the load-balancing weight the paper uses: true nonzeros plus
    the padding zeros a padded format computes on.
    """
    kind = part.block_descriptor()[0]
    if kind == "csr":
        return np.diff(part.row_ptr).astype(np.float64)
    if kind == "bcsr":
        return np.diff(part.brow_ptr).astype(np.float64) * part.block.elems
    if kind == "bcsd":
        return np.diff(part.brow_ptr).astype(np.float64) * part.b
    if kind == "vbl":
        return np.diff(part.row_ptr).astype(np.float64)
    raise ModelError(f"no partition weights for format kind {kind!r}")


def block_ptr_of(part: SparseFormat) -> np.ndarray:
    """Pointer array mapping block rows to positions in the block stream.

    Used to slice a part's x-access stream per thread: thread ``t`` owns
    stream entries ``ptr[b_t] : ptr[b_{t+1}]``.
    """
    kind = part.block_descriptor()[0]
    if kind in ("bcsr", "bcsd"):
        return part.brow_ptr
    if kind == "csr":
        return part.row_ptr
    if kind == "vbl":
        return part.block_row_ptr
    raise ModelError(f"no block pointer for format kind {kind!r}")
