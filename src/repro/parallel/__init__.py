"""Static row-wise, padding-aware partitioning of a format's block rows
across threads (the paper's Section V-A scheme)."""

from .partition import (
    RowPartition,
    balanced_partition,
    stored_per_block_row,
)

__all__ = [
    "RowPartition",
    "balanced_partition",
    "stored_per_block_row",
]
