"""Multithreading substrate: static row-wise, padding-aware partitioning."""

from .partition import (
    RowPartition,
    balanced_partition,
    stored_per_block_row,
)
from .threaded import ThreadedSpMV, row_block_slice

__all__ = [
    "RowPartition",
    "balanced_partition",
    "stored_per_block_row",
    "ThreadedSpMV",
    "row_block_slice",
]
