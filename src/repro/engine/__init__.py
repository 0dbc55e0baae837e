"""Parallel, resumable, fault-tolerant sweep execution.

The engine decomposes a sweep into per-matrix shard tasks (:mod:`.tasks`),
runs them on a worker pool with retry and quarantine (:mod:`.pool`),
persists each completed shard atomically so interrupted sweeps resume
(:mod:`.shards`), and reports progress/metrics through a pluggable event
bus (:mod:`.events`).  See ``docs/engine.md`` for the architecture.
"""

from .events import (
    CollectingReporter,
    EventBus,
    JsonlReporter,
    ProgressReporter,
    Reporter,
)
from .pool import SweepEngine
from .shards import SHARD_SCHEMA, ShardStore
from .tasks import ShardTask, plan_shards, run_shard_task

__all__ = [
    "SweepEngine",
    "ShardTask",
    "plan_shards",
    "run_shard_task",
    "ShardStore",
    "SHARD_SCHEMA",
    "EventBus",
    "Reporter",
    "JsonlReporter",
    "ProgressReporter",
    "CollectingReporter",
]
