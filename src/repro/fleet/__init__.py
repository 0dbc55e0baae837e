"""repro.fleet — a multi-process advisor fleet plus its load harness.

The fleet composes the hardened single-node server from :mod:`repro.serve`
N times behind a content-sharded balancer:

* :mod:`repro.fleet.worker` — one supervised ``repro serve`` subprocess
  (ephemeral port, private cache partition, shared profile store,
  ``/readyz``-gated warmup);
* :mod:`repro.fleet.supervisor` — slot ownership, crash-restart with
  backoff, warm-replica handoff, graceful whole-fleet drain;
* :mod:`repro.fleet.balancer` — fingerprint-sharded routing with
  retry-on-next-worker, fan-in ``/stats`` aggregation, and
  :func:`serve_fleet`, the one start/stop lifecycle (bind, spawn, serve;
  stop serving, drain);
* :mod:`repro.fleet.replay` / :mod:`repro.fleet.loadgen` — deterministic
  seeded traffic plans (steady / skew / flood / chaos), the closed-loop
  generator that replays them over real sockets, and :func:`drive`, the
  one start / warm / replay / drain driver for a lone worker or a fleet.

CLI entry points: ``python -m repro fleet --workers N`` and
``python -m repro loadtest --mix steady --seed 1337``.  Architecture
notes live in ``docs/serving.md``.
"""

from .balancer import (
    BalancerRequestHandler,
    FleetBalancer,
    merge_stats,
    routing_fingerprint,
    serve_fleet,
    shard_for,
)
from .loadgen import drive, percentile, post_advise, run_load, warm_fleet
from .replay import (
    CHAOS_FAULT_PLAN,
    DEFAULT_MATRICES,
    MIXES,
    ReplayPlan,
    RequestSpec,
    build_plan,
)
from .supervisor import FleetConfig, FleetSupervisor, WorkerSlot
from .worker import WorkerProcess, probe_ready, wait_until_ready

__all__ = [
    "BalancerRequestHandler",
    "FleetBalancer",
    "merge_stats",
    "routing_fingerprint",
    "serve_fleet",
    "shard_for",
    "drive",
    "percentile",
    "post_advise",
    "run_load",
    "warm_fleet",
    "CHAOS_FAULT_PLAN",
    "DEFAULT_MATRICES",
    "MIXES",
    "ReplayPlan",
    "RequestSpec",
    "build_plan",
    "FleetConfig",
    "FleetSupervisor",
    "WorkerSlot",
    "WorkerProcess",
    "probe_ready",
    "wait_until_ready",
]
