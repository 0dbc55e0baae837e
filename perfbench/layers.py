"""Which end-to-end metric each per-layer metric should move, and where.

Written down before any optimisation is measured, so that a later change
can cite its prediction by name: "cutting ``suite.build_s`` should raise
``rate_per_s`` on advise-hot and leave advise-cold and sweep flat".

End-to-end names are the ones in BENCHMARK.json; per workload they mean:

==============  =====================  =====================  ==============
metric          advise-cold            advise-hot             sweep
==============  =====================  =====================  ==============
``p50_s``       upload latency p50     hit latency p50 in     engine pass
                (cold_p50_s)           the closed-loop        wall p50
                                       saturation phase
``tail_s``      highest percentile     same percentile rule,  slowest engine
                with 10 samples        same phase             pass
                beyond (cold_p90_s)
``rate_per_s``  uploads/s, 1 client    closed-loop            records/s
                                       saturation             (sweep_cells_
                                       (hot_max_rps)          per_s)
==============  =====================  =====================  ==============

``setup_s`` applies to every workload; ``error_ratio`` is printed on
every run and carried by the ``failed`` / ``attempted`` fields of the
result line.  The open loop's latencies from due time at the fixed
offered rate (hot_p50_ms, hot_p95_ms) and peak memory are printed as
notes and not bounded: on a 2-vCPU host whose own speed drifts, the
due-time latencies spread 25-40% between seeds, and the advise-cold
server's peak moves by 1.7x between runs of the same inputs with glibc's
allocator state (it is traced as the ``rss.*`` layer metrics).
"""

from __future__ import annotations

COLD, HOT, SWEEP = "advise-cold", "advise-hot", "sweep"
LATENCY = ("p50_s", "tail_s")

#: per-layer metric -> (workloads it is measured on, end-to-end metrics
#: it should move there).
MOVES: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "server.decode_s": ((COLD,), LATENCY),
    "mmio.parse_s": ((COLD,), LATENCY),
    "suite.build_s": ((HOT, SWEEP), ("p50_s", "tail_s", "rate_per_s")),
    "features.fingerprint_s": ((COLD, HOT), ("p50_s",)),
    "features.extract_s": ((COLD,), ("p50_s",)),
    "pruning.prune_s": ((COLD,), ("p50_s",)),
    "pruning.kept_ratio": ((COLD,), ("p50_s",)),
    "selection.convert_s": ((COLD,), LATENCY),
    "selection.stats_s": ((COLD,), LATENCY),
    "selection.models_s": ((COLD,), LATENCY),
    "selection.candidates": ((COLD,), LATENCY),
    "store.load_s": ((COLD, HOT), ("p50_s",)),
    "store.hit_ratio": ((COLD, HOT), ("p50_s",)),
    "store.save_s": ((COLD, HOT), ("p50_s",)),
    "service.elapsed_s": ((COLD, HOT), LATENCY),
    "service.other_s": ((COLD, HOT), LATENCY),
    "server.overhead_ms": ((COLD, HOT), ("p50_s",)),
    "server.shed": ((COLD, HOT), ("tail_s",)),
    "server.timeouts": ((COLD, HOT), ("tail_s",)),
    "fleet.hop_ms": ((HOT,), ("p50_s",)),
    "fleet.busiest_share": ((HOT,), ("rate_per_s", "tail_s")),
    "fleet.retries": ((HOT,), ("rate_per_s", "tail_s")),
    "fleet.restarts": ((HOT,), ("rate_per_s", "tail_s")),
    "profiling.calibrate_s": ((COLD, SWEEP), ("setup_s",)),
    "profiling.disk_load_s": ((COLD, HOT, SWEEP), ("setup_s",)),
    "batch.plan_s": ((SWEEP,), ("rate_per_s", "p50_s")),
    "batch.simulate_s": ((SWEEP,), ("rate_per_s", "p50_s", "tail_s")),
    "batch.models_s": ((SWEEP,), ("rate_per_s",)),
    "batch.x_miss_cells": ((SWEEP,), ("rate_per_s", "tail_s")),
    "engine.shard_busy_s": ((SWEEP,), ("rate_per_s",)),
    "engine.queue_wait_s": ((SWEEP,), ("rate_per_s",)),
    "engine.utilization": ((SWEEP,), ("rate_per_s",)),
    "engine.retries": ((SWEEP,), ("rate_per_s",)),
    "shards.save_s": ((SWEEP,), ("rate_per_s",)),
    "rss.serve_mb": ((COLD,), ()),
    "rss.fleet_mb": ((HOT,), ()),
    "rss.fleet_workers_mb": ((HOT,), ()),
    "rss.engine_mb": ((SWEEP,), ()),
    "rss.engine_workers_mb": ((SWEEP,), ()),
    "rss.loadgen_mb": ((COLD, HOT, SWEEP), ()),
    "trace.other_s": ((COLD, HOT, SWEEP), LATENCY),
    "trace.other_share": ((COLD, HOT, SWEEP), ()),
    "trace.overhead_s": ((COLD, HOT, SWEEP), ()),
}
