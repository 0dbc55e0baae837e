"""Reference implementations: the executable specifications of the simulator.

Production code never imports this module (a tier-1 test enforces it);
the test suite and ``benchmarks/bench_sweep.py`` do, to pin the fast
paths to these slower, unfactored ones bit for bit:

* :func:`estimate_stream_misses_windowed` — the x-miss estimator as the
  original per-window Python loop (``np.unique`` per window, ``np.isin``
  per window pair); :func:`repro.machine.cache.estimate_stream_misses`
  and, on ``stream.line_ids(line_elems)``,
  :func:`repro.machine.cache.estimate_x_access_misses` must return
  exactly its count.
* :class:`LRUCache` — an exact, tiny, deliberately slow fully-associative
  LRU simulator that sanity-checks the estimators' ordering properties on
  small streams.
* :func:`simulate_reference` — one simulator cell, recomputing every
  structure-dependent quantity on each call (whole-part row cycles, a
  float running weight and a whole-part prefix per part) through the
  windowed estimator; :func:`repro.machine.executor.simulate_cells`,
  which searches the row pointer and sums row costs only up to the
  thread boundaries, must reproduce it float for float.
* :func:`reference_sweep` — the sweep through ``build_candidate``, the
  per-candidate ``MODELS[...].predict`` and :func:`simulate_reference`,
  assembled into records by the harness's own
  :func:`~repro.bench.harness.assemble_matrix_sweep`; its
  ``canonical_json()`` must equal the production sweep's.

Do not optimize anything here.  Like the simulator it specifies, this is
deterministic model code: it reads no wall clock (phase timings go
through an injected ``clock``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

import numpy as np

from .bench.harness import (
    MatrixSweep,
    SweepConfig,
    SweepResult,
    assemble_matrix_sweep,
)
from .core.candidates import candidate_space
from .core.profiling import ProfileCache
from .core.selection import evaluate_candidates
from .errors import ModelError
from .formats.base import SparseFormat
from .machine.cache import x_budget_lines
from .machine.executor import SimResult
from .machine.machine import MachineModel
from .machine.presets import get_preset
from .matrices.suite import SuiteEntry
from .parallel.partition import balanced_partition, stored_per_block_row
from .types import Impl, Precision

__all__ = [
    "estimate_stream_misses_windowed",
    "LRUCache",
    "simulate_reference",
    "reference_sweep",
]


def estimate_stream_misses_windowed(
    line_ids: np.ndarray,
    budget_lines: int,
    *,
    cyclic: bool = True,
    discount_compulsory: bool = True,
) -> int:
    """Reference implementation of
    :func:`repro.machine.cache.estimate_stream_misses`: the original
    per-window loop, same parameters, same count."""
    line_ids = np.asarray(line_ids)
    n = line_ids.shape[0]
    if n == 0 or budget_lines <= 0:
        return 0
    distinct_total = np.unique(line_ids).shape[0]
    if distinct_total <= budget_lines:
        # The whole x footprint is cache-resident in steady state.
        return 0
    window = max(int(budget_lines), 1)
    n_windows = -(-n // window)
    bounds = [min(k * window, n) for k in range(n_windows + 1)]
    uniques = [
        np.unique(line_ids[bounds[k] : bounds[k + 1]]) for k in range(n_windows)
    ]
    misses = 0
    for k in range(n_windows):
        cur = uniques[k]
        if k == 0:
            if not cyclic:
                misses += cur.shape[0]
                continue
            prev = uniques[-1]
        else:
            prev = uniques[k - 1]
        # Lines touched now but absent from the previous window → misses.
        misses += int(cur.shape[0] - np.isin(cur, prev, assume_unique=True).sum())
    if discount_compulsory:
        misses = max(misses - distinct_total, 0)
    return misses


class LRUCache:
    """Exact fully-associative LRU cache of ``capacity`` lines."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lines: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, line: int) -> bool:
        """Touch ``line``; returns True on hit."""
        if line in self._lines:
            self._lines.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        self._lines[line] = None
        if len(self._lines) > self.capacity:
            self._lines.popitem(last=False)
        return False

    def run(self, line_ids: np.ndarray) -> int:
        """Feed a whole stream; returns the miss count."""
        for line in np.asarray(line_ids).tolist():
            self.access(int(line))
        return self.misses


def simulate_reference(
    fmt: SparseFormat,
    machine: MachineModel,
    precision: Precision | str = Precision.DP,
    impl: Impl | str = Impl.SCALAR,
    nthreads: int = 1,
    *,
    zero_col_ind: bool = False,
) -> SimResult:
    """One simulator cell, computed from scratch.

    Recomputes every structure-dependent quantity on each call and runs the
    windowed-loop miss estimator.  Uses its own x-miss memo key, so its
    timing never benefits from the production simulator's memos (and vice
    versa).
    """
    precision = Precision.coerce(precision)
    impl = Impl.coerce(impl)
    if nthreads < 1 or nthreads > machine.max_threads:
        raise ModelError(
            f"nthreads={nthreads} outside 1..{machine.max_threads} "
            f"for machine {machine.name!r}"
        )
    costs = machine.costs

    ws = fmt.working_set(precision)
    parts = fmt.submatrices()
    t_mem = ws / machine.stream_bandwidth(ws, nthreads)
    if len(parts) > 1:
        # Decomposed methods lose streaming efficiency to their multiple
        # passes (paper Section III); the loss scales with how balanced the
        # decomposition is.
        shares = [
            (p.working_set_matrix_only(precision) + p.vector_bytes(precision))
            / ws
            for p in parts
        ]
        t_mem *= machine.decomposition_mem_factor(shares)

    # Per-thread compute cycles, part by part; x-miss latency per part.
    overlappable_cycles = [0.0] * nthreads
    exposed_cycles = [0.0] * nthreads
    total_misses = 0
    x_resident = ws <= machine.l2.size_bytes
    line_elems = machine.l2.line_bytes // precision.itemsize
    budget = x_budget_lines(
        machine.l2.size_bytes, machine.l2.line_bytes, machine.x_cache_fraction
    )

    # Pass start-up work (pointer setup, prefetch retrain) cannot overlap.
    startup = costs.pass_startup_cycles * max(len(parts) - 1, 0)
    for part in parts:
        # The exposure fraction belongs to the kernel that actually runs:
        # a CSR remainder of a SIMD decomposition still runs scalar code.
        part_impl = costs.effective_impl(part, impl)
        eta_part = machine.eta(part_impl)
        row_cycles = costs.block_row_cycles(part, part_impl, precision)
        partition = balanced_partition(stored_per_block_row(part), nthreads)
        per_thread = partition.segment_sums(row_cycles)
        for t in range(nthreads):
            overlappable_cycles[t] += (1.0 - eta_part) * float(per_thread[t])
            exposed_cycles[t] += eta_part * float(per_thread[t])
        if x_resident or zero_col_ind:
            continue
        cache = part.__dict__.setdefault("_x_miss_cache_ref", {})
        misses = cache.get((line_elems, budget))
        if misses is None:
            lines = part.x_access_stream().line_ids(line_elems)
            misses = estimate_stream_misses_windowed(lines, budget)
            cache[(line_elems, budget)] = misses
        total_misses += misses

    exposed_cycles = [c + startup for c in exposed_cycles]
    t_overlappable = machine.cycles_to_seconds(max(overlappable_cycles))
    exposed = machine.cycles_to_seconds(max(exposed_cycles))
    t_comp_max = t_overlappable + exposed
    t_lat_max = total_misses / nthreads * machine.effective_latency_s()

    t_total = max(t_mem, t_overlappable) + exposed + t_lat_max
    return SimResult(
        t_total=t_total,
        t_mem=t_mem,
        t_comp=t_comp_max,
        t_comp_exposed=exposed,
        t_latency=t_lat_max,
        ws_bytes=ws,
        x_misses=total_misses,
        nthreads=nthreads,
        precision=precision,
        impl=impl,
    )


def _reference_sweep_matrix(
    entry: SuiteEntry,
    config: SweepConfig,
    *,
    machine: MachineModel,
    profile_cache: ProfileCache,
    clock: Callable[[], float] | None = None,
) -> MatrixSweep:
    """:func:`~repro.bench.harness.sweep_matrix` through the reference path.

    With a ``clock`` the matrix carries the same ``_phase_timings``
    breakdown as a production shard.
    """
    coo = entry.build()
    candidates = candidate_space(max_block_elems=config.max_block_elems)
    timings: dict[str, float] = {}
    fmt_cache: dict = {}

    def evaluate(precision, nthreads, cands, *, models):
        results = evaluate_candidates(
            coo,
            machine,
            precision,
            candidates=cands,
            models=models,
            profile_cache=profile_cache,
            run_simulation=False,
            nthreads=nthreads,
            fmt_cache=fmt_cache,
            timings=timings if clock is not None else None,
        )
        t0 = clock() if clock is not None else 0.0
        for res in results:
            cand = res.candidate
            res.sim = simulate_reference(
                fmt_cache[(cand.kind, cand.block)],
                machine, precision, cand.impl, nthreads,
            )
        if clock is not None:
            timings["simulate"] = timings.get("simulate", 0.0) + clock() - t0
        return results

    sweep = assemble_matrix_sweep(entry, coo, config, candidates, evaluate)
    sweep._phase_timings = timings
    return sweep


def reference_sweep(
    config: SweepConfig = SweepConfig(),
    *,
    machine: MachineModel | None = None,
    profile_cache: ProfileCache | None = None,
    clock: Callable[[], float] | None = None,
) -> SweepResult:
    """:func:`~repro.bench.harness.run_sweep` through the reference path
    (``elapsed_s`` is 0: the oracle reads no wall clock)."""
    machine = machine if machine is not None else get_preset(config.machine_name)
    if profile_cache is None:
        profile_cache = ProfileCache()
    return SweepResult(
        config=config,
        matrices=[
            _reference_sweep_matrix(
                entry, config, machine=machine,
                profile_cache=profile_cache, clock=clock,
            )
            for entry in config.entries()
        ],
        elapsed_s=0.0,
    )
