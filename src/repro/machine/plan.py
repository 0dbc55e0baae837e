"""Per-candidate simulation plans: factor ``simulate()``'s invariants.

The sweep calls the execution simulator once per (candidate, precision,
impl, threads) cell — up to 12 calls per candidate under the full config —
and most of what each call computes depends only on the format structure
and at most the precision:

* the per-part row-cost vectors (``costs.block_row_cycles``), their prefix
  sums and the x-access miss estimates depend on the part, not on the
  structure holding it, and the prefix sums not on the thread count;
* the balanced row partition depends on (part, thread count) only;
* the decomposition working-set shares and the streaming-loss factor depend
  on (structure, precision) only.

A :class:`SimPlan` is built once per (format, machine, precision) and
memoizes the per-structure terms, so batch-evaluating every (impl,
threads) cell only redoes the genuinely per-cell arithmetic; the per-part
terms are memoised on the part, which the fused planner shares between
structures (one whole-pattern CSR for plain CSR and every decomposition
without a full block).  The plan is cached on the format object itself
(``fmt._sim_plans``), which is how the sweep's shared ``fmt_cache`` — one
structure reused across scalar/SIMD candidates, precisions and thread
counts — turns into cross-cell reuse.

The plan is **bit-identical** to the historical per-call path: every float
operation happens with the same operands in the same order, memoization
only removes recomputation of identical intermediate arrays.  The x-miss
term additionally short-circuits through an *exact* bound: if even the
largest cache line a part can reach (bounded by its shape without building
its stream, else by the stream's largest start) fits inside the budget,
the distinct-line count trivially does too (``estimate_stream_misses``
returns 0 whenever ``distinct <= budget``).  Every other part hands its
element stream to the estimator, whose own early exit settles the
resident case in one linear pass.

``repro.machine.executor.simulate`` is a thin wrapper over this module;
``simulate_reference`` there preserves the original unfactored path.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from ..errors import ModelError
from ..formats.base import SparseFormat, XAccessStream
from ..parallel.partition import (
    RowPartition,
    balanced_partition,
    prefix_sums,
    stored_per_block_row,
)
from ..types import Impl, Precision
from .cache import estimate_stream_misses, x_budget_lines
from .machine import MachineModel

__all__ = ["SimResult", "SimPlan", "get_plan", "MAX_PLANS_PER_FORMAT"]

#: Per-format cap on cached plans.  One sweep touches at most a few
#: (machine, precision) pairs per structure, but long-lived advisor/fleet
#: processes see many machines over time; the memo is LRU-bounded so format
#: objects cannot grow without bound.
MAX_PLANS_PER_FORMAT = 8


@dataclass(frozen=True)
class SimResult:
    """Breakdown of one simulated SpMV execution."""

    t_total: float
    t_mem: float
    t_comp: float
    t_comp_exposed: float
    t_latency: float
    ws_bytes: int
    x_misses: int
    nthreads: int
    precision: Precision
    impl: Impl

    @property
    def bound(self) -> str:
        """Which resource dominates: ``"memory"``, ``"compute"`` or ``"latency"``."""
        overlap_part = max(self.t_mem, self.t_comp - self.t_comp_exposed)
        if self.t_latency >= overlap_part:
            return "latency"
        if self.t_mem >= self.t_comp - self.t_comp_exposed:
            return "memory"
        return "compute"


def _stream_max_line(stream: XAccessStream, line_elems: int) -> int:
    """Largest cache-line id the stream can touch, without expanding it."""
    if stream.widths is not None:
        max_col = int((stream.starts + stream.widths - 1).max())
    else:
        max_col = int(stream.starts.max()) + stream.width - 1
    return max(max_col, 0) // line_elems


def _shape_max_col(part: SparseFormat) -> int | None:
    """Largest x column the part's stream can reach, from its shape alone:
    CSR, CSR-DU and 1D-VBL touch only stored columns; an aligned ``r x c``
    block starts at a multiple of ``c`` below ``ncols``; a size-``b``
    diagonal block starts at or left of its first element's column.
    ``None`` for kinds without a known bound."""
    kind, block = part.block_descriptor()
    if kind in ("csr", "csr_du", "vbl"):
        return part.ncols - 1
    if kind == "bcsr":
        c = block[1]
        return -(-part.ncols // c) * c - 1
    if kind == "bcsd":
        return part.ncols + block - 2
    return None


def _estimate_part_misses(
    part: SparseFormat, line_elems: int, budget: int
) -> int:
    if budget <= 0:
        return 0
    # Exact structural shortcut: estimate_stream_misses returns 0 whenever
    # the distinct-line count fits the budget, and a max line inside the
    # budget proves that.  The shape bound does so without building the
    # stream (or materializing a lazily planned part's index values).
    max_col = _shape_max_col(part)
    if max_col is not None and max_col // line_elems + 1 <= budget:
        return 0
    stream = part.x_access_stream()
    if len(stream) == 0:
        return 0
    if _stream_max_line(stream, line_elems) + 1 <= budget:
        return 0
    return int(estimate_stream_misses(stream.line_ids(line_elems), budget))


def _part_misses(part: SparseFormat, line_elems: int, budget: int) -> int:
    """The part's memoised x-miss estimate (same memo the old path used)."""
    cache = part.__dict__.setdefault("_x_miss_cache", {})
    key = (line_elems, budget)
    misses = cache.get(key)
    if misses is None:
        misses = _estimate_part_misses(part, line_elems, budget)
        cache[key] = misses
    return misses


def _cost_prefix(
    part: SparseFormat, machine: MachineModel, impl: Impl, precision: Precision
) -> np.ndarray:
    """Prefix sums of the part's per-block-row cycles (memoised on it).

    Shared by every plan of every structure holding the part.  The machine
    is keyed by identity, as in :func:`get_plan`; its entry keeps it alive,
    so the id cannot be reused.
    """
    memo = part.__dict__.setdefault("_cost_prefixes", {})
    key = (id(machine), impl, precision)
    if key not in memo:
        cycles = machine.costs.block_row_cycles(part, impl, precision)
        memo[key] = (machine, prefix_sums(cycles))
    return memo[key][1]


def _partition(part: SparseFormat, nthreads: int) -> RowPartition:
    """The part's balanced ``nthreads``-way row partition (memoised on it).

    Partitions depend on the structure alone, so every plan of the part —
    any precision, any machine — shares one per thread count.
    """
    memo = part.__dict__.setdefault("_row_partitions", {})
    partition = memo.get(nthreads)
    if partition is None:
        weights = part.__dict__.get("_partition_weights")
        if weights is None:
            weights = stored_per_block_row(part)
            part.__dict__["_partition_weights"] = weights
        partition = balanced_partition(weights, nthreads)
        memo[nthreads] = partition
    return partition


class SimPlan:
    """Everything ``simulate`` needs for one (format, machine, precision).

    Build once, then :meth:`run` every (impl, nthreads) cell; structure-
    dependent intermediates are computed on first use and shared across
    cells.  Not thread-safe (the sweep is process-parallel, not
    thread-parallel); plans hold a reference to the machine and are never
    pickled.  The format is held weakly: :func:`get_plan` stores the plan
    on the format, so a strong back-reference would make a cycle that
    keeps every planned format (and its index arrays) alive until the
    cyclic GC runs.  A plan is only usable while its format is alive.
    """

    def __init__(
        self,
        fmt: SparseFormat,
        machine: MachineModel,
        precision: Precision | str = Precision.DP,
    ) -> None:
        self._fmt = weakref.ref(fmt)
        self.machine = machine
        self.precision = Precision.coerce(precision)
        self.ws = fmt.working_set(self.precision)
        parts = tuple(fmt.submatrices())
        # A non-decomposed format is its own single part: keep that one
        # weak too.  The parts of a decomposition do not point back.
        self._parts = None if len(parts) == 1 and parts[0] is fmt else parts
        if len(parts) > 1:
            # Decomposed methods lose streaming efficiency to their multiple
            # passes (paper Section III); the loss scales with how balanced
            # the decomposition is.
            shares = [
                (
                    p.working_set_matrix_only(self.precision)
                    + p.vector_bytes(self.precision)
                )
                / self.ws
                for p in parts
            ]
            self.mem_factor: float | None = machine.decomposition_mem_factor(
                shares
            )
        else:
            self.mem_factor = None
        self.x_resident = self.ws <= machine.l2.size_bytes
        self.line_elems = machine.l2.line_bytes // self.precision.itemsize
        self.budget = x_budget_lines(
            machine.l2.size_bytes, machine.l2.line_bytes, machine.x_cache_fraction
        )
        # Pass start-up work (pointer setup, prefetch retrain) cannot overlap.
        self.startup = machine.costs.pass_startup_cycles * max(
            len(parts) - 1, 0
        )

    @property
    def fmt(self) -> SparseFormat:
        fmt = self._fmt()
        if fmt is None:
            raise ModelError("the plan's format no longer exists")
        return fmt

    @property
    def parts(self) -> tuple[SparseFormat, ...]:
        return (self.fmt,) if self._parts is None else self._parts

    # ------------------------------------------------------------------ #
    def segment_sums(
        self, part: SparseFormat, part_impl: Impl, nthreads: int
    ) -> np.ndarray:
        """Per-thread compute cycles of ``part`` under ``part_impl``.

        Public because :mod:`repro.machine.batch` stacks these per-cell
        vectors across the candidate axis; the order-sensitive ``cumsum``
        stays in here, one prefix sum per (part, machine, impl, precision)
        that every thread count and every structure holding the part
        indexes.
        """
        prefix = _cost_prefix(part, self.machine, part_impl, self.precision)
        return _partition(part, nthreads).prefix_segment_sums(prefix)

    def total_misses(self) -> int:
        """x-miss estimate summed over parts (each memoised on its part)."""
        return sum(
            _part_misses(part, self.line_elems, self.budget)
            for part in self.parts
        )

    # ------------------------------------------------------------------ #
    def run(
        self,
        impl: Impl | str = Impl.SCALAR,
        nthreads: int = 1,
        *,
        zero_col_ind: bool = False,
    ) -> SimResult:
        """One (impl, nthreads) cell — bit-identical to the unfactored path."""
        machine = self.machine
        impl = Impl.coerce(impl)
        if nthreads < 1 or nthreads > machine.max_threads:
            raise ModelError(
                f"nthreads={nthreads} outside 1..{machine.max_threads} "
                f"for machine {machine.name!r}"
            )
        costs = machine.costs

        t_mem = self.ws / machine.stream_bandwidth(self.ws, nthreads)
        if self.mem_factor is not None:
            t_mem *= self.mem_factor

        overlappable_cycles = [0.0] * nthreads
        exposed_cycles = [0.0] * nthreads
        for part in self.parts:
            # The exposure fraction belongs to the kernel that actually
            # runs: a CSR remainder of a SIMD decomposition stays scalar.
            part_impl = costs.effective_impl(part, impl)
            eta_part = machine.eta(part_impl)
            per_thread = self.segment_sums(part, part_impl, nthreads)
            for t in range(nthreads):
                overlappable_cycles[t] += (1.0 - eta_part) * float(per_thread[t])
                exposed_cycles[t] += eta_part * float(per_thread[t])
        if self.x_resident or zero_col_ind:
            total_misses = 0
        else:
            total_misses = self.total_misses()

        exposed_cycles = [c + self.startup for c in exposed_cycles]
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
            ws_bytes=self.ws,
            x_misses=total_misses,
            nthreads=nthreads,
            precision=self.precision,
            impl=impl,
        )

    def run_cells(
        self, cells: "list[tuple[Impl | str, int]]"
    ) -> list[SimResult]:
        """Batch-evaluate ``[(impl, nthreads), ...]`` sharing every memo."""
        return [self.run(impl, nthreads) for impl, nthreads in cells]


def get_plan(
    fmt: SparseFormat,
    machine: MachineModel,
    precision: Precision | str = Precision.DP,
) -> SimPlan:
    """The (cached) simulation plan for ``fmt`` on ``machine``.

    Plans are memoised on the format object keyed by (machine identity,
    precision) — the same lifetime as the format's x-miss memo, so the
    sweep's shared ``fmt_cache`` automatically shares plans across cells.
    The memo is LRU-bounded to :data:`MAX_PLANS_PER_FORMAT` entries (dict
    insertion order is the recency order) so long-lived processes that see
    many machines do not grow format objects without bound.
    """
    plans = fmt.__dict__.setdefault("_sim_plans", {})
    key = (id(machine), Precision.coerce(precision))
    plan = plans.pop(key, None)
    if plan is None:
        plan = SimPlan(fmt, machine, key[1])
        if len(plans) >= MAX_PLANS_PER_FORMAT:
            del plans[next(iter(plans))]
    plans[key] = plan
    return plan
