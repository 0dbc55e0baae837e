"""The execution simulator: 'measured' SpMV time on a MachineModel.

This is the substituted testbed.  For a format F on machine M the simulated
steady-state time of one SpMV is assembled from first principles:

    t_real = max(t_mem, (1 - eta) * t_comp) + eta * t_comp + t_lat

* ``t_mem`` — the working set streamed at the residency-appropriate
  bandwidth (L1 / L2 / memory; multicore uses the saturation curve).
* ``t_comp`` — the kernel cost tables summed over blocks and rows.  The
  hardware prefetcher overlaps the fraction ``1 - eta`` of it with memory
  transfers; the exposed fraction ``eta`` (dependency stalls) always adds.
* ``t_lat`` — unhidden latency of input-vector cache misses, from the
  windowed cache model over the format's x-access stream.  This is the
  term *none* of the paper's models account for, which is why the
  latency-bound matrices defeat them (paper Fig. 3 discussion).

Multithreaded runs partition block rows with the paper's padding-aware
static balancing; compute parallelizes, the memory bus saturates, and the
slowest thread sets the pace.

``zero_col_ind=True`` reproduces the paper's custom benchmark that zeroes
the column indices of CSR so every x access hits the same cache line.

There is one simulator, :func:`simulate_cells`: it evaluates a *plane* of
cells at one (precision, thread count) with the cell index as an array
axis, each cell given by its submatrices, working set and impl.
:func:`simulate` is the one-cell call and
:meth:`repro.machine.batch.MatrixProgram.evaluate` the whole-matrix one,
which hands it the submatrices and working sets it already computed for
its models.  Every float operation is elementwise with the same operands
in the same order as the scalar formula above, and the only reduction
across threads is ``max``, so a cell's result does not depend on which
plane it rides in.

The terms that depend only on a format *part* are memoised on the part,
so every cell and every structure holding it (the fused planner shares one
whole-pattern CSR between plain CSR and each decomposition without a full
block) computes them once:

* the balanced row partition per thread count, found by an integer
  search on the part's block-row pointer
  (:func:`repro.parallel.partition.pointer_partition`), with no float
  array of the rows;
* the row-cost prefix sums, per (machine, impl, precision), *only* at the
  union of the partition boundaries for 1..``max_threads`` threads (at
  most 8 positions on the core2 preset).  One pass walks the rows in
  chunks of :data:`COST_CHUNK_ROWS` through a reused scratch buffer,
  carrying the running sum from chunk to chunk, so it adds the same
  floats in the same order as a whole-part prefix
  (:func:`row_cost_prefix_at`); each thread count's per-thread cycles
  are differences of adjacent values;
* the x-miss estimate, per (line size, budget).  The estimator
  (:func:`repro.machine.cache.estimate_x_access_misses`) expands the
  part's access stream one window at a time and returns 0 at once when
  the stream's line span fits the budget.  Before building the stream at
  all, an *exact* bound from the part's shape settles the parts whose
  largest reachable line fits: the distinct-line count trivially does
  too, and the estimator returns 0 whenever ``distinct <= budget``.

The unfactored per-cell computation is kept as the executable
specification in :mod:`repro.oracle` (``simulate_reference``); the test
suite asserts both produce bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ModelError
from ..formats.base import SparseFormat
from ..parallel.partition import (
    RowPartition,
    pointer_partition,
    weight_pointer,
)
from ..types import Impl, Precision
from .cache import estimate_x_access_misses, x_budget_lines
from .costs import KernelCostModel
from .machine import MachineModel

__all__ = [
    "SimResult", "row_cost_prefix_at", "simulate", "simulate_cells",
    "x_misses",
]

#: Block rows per chunk of the row-cost pass: a chunk's row cycles and
#: running sum stay cache-resident in one reused scratch buffer.
COST_CHUNK_ROWS = 16384


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


# --------------------------------------------------------------------------- #
# Per-part memos
# --------------------------------------------------------------------------- #

def _shape_max_col(part: SparseFormat) -> int | None:
    """Largest x column the part's stream can reach, from its shape alone:
    CSR and 1D-VBL touch only stored columns; an aligned ``r x c``
    block starts at a multiple of ``c`` below ``ncols``; a size-``b``
    diagonal block starts at or left of its first element's column.
    ``None`` for kinds without a known bound."""
    kind, block = part.block_descriptor()
    if kind in ("csr", "vbl"):
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
    # Exact structural shortcut: the estimator returns 0 whenever the
    # distinct-line count fits the budget, and a max line inside the
    # budget proves that.  The shape bound does so without building the
    # stream (or materializing a lazily planned part's index values); the
    # estimator settles a stream whose line span fits on its own.
    max_col = _shape_max_col(part)
    if max_col is not None and max_col // line_elems + 1 <= budget:
        return 0
    return estimate_x_access_misses(part.x_access_stream(), line_elems, budget)


def _part_misses(part: SparseFormat, line_elems: int, budget: int) -> int:
    """The part's memoised x-miss estimate."""
    cache = part.__dict__.setdefault("_x_miss_cache", {})
    key = (line_elems, budget)
    misses = cache.get(key)
    if misses is None:
        misses = _estimate_part_misses(part, line_elems, budget)
        cache[key] = misses
    return misses


def row_cost_prefix_at(
    part: SparseFormat,
    costs: KernelCostModel,
    impl: Impl,
    precision: Precision,
    positions: np.ndarray,
) -> np.ndarray:
    """``prefix_sums(costs.block_row_cycles(part, impl, precision))`` read
    at the sorted row ``positions`` (each in ``0..n_block_rows``), in one
    pass of :data:`COST_CHUNK_ROWS`-row chunks and no per-row array.

    Each chunk writes the running sum so far (the carry) into slot 0 of a
    scratch buffer and its row cycles after it, then sums the buffer in
    place.  ``np.cumsum`` adds sequentially, so every slot holds the
    same float as the whole-part prefix at its row.
    """
    n = part.n_block_rows
    pos = positions.tolist()
    values = np.zeros(len(pos), dtype=np.float64)
    scratch = np.empty(min(n, COST_CHUNK_ROWS) + 1, dtype=np.float64)
    scratch[0] = 0.0
    k = 0
    for lo in range(0, n, COST_CHUNK_ROWS):
        hi = min(lo + COST_CHUNK_ROWS, n)
        buf = scratch[: hi - lo + 1]
        costs.block_row_cycles(
            part, impl, precision, start=lo, stop=hi, out=buf[1:]
        )
        np.cumsum(buf, out=buf)
        while k < len(pos) and pos[k] <= hi:
            values[k] = buf[pos[k] - lo]
            k += 1
        scratch[0] = buf[-1]
    return values


def _partition(part: SparseFormat, nthreads: int) -> RowPartition:
    """The part's balanced ``nthreads``-way row partition (memoised on it).

    Partitions depend on the structure alone, so every cell of the part —
    any precision, any machine, any impl — shares one per thread count,
    each found by an integer search on the part's weight pointer.
    """
    memo = part.__dict__.setdefault("_row_partitions", {})
    partition = memo.get(nthreads)
    if partition is None:
        ptr, elems = weight_pointer(part)
        partition = pointer_partition(ptr, elems, nthreads)
        memo[nthreads] = partition
    return partition


def _boundary_costs(
    part: SparseFormat, machine: MachineModel, impl: Impl, precision: Precision
) -> tuple[np.ndarray, np.ndarray]:
    """(positions, row-cost prefix values there), memoised on the part.

    The positions are every partition boundary for 1..``max_threads``
    threads, ``0`` and ``n_block_rows`` among them, so one pass serves
    every thread count.  The machine is keyed by identity; its entry
    keeps it alive, so the id cannot be reused.
    """
    memo = part.__dict__.setdefault("_boundary_costs", {})
    key = (id(machine), impl, precision)
    if key not in memo:
        positions = np.unique(np.concatenate([
            _partition(part, t).boundaries
            for t in range(1, machine.max_threads + 1)
        ]))
        values = row_cost_prefix_at(
            part, machine.costs, impl, precision, positions
        )
        memo[key] = (machine, positions, values)
    return memo[key][1:]


def _thread_cycles(
    part: SparseFormat, machine: MachineModel, impl: Impl,
    precision: Precision, nthreads: int,
) -> np.ndarray:
    """Compute cycles of each thread's rows: differences of the prefix at
    adjacent boundaries, as ``RowPartition.segment_sums`` takes them."""
    positions, values = _boundary_costs(part, machine, impl, precision)
    bounds = _partition(part, nthreads).boundaries
    at = values[np.searchsorted(positions, bounds)]
    return at[1:] - at[:-1]


def _x_miss_term(
    parts: Sequence[SparseFormat], ws: int, machine: MachineModel,
    precision: Precision,
) -> int:
    if ws <= machine.l2.size_bytes:
        return 0
    line_elems = machine.l2.line_bytes // precision.itemsize
    budget = x_budget_lines(
        machine.l2.size_bytes, machine.l2.line_bytes, machine.x_cache_fraction
    )
    return sum(_part_misses(part, line_elems, budget) for part in parts)


def x_misses(
    fmt: SparseFormat, machine: MachineModel, precision: Precision | str
) -> int:
    """The simulator's x-miss term for ``fmt``: 0 when its working set is
    L2-resident, else the per-part estimates (memoised on each part)."""
    precision = Precision.coerce(precision)
    return _x_miss_term(
        fmt.submatrices(), fmt.working_set(precision), machine, precision
    )


# --------------------------------------------------------------------------- #
# The simulator
# --------------------------------------------------------------------------- #

def simulate_cells(
    parts: Sequence[tuple[SparseFormat, ...]],
    ws: Sequence[int],
    impls: Sequence[Impl | str],
    machine: MachineModel,
    precision: Precision | str,
    nthreads: int,
    *,
    zero_col_ind: bool = False,
) -> list[SimResult]:
    """Simulate every cell of one (precision, threads) plane, each given
    by its submatrices, working set and impl.

    Working sets, bandwidths, streaming-loss factors, start-up cycles and
    x-miss counts are length-``ncells`` vectors; the per-part exposure
    terms are an ``(ncells, nthreads)`` matrix accumulated per part *slot*
    (slot 0 = the blocked part, slot 1 = a decomposition's remainder), each
    slot adding into only the cells that have it.
    """
    precision = Precision.coerce(precision)
    if nthreads < 1 or nthreads > machine.max_threads:
        raise ModelError(
            f"nthreads={nthreads} outside 1..{machine.max_threads} "
            f"for machine {machine.name!r}"
        )
    costs = machine.costs
    impls = [Impl.coerce(impl) for impl in impls]

    # --- the memory axis: ws / stream bandwidth x streaming loss ------- #
    ws_int = np.array(ws, dtype=np.int64)
    bw = np.where(
        ws_int <= machine.l1.size_bytes,
        machine.l1.bandwidth_bps,
        np.where(
            ws_int <= machine.l2.size_bytes,
            machine.l2.bandwidth_bps,
            machine.memory_bandwidth(nthreads),
        ),
    )
    # Decomposed methods lose streaming efficiency to their multiple passes
    # (paper Section III); the loss scales with how balanced the
    # decomposition is.  A single pass's factor is exactly 1.0.
    factor = np.ones(len(ws))
    for j, (cell_parts, w) in enumerate(zip(parts, ws)):
        if len(cell_parts) > 1:
            factor[j] = machine.decomposition_mem_factor([
                (p.working_set_matrix_only(precision) + p.vector_bytes(precision))
                / w
                for p in cell_parts
            ])
    t_mem = ws_int.astype(np.float64) / bw * factor

    # --- the compute axis: per-part exposure, stacked over cells ------- #
    overlappable = np.zeros((len(ws), nthreads))
    exposed = np.zeros((len(ws), nthreads))
    for slot in range(max((len(p) for p in parts), default=0)):
        sel, etas, per_thread = [], [], []
        for j, (cell_parts, impl) in enumerate(zip(parts, impls)):
            if slot >= len(cell_parts):
                continue
            part = cell_parts[slot]
            # The exposure fraction belongs to the kernel that actually
            # runs: a CSR remainder of a SIMD decomposition stays scalar.
            part_impl = costs.effective_impl(part, impl)
            sel.append(j)
            etas.append(machine.eta(part_impl))
            per_thread.append(
                _thread_cycles(part, machine, part_impl, precision, nthreads)
            )
        idx = np.array(sel, dtype=np.int64)
        eta = np.array(etas, dtype=np.float64)[:, None]
        pt = np.stack(per_thread)
        overlappable[idx] += (1.0 - eta) * pt
        exposed[idx] += eta * pt
    # Pass start-up work (pointer setup, prefetch retrain) cannot overlap.
    startup = np.array(
        [costs.pass_startup_cycles * max(len(p) - 1, 0) for p in parts],
        dtype=np.float64,
    )
    t_overlappable = overlappable.max(axis=1) / machine.clock_hz
    exposed_s = (exposed + startup[:, None]).max(axis=1) / machine.clock_hz

    # --- the latency axis ---------------------------------------------- #
    misses = np.array(
        [
            0 if zero_col_ind else _x_miss_term(p, w, machine, precision)
            for p, w in zip(parts, ws)
        ],
        dtype=np.int64,
    )
    t_lat = misses / nthreads * machine.effective_latency_s()

    t_total = np.maximum(t_mem, t_overlappable) + exposed_s + t_lat
    t_comp = t_overlappable + exposed_s
    return [
        SimResult(
            t_total=float(t_total[j]),
            t_mem=float(t_mem[j]),
            t_comp=float(t_comp[j]),
            t_comp_exposed=float(exposed_s[j]),
            t_latency=float(t_lat[j]),
            ws_bytes=ws[j],
            x_misses=int(misses[j]),
            nthreads=nthreads,
            precision=precision,
            impl=impls[j],
        )
        for j in range(len(ws))
    ]


def simulate(
    fmt: SparseFormat,
    machine: MachineModel,
    precision: Precision | str = Precision.DP,
    impl: Impl | str = Impl.SCALAR,
    nthreads: int = 1,
    *,
    zero_col_ind: bool = False,
) -> SimResult:
    """Simulated steady-state time of one ``y = A @ x`` with ``fmt``."""
    precision = Precision.coerce(precision)
    return simulate_cells(
        [tuple(fmt.submatrices())], [fmt.working_set(precision)], [impl],
        machine, precision, nthreads, zero_col_ind=zero_col_ind,
    )[0]
