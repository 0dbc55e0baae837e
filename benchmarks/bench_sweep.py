"""Before/after benchmark of the sweep's inner loop (batched array program).

Measures the reduced golden config (``repro.bench.harness.GOLDEN_SWEEP``)
— dp, 1 thread, ``max_block_elems=4``, suite indices 1 (dense), 27 (pwtk)
and 30 (rand-sparse) — two ways:

* **reference** — what a cold worker paid before any of the sweep's
  optimisations: lazy in-process profile calibration plus the oracle's
  reference sweep (:func:`repro.oracle.reference_sweep`: per-shape
  converters, per-candidate model predictions and ``simulate_reference``,
  the unfactored per-cell simulator with the windowed miss-estimator
  loop).  The calibration itself is also routed through the reference
  simulator and the per-shape converters.
* **batched** — the production path: the calibrated profile served
  float-exactly from the on-disk :class:`ProfileStore` plus the
  whole-matrix array program (:mod:`repro.machine.batch`), one fused
  structural planning pass and the one simulator over each plane of cells.

Both produce byte-identical ``canonical_json()`` — asserted on every run,
together with the golden sha — so the speedup is free.  Results are
written to ``BENCH_sweep.json`` (checked in at the repo root) with the
per-phase breakdown of both paths.

The golden config never reaches the x-miss estimator (its matrices are
x-resident or inside the budget), so the full run adds two sections:

* **x_miss** — the simulator's estimator path,
  ``estimate_x_access_misses`` on each part's access stream, against the
  per-window loop ``estimate_stream_misses_windowed`` over the expanded
  ``stream.line_ids(...)``, on every out-of-budget dp stream of fdiff
  (suite #23) under the paper config; both timings include the line-id
  expansion, and the counts are asserted equal stream by stream;
* **row_costs** — the simulator's row-cost boundary pass,
  ``executor.row_cost_prefix_at`` at the union of the 1-, 2- and
  4-thread partition boundaries, against the whole-part prefix
  ``prefix_sums(block_row_cycles(...))`` read at the same rows, over
  every planned part of fdiff (suite #23) in sp and dp and each impl its
  kernel runs.  The whole-part prefixes are held until the round ends,
  as the simulator's per-part memo held them before the boundary pass;
  the values are asserted equal part by part;
* **calibration** — ``profile_machine`` for sp and dp building its
  profiling structures through the per-shape converters against the
  fused ``plan_structures`` pass, profiles asserted identical.

Usage::

    python benchmarks/bench_sweep.py            # full bench, writes JSON
    python benchmarks/bench_sweep.py --smoke    # one tiny matrix, no JSON

The full run asserts the acceptance bar (batched >= 7.5x over the
reference) and the golden canonical sha; ``--smoke`` asserts its own
pinned sha through the batched path plus that batching beats the
reference at all, then runs the x_miss and row_costs legs once and fails
on any count or value mismatch, or if the estimator or the boundary pass
is not faster than its spec; it is sized for a CI minute.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

REPO_ROOT = Path(__file__).resolve().parent.parent

SMOKE_INDICES = (1,)
#: The suite matrix whose out-of-budget streams the x_miss section times,
#: and whose planned parts the row_costs section times.
XMISS_INDEX = 23
#: Thread counts whose partition boundaries the row_costs section reads.
ROW_COST_THREADS = (1, 2, 4)
#: Acceptance bar: batched over the reference.
SPEEDUP_BAR = 7.5
#: canonical_json sha prefix of the golden config over SMOKE_INDICES (the
#: full golden sweep's is ``harness.GOLDEN_SWEEP_SHA``).
SMOKE_SHA = "68288cd28a678a98"


def _config(indices):
    from repro.bench.harness import GOLDEN_SWEEP

    return dataclasses.replace(GOLDEN_SWEEP, suite_indices=tuple(indices))


def _convert_each(coo, structures, **_):
    """``plan_structures`` as one per-shape converter call per structure."""
    from repro.core.candidates import Candidate
    from repro.core.selection import build_candidate
    from repro.types import Impl

    return {
        (kind, block): build_candidate(coo, Candidate(kind, block, Impl.SCALAR))
        for kind, block in structures
    }


@contextmanager
def _per_shape_calibration():
    """Calibrate through the per-shape converters, the fused planner's spec."""
    import repro.machine.batch as batch

    original = batch.plan_structures
    batch.plan_structures = _convert_each
    try:
        yield
    finally:
        batch.plan_structures = original


def _run_reference(config):
    """Cold reference worker: lazy calibration + the oracle's sweep."""
    import repro.core.profiling as profiling
    from repro.core.profiling import ProfileCache
    from repro.oracle import reference_sweep, simulate_reference

    original = profiling.simulate
    profiling.simulate = simulate_reference
    try:
        with _per_shape_calibration():
            t0 = time.perf_counter()
            result = reference_sweep(
                config, profile_cache=ProfileCache(), clock=time.perf_counter
            )
            elapsed = time.perf_counter() - t0
    finally:
        profiling.simulate = original
    return result, elapsed


def _run_batched(config, store_dir):
    """Warm production worker: disk-served profile + batched array program."""
    from repro.bench.harness import run_sweep
    from repro.core.profiling import ProfileStore

    t0 = time.perf_counter()
    result = run_sweep(config=config, profile_cache=ProfileStore(store_dir))
    return result, time.perf_counter() - t0


def _best_of(rounds: int, fn):
    """(last result, best wall time) of ``rounds`` calls of ``fn``."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def _out_of_budget_streams(idx: int, machine, precision: str) -> list:
    """Access streams of ``idx`` whose distinct lines exceed the budget,
    over every paper-config structure that is not x-resident."""
    import numpy as np

    from repro.core.candidates import candidate_space, unique_structures
    from repro.machine.batch import plan_structures
    from repro.machine.cache import x_budget_lines
    from repro.matrices.suite import get_entry
    from repro.types import Precision

    coo = get_entry(idx).build()
    structures = plan_structures(
        coo, unique_structures(candidate_space(max_block_elems=8))
    )
    line_elems = machine.l2.line_bytes // Precision.coerce(precision).itemsize
    budget = x_budget_lines(
        machine.l2.size_bytes, machine.l2.line_bytes, machine.x_cache_fraction
    )
    streams = []
    for fmt in structures.values():
        if fmt.working_set(precision) <= machine.l2.size_bytes:
            continue
        for part in fmt.submatrices():
            stream = part.x_access_stream()
            lines = stream.line_ids(line_elems)
            if (
                lines.size
                and lines.max() >= budget
                and np.unique(lines).shape[0] > budget
            ):
                streams.append(stream)
    return streams


def bench_x_miss(machine, rounds: int) -> dict:
    """The estimator's stream path against its per-window loop spec on
    fdiff's streams, line-id expansion included on both sides."""
    from repro.machine.cache import estimate_x_access_misses, x_budget_lines
    from repro.oracle import estimate_stream_misses_windowed
    from repro.types import Precision

    streams = _out_of_budget_streams(XMISS_INDEX, machine, "dp")
    if not streams:
        raise SystemExit("FATAL: no out-of-budget stream to time")
    line_elems = machine.l2.line_bytes // Precision.DP.itemsize
    budget = x_budget_lines(
        machine.l2.size_bytes, machine.l2.line_bytes, machine.x_cache_fraction
    )
    fast, t_fast = _best_of(
        rounds,
        lambda: [
            estimate_x_access_misses(s, line_elems, budget) for s in streams
        ],
    )
    spec, t_spec = _best_of(
        rounds,
        lambda: [
            estimate_stream_misses_windowed(s.line_ids(line_elems), budget)
            for s in streams
        ],
    )
    if fast != spec:
        raise SystemExit("FATAL: estimator disagrees with the windowed spec")
    return {
        "matrix_idx": XMISS_INDEX,
        "precision": "dp",
        "budget_lines": budget,
        "streams": len(streams),
        "elements": int(sum(s.n_elements for s in streams)),
        "misses": int(sum(fast)),
        "windowed_s": round(t_spec, 3),
        "estimator_s": round(t_fast, 3),
        "speedup": round(t_spec / t_fast, 3),
    }


def bench_row_costs(machine, rounds: int) -> dict:
    """The boundary pass against the whole-part prefix it reads, on every
    planned part of fdiff, sp and dp, each impl its kernel runs."""
    import numpy as np

    from repro.core.candidates import candidate_space, unique_structures
    from repro.machine.batch import plan_structures
    from repro.machine.executor import row_cost_prefix_at
    from repro.matrices.suite import get_entry
    from repro.parallel.partition import (
        pointer_partition,
        prefix_sums,
        weight_pointer,
    )
    from repro.types import Impl, Precision

    costs = machine.costs
    structures = plan_structures(
        get_entry(XMISS_INDEX).build(),
        unique_structures(candidate_space(max_block_elems=8)),
    )
    parts = list({
        id(part): part
        for fmt in structures.values()
        for part in fmt.submatrices()
    }.values())
    passes = []
    for part in parts:
        ptr, elems = weight_pointer(part)
        positions = np.unique(np.concatenate([
            pointer_partition(ptr, elems, t).boundaries
            for t in ROW_COST_THREADS
        ]))
        for precision in (Precision.SP, Precision.DP):
            for impl in sorted(
                {costs.effective_impl(part, i) for i in Impl},
                key=lambda i: i.value,
            ):
                passes.append((part, impl, precision, positions))

    fast, t_fast = _best_of(
        rounds,
        lambda: [
            row_cost_prefix_at(part, costs, impl, precision, positions)
            for part, impl, precision, positions in passes
        ],
    )
    def whole_prefixes():
        # Held until every pass is done, as the per-part memo held them
        # before the boundary pass replaced it.
        prefixes = [
            prefix_sums(costs.block_row_cycles(part, impl, precision))
            for part, impl, precision, _ in passes
        ]
        return [
            prefix[positions]
            for prefix, (*_, positions) in zip(prefixes, passes)
        ]

    spec, t_spec = _best_of(rounds, whole_prefixes)
    if not all(np.array_equal(a, b) for a, b in zip(fast, spec)):
        raise SystemExit("FATAL: boundary pass disagrees with the prefix")
    return {
        "matrix_idx": XMISS_INDEX,
        "precisions": ["sp", "dp"],
        "threads": list(ROW_COST_THREADS),
        "parts": len(parts),
        "passes": len(passes),
        "block_rows": int(sum(p.n_block_rows for p, *_ in passes)),
        "prefix_s": round(t_spec, 3),
        "boundary_s": round(t_fast, 3),
        "speedup": round(t_spec / t_fast, 3),
    }


def bench_calibration(machine, rounds: int) -> dict:
    """``profile_machine`` sp + dp: per-shape converters vs fused planner."""
    from repro.core.profiling import profile_machine

    def calibrate():
        return [profile_machine(machine, p) for p in ("sp", "dp")]

    with _per_shape_calibration():
        converted, t_convert = _best_of(rounds, calibrate)
    fused, t_fused = _best_of(rounds, calibrate)
    if converted != fused:
        raise SystemExit("FATAL: fused-planner calibration changed a profile")
    return {
        "machine": machine.name,
        "precisions": ["sp", "dp"],
        "converters_s": round(t_convert, 3),
        "fused_s": round(t_fused, 3),
        "speedup": round(t_convert / t_fused, 3),
    }


def _phases(matrix) -> dict:
    timings = getattr(matrix, "_phase_timings", {})
    return {k: round(v, 4) for k, v in sorted(timings.items())}


def run_bench(indices, *, rounds: int, store_dir: Path) -> dict:
    from repro.machine.presets import get_preset

    config = _config(indices)
    # Populate the profile store once, outside any measured round: the
    # engine's warm start means production sweeps find it already on disk.
    from repro.core.profiling import ProfileStore

    ProfileStore(store_dir).get(get_preset(config.machine_name), "dp")

    references, batcheds = [], []
    canonical = None
    for _ in range(rounds):
        ref, t_ref = _run_reference(config)
        opt, t_batched = _run_batched(config, store_dir)
        if ref.canonical_json() != opt.canonical_json():
            raise SystemExit("FATAL: sweep paths are not byte-identical")
        canonical = opt.canonical_json()
        references.append(t_ref)
        batcheds.append(t_batched)

    per_matrix = {}
    for ref_m, opt_m in zip(ref.matrices, opt.matrices):
        per_matrix[ref_m.name] = {
            "idx": ref_m.idx,
            "nnz": ref_m.nnz,
            "reference_phases_s": _phases(ref_m),
            "batched_phases_s": _phases(opt_m),
        }
    t_ref, t_batched = min(references), min(batcheds)
    return {
        "config": {
            "precisions": list(config.precisions),
            "thread_counts": list(config.thread_counts),
            "max_block_elems": config.max_block_elems,
            "suite_indices": list(indices),
        },
        "rounds": rounds,
        "reference_s": round(t_ref, 3),
        "batched_s": round(t_batched, 3),
        "speedup": round(t_ref / t_batched, 3),
        "byte_identical": True,
        "records": sum(len(m.records) for m in ref.matrices),
        "canonical_sha256_prefix": hashlib.sha256(
            canonical.encode()
        ).hexdigest()[:16],
        "per_matrix": per_matrix,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "one tiny matrix and one x_miss and row_costs round, no JSON "
            "output (CI signal)"
        ),
    )
    parser.add_argument(
        "--rounds", type=int, default=2,
        help="measurement rounds; best-of is reported (default: 2)",
    )
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_sweep.json"),
        help="where to write the results JSON (full mode only)",
    )
    args = parser.parse_args(argv)

    import tempfile

    from repro.bench.harness import GOLDEN_SWEEP, GOLDEN_SWEEP_SHA

    indices = SMOKE_INDICES if args.smoke else GOLDEN_SWEEP.suite_indices
    rounds = 1 if args.smoke else args.rounds
    with tempfile.TemporaryDirectory() as store_dir:
        payload = run_bench(indices, rounds=rounds, store_dir=Path(store_dir))

    print(
        f"sweep {list(indices)}: reference {payload['reference_s']:.2f}s, "
        f"batched {payload['batched_s']:.2f}s "
        f"-> {payload['speedup']:.2f}x over the reference "
        f"(byte-identical, sha {payload['canonical_sha256_prefix']})"
    )
    expected_sha = SMOKE_SHA if args.smoke else GOLDEN_SWEEP_SHA
    if payload["canonical_sha256_prefix"] != expected_sha:
        print(
            f"FAIL: canonical sha {payload['canonical_sha256_prefix']} != "
            f"pinned {expected_sha}",
            file=sys.stderr,
        )
        return 1
    from repro.machine.presets import get_preset

    machine = get_preset(_config(indices).machine_name)
    if args.smoke:
        if payload["speedup"] <= 1.0:
            print(
                "FAIL: batched path is not faster than the reference",
                file=sys.stderr,
            )
            return 1
        x_miss = bench_x_miss(machine, rounds)
        print(f"x_miss: {x_miss['speedup']:.2f}x {json.dumps(x_miss)}")
        if x_miss["speedup"] <= 1.0:
            print(
                "FAIL: the x-miss estimator is not faster than the "
                "windowed spec",
                file=sys.stderr,
            )
            return 1
        row_costs = bench_row_costs(machine, rounds)
        print(
            f"row_costs: {row_costs['speedup']:.2f}x {json.dumps(row_costs)}"
        )
        if row_costs["speedup"] <= 1.0:
            print(
                "FAIL: the boundary pass is not faster than the whole-part "
                "prefix",
                file=sys.stderr,
            )
            return 1
        return 0

    payload["x_miss"] = bench_x_miss(machine, rounds)
    payload["row_costs"] = bench_row_costs(machine, rounds)
    payload["calibration"] = bench_calibration(machine, rounds)
    for name in ("x_miss", "row_costs", "calibration"):
        section = payload[name]
        print(f"{name}: {section['speedup']:.2f}x {json.dumps(section)}")
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    if payload["speedup"] < SPEEDUP_BAR:
        print(
            f"FAIL: speedup {payload['speedup']:.2f}x below the "
            f"{SPEEDUP_BAR}x acceptance bar",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
