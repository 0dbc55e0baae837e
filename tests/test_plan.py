"""Tests for the simulator against its oracle, and the profile warm start.

The contract under test is *bit identity*: ``simulate`` (the one
simulator's one-cell call), the disk-served profiles and the warm-started
engine must reproduce the exact bytes of the reference path in
:mod:`repro.oracle` — no tolerances anywhere.
"""

import dataclasses
import json
from collections import Counter

import pytest

from repro.bench.harness import SweepConfig, run_sweep, sweep_matrix
from repro.core.profiling import (
    ProfileCache,
    ProfileStore,
    dense_coo,
    machine_token,
    profile_from_payload,
    profile_to_payload,
)
from repro.formats.coo import COOMatrix
from repro.machine import KernelCostModel, get_preset
from repro.machine.executor import simulate
from repro.matrices.suite import get_entry
from repro.oracle import reference_sweep, simulate_reference
from repro.types import Impl, Precision

from .conftest import make_random_coo


def _test_matrices():
    import numpy as np

    yield "dense40", dense_coo(40)
    yield "random", make_random_coo(300, 300, 4000, seed=5, with_values=False)
    yield "tall", make_random_coo(500, 80, 2500, seed=6, with_values=False)
    # Latency-bound: a huge sparse footprint whose x stream exceeds the
    # 32768-line budget, exercising the full vectorized estimator path.
    rng = np.random.default_rng(9)
    n = 1_200_000
    nnz = 120_000
    yield "latency", COOMatrix(
        500, n, rng.integers(0, 500, nnz), rng.integers(0, n, nnz), None
    )


def _candidates():
    return (
        ("csr", None),
        ("vbl", None),
        ("bcsr", (2, 2)),
        ("bcsr_dec", (2, 2)),
        ("bcsd", 2),
        ("bcsd_dec", 2),
    )


def _build(coo, kind, block):
    from repro.core.candidates import Candidate
    from repro.core.selection import build_candidate

    return build_candidate(coo, Candidate(kind, block, Impl.SCALAR))


class TestPlanBitIdentity:
    @pytest.mark.parametrize("name,coo", list(_test_matrices()))
    def test_simulate_equals_reference(self, name, coo, machine):
        """Every field of every cell, across formats, precisions, impls
        and thread counts, is exactly the reference value."""
        for kind, block in _candidates():
            fmt = _build(coo, kind, block)
            for precision in ("sp", "dp"):
                for impl in (Impl.SCALAR, Impl.SIMD):
                    for nthreads in (1, 2, 4):
                        got = simulate(fmt, machine, precision, impl, nthreads)
                        want = simulate_reference(
                            fmt, machine, precision, impl, nthreads
                        )
                        assert got == want, (name, kind, precision, impl, nthreads)

    def test_zero_col_ind_matches(self, machine):
        fmt = _build(dict(_test_matrices())["latency"], "csr", None)
        got = simulate(fmt, machine, "dp", zero_col_ind=True)
        want = simulate_reference(fmt, machine, "dp", zero_col_ind=True)
        assert got == want
        assert got.t_latency == 0.0

    def test_bad_nthreads_same_error(self, machine):
        fmt = _build(dense_coo(40), "csr", None)
        with pytest.raises(Exception) as plan_exc:
            simulate(fmt, machine, "dp", nthreads=0)
        with pytest.raises(Exception) as ref_exc:
            simulate_reference(fmt, machine, "dp", nthreads=0)
        assert str(plan_exc.value) == str(ref_exc.value)


class TestPlanReuse:
    def test_cells_share_memoised_partitions(self, machine, monkeypatch):
        """Partitions are found by the pointer search once per (part,
        nthreads), for every thread count the machine has, and shared by
        every precision and impl; the row costs take one boundary pass
        per (part, impl, precision), read by every thread count."""
        import repro.machine.executor as executor

        calls = Counter()

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for name in ("pointer_partition", "row_cost_prefix_at"):
            counted(executor, name)
        counted(KernelCostModel, "block_row_cycles")
        coo = make_random_coo(60, 60, 1500, seed=7, with_values=False)
        fmt = _build(coo, "bcsr_dec", (2, 2))
        parts = fmt.submatrices()
        assert len(parts) == 2  # a blocked part and its CSR remainder
        threads = (1, 2, 4)
        cells = [
            (precision, impl, nthreads)
            for precision in ("dp", "sp")
            for impl in (Impl.SCALAR, Impl.SIMD)
            for nthreads in threads
        ]
        got = {cell: simulate(fmt, machine, *cell) for cell in cells}
        every_count = list(range(1, machine.max_threads + 1))
        assert calls["pointer_partition"] == len(parts) * len(every_count)
        impls_per_part = [
            len({machine.costs.effective_impl(p, i) for i in Impl})
            for p in parts
        ]
        passes = 2 * sum(impls_per_part)  # sp + dp
        assert calls["row_cost_prefix_at"] == passes
        # Each pass is one chunk here, so one row-cost call.
        assert all(p.n_block_rows <= executor.COST_CHUNK_ROWS for p in parts)
        assert calls["block_row_cycles"] == passes
        # The memos live on the structure's parts.
        for part in parts:
            assert sorted(part.__dict__["_row_partitions"]) == every_count
            assert len(part.__dict__["_boundary_costs"]) == (
                2 * len({machine.costs.effective_impl(part, i) for i in Impl})
            )
        # The reference recomputes per cell (outside the counts above).
        for cell in cells:
            assert got[cell] == simulate_reference(fmt, machine, *cell)


class TestProfilePersistence:
    def test_payload_round_trip_is_float_exact(self, machine, profile_dp):
        # Through an actual JSON string, as the store does.
        payload = json.loads(json.dumps(profile_to_payload(profile_dp)))
        back = profile_from_payload(payload)
        assert back == profile_dp  # dataclass equality: exact dict floats

    def test_machine_token_is_content_keyed(self, machine):
        assert machine_token(machine) == machine_token(machine)
        assert machine_token(machine) != machine_token(
            get_preset("generic-modern")
        )
        tweaked = dataclasses.replace(machine, clock_hz=machine.clock_hz + 1)
        assert machine_token(tweaked) != machine_token(machine)

    def test_store_serves_from_disk_exactly(self, tmp_path, machine):
        store = ProfileStore(tmp_path)
        profile, source = store.get_with_source(machine, "dp")
        assert source == "calibrated"
        # A fresh store (new process, cold memory) must hit the disk file
        # and produce the identical profile.
        store2 = ProfileStore(tmp_path)
        again, source2 = store2.get_with_source(machine, "dp")
        assert source2 == "disk"
        assert again == profile
        _, source3 = store2.get_with_source(machine, "dp")
        assert source3 == "memory"

    def test_corrupt_profile_recalibrates(self, tmp_path, machine):
        store = ProfileStore(tmp_path)
        profile, _ = store.get_with_source(machine, "dp")
        path = store.path(machine, Precision.DP, False)
        path.write_text("{not json")
        fresh = ProfileStore(tmp_path)
        again, source = fresh.get_with_source(machine, "dp")
        assert source == "calibrated"
        assert again == profile  # calibration is deterministic

    def test_seed_skips_calibration(self, machine, profile_dp, monkeypatch):
        import repro.core.profiling as profiling

        cache = ProfileCache()
        cache.seed(machine, profile_dp)
        monkeypatch.setattr(
            profiling, "profile_machine", _boom, raising=True
        )
        assert cache.get(machine, "dp") is profile_dp


def _boom(*a, **k):  # pragma: no cover - must never run
    raise AssertionError("calibration ran despite a seeded profile")


class TestEngineWarmStart:
    def _config(self):
        return SweepConfig(
            precisions=("dp",),
            thread_counts=(1,),
            max_block_elems=4,
            suite_indices=(1,),
        )

    def test_shard_task_ships_profiles(self, machine, profile_dp, monkeypatch):
        """A shipped profile makes the worker skip calibration entirely."""
        import repro.core.profiling as profiling
        import repro.engine.tasks as tasks

        monkeypatch.setattr(profiling, "profile_machine", _boom, raising=True)
        monkeypatch.setattr(tasks, "_PROFILE_CACHE", ProfileCache())
        task = dataclasses.replace(
            tasks.plan_shards(self._config())[0], profiles=(profile_dp,)
        )
        matrix = tasks.run_shard_task(task)
        assert matrix.records

    def test_profiles_excluded_from_task_identity(self, profile_dp):
        from repro.engine.tasks import plan_shards

        bare = plan_shards(self._config())[0]
        warm = dataclasses.replace(bare, profiles=(profile_dp,))
        assert bare == warm
        assert hash(bare) == hash(warm)

    def test_engine_reuses_disk_profile(self, tmp_path):
        from repro.engine.events import CollectingReporter
        from repro.engine.pool import SweepEngine

        config = self._config()
        rep1 = CollectingReporter()
        first = SweepEngine(
            config, cache_dir=tmp_path, reporters=[rep1]
        ).run()
        assert [e["source"] for e in rep1.of("profile_ready")] == ["calibrated"]

        # Drop the shard so the second run recomputes it — warm this time.
        import shutil

        shutil.rmtree(tmp_path / "shards")
        rep2 = CollectingReporter()
        second = SweepEngine(
            config, cache_dir=tmp_path, reporters=[rep2]
        ).run()
        assert [e["source"] for e in rep2.of("profile_ready")] == ["disk"]
        assert first.canonical_json() == second.canonical_json()

    def test_cached_sweep_skips_calibration(self, tmp_path):
        from repro.engine.events import CollectingReporter
        from repro.engine.pool import SweepEngine

        config = self._config()
        SweepEngine(config, cache_dir=tmp_path).run()
        rep = CollectingReporter()
        SweepEngine(config, cache_dir=tmp_path, reporters=[rep]).run()
        assert rep.of("profile_ready") == []  # nothing pending, no profiling

    def test_stub_task_fn_does_not_warm(self, tmp_path):
        from repro.engine.pool import SweepEngine

        engine = SweepEngine(
            self._config(), cache_dir=tmp_path, task_fn=lambda t: None
        )
        assert engine.warm_profiles is False


class TestPhaseTimings:
    def test_sweep_matrix_attaches_breakdown(self, machine, shared_profile_cache):
        config = SweepConfig(
            precisions=("dp",), thread_counts=(1,), max_block_elems=4,
            suite_indices=(1,),
        )
        matrix = sweep_matrix(
            get_entry(1), config, machine=machine,
            profile_cache=shared_profile_cache,
        )
        timings = matrix._phase_timings
        assert set(timings) <= {"convert", "stats", "simulate", "models"}
        assert timings["convert"] > 0.0
        assert timings["simulate"] > 0.0
        # Non-field attribute: stays out of the persisted payload.
        assert "_phase_timings" not in dataclasses.asdict(matrix)

    def test_shard_finish_event_carries_phases(self, tmp_path):
        from repro.engine.events import CollectingReporter
        from repro.engine.pool import SweepEngine

        rep = CollectingReporter()
        SweepEngine(
            SweepConfig(
                precisions=("dp",), thread_counts=(1,), max_block_elems=4,
                suite_indices=(1,),
            ),
            cache_dir=tmp_path,
            reporters=[rep],
        ).run()
        (finish,) = rep.of("shard_finish")
        assert finish["phases"]["simulate"] >= 0.0


@pytest.mark.slow
class TestGoldenFingerprint:
    def test_reduced_sweep_reproduces_reference_bytes(self, machine):
        """The end-to-end guarantee: the production sweep reproduces the
        oracle's reference sweep byte-for-byte over the reduced golden
        config, on matrices covering the dense, regular-sparse and
        latency-bound regimes (suite indices 1, 27, 30)."""
        config = SweepConfig(
            precisions=("dp",),
            thread_counts=(1,),
            max_block_elems=4,
            suite_indices=(1, 27, 30),
        )
        shared = ProfileCache()
        reference = reference_sweep(
            config, machine=machine, profile_cache=shared
        )
        production = run_sweep(
            config=config, machine=machine, profile_cache=shared
        )
        assert production.canonical_json() == reference.canonical_json()
