"""Tests for the sweep execution engine (repro.engine).

Fault-injection and resume tests drive the engine with stub task
functions (no real sweeping), so they exercise the orchestration — retry,
quarantine, shard persistence, event stream — in milliseconds.  The
determinism test at the end runs the real thing: a 3-matrix suite subset
through a 4-worker pool must be record-for-record identical to the serial
sweep.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.bench.harness import (
    MatrixSweep,
    SweepConfig,
    SweepRecord,
    load_or_run_sweep,
    run_sweep,
)
from repro.engine import (
    CollectingReporter,
    JsonlReporter,
    ShardStore,
    SweepEngine,
    plan_shards,
)

#: Tiny real-suite subset: dense (fastest builder), pwtk, stomach.
SUBSET = (1, 27, 30)

#: Stub configs never execute a real sweep; the indices just pick names.
STUB_CONFIG = SweepConfig(suite_indices=SUBSET)


def stub_matrix(shard_id: int, name: str = "stub") -> MatrixSweep:
    return MatrixSweep(
        idx=shard_id, name=name, domain="test", geometry=False,
        special=False, nrows=4, ncols=4, nnz=8,
        records=[SweepRecord(
            kind="csr", block=None, impl="scalar", precision="dp",
            nthreads=1, t_real=1.0 * shard_id, t_mem=0.8, t_comp=0.3,
            t_latency=0.0, ws_bytes=64, padding_ratio=1.0, n_blocks=1,
        )],
    )


def stub_task(task) -> MatrixSweep:
    return stub_matrix(task.shard_id, task.name)


def peak_reporting_task(task) -> MatrixSweep:
    """A stub shard that records its process id (as ``nrows``) and its
    process's peak RSS in KiB (as ``nnz``) at its end."""
    matrix = stub_task(task)
    matrix.nrows = os.getpid()
    matrix.nnz = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return matrix


#: The shard whose pool worker the worker-death tests SIGKILL.
VICTIM = 27


def kill_once_task(marker_dir: Path, task) -> MatrixSweep:
    """SIGKILL the worker the first time any process runs the victim
    shard; the marker file makes that happen once across processes."""
    if task.shard_id == VICTIM:
        try:
            (marker_dir / "killed").open("x").close()
        except FileExistsError:
            pass
        else:
            os.kill(os.getpid(), signal.SIGKILL)
    return stub_task(task)


def kill_always_task(task) -> MatrixSweep:
    """SIGKILL the worker every time it runs the victim shard."""
    if task.shard_id == VICTIM:
        time.sleep(0.2)  # let the other worker finish the innocent shards
        os.kill(os.getpid(), signal.SIGKILL)
    return stub_task(task)


class TestPlanning:
    def test_one_shard_per_suite_entry(self):
        tasks = plan_shards(STUB_CONFIG)
        assert [t.shard_id for t in tasks] == list(SUBSET)
        assert tasks[0].name == "dense"
        assert all(t.config is STUB_CONFIG for t in tasks)

    def test_full_suite_default(self):
        assert len(plan_shards(SweepConfig())) == 30


class TestShardStore:
    def test_roundtrip(self, tmp_path):
        store = ShardStore(tmp_path, STUB_CONFIG)
        store.save(27, stub_matrix(27), elapsed_s=1.5)
        loaded = store.load(27)
        assert loaded is not None
        assert loaded.idx == 27
        assert loaded.records[0].t_real == 27.0
        assert [i for i in SUBSET if store.load(i) is not None] == [27]

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        store = ShardStore(tmp_path, STUB_CONFIG)
        store.save(1, stub_matrix(1))
        assert [p.name for p in store.root.glob("*.tmp")] == []

    def test_corrupt_shard_discarded(self, tmp_path):
        store = ShardStore(tmp_path, STUB_CONFIG)
        store.save(1, stub_matrix(1))
        store.shard_path(1).write_text('{"schema": 1, "trunc')
        assert store.load(1) is None
        assert not store.shard_path(1).exists()

    def test_foreign_fingerprint_ignored(self, tmp_path):
        store = ShardStore(tmp_path, STUB_CONFIG)
        store.save(1, stub_matrix(1))
        other = ShardStore(tmp_path, SweepConfig(suite_indices=(1,)))
        # Different config -> different directory, so nothing to load.
        assert other.load(1) is None

    def test_quarantine_markers(self, tmp_path):
        store = ShardStore(tmp_path, STUB_CONFIG)
        store.quarantine(27, error="boom", attempts=3)
        assert store.quarantined_ids() == [27]
        store.clear_quarantine(27)
        assert store.quarantined_ids() == []


class TestFaultInjection:
    def test_retry_then_success(self, tmp_path):
        calls = {"n": 0}

        def flaky(task):
            if task.shard_id == 27:
                calls["n"] += 1
                if calls["n"] <= 2:
                    raise RuntimeError(f"transient #{calls['n']}")
            return stub_task(task)

        col = CollectingReporter()
        result = SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=1, max_retries=2,
            backoff_base_s=0.0, task_fn=flaky, reporters=[col],
        ).run()
        assert result.missing == []
        assert [m.idx for m in result.matrices] == list(SUBSET)
        retries = col.of("shard_retry")
        assert [e["shard"] for e in retries] == [27, 27]
        assert [e["attempt"] for e in retries] == [2, 3]
        # The successful attempt is recorded as attempt 3.
        finish = [e for e in col.of("shard_finish") if e["shard"] == 27]
        assert finish[0]["attempt"] == 3

    def test_quarantine_yields_partial_result(self, tmp_path):
        def broken(task):
            if task.shard_id == 27:
                raise RuntimeError("permanent")
            return stub_task(task)

        col = CollectingReporter()
        result = SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=1, max_retries=1,
            backoff_base_s=0.0, task_fn=broken, reporters=[col],
        ).run()
        assert result.missing == [27]
        assert [m.idx for m in result.matrices] == [1, 30]
        with pytest.raises(KeyError):
            result.matrix(27)
        quarantined = col.of("shard_quarantined")
        assert len(quarantined) == 1
        assert quarantined[0]["attempts"] == 2  # 1 try + 1 retry
        assert "permanent" in quarantined[0]["error"]
        # Exception type and message travel separately, so the run log
        # alone is enough to diagnose the shard.
        assert quarantined[0]["error_type"] == "RuntimeError"
        assert all(
            e["error_type"] == "RuntimeError" for e in col.of("shard_retry")
        )
        store = ShardStore(tmp_path, STUB_CONFIG)
        assert store.quarantined_ids() == [27]
        from repro.ioutils import read_envelope

        marker = read_envelope(store.quarantine_path(27))
        assert marker["error_type"] == "RuntimeError"
        assert marker["error"] == "permanent"

    def test_quarantined_shard_recovers_on_rerun(self, tmp_path):
        def broken(task):
            raise RuntimeError("always")

        SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=1, max_retries=0,
            backoff_base_s=0.0, task_fn=broken,
        ).run()
        store = ShardStore(tmp_path, STUB_CONFIG)
        assert store.quarantined_ids() == list(SUBSET)

        result = SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=1,
            backoff_base_s=0.0, task_fn=stub_task,
        ).run()
        assert result.missing == []
        assert store.quarantined_ids() == []

    def test_backoff_is_bounded(self, tmp_path):
        engine = SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path,
            backoff_base_s=0.5, backoff_cap_s=2.0,
        )
        backoffs = [engine._backoff(attempt) for attempt in (2, 3, 4, 5, 6)]
        assert backoffs == [0.5, 1.0, 2.0, 2.0, 2.0]


class TestResume:
    def test_resume_recomputes_only_missing_shards(self, tmp_path):
        # First run dies on shard 27: two shards persist, one is missing.
        def dies_on_27(task):
            if task.shard_id == 27:
                raise RuntimeError("killed")
            return stub_task(task)

        first = SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=1, max_retries=0,
            backoff_base_s=0.0, task_fn=dies_on_27,
        ).run()
        assert first.missing == [27]

        # Second run resumes: the run log shows 1 and 30 served from the
        # shard cache and only 27 actually executed.
        col = CollectingReporter()
        second = SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=1,
            backoff_base_s=0.0, task_fn=stub_task, reporters=[col],
        ).run()
        assert second.missing == []
        assert [m.idx for m in second.matrices] == list(SUBSET)
        assert sorted(e["shard"] for e in col.of("shard_cached")) == [1, 30]
        assert [e["shard"] for e in col.of("shard_start")] == [27]
        assert [e["shard"] for e in col.of("shard_finish")] == [27]
        start = col.of("sweep_start")[0]
        assert start["cached"] == 2 and start["n_shards"] == 3

    def test_fresh_discards_shards(self, tmp_path):
        SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=1, task_fn=stub_task,
        ).run()
        col = CollectingReporter()
        SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=1, resume=False,
            task_fn=stub_task, reporters=[col],
        ).run()
        assert col.of("shard_cached") == []
        assert len(col.of("shard_finish")) == 3

    def test_corrupt_shard_recomputed_on_resume(self, tmp_path):
        SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=1, task_fn=stub_task,
        ).run()
        store = ShardStore(tmp_path, STUB_CONFIG)
        store.shard_path(30).write_text("not json at all")
        col = CollectingReporter()
        result = SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=1, task_fn=stub_task,
            reporters=[col],
        ).run()
        assert result.missing == []
        assert [e["shard"] for e in col.of("shard_finish")] == [30]


class TestEvents:
    def test_jsonl_reporter_round_trips(self, tmp_path):
        log = tmp_path / "run.jsonl"
        reporter = JsonlReporter(log)
        SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=1, task_fn=stub_task,
            reporters=[reporter],
        ).run()
        reporter.close()
        events = [json.loads(line) for line in log.read_text().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "sweep_start"
        assert kinds[-1] == "sweep_finish"
        assert kinds.count("shard_finish") == 3
        assert all("ts" in e for e in events)

    def test_sweep_finish_metrics(self, tmp_path):
        col = CollectingReporter()
        SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=1, task_fn=stub_task,
            reporters=[col],
        ).run()
        finish = col.of("sweep_finish")[0]
        assert finish["completed"] == 3
        assert finish["records"] == 3
        assert finish["quarantined"] == 0
        assert finish["shards_per_s"] > 0
        assert 0.0 <= finish["worker_utilization"] <= 1.0

    def test_invalid_jobs_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SweepEngine(STUB_CONFIG, cache_dir=tmp_path, jobs=0)


class TestPoolPath:
    """The ProcessPoolExecutor path with a picklable stub task."""

    def test_pool_runs_and_persists(self, tmp_path):
        col = CollectingReporter()
        result = SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=2, task_fn=stub_task,
            reporters=[col],
        ).run()
        assert result.missing == []
        # Assembly is in suite order no matter the completion order.
        assert [m.idx for m in result.matrices] == list(SUBSET)
        store = ShardStore(tmp_path, STUB_CONFIG)
        assert all(store.load(i) is not None for i in SUBSET)
        assert len(col.of("shard_finish")) == 3

    def test_shard_finish_carries_the_workers_peak_rss(self, tmp_path):
        """Each ``shard_finish`` carries the peak RSS of the pool worker
        that ran the shard, in MiB, read after it: no less than the shard
        itself last read there (less the event's rounding), and not far
        above."""
        col = CollectingReporter()
        result = SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=2,
            task_fn=peak_reporting_task, reporters=[col],
        ).run()
        peaks = {e["shard"]: e["peak_rss_mb"] for e in col.of("shard_finish")}
        assert set(peaks) == set(SUBSET)
        for matrix in result.matrices:
            assert matrix.nrows != os.getpid()
            in_task = matrix.nnz / 1024
            assert in_task - 0.05 <= peaks[matrix.idx] <= in_task + 4


class TestWorkerDeath:
    """A pool worker killed mid-shard breaks the whole pool: every shard
    in flight is charged one attempt and retried on a fresh pool, under
    the usual retry budget and quarantine."""

    def test_killed_worker_is_retried(self, tmp_path):
        log = tmp_path / "run.jsonl"
        reporter = JsonlReporter(log)
        result = SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path / "cache", jobs=2,
            backoff_base_s=0.0,
            task_fn=functools.partial(kill_once_task, tmp_path),
            reporters=[reporter],
        ).run()
        reporter.close()
        assert result.missing == []
        assert [m.idx for m in result.matrices] == list(SUBSET)
        events = [json.loads(line) for line in log.read_text().splitlines()]
        retries = [e for e in events if e["event"] == "shard_retry"]
        assert {"shard": VICTIM, "error_type": "BrokenProcessPool"} in [
            {"shard": e["shard"], "error_type": e["error_type"]}
            for e in retries
        ]
        finish = {
            e["shard"]: e["attempt"]
            for e in events if e["event"] == "shard_finish"
        }
        assert finish[VICTIM] == 2

    def test_always_killed_shard_is_quarantined(self, tmp_path):
        col = CollectingReporter()
        # Three attempts for the victim; an innocent shard caught in
        # flight by one of its kills still has retries left.
        result = SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=2, max_retries=2,
            backoff_base_s=0.0, task_fn=kill_always_task, reporters=[col],
        ).run()
        assert result.missing == [VICTIM]
        assert [m.idx for m in result.matrices] == [1, 30]
        quarantined = col.of("shard_quarantined")
        assert [(e["shard"], e["attempts"], e["error_type"])
                for e in quarantined] == [(VICTIM, 3, "BrokenProcessPool")]
        assert ShardStore(tmp_path, STUB_CONFIG).quarantined_ids() == [VICTIM]


@pytest.mark.slow
class TestKillResume:
    """Acceptance: kill a sweep after ≥1 shard completes, re-run with
    --resume, and the run log shows only the missing shards recomputed."""

    def test_killed_sweep_resumes_from_shards(self, tmp_path):
        repo_root = Path(__file__).resolve().parent.parent
        env = {**os.environ,
               "PYTHONPATH": str(repo_root / "src")
               + os.pathsep + os.environ.get("PYTHONPATH", "")}
        base = [
            sys.executable, "-m", "repro", "sweep", "--jobs", "1",
            "--matrices", "1,27,30", "--precisions", "dp", "--threads", "1",
            "--cache-dir", str(tmp_path),
        ]

        def finished_shards(log):
            if not log.exists():
                return set()
            done = set()
            for line in log.read_text().splitlines():
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:  # torn final line after kill
                    continue
                if event["event"] == "shard_finish":
                    done.add(event["shard"])
            return done

        # Kill the first sweep as soon as one shard has been persisted.
        log1 = tmp_path / "run1.jsonl"
        proc = subprocess.Popen(
            [*base, "--run-log", str(log1)], cwd=repo_root, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 300
            while not finished_shards(log1):
                if proc.poll() is not None or time.monotonic() > deadline:
                    break
                time.sleep(0.2)
        finally:
            proc.kill()
            proc.wait()
        done = finished_shards(log1)
        assert done, "no shard completed before the kill"

        # Re-run with --resume (the default): completed shards are served
        # from the store, only the missing ones execute.
        log2 = tmp_path / "run2.jsonl"
        proc2 = subprocess.run(
            [*base, "--resume", "--run-log", str(log2)],
            cwd=repo_root, env=env, capture_output=True, text=True,
            timeout=600,
        )
        assert proc2.returncode == 0, proc2.stderr
        assert "sweep ready: 3 matrices" in proc2.stdout
        events = [json.loads(l) for l in log2.read_text().splitlines()]
        cached = {e["shard"] for e in events if e["event"] == "shard_cached"}
        recomputed = {
            e["shard"] for e in events if e["event"] == "shard_finish"
        }
        assert cached == done
        assert recomputed == set(SUBSET) - done


@pytest.mark.slow
class TestDeterminism:
    """Acceptance: jobs=4 output is byte-identical to the serial sweep."""

    CONFIG = SweepConfig(
        precisions=("dp",), thread_counts=(1,), max_block_elems=4,
        suite_indices=SUBSET,
    )

    def test_parallel_sweep_matches_serial(self, tmp_path):
        serial = run_sweep(config=self.CONFIG)
        parallel = load_or_run_sweep(
            self.CONFIG, cache_dir=tmp_path, jobs=4,
            run_log=tmp_path / "run.jsonl",
        )
        assert parallel.missing == []
        assert parallel.canonical_json() == serial.canonical_json()
        # All three shards really went through the pool.
        events = [
            json.loads(line)
            for line in (tmp_path / "run.jsonl").read_text().splitlines()
        ]
        finished = sorted(
            e["shard"] for e in events if e["event"] == "shard_finish"
        )
        assert finished == list(SUBSET)
