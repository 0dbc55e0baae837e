"""Tests for the online learning loop (repro.learn)."""

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.core.learned import DecisionTree
from repro.errors import ModelError
from repro.learn import (
    LearnConfig,
    ModelRegistry,
    ShadowEvaluator,
    TraceLog,
    Trainer,
    canonical_record,
    fit_from_records,
    is_holdout,
    model_token,
    train_once,
)
from repro.resilience.guard import BreakerConfig, CircuitBreaker
from repro.serve.service import AdvisorService

from .conftest import make_random_coo


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _fit_tiny_tree(n=24, seed=3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 3))
    y = ["bcsr" if row[0] > 0 else "csr" for row in X]
    tree = DecisionTree(max_depth=3, min_samples_leaf=1)
    tree.fit(X, y)
    return tree, X


def _record(mode="baseline", kind="csr", features=(1.0, 2.0, 3.0), **extra):
    rec = {
        "schema": 1,
        "mode": mode,
        "features": list(features) if features is not None else None,
        "chosen": {"kind": kind, "block": None, "impl": "scalar"},
    }
    rec.update(extra)
    return rec


# ------------------------- tree serialization -------------------------- #
class TestTreePayload:
    def test_round_trip_predicts_identically(self):
        tree, X = _fit_tiny_tree()
        clone = DecisionTree.from_payload(tree.to_payload())
        for row in X:
            assert clone.predict(row) == tree.predict(row)

    def test_round_trip_payload_is_stable(self):
        tree, _ = _fit_tiny_tree()
        payload = tree.to_payload()
        clone = DecisionTree.from_payload(payload)
        assert clone.to_payload() == payload

    def test_unfitted_tree_refuses_to_serialize(self):
        with pytest.raises(ModelError):
            DecisionTree().to_payload()

    def test_model_token_is_content_addressed(self):
        tree, _ = _fit_tiny_tree()
        payload = tree.to_payload()
        assert model_token(payload) == model_token(json.loads(json.dumps(payload)))
        other, _ = _fit_tiny_tree(seed=4)
        assert model_token(other.to_payload()) != model_token(payload)


# ------------------------------ trace log ------------------------------ #
class TestTraceLog:
    def test_append_and_read_round_trip(self, tmp_path):
        log = TraceLog(tmp_path)
        log.append(_record(kind="bcsr"))
        log.append(_record(kind="csr"))
        records = list(log.records())
        assert [r["chosen"]["kind"] for r in records] == ["bcsr", "csr"]
        assert all("ts" in r and r["schema"] == 1 for r in records)
        assert log.records_logged == 2
        assert log.record_count() == 2

    def test_canonical_record_strips_timing_only(self):
        rec = _record(ts=123.4, elapsed_s=0.5)
        canon = canonical_record(rec)
        assert "ts" not in canon and "elapsed_s" not in canon
        assert canon["chosen"] == rec["chosen"]

    def test_appends_are_buffered_until_flush(self, tmp_path):
        log = TraceLog(tmp_path, flush_records=4)
        for _ in range(3):
            log.append(_record())
        assert log.records_logged == 3
        assert log.segments() == []  # nothing on disk yet
        log.append(_record())  # 4th append triggers the batch flush
        assert len(log.segments()) == 1
        assert sum(1 for _ in log.records()) == 4

    def test_rotation_rolls_segments(self, tmp_path):
        log = TraceLog(tmp_path, max_segment_bytes=64, max_segments=10)
        for _ in range(6):
            log.append(_record())
        log.flush()
        assert len(log.segments()) > 1
        # Every record survives across the roll.
        assert log.record_count() == 6

    def test_bounding_prunes_oldest_segments(self, tmp_path):
        log = TraceLog(
            tmp_path, max_segment_bytes=1, max_segments=2, flush_records=1
        )
        # 1-byte segments: every record rolls to a fresh segment.
        for i in range(5):
            log.append(_record(seq=i))
        segments = log.segments()
        assert len(segments) <= 2
        kept = [r["seq"] for r in log.records()]
        assert kept == sorted(kept)
        assert kept[-1] == 4  # newest records survive, oldest were pruned

    def test_corrupt_and_foreign_lines_are_skipped(self, tmp_path):
        log = TraceLog(tmp_path)
        path = log.append(_record(kind="bcsr"))
        log.flush()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{torn json\n")
            fh.write(json.dumps({"schema": 99, "mode": "baseline"}) + "\n")
        log.append(_record(kind="csr"))
        kinds = [r["chosen"]["kind"] for r in log.records()]
        assert kinds == ["bcsr", "csr"]

    def test_stale_tmp_swept_on_open(self, tmp_path):
        learn_dir = tmp_path / "learn"
        learn_dir.mkdir()
        stale = learn_dir / "x.json.999999999-0.tmp"
        stale.write_text("partial")
        TraceLog(tmp_path)
        assert not stale.exists()

    def test_clear(self, tmp_path):
        log = TraceLog(tmp_path)
        log.append(_record())
        log.clear()
        assert log.segments() == []
        assert log.record_count() == 0


# ---------------------------- model registry --------------------------- #
class TestModelRegistry:
    def test_publish_reload_current(self, tmp_path):
        tree, X = _fit_tiny_tree()
        registry = ModelRegistry(tmp_path)
        version = registry.publish(tree.to_payload())
        assert registry.artifact_path(version).exists()
        assert registry.pointer_path().exists()
        assert registry.current() == (None, None)  # not loaded yet
        assert registry.reload() == (None, version)
        loaded, live = registry.current()
        assert live == version
        assert loaded.predict(X[0]) == tree.predict(X[0])
        assert registry.reload() is None  # unchanged pointer: no-op

    def test_publish_is_idempotent(self, tmp_path):
        tree, _ = _fit_tiny_tree()
        registry = ModelRegistry(tmp_path)
        v1 = registry.publish(tree.to_payload())
        v2 = registry.publish(tree.to_payload())
        assert v1 == v2
        assert registry.versions() == [v1]

    def test_hot_swap_reports_old_and_new(self, tmp_path):
        t1, _ = _fit_tiny_tree(seed=3)
        t2, _ = _fit_tiny_tree(seed=4)
        registry = ModelRegistry(tmp_path)
        v1 = registry.publish(t1.to_payload())
        registry.reload()
        v2 = registry.publish(t2.to_payload())
        assert registry.reload() == (v1, v2)
        assert registry.current()[1] == v2
        assert sorted(registry.versions()) == sorted([v1, v2])

    def test_corrupt_pointer_keeps_old_model(self, tmp_path):
        tree, _ = _fit_tiny_tree()
        registry = ModelRegistry(tmp_path)
        version = registry.publish(tree.to_payload())
        registry.reload()
        registry.pointer_path().write_text("{not json")
        assert registry.reload() is None
        assert registry.current()[1] == version

    def test_in_flight_snapshot_survives_swap(self, tmp_path):
        t1, X = _fit_tiny_tree(seed=3)
        t2, _ = _fit_tiny_tree(seed=4)
        registry = ModelRegistry(tmp_path)
        registry.publish(t1.to_payload())
        registry.reload()
        snapshot_tree, snapshot_version = registry.current()
        registry.publish(t2.to_payload())
        registry.reload()
        # The pre-swap snapshot keeps answering with the old tree.
        assert snapshot_tree.predict(X[0]) == t1.predict(X[0])
        assert registry.current()[1] != snapshot_version


# ------------------------------ training ------------------------------- #
class TestTraining:
    def test_guided_records_are_excluded(self):
        records = [_record(mode="guided", kind="bcsr")] * 50
        assert fit_from_records(records, min_samples=1) is None

    def test_fit_needs_min_samples(self):
        records = [_record(features=(float(i), 0.0, 0.0), kind="csr")
                   for i in range(4)]
        assert fit_from_records(records, min_samples=5) is None
        fitted = fit_from_records(records, min_samples=4)
        assert fitted is not None and fitted[1] == 4

    def test_records_without_features_are_skipped(self):
        records = [_record(features=None)] * 20
        assert fit_from_records(records, min_samples=1) is None

    def test_train_once_publishes_and_emits(self, tmp_path):
        from repro.engine.events import EventBus

        class Sink:
            def __init__(self):
                self.events = []

            def handle(self, event):
                self.events.append(event)

        sink = Sink()
        bus = EventBus()
        bus.subscribe(sink)
        events = sink.events
        log = TraceLog(tmp_path)
        for i in range(10):
            log.append(_record(
                features=(float(i % 3), float(i), 0.0),
                kind="bcsr" if i % 3 == 0 else "csr",
            ))
        registry = ModelRegistry(tmp_path)
        summary = train_once(log, registry, bus=bus, min_samples=8)
        assert summary["published"] is True
        assert summary["samples"] == 10
        assert registry.reload() == (None, summary["version"])
        kinds = [e["event"] for e in events]
        assert kinds == ["train_begin", "train_end"]
        assert events[1]["published"] is True

    def test_train_once_same_trace_same_version(self, tmp_path):
        log = TraceLog(tmp_path)
        for i in range(12):
            log.append(_record(features=(float(i), 0.0, 0.0), kind="csr"))
        v1 = train_once(log, ModelRegistry(tmp_path / "a"))["version"]
        v2 = train_once(log, ModelRegistry(tmp_path / "b"))["version"]
        assert v1 == v2

    def test_trainer_refits_only_on_growth(self, tmp_path):
        log = TraceLog(tmp_path)
        registry = ModelRegistry(tmp_path)
        published = []
        trainer = Trainer(
            log, registry, interval_s=999.0, min_samples=4,
            on_publish=lambda: published.append(True),
        )
        assert trainer.train_if_grown() is not None  # first pass (no-op fit)
        assert trainer.train_if_grown() is None  # trace did not grow
        for i in range(6):
            log.append(_record(features=(float(i), 0.0, 0.0), kind="csr"))
        summary = trainer.train_if_grown()
        assert summary is not None and summary["published"]
        assert published == [True]
        snap = trainer.snapshot()
        assert snap["cycles"] == 2 and snap["publishes"] == 1


# ------------------------------- shadow -------------------------------- #
class TestShadow:
    def test_is_holdout_deterministic(self):
        assert is_holdout("anything", 1)
        assert is_holdout("10", 8)  # 0x10 % 8 == 0
        assert not is_holdout("11", 8)
        for fp in ("deadbeef", "0abc123", "ffffffff"):
            assert is_holdout(fp, 4) == is_holdout(fp, 4)

    def test_non_holdout_never_drives_breaker(self):
        shadow = ShadowEvaluator(threshold=0.5, window=4, min_window=2)
        for _ in range(50):
            transition, gap = shadow.observe(False, holdout=False)
            assert transition is None and gap is None
        assert shadow.active
        assert shadow.gap() is None

    def test_drift_trip_and_recovery_on_fake_clock(self):
        clock = FakeClock()
        shadow = ShadowEvaluator(
            threshold=0.5, window=4, min_window=2,
            breaker_config=BreakerConfig(
                failure_threshold=2, reset_timeout_s=60.0, clock=clock
            ),
        )
        transitions = []
        for _ in range(4):
            transition, _gap = shadow.observe(False, holdout=True)
            transitions.append(transition)
        assert "open" in transitions
        assert not shadow.active
        assert shadow.gap() == 1.0
        # Still open before the reset timeout; half-open probes after it.
        clock.advance(61.0)
        assert shadow.breaker.state == CircuitBreaker.HALF_OPEN
        assert shadow.active  # half-open probes may serve guided
        # A still-bad window re-opens (the probe is claimed, not leaked).
        transition, _ = shadow.observe(False, holdout=True)
        assert transition == "open"
        assert not shadow.active
        # Recovery: agreement floods the window, gap drops, breaker closes.
        clock.advance(61.0)
        closed = []
        for _ in range(4):
            transition, gap = shadow.observe(True, holdout=True)
            closed.append(transition)
        assert "close" in closed
        assert shadow.active
        assert shadow.gap() == 0.0

    def test_snapshot_counters(self):
        shadow = ShadowEvaluator(threshold=0.5, window=8, min_window=8)
        shadow.observe(True, holdout=True)
        shadow.observe(False, holdout=False)
        snap = shadow.snapshot()
        assert snap["observed"] == 2 and snap["agreed"] == 1
        assert snap["holdout_observed"] == 1 and snap["holdout_agreed"] == 1
        assert snap["gap"] is None  # below min_window
        assert snap["threshold"] == 0.5


# --------------------------- service closed loop ------------------------ #
def _learn_service(machine, shared_profile_cache, tmp_path, **cfg):
    # reload_poll_every=1 restores always-poll so closed-loop tests see a
    # publish on the very next request; the throttle itself is covered by
    # TestServiceClosedLoop.test_reload_poll_is_throttled_but_bounded.
    config = LearnConfig(**{
        "holdout_mod": 2, "min_train_samples": 4, "reload_poll_every": 1,
        **cfg,
    })
    return AdvisorService(
        machine,
        cache_dir=tmp_path,
        profile_cache=shared_profile_cache,
        learn_config=config,
    )


def _drive(service, seeds, nrows=300, nnz=2400):
    recs = []
    for seed in seeds:
        coo = make_random_coo(nrows, nrows, nnz, seed=seed, with_values=False)
        recs.append(service.advise(coo, precision="dp"))
    return recs


class TestServiceClosedLoop:
    def test_learn_requires_cache_dir(self, machine):
        with pytest.raises(ValueError):
            AdvisorService(machine, cache_dir=None, learn_config=LearnConfig())

    def test_trace_then_train_then_hot_swap(
        self, machine, shared_profile_cache, tmp_path
    ):
        service = _learn_service(machine, shared_profile_cache, tmp_path)
        recs = _drive(service, range(8))
        assert all(r.learned["mode"] in ("baseline", "holdout") for r in recs)
        stats = service.stats()["learn"]
        assert stats["enabled"] and stats["trace_records"] == 8
        assert stats["model_version"] is None

        summary = train_once(
            service.learn.tracelog, service.learn.registry, min_samples=4
        )
        assert summary["published"]
        # The very next request polls the registry and hot-swaps.
        rec = _drive(service, [99])[0]
        assert rec.learned["model_version"] == summary["version"]
        stats = service.stats()
        assert stats["learn"]["model_version"] == summary["version"]
        assert stats["learn"]["model_swaps"] == 1
        assert stats["resilience"]["events"]["model_swap"] == 1
        assert stats["resilience"]["events"]["trace_logged"] == 9

    def test_reload_poll_is_throttled_but_bounded(
        self, machine, shared_profile_cache, tmp_path
    ):
        # Default config: the pointer is polled on request 1, 17, 33, ...
        # A cross-process publish is therefore adopted within
        # reload_poll_every requests, never later.
        service = _learn_service(
            machine, shared_profile_cache, tmp_path, reload_poll_every=4
        )
        _drive(service, range(3))
        summary = train_once(
            service.learn.tracelog, service.learn.registry, min_samples=1
        )
        assert summary["published"]
        # Request 4 rides the throttled window; request 5 (the 4th poll
        # slot after requests 1..4) polls and swaps.
        versions = [
            r.learned["model_version"] for r in _drive(service, range(50, 53))
        ]
        assert versions[0] is None
        assert versions[1] == summary["version"]
        assert versions[2] == summary["version"]
        assert service.stats()["learn"]["model_swaps"] == 1

    def test_guided_serving_uses_versioned_cache_key(
        self, machine, shared_profile_cache, tmp_path
    ):
        service = _learn_service(machine, shared_profile_cache, tmp_path)
        # Find a non-holdout matrix and cache its baseline answer.
        target = None
        for seed in range(40):
            rec = _drive(service, [seed])[0]
            if not rec.learned["holdout"]:
                target = seed
                break
        assert target is not None
        train_once(
            service.learn.tracelog, service.learn.registry, min_samples=1
        )
        before = service.stats()["cache_misses"]
        rec = _drive(service, [target])[0]
        assert rec.learned["mode"] == "guided"
        assert "predicted_kind" in rec.learned
        assert rec.best.kind == rec.learned["predicted_kind"]
        # The baseline cache entry must not satisfy a guided request: the
        # guided answer lives under a model-version-suffixed key.
        assert not rec.cache_hit
        assert service.stats()["cache_misses"] == before + 1
        again = _drive(service, [target])[0]
        assert again.cache_hit and again.learned["mode"] == "guided"

    def test_holdout_stays_analytic_and_shadowed(
        self, machine, shared_profile_cache, tmp_path
    ):
        service = _learn_service(machine, shared_profile_cache, tmp_path)
        _drive(service, range(6))
        train_once(
            service.learn.tracelog, service.learn.registry, min_samples=1
        )
        holdout_seed = None
        for seed in range(40, 80):
            rec = _drive(service, [seed])[0]
            if rec.learned["holdout"]:
                holdout_seed = seed
                break
        assert holdout_seed is not None
        assert rec.learned["mode"] == "holdout"
        assert "predicted_kind" not in rec.learned  # model never steered it
        assert rec.learned["shadow"]["chosen_kind"] == rec.best.kind
        snap = service.stats()["learn"]["shadow"]
        assert snap["holdout_observed"] >= 1

    def test_drift_trips_fallback_mode(
        self, machine, shared_profile_cache, tmp_path
    ):
        clock = FakeClock()
        config = LearnConfig(
            holdout_mod=2, drift_threshold=0.5,
            drift_window=2, drift_min_window=2,
        )
        service = AdvisorService(
            machine,
            cache_dir=tmp_path,
            profile_cache=shared_profile_cache,
            learn_config=config,
            drift_breaker_config=BreakerConfig(
                failure_threshold=1, reset_timeout_s=1e9, clock=clock
            ),
        )
        # Publish a deliberately wrong model: a single leaf predicting a
        # kind the analytic path never chooses for these matrices.
        bogus = {
            "max_depth": 1,
            "min_samples_leaf": 1,
            "classes": ["bcsd"],
            "root": {"label": "bcsd"},
        }
        service.learn.registry.publish(bogus)
        seeds = iter(range(500))
        holdout_seen = guided = fallback = None
        while service.learn.shadow.active:
            rec = _drive(service, [next(seeds)])[0]
            if rec.learned["holdout"]:
                holdout_seen = rec
                assert rec.learned["shadow"]["agree"] is False
            elif rec.learned["mode"] == "guided":
                guided = rec
        assert holdout_seen is not None
        # Breaker open: non-holdout requests fall back to pure analytic.
        while fallback is None:
            rec = _drive(service, [next(seeds)])[0]
            if not rec.learned["holdout"]:
                fallback = rec
        assert fallback.learned["mode"] == "fallback"
        assert "predicted_kind" not in fallback.learned
        stats = service.stats()
        assert stats["learn"]["drift_breaker"]["state"] == "open"
        assert stats["resilience"]["events"]["drift_alarm"] >= 1
        assert stats["learn"]["modes"]["fallback"] >= 1
        # Fallback answers stay trainable (they are analytic choices).
        if guided is not None:
            assert guided.learned["mode"] == "guided"

    def test_same_seed_traffic_same_canonical_trace(
        self, machine, shared_profile_cache, tmp_path
    ):
        def run(subdir):
            service = _learn_service(
                machine, shared_profile_cache, tmp_path / subdir
            )
            _drive(service, range(5))
            return [
                json.dumps(canonical_record(r), sort_keys=True)
                for r in service.learn.tracelog.records()
            ]

        assert run("a") == run("b")


# ------------------------------ HTTP layer ------------------------------ #
@pytest.fixture()
def learn_server(machine, shared_profile_cache, tmp_path):
    from repro.serve.server import create_server

    service = _learn_service(machine, shared_profile_cache, tmp_path)
    srv = create_server(service, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


def _mtx_text(seed):
    coo = make_random_coo(120, 120, 900, seed=seed, with_values=False)
    pairs = sorted(zip(coo.rows.tolist(), coo.cols.tolist()))
    lines = ["%%MatrixMarket matrix coordinate pattern general",
             f"{coo.nrows} {coo.ncols} {len(pairs)}"]
    lines += [f"{r + 1} {c + 1}" for r, c in pairs]
    return "\n".join(lines) + "\n"


class TestLearnHTTP:
    def _post(self, server, body):
        port = server.server_address[1]
        req = urllib.request.Request(
            f"http://127.0.0.1:{port}/advise",
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=60) as resp:
            return json.loads(resp.read())

    def _get_stats(self, server):
        port = server.server_address[1]
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/stats", timeout=30
        ) as resp:
            return json.loads(resp.read())

    def test_advise_payload_carries_learned_block(self, learn_server):
        payload = self._post(
            learn_server, {"matrix_market": _mtx_text(5)}
        )
        assert payload["learned"]["mode"] in ("baseline", "holdout")
        assert payload["learned"]["model_version"] is None

    def test_stats_exposes_learn_block(self, learn_server):
        self._post(learn_server, {"matrix_market": _mtx_text(6)})
        stats = self._get_stats(learn_server)
        assert stats["learn"]["enabled"] is True
        assert stats["learn"]["trace_records"] >= 1
        assert stats["resilience"]["events"]["trace_logged"] >= 1


# ------------------------------- CLI ----------------------------------- #
class TestTrainCLI:
    def test_train_publishes_from_trace(
        self, machine, shared_profile_cache, tmp_path, capsys
    ):
        from repro.cli import main

        service = _learn_service(machine, shared_profile_cache, tmp_path)
        _drive(service, range(6))
        # A separate process only sees flushed segments; drain the buffer
        # like a serving process's periodic flush (or shutdown) would.
        service.learn.tracelog.flush()
        rc = main(["train", "--cache-dir", str(tmp_path), "--min-samples", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "published model" in out
        registry = ModelRegistry(tmp_path)
        assert registry.reload() is not None

    def test_train_empty_trace_fails_politely(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["train", "--cache-dir", str(tmp_path)])
        assert rc == 1
        assert "not published" in capsys.readouterr().out

    def test_serve_train_interval_requires_learn(self, capsys):
        from repro.cli import main

        rc = main(["serve", "--train-interval", "5"])
        assert rc == 2
        assert "--learn" in capsys.readouterr().err


# --------------------------- model-path safety -------------------------- #
@pytest.mark.slow
class TestAnalyticPathUntouched:
    def test_canonical_sweep_sha_is_unchanged(self, tmp_path):
        """The learning subsystem must not perturb the analytic sweep."""
        import hashlib

        from repro.bench.harness import GOLDEN_SWEEP, GOLDEN_SWEEP_SHA, run_sweep
        from repro.core.profiling import ProfileStore

        result = run_sweep(
            config=GOLDEN_SWEEP, profile_cache=ProfileStore(tmp_path)
        )
        sha = hashlib.sha256(
            result.canonical_json().encode()
        ).hexdigest()[:16]
        assert sha == GOLDEN_SWEEP_SHA
