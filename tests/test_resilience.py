"""Chaos suite: seeded fault injection and the hardening it verifies.

Unit-tests the :mod:`repro.resilience` primitives (fault plans, deadlines,
the circuit breaker) with fake clocks, then drives the real advisor
service, HTTP server, and sweep engine under installed fault plans:
mid-write crashes must leave no partial cache entry, breaker-open serving
must degrade instead of failing, over-budget requests must 504, overload
must shed with a 503, and a drain must finish in-flight work.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.bench.harness import SweepConfig
from repro.engine import CollectingReporter, SweepEngine
from repro.errors import DeadlineExceededError, ServiceUnavailableError
from repro.resilience import (
    BreakerConfig,
    CircuitBreaker,
    Deadline,
    FaultInjectedError,
    FaultPlan,
    FaultRule,
    current_plan,
    fault_point,
    install_plan_from_env,
    installed,
    load_plan_spec,
    uninstall_plan,
)
from repro.serve.server import create_server
from repro.serve.service import AdvisorService

from .conftest import make_random_coo
from .test_engine import STUB_CONFIG, SUBSET, stub_task


@pytest.fixture(autouse=True)
def _no_plan_leaks():
    """Every test starts and must end with no globally installed plan."""
    uninstall_plan()
    yield
    assert current_plan() is None, "test leaked an installed FaultPlan"
    uninstall_plan()


class FakeClock:
    def __init__(self, t: float = 100.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# --------------------------------------------------------------------------- #
# FaultRule / FaultPlan units
# --------------------------------------------------------------------------- #


class TestFaultRule:
    @pytest.mark.parametrize("kwargs,needle", [
        (dict(site="no.such.site", action="raise"), "unknown fault site"),
        (dict(site="serve.store.save", action="explode"), "unknown fault action"),
        (dict(site="serve.store.save", action="raise", nth=1, probability=0.5),
         "not both"),
        (dict(site="serve.store.save", action="raise", nth=0), "1-based"),
        (dict(site="serve.store.save", action="raise", probability=1.5),
         "probability"),
        (dict(site="serve.store.save", action="raise", error="KeyboardInterrupt"),
         "unknown error class"),
    ])
    def test_validation(self, kwargs, needle):
        with pytest.raises(ValueError, match=needle):
            FaultRule(**kwargs)

    def test_payload_round_trip(self):
        rule = FaultRule(
            site="serve.store.save", action="raise", nth=3, times=2,
            error="OSError", message="disk gone",
        )
        again = FaultRule.from_payload(rule.to_payload())
        assert again == rule

    def test_unknown_payload_key_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-rule key"):
            FaultRule.from_payload(
                {"site": "serve.store.save", "action": "raise", "sit": 1}
            )

    def test_error_class(self):
        rule = FaultRule(site="serve.store.save", action="raise", error="OSError")
        exc = rule.exception()
        assert isinstance(exc, OSError)
        assert "serve.store.save" in str(exc)


class TestFaultPlan:
    def test_no_plan_is_a_pure_passthrough(self):
        assert current_plan() is None
        assert fault_point("serve.store.save", "data") == "data"
        assert fault_point("serve.store.save") is None

    def test_nth_fires_on_exactly_that_hit(self):
        plan = FaultPlan(
            [FaultRule(site="serve.store.save", action="raise", nth=2)]
        )
        assert plan.apply("serve.store.save", "a") == "a"
        with pytest.raises(FaultInjectedError):
            plan.apply("serve.store.save")
        assert plan.apply("serve.store.save", "c") == "c"
        assert plan.hit_count("serve.store.save") == 3
        assert plan.injections == [
            {"site": "serve.store.save", "action": "raise", "hit": 2, "rule": 0},
        ]

    def test_times_caps_an_always_rule(self):
        plan = FaultPlan(
            [FaultRule(site="serve.store.save", action="raise", times=2)]
        )
        for _ in range(2):
            with pytest.raises(FaultInjectedError):
                plan.apply("serve.store.save")
        assert plan.apply("serve.store.save", "ok") == "ok"

    def test_probability_sequence_is_seed_deterministic(self):
        def run(seed):
            plan = FaultPlan(
                [FaultRule(site="serve.store.load", action="corrupt",
                           probability=0.4)],
                seed=seed,
            )
            for _ in range(60):
                plan.apply("serve.store.load", "x")
            return plan.injections

        first, second = run(7), run(7)
        assert first == second
        assert 0 < len(first) < 60  # actually probabilistic, not always/never

    def test_corrupt_mangles_str_and_bytes(self):
        plan = FaultPlan(
            [FaultRule(site="serve.store.load", action="corrupt")]
        )
        text = plan.apply("serve.store.load", '{"k": "value"}')
        assert text != '{"k": "value"}'
        with pytest.raises(json.JSONDecodeError):
            json.loads(text)
        plan2 = FaultPlan(
            [FaultRule(site="serve.store.load", action="corrupt")]
        )
        blob = plan2.apply("serve.store.load", b"0123456789")
        assert isinstance(blob, bytes) and blob != b"0123456789"

    def test_delay_sleeps(self):
        plan = FaultPlan(
            [FaultRule(site="serve.store.load", action="delay", delay_s=0.05)]
        )
        t0 = time.perf_counter()
        plan.apply("serve.store.load")
        assert time.perf_counter() - t0 >= 0.04

    def test_json_round_trip(self):
        plan = FaultPlan(
            [
                FaultRule(site="serve.store.save", action="raise", nth=1),
                FaultRule(site="serve.store.load", action="delay",
                          probability=0.5, delay_s=0.2),
            ],
            seed=42,
        )
        again = FaultPlan.from_json(plan.to_json())
        assert again.seed == 42
        assert again.rules == plan.rules

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_json("[1, 2]")
        with pytest.raises(ValueError, match="unknown fault-plan key"):
            FaultPlan.from_json('{"seeed": 3}')

    def test_installed_restores_previous_plan(self):
        outer = FaultPlan([])
        inner = FaultPlan([])
        with installed(outer):
            with installed(inner):
                assert current_plan() is inner
            assert current_plan() is outer
        assert current_plan() is None

    def test_on_inject_callback(self):
        seen = []
        plan = FaultPlan(
            [FaultRule(site="serve.store.load", action="corrupt", nth=1)]
        )
        plan.on_inject = seen.append
        plan.apply("serve.store.load", "t")
        assert seen == [
            {"site": "serve.store.load", "action": "corrupt", "hit": 1,
             "rule": 0},
        ]

    def test_load_plan_spec_inline_and_file(self, tmp_path):
        text = '{"seed": 5, "rules": []}'
        assert load_plan_spec(text).seed == 5
        path = tmp_path / "plan.json"
        path.write_text(text)
        assert load_plan_spec(str(path)).seed == 5

    def test_install_plan_from_env(self):
        plan = install_plan_from_env(
            {"REPRO_FAULT_PLAN": '{"seed": 9, "rules": []}'}
        )
        try:
            assert plan is not None and plan.seed == 9
            assert current_plan() is plan
        finally:
            uninstall_plan()
        assert install_plan_from_env({}) is None
        with pytest.raises(ValueError):
            install_plan_from_env({"REPRO_FAULT_PLAN": "{bad"})


# --------------------------------------------------------------------------- #
# Deadline / CircuitBreaker units
# --------------------------------------------------------------------------- #


class TestDeadline:
    def test_remaining_and_expiry(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)
        assert deadline.remaining() == pytest.approx(10.0)
        assert not deadline.expired
        deadline.check("early")  # no raise
        clock.advance(10.0)
        assert deadline.expired
        with pytest.raises(DeadlineExceededError, match="at evaluate"):
            deadline.check("evaluate")

    def test_zero_budget_is_immediately_expired(self):
        deadline = Deadline(0.0, clock=FakeClock())
        assert deadline.expired

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-1.0)


class TestCircuitBreaker:
    def make(self, clock, threshold=2, reset=30.0):
        return CircuitBreaker(BreakerConfig(
            failure_threshold=threshold, reset_timeout_s=reset, clock=clock,
        ))

    def test_opens_after_consecutive_failures(self):
        breaker = self.make(FakeClock())
        assert breaker.allow()
        assert breaker.record_failure() is None
        assert breaker.record_failure() == "open"
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_success_resets_the_streak(self):
        breaker = self.make(FakeClock())
        breaker.record_failure()
        breaker.record_success()
        assert breaker.record_failure() is None  # streak restarted
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = self.make(clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(30.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # everyone else keeps waiting

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = self.make(clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(30.0)
        assert breaker.allow()
        assert breaker.record_success() == "close"
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = self.make(clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(30.0)
        assert breaker.allow()
        assert breaker.record_failure() == "open"
        assert not breaker.allow()
        clock.advance(30.0)
        assert breaker.allow()  # next probe window

    def test_snapshot_shape(self):
        breaker = self.make(FakeClock(), threshold=3, reset=7.5)
        breaker.record_failure()
        assert breaker.snapshot() == {
            "state": "closed",
            "consecutive_failures": 1,
            "failure_threshold": 3,
            "reset_timeout_s": 7.5,
        }


# --------------------------------------------------------------------------- #
# Service-level chaos
# --------------------------------------------------------------------------- #


def _service(machine, shared_profile_cache, cache_dir, **kwargs):
    return AdvisorService(
        machine, cache_dir=cache_dir, profile_cache=shared_profile_cache,
        **kwargs,
    )


def _matrix(seed):
    return make_random_coo(64, 64, 300, seed=seed, with_values=False)


class TestServiceChaos:
    def test_mid_write_crash_leaves_no_partial_entry(
        self, machine, shared_profile_cache, tmp_path
    ):
        """Acceptance: a crash between tmp-write and rename leaves nothing
        behind, the request still succeeds, and the next one repopulates."""
        service = _service(machine, shared_profile_cache, tmp_path)
        plan = FaultPlan([FaultRule(
            site="ioutils.atomic_write_json.replace", action="raise", nth=1,
        )])
        matrix = _matrix(1)
        with installed(plan):
            rec = service.advise(matrix)
            assert not rec.cache_hit
            advisor_dir = tmp_path / "advisor"
            assert list(advisor_dir.glob("rec_*.json")) == []
            assert list(advisor_dir.glob("*.tmp")) == []

            again = service.advise(matrix)  # hit 2: no fire, save succeeds
            assert not again.cache_hit
            assert len(list(advisor_dir.glob("rec_*.json"))) == 1
            third = service.advise(matrix)
            assert third.cache_hit
        assert again.ranking == rec.ranking

    def test_corrupted_entry_is_discarded_and_recomputed(
        self, machine, shared_profile_cache, tmp_path
    ):
        service = _service(machine, shared_profile_cache, tmp_path)
        plan = FaultPlan([FaultRule(
            site="ioutils.atomic_write_json.data", action="corrupt", nth=1,
        )])
        matrix = _matrix(2)
        with installed(plan):
            first = service.advise(matrix)
        second = service.advise(matrix)  # corrupt entry discarded, recomputed
        assert not second.cache_hit
        third = service.advise(matrix)
        assert third.cache_hit
        assert second.ranking == first.ranking == third.ranking

    def test_breaker_lifecycle_and_degraded_mode(
        self, machine, shared_profile_cache, tmp_path
    ):
        """Acceptance: breaker-open serves cached matrices flagged degraded,
        refuses uncached ones with ServiceUnavailableError, and a half-open
        probe closes it again."""
        clock = FakeClock()
        service = _service(
            machine, shared_profile_cache, tmp_path,
            breaker_config=BreakerConfig(
                failure_threshold=2, reset_timeout_s=30.0, clock=clock,
            ),
        )
        cached, uncached = _matrix(3), _matrix(4)
        baseline = service.advise(cached)  # populate the cache

        plan = FaultPlan([FaultRule(site="serve.service.advise", action="raise")])
        with installed(plan):
            for _ in range(2):
                with pytest.raises(FaultInjectedError):
                    service.advise(uncached)
            events = service.stats()["resilience"]["events"]
            assert events.get("breaker_open") == 1
            assert events.get("fault_injected") == 2

            # Open: uncached is refused without touching the cold path...
            with pytest.raises(ServiceUnavailableError, match="breaker"):
                service.advise(uncached)
            assert plan.hit_count("serve.service.advise") == 2
            # ...while the cached matrix still answers, flagged degraded.
            rec = service.advise(cached)
            assert rec.cache_hit and rec.degraded
            assert service.stats()["degraded"] == 1

        clock.advance(30.0)  # reset window: next cold call is the probe
        recovered = service.advise(uncached)
        assert recovered.ranking
        events = service.stats()["resilience"]["events"]
        assert events.get("breaker_close") == 1
        post = service.advise(cached)
        assert post.cache_hit and not post.degraded
        assert post.ranking == baseline.ranking
        breakers = service.stats()["resilience"]["breakers"]
        assert breakers["dp"]["state"] == "closed"

    def test_expired_deadline_raises(
        self, machine, shared_profile_cache, tmp_path
    ):
        service = _service(machine, shared_profile_cache, tmp_path)
        with pytest.raises(DeadlineExceededError):
            service.advise(_matrix(5), deadline=Deadline(0.0))
        assert service.stats()["errors"] == 1


# --------------------------------------------------------------------------- #
# Engine-level chaos
# --------------------------------------------------------------------------- #


class TestEngineChaos:
    def test_injected_task_fault_is_retried(self, tmp_path):
        reporter = CollectingReporter()
        plan = FaultPlan([FaultRule(
            site="engine.pool.task", action="raise", nth=1,
        )])
        with installed(plan):
            engine = SweepEngine(
                STUB_CONFIG, cache_dir=tmp_path, jobs=1, task_fn=stub_task,
                reporters=[reporter], backoff_base_s=0.01, backoff_cap_s=0.01,
            )
            result = engine.run()
        assert result.missing == []
        assert len(result.matrices) == len(SUBSET)
        assert len(reporter.of("shard_retry")) == 1
        injected = reporter.of("fault_injected")
        assert [e["site"] for e in injected] == ["engine.pool.task"]

    def test_fault_storm_quarantines_instead_of_hanging(self, tmp_path):
        reporter = CollectingReporter()
        plan = FaultPlan([FaultRule(site="engine.pool.task", action="raise")])
        with installed(plan):
            engine = SweepEngine(
                STUB_CONFIG, cache_dir=tmp_path, jobs=1, task_fn=stub_task,
                reporters=[reporter], max_retries=1,
                backoff_base_s=0.01, backoff_cap_s=0.01,
            )
            result = engine.run()
        assert result.missing == list(SUBSET)
        assert result.matrices == []
        assert len(reporter.of("shard_quarantined")) == len(SUBSET)


# --------------------------------------------------------------------------- #
# Server-level chaos
# --------------------------------------------------------------------------- #


@contextlib.contextmanager
def running_server(service, **kwargs):
    srv = create_server(service, port=0, **kwargs)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


def _post(srv, body, timeout=60):
    port = srv.server_address[1]
    data = body if isinstance(body, bytes) else json.dumps(body).encode()
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}/advise",
        data=data,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


class TestServerChaos:
    @pytest.fixture()
    def service(self, machine, shared_profile_cache, tmp_path):
        return _service(machine, shared_profile_cache, tmp_path)

    def test_overload_sheds_with_503_and_retry_after(self, service):
        service.advise("dense")  # warm the cache: requests below are fast
        plan = FaultPlan([FaultRule(
            site="serve.server.request", action="delay", nth=1, delay_s=0.6,
        )])
        with installed(plan), running_server(service, max_inflight=1) as srv:
            results = []
            slow = threading.Thread(target=lambda: results.append(
                _post(srv, {"suite": "dense", "top": 1})
            ))
            slow.start()
            time.sleep(0.25)  # let the delayed request claim the only slot
            status, payload, headers = _post(srv, {"suite": "dense", "top": 1})
            slow.join(timeout=30)
        assert status == 503
        assert "capacity" in payload["error"]
        assert headers.get("Retry-After") == "1"
        assert results and results[0][0] == 200
        events = service.stats()["resilience"]["events"]
        assert events.get("request_shed", 0) >= 1

    def test_over_budget_request_gets_504(self, service):
        service.advise("dense")
        plan = FaultPlan([FaultRule(
            site="serve.service.profile", action="delay", delay_s=0.1,
        )])
        with installed(plan), running_server(service) as srv:
            status, payload, _ = _post(
                srv, {"suite": "dense", "top": 1, "timeout_s": 0.03}
            )
        assert status == 504
        assert "deadline" in payload["error"]
        events = service.stats()["resilience"]["events"]
        assert events.get("request_deadline_exceeded") == 1

    def test_bad_timeout_s_is_a_400(self, service):
        with running_server(service) as srv:
            status, payload, _ = _post(srv, {"suite": "dense", "timeout_s": -2})
        assert status == 400
        assert "timeout_s" in payload["error"]

    def test_oversized_body_gets_413(self, service):
        with running_server(service, max_body_bytes=64) as srv:
            body = {"matrix_market": "x" * 500}
            status, payload, _ = _post(srv, body)
        assert status == 413
        assert "exceeds" in payload["error"]

    def test_unexpected_exception_is_a_json_500(self, service):
        plan = FaultPlan([FaultRule(
            site="serve.server.request", action="raise", nth=1,
        )])
        with installed(plan), running_server(service) as srv:
            status, payload, _ = _post(srv, {"suite": "dense", "top": 1})
            again, _, _ = _post(srv, {"suite": "dense", "top": 1})
        assert status == 500
        assert "internal server error" in payload["error"]
        assert again == 200  # one poisoned request never wedges the server

    def test_degraded_flag_in_payload(self, service):
        with running_server(service) as srv:
            status, payload, _ = _post(srv, {"suite": "dense", "top": 1})
        assert status == 200
        assert payload["degraded"] is False

    def test_drain_finishes_inflight_requests(self, service):
        """Acceptance: drain lets the in-flight request complete, emits the
        drain events, and reports clean."""
        service.advise("dense")
        plan = FaultPlan([FaultRule(
            site="serve.server.request", action="delay", nth=1, delay_s=0.4,
        )])
        srv = create_server(service, port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        results = []
        try:
            with installed(plan):
                inflight = threading.Thread(target=lambda: results.append(
                    _post(srv, {"suite": "dense", "top": 1})
                ))
                inflight.start()
                time.sleep(0.15)
                clean = srv.drain()
                inflight.join(timeout=30)
        finally:
            srv.server_close()
            thread.join(timeout=5)
        assert clean
        assert results and results[0][0] == 200
        events = service.stats()["resilience"]["events"]
        assert events.get("drain_begin") == 1
        assert events.get("drain_end") == 1
        assert not srv.try_admit()  # a drained server admits nothing


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #


class TestCli:
    @pytest.mark.parametrize("command", ["serve", "fleet"])
    def test_busy_port_is_a_one_line_error(
        self, command, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main
        from repro.fleet import FleetSupervisor

        # The fleet binds its port before it spawns a worker: a busy port
        # must fail with no worker started (none left running).
        starts = []
        monkeypatch.setattr(
            FleetSupervisor, "start", lambda self: starts.append(self)
        )
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            rc = main([
                command, "--port", str(port), "--cache-dir", str(tmp_path),
            ])
        finally:
            blocker.close()
        assert rc == 1
        err = capsys.readouterr().err
        assert "already in use" in err
        assert f"repro {command}" in err
        assert len(err.strip().splitlines()) == 1
        assert starts == []

    @pytest.mark.parametrize("argv", [
        ["serve", "--fault-plan", "{bad json"],
        ["advise", "dense", "--fault-plan", "/no/such/plan.json"],
    ])
    def test_bad_fault_plan_exits_2(self, argv, capsys):
        from repro.cli import main

        assert main(argv) == 2
        assert "invalid fault plan" in capsys.readouterr().err

    @pytest.mark.slow
    def test_port_zero_and_sigterm_drain(self, tmp_path):
        """Acceptance: --port 0 announces the chosen port; SIGTERM drains
        and exits 0."""
        env = dict(os.environ)
        env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--cache-dir", str(tmp_path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on http://127.0.0.1:" in line
            port = int(line.split("http://127.0.0.1:")[1].split()[0])
            assert port > 0
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=10
            ) as resp:
                assert json.loads(resp.read()) == {"status": "ok"}
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=30)
            assert rc == 0
            stderr = proc.stderr.read()
            assert "final_stats" in stderr
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
