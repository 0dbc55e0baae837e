"""Tests for repro.fleet: replay determinism, sharded routing, stats
fan-in, the error contract the balancer shares with the advisor server,
and the live multi-process fleet (supervisor + balancer, and
``repro fleet`` itself)."""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from repro.engine.events import CollectingReporter, EventBus
from repro.fleet import (
    BalancerRequestHandler,
    FleetBalancer,
    FleetConfig,
    FleetSupervisor,
    WorkerProcess,
    WorkerSlot,
    build_plan,
    merge_stats,
    percentile,
    routing_fingerprint,
    run_load,
    serve_fleet,
    shard_for,
)
from repro.fleet import balancer as balancer_mod
from repro.fleet.replay import CHAOS_FAULT_PLAN, DEFAULT_MATRICES
from repro.serve.server import AdvisorRequestHandler, create_server
from repro.serve.service import AdvisorService
from repro.types import Precision

from .conftest import keepalive_get_seconds


@pytest.fixture(scope="session")
def profile_root(tmp_path_factory, machine, profile_dp):
    """A profile store pre-seeded on disk with the session dp profile.

    Fleet workers point ``--profile-dir`` here and warm-start from disk
    instead of each paying the multi-second calibration.
    """
    from repro.core.profiling import (
        PROFILE_SCHEMA,
        ProfileStore,
        profile_to_payload,
    )
    from repro.ioutils import atomic_write_json

    root = tmp_path_factory.mktemp("fleet-profiles")
    store = ProfileStore(root)
    atomic_write_json(
        store.path(machine, Precision.DP, False),
        {
            "schema": PROFILE_SCHEMA,
            "machine": machine.name,
            "profile": profile_to_payload(profile_dp),
        },
    )
    return root


class TestReplayDeterminism:
    @pytest.mark.parametrize("mix", ["steady", "skew", "flood", "chaos"])
    def test_same_seed_byte_identical(self, mix):
        a = build_plan(mix, 42, 80)
        b = build_plan(mix, 42, 80)
        assert a.canonical_json() == b.canonical_json()
        assert a.sequence_sha() == b.sequence_sha()
        assert [r.suite for r in a.requests] == [
            r.suite for r in b.requests
        ]

    def test_different_seed_different_sequence(self):
        assert (
            build_plan("steady", 1, 80).sequence_sha()
            != build_plan("steady", 2, 80).sequence_sha()
        )

    def test_different_mix_different_sequence(self):
        assert (
            build_plan("steady", 7, 80).sequence_sha()
            != build_plan("skew", 7, 80).sequence_sha()
        )

    def test_plan_shape(self):
        plan = build_plan("steady", 3, 17)
        assert len(plan.requests) == 17
        assert plan.matrices == DEFAULT_MATRICES
        assert all(r.suite in DEFAULT_MATRICES for r in plan.requests)
        assert plan.fault_plan is None and plan.kill_worker_at is None

    def test_skew_concentrates_traffic(self):
        plan = build_plan("skew", 5, 300)
        counts = {}
        for r in plan.requests:
            counts[r.suite] = counts.get(r.suite, 0) + 1
        top = max(counts.values())
        assert top > 300 / len(plan.matrices)  # hotter than uniform

    def test_flood_cycles_all_matrices(self):
        plan = build_plan("flood", 5, 9, ("dense", "pwtk", "stomach"))
        # Every consecutive window of 3 touches all 3 matrices.
        for start in (0, 3, 6):
            window = {r.suite for r in plan.requests[start:start + 3]}
            assert window == {"dense", "pwtk", "stomach"}

    def test_chaos_carries_fault_plan_and_kill(self):
        plan = build_plan("chaos", 11, 20)
        assert plan.fault_plan == CHAOS_FAULT_PLAN
        assert plan.kill_worker_at == 0.5
        # The canonical form covers the chaos script too.
        assert "kill_worker_at" in plan.canonical_json()

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError, match="unknown mix"):
            build_plan("bursty", 1, 10)

    def test_unknown_matrix_rejected_up_front(self):
        with pytest.raises(KeyError):
            build_plan("steady", 1, 10, ("no-such-matrix",))


class TestRouting:
    def test_fingerprint_is_stable_and_normalised(self):
        fp = routing_fingerprint({"suite": "pwtk"})
        assert fp == routing_fingerprint({"suite": " PWTK "})
        assert fp == routing_fingerprint({"suite": "pwtk", "top": 3})
        assert fp != routing_fingerprint({"suite": "dense"})

    def test_matrix_market_and_suite_hash_apart(self):
        assert routing_fingerprint(
            {"matrix_market": "pwtk"}
        ) != routing_fingerprint({"suite": "pwtk"})

    def test_unroutable_bodies(self):
        assert routing_fingerprint({}) is None
        assert routing_fingerprint({"matrix_market": 42}) is None

    def test_shard_partition_is_disjoint_and_total(self):
        # Every request maps to exactly one shard, and the mapping only
        # depends on the fingerprint: this is the disjoint-cache property.
        for n in (1, 2, 3, 4, 7):
            for name in DEFAULT_MATRICES:
                fp = routing_fingerprint({"suite": name})
                shards = {shard_for(fp, n) for _ in range(5)}
                assert len(shards) == 1
                assert 0 <= shards.pop() < n


class TestMergeStats:
    def test_counters_sum_and_latency_weights(self):
        merged = merge_stats([
            {"requests": 10, "cache_hits": 4, "cache_misses": 6,
             "errors": 1, "degraded": 0,
             "cache_entries": 6, "mean_latency_s": 0.1, "machine": "m",
             "resilience": {"events": {"request_shed": 1},
                            "breakers": {}}},
            {"requests": 30, "cache_hits": 20, "cache_misses": 10,
             "errors": 2, "degraded": 1,
             "cache_entries": 10, "mean_latency_s": 0.3, "machine": "m",
             "resilience": {"events": {"request_shed": 2},
                            "breakers": {}}},
        ])
        assert merged["requests"] == 40
        assert merged["cache_hits"] == 24
        assert merged["errors"] == 3
        assert merged["cache_entries"] == 16
        assert merged["mean_latency_s"] == pytest.approx(0.25)
        assert merged["machine"] == "m"
        assert merged["resilience"]["events"]["request_shed"] == 3

    def test_breakers_take_worst_state(self):
        closed = {"state": "closed", "consecutive_failures": 0}
        open_ = {"state": "open", "consecutive_failures": 5}
        half = {"state": "half_open", "consecutive_failures": 2}
        merged = merge_stats([
            {"requests": 1, "resilience": {"events": {},
                                           "breakers": {"dp": open_}}},
            {"requests": 1, "resilience": {"events": {},
                                           "breakers": {"dp": closed,
                                                        "sp": half}}},
        ])
        assert merged["resilience"]["breakers"]["dp"]["state"] == "open"
        assert (
            merged["resilience"]["breakers"]["dp"]["consecutive_failures"]
            == 5
        )
        assert merged["resilience"]["breakers"]["sp"]["state"] == "half_open"

    def test_empty_fleet(self):
        merged = merge_stats([])
        assert merged["requests"] == 0
        assert merged["mean_latency_s"] == 0.0


class TestPercentile:
    def test_nearest_rank(self):
        values = [float(i) for i in range(1, 11)]
        assert percentile(values, 50.0) == 5.0
        assert percentile(values, 95.0) == 10.0
        assert percentile(values, 100.0) == 10.0
        assert percentile([], 50.0) == 0.0
        assert percentile([3.0], 99.0) == 3.0


class _StubAdviseHandler(BaseHTTPRequestHandler):
    """Answers every /advise with a canned ``status`` (no model evaluation)."""

    status = 200

    def do_POST(self):  # noqa: N802 - stdlib naming
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        payload = json.dumps({"echo": body.get("suite")}).encode()
        self.send_response(self.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server(request):
    """A stub /advise server; indirect parametrization sets its status."""
    handler = type(
        "_Stub", (_StubAdviseHandler,),
        {"status": getattr(request, "param", 200)},
    )
    srv = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{srv.server_address[1]}"
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


class TestLoadgenTables:
    def test_deterministic_fields_stable_across_runs(self, stub_server):
        plan = build_plan("skew", 9, 25)
        tables = [
            run_load(stub_server, plan, clients=3) for _ in range(2)
        ]
        for table in tables:
            table.pop("timing")  # wall-clock: excluded from the contract
        assert tables[0] == tables[1]
        assert tables[0]["statuses"] == {"200": 25}
        assert tables[0]["violations"] == []
        assert tables[0]["sequence_sha256"] == plan.sequence_sha()

    def test_status_budget_violations_recorded(self, stub_server):
        plan = build_plan("steady", 9, 5)
        table = run_load(
            stub_server, plan, clients=2, allowed_statuses=(418,)
        )
        assert len(table["violations"]) == 5

    def test_midpoint_hook_fires_exactly_once(self, stub_server):
        plan = build_plan("steady", 9, 20)
        fired = []
        run_load(
            stub_server, plan, clients=4,
            on_midpoint=lambda: fired.append(1),
        )
        assert len(fired) == 1

    @pytest.mark.parametrize("stub_server", [503], indirect=True)
    def test_a_run_with_no_200_is_a_violation(self, stub_server):
        # 503 is inside the chaos budget, but a server that sheds every
        # request served nothing.
        plan = build_plan("chaos", 9, 6)
        table = run_load(stub_server, plan, clients=2)
        assert table["statuses"] == {"503": 6}
        assert table["violations"] == ["no request answered 200"]


class _NoWorkers:
    """A stub supervisor: one slot with no worker behind it, so nothing is
    routable; this is all the balancer's handler reads."""

    def __init__(self) -> None:
        self.slots = (WorkerSlot(index=0),)

    def snapshot(self):
        return [slot.snapshot() for slot in self.slots]


def test_balancer_keepalive_40_healthz_under_half_a_second():
    # TCP_NODELAY on the balancer's accepted sockets: with Nagle on, each
    # keep-alive answer's body waits ~40 ms for a delayed ACK of its headers.
    balancer = FleetBalancer(
        ("127.0.0.1", 0), BalancerRequestHandler, _NoWorkers(), bus=EventBus()
    )
    loop = threading.Thread(target=balancer.serve_forever, daemon=True)
    loop.start()
    try:
        host, port = balancer.server_address[:2]
        assert keepalive_get_seconds(host, port, "/healthz") < 0.5
    finally:
        balancer.shutdown()
        balancer.server_close()
        loop.join(timeout=5)


@pytest.fixture(params=["server", "balancer"])
def front(request, machine, shared_profile_cache, tmp_path):
    """A live HTTP front: the advisor server, or the fleet balancer over a
    stub supervisor with nothing routable."""
    if request.param == "server":
        srv = create_server(
            AdvisorService(
                machine, cache_dir=tmp_path,
                profile_cache=shared_profile_cache,
            ),
            port=0,
        )
    else:
        srv = FleetBalancer(
            ("127.0.0.1", 0), BalancerRequestHandler, _NoWorkers(),
            bus=EventBus(),
        )
    loop = threading.Thread(target=srv.serve_forever, daemon=True)
    loop.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    loop.join(timeout=5)


def _post_bytes(body: bytes, *, path="/advise", length=None) -> bytes:
    """A raw keep-alive POST; ``length`` overrides the declared length."""
    length = len(body) if length is None else length
    return (
        f"POST {path} HTTP/1.1\r\nHost: t\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {length}\r\n\r\n"
    ).encode() + body


def _exchange(srv, request: bytes) -> tuple[int, dict, dict]:
    """Send one raw request and read until the front closes the connection.

    No ``Connection: close`` is sent, so a front that kept the connection
    open fails here by timing out.
    """
    chunks = []
    with socket.create_connection(srv.server_address[:2], timeout=10) as sock:
        sock.sendall(request)
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    return int(status_line.split()[1]), headers, json.loads(body)


class TestFrontErrorMatrix:
    """The advisor server and the fleet balancer share one error contract:
    each malformed request gets its JSON error, and the connection closes
    after it (a 413 never reads the body it refused)."""

    @pytest.mark.parametrize("request_bytes,status,needle", [
        (b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n", 404, "unknown path"),
        (_post_bytes(b'{"suite": "dense"}', path="/nope"), 404,
         "unknown path"),
        (_post_bytes(b"", length="banana"), 400, "bad Content-Length"),
        (_post_bytes(b"", length=10 * 1024 ** 3), 413, "exceeds the limit"),
        (_post_bytes(b""), 400, "missing request body"),
        (_post_bytes(b"{not json"), 400, "not valid JSON"),
        (_post_bytes(b'"\xff"'), 400, "not valid JSON"),
        (_post_bytes(b"[1, 2, 3]"), 400, "must be a JSON object"),
        (_post_bytes(b'{"top": 1}'), 400, "either 'suite'"),
    ], ids=[
        "get-404", "post-404", "bad-length", "oversized", "empty",
        "invalid-json", "not-utf8", "non-object", "no-matrix",
    ])
    def test_error_closes_the_connection(
        self, front, request_bytes, status, needle
    ):
        got, headers, payload = _exchange(front, request_bytes)
        assert got == status
        assert headers["Content-Type"] == "application/json"
        assert needle in payload["error"]

    def test_unexpected_exception_is_a_json_500(self, front, monkeypatch):
        def boom(*args):
            raise RuntimeError("boom")

        if isinstance(front, FleetBalancer):
            monkeypatch.setattr(balancer_mod, "routing_fingerprint", boom)
        else:
            monkeypatch.setattr(AdvisorRequestHandler, "_resolve", boom)
        status, _, payload = _exchange(
            front, _post_bytes(b'{"suite": "dense"}')
        )
        assert status == 500
        assert payload == {
            "error": "internal server error: RuntimeError: boom"
        }
        host, port = front.server_address[:2]
        # One poisoned request never wedges the front.
        with urllib.request.urlopen(
            f"http://{host}:{port}/healthz", timeout=10
        ) as resp:
            assert resp.status == 200

    @pytest.mark.parametrize("front", ["balancer"], indirect=True)
    def test_no_routable_worker_is_a_503_with_retry_after(self, front):
        status, headers, payload = _exchange(
            front, _post_bytes(b'{"suite": "dense"}')
        )
        assert status == 503
        assert headers["Retry-After"] == "1"
        assert "no fleet worker" in payload["error"]
        assert front.routes.snapshot()["unroutable"] == 1


@pytest.mark.slow
class TestLiveFleet:
    """End-to-end: real worker subprocesses behind the real balancer."""

    @pytest.fixture()
    def fleet(self, tmp_path, profile_root):
        config = FleetConfig(
            workers=2, cache_dir=tmp_path / "cache"
        )
        supervisor = FleetSupervisor(config)
        # Workers share the pre-seeded session profile store.
        supervisor._new_worker = lambda index: self_worker(
            index, config, profile_root
        )
        with serve_fleet(supervisor) as balancer:
            yield supervisor, f"http://127.0.0.1:{balancer.server_address[1]}"

    def test_steady_mix_all_200_and_fanin(self, fleet):
        supervisor, base_url = fleet
        plan = build_plan("steady", 21, 10, ("dense", "pwtk"))
        table = run_load(base_url, plan, clients=2)
        assert table["statuses"] == {"200": 10}
        assert table["violations"] == []

        with urllib.request.urlopen(f"{base_url}/stats", timeout=30) as r:
            stats = json.loads(r.read())
        assert stats["requests"] == 10
        assert stats["fleet"]["size"] == 2
        assert stats["fleet"]["reachable"] == 2
        ids = {w["worker_id"] for w in stats["workers"]}
        assert ids == {0, 1}
        # Sharding keeps the cache partitions disjoint: fleet-wide hits
        # and misses still account for every request.
        assert stats["cache_hits"] + stats["cache_misses"] == 10

        with urllib.request.urlopen(f"{base_url}/readyz", timeout=30) as r:
            assert r.status == 200

    def test_kill_worker_mid_mix_zero_failures(self, fleet):
        supervisor, base_url = fleet
        plan = build_plan("steady", 33, 16, ("dense", "pwtk"))
        events = []

        class _Recorder:
            def handle(self, event):
                events.append(event["event"])

        supervisor.bus.subscribe(_Recorder())
        table = run_load(
            base_url, plan, clients=2,
            on_midpoint=lambda: supervisor.kill_worker(0),
        )
        # The shard failover absorbs the SIGKILL: every request still 200.
        assert table["violations"] == []
        assert table["statuses"] == {"200": 16}
        deadline = threading.Event()
        for _ in range(100):  # wait for the supervised restart
            if supervisor.all_ready():
                break
            deadline.wait(0.2)
        assert "worker_restart" in events


@pytest.mark.slow
def test_fleet_cli_sigterm_exits_0_and_leaves_no_worker(tmp_path, profile_root):
    """``repro fleet --port 0`` announces its port, turns ready, and on
    SIGTERM drains: exit 0 with its worker process gone."""
    cache = tmp_path / "cache"
    # Workers load the profile store at the cache root: seed it so they
    # skip the calibration.
    shutil.copytree(profile_root, cache)
    env = dict(os.environ)
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "fleet", "--workers", "1",
            "--port", "0", "--cache-dir", str(cache),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        line = ""
        while "listening on" not in line:
            line = proc.stdout.readline()
            assert line, f"fleet exited early: {proc.stderr.read()}"
        base_url = "http://" + line.split("http://")[1].split()[0]
        deadline = time.monotonic() + 60
        while True:
            try:
                with urllib.request.urlopen(
                    f"{base_url}/readyz", timeout=10
                ) as resp:
                    if resp.status == 200:
                        break
            except urllib.error.HTTPError:
                pass
            assert time.monotonic() < deadline, "fleet never became ready"
            time.sleep(0.1)
        with urllib.request.urlopen(f"{base_url}/stats", timeout=30) as resp:
            (slot,) = json.loads(resp.read())["fleet"]["slots"]
        assert slot["pid"] is not None
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
        with pytest.raises(ProcessLookupError):
            os.kill(slot["pid"], 0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()


@pytest.mark.slow
def test_loadtest_exits_1_on_an_unclean_drain(
    tmp_path, profile_root, monkeypatch, capsys
):
    """``repro loadtest --single`` judges the worker's SIGTERM exit: every
    request answered 200, yet a drain that did not exit 0 fails the run."""
    from repro.cli import main
    from repro.fleet import WorkerProcess

    cache = tmp_path / "cache"
    shutil.copytree(profile_root, cache)
    real_stop = WorkerProcess.stop

    def unclean_stop(self, timeout_s=15.0):
        real_stop(self, timeout_s)
        return 1

    monkeypatch.setattr(WorkerProcess, "stop", unclean_stop)
    rc = main([
        "loadtest", "--single", "--mix", "steady", "--requests", "4",
        "--clients", "2", "--matrices", "dense", "--cache-dir", str(cache),
    ])
    out, err = capsys.readouterr()
    assert rc == 1
    assert "did not drain cleanly" in err
    table = json.loads(out)
    assert table["statuses"] == {"200": 4}
    assert table["violations"] == []
    assert table["clean_drain"] is False


@pytest.mark.parametrize("flags", [
    ["--workers", "0"],
    ["--clients", "0"],
    ["--single", "--clients", "0"],
], ids=["workers-0", "clients-0", "single-clients-0"])
def test_loadtest_rejects_zero_counts_before_spawning(
    flags, tmp_path, monkeypatch, capsys
):
    """A non-positive ``--workers``/``--clients`` is a bad flag: one
    ``error:`` line and exit 2, before any worker process starts."""
    from repro.cli import main

    spawned = []
    monkeypatch.setattr(
        WorkerProcess, "spawn", lambda self: spawned.append(self) or 0
    )
    rc = main([
        "loadtest", *flags, "--requests", "2", "--matrices", "dense",
        "--cache-dir", str(tmp_path),
    ])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("error: --") and err.count("\n") == 1
    assert spawned == []


class _HeldWorker(WorkerProcess):
    """A stand-in ``repro serve``: a real child process that announces a
    port and exits 0 on SIGTERM.  The fleet's first generation reports
    ready at once; a restarted worker holds its readiness until shutdown
    has begun and reports ready half a second later (a probe that was in
    flight), so the restart loses the race while shutdown is draining."""

    SCRIPT = (
        "import signal, sys, time\n"
        "signal.signal(signal.SIGTERM, lambda *a: sys.exit(0))\n"
        "print('listening on http://127.0.0.1:9', flush=True)\n"
        "time.sleep(120)\n"
    )

    def __init__(self, index, cache_dir, spawned, held, first_generation):
        super().__init__(index, cache_dir=cache_dir)
        self.restarted = len(spawned) >= first_generation
        self.held = held
        spawned.append(self)

    def command(self):
        return [sys.executable, "-c", self.SCRIPT]

    def wait_ready(self, timeout_s=60.0, *, cancel=None):
        if self.restarted:
            self.held.set()
            assert cancel is not None and cancel.wait(timeout_s)
            time.sleep(0.5)
        return self.alive()


def test_shutdown_during_a_restart_mounts_nothing_and_drains_clean(
    tmp_path,
):
    spawned, held = [], threading.Event()
    supervisor = FleetSupervisor(
        FleetConfig(workers=2, cache_dir=tmp_path, fleet_drain_timeout_s=20)
    )
    supervisor._new_worker = lambda index: _HeldWorker(
        index, tmp_path, spawned, held, first_generation=2
    )
    events = CollectingReporter()
    supervisor.bus.subscribe(events)
    supervisor.start()
    try:
        supervisor.kill_worker(0)  # the monitor restarts it after a backoff
        assert held.wait(20), "the restart never reached its readiness wait"
        assert supervisor.shutdown() is True
        # The restart reported ready only after shutdown began: never
        # mounted (worker_ready marks a mount), and stopped by itself.
        assert [e["worker_id"] for e in events.of("worker_ready")] in (
            [0, 1], [1, 0]
        )
        assert [s.worker for s in supervisor.slots] == [None, None]
        assert len(spawned) == 3
        assert [w.poll() is not None for w in spawned] == [True] * 3
        assert spawned[0].poll() == -signal.SIGKILL
        assert spawned[1].poll() == spawned[2].poll() == 0
    finally:
        for worker in spawned:
            if worker.alive():
                worker.kill()
                worker.wait(5.0)
            worker.close()


def self_worker(index, config, profile_root):
    """A fleet worker whose profile store is the pre-seeded session one."""
    from repro.fleet import WorkerProcess

    return WorkerProcess(
        index,
        cache_dir=config.cache_dir,
        profile_dir=profile_root,
        host=config.host,
    )
