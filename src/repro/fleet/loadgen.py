"""Closed-loop load generator driving a fleet over real sockets.

:func:`run_load` replays a :class:`~repro.fleet.replay.ReplayPlan`
against a base URL with a fixed number of concurrent clients and returns
one benchmark *table* (a plain dict, JSON-ready).  The table keeps a
strict separation:

* **deterministic fields** — mix, seed, request count, matrix set,
  ``sequence_sha256``, the per-status tallies of a fault-free run — are
  functions of the plan alone and are what tests compare across runs;
* **timing fields** — throughput and latency percentiles — live under
  the ``"timing"`` key and are *excluded* from determinism comparisons
  (wall-clock numbers vary run to run by construction).

Clients are closed-loop: each thread takes the next request off a shared
cursor, posts it, waits for the full response, then takes another.  With
``clients=C`` that bounds offered concurrency at C, which is what
exercises the server's admission bound.

:func:`drive` is the one topology driver: it starts a single worker or a
balanced fleet, warms it, replays the plan and stops it again, and adds
the drain verdict to the table.  ``repro loadtest`` (CI's chaos and fleet
smokes included) and ``benchmarks/bench_serve.py`` both run through it.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

from .balancer import serve_fleet
from .replay import ReplayPlan
from .supervisor import FleetConfig, FleetSupervisor
from .worker import WorkerProcess

__all__ = ["drive", "post_advise", "run_load", "percentile", "warm_fleet"]

#: Client-side timeout per request; far above any healthy advise.
DEFAULT_CLIENT_TIMEOUT_S = 300.0


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile over pre-sorted values (q in [0, 100])."""
    if not sorted_values:
        return 0.0
    rank = math.ceil(q / 100.0 * len(sorted_values)) - 1
    return sorted_values[max(0, min(len(sorted_values) - 1, rank))]


def post_advise(
    base_url: str,
    body: dict,
    timeout_s: float = DEFAULT_CLIENT_TIMEOUT_S,
) -> tuple[int, dict | None]:
    """One ``POST /advise``; returns (status, payload-or-None)."""
    data = json.dumps(body).encode()
    req = urllib.request.Request(
        f"{base_url}/advise",
        data=data,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout_s) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        raw = exc.read()
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = None
        return exc.code, payload


def warm_fleet(
    base_url: str,
    plan: ReplayPlan,
    timeout_s: float = DEFAULT_CLIENT_TIMEOUT_S,
) -> dict[str, int]:
    """Post each distinct request body once, serially.

    Pays every cold-advise cost outside the measured window so steady
    and skew tables measure cache-warm serving, not first-touch model
    evaluation.  Returns the statuses seen ({suite_name: status}).
    """
    statuses: dict[str, int] = {}
    seen: set[str] = set()
    for spec in plan.requests:
        if spec.suite in seen:
            continue
        seen.add(spec.suite)
        status, _ = post_advise(base_url, spec.to_body(), timeout_s)
        statuses[spec.suite] = status
    return statuses


class _Cursor:
    """Hands out plan indices to client threads, one at a time."""

    def __init__(self, n: int) -> None:
        self._lock = threading.Lock()
        self._next = 0
        self._n = n

    def take(self) -> int | None:
        with self._lock:
            if self._next >= self._n:
                return None
            index = self._next
            self._next += 1
            return index

    def position(self) -> int:
        with self._lock:
            return self._next


class _Tally:
    """Thread-safe accumulation of statuses, latencies, violations."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.statuses: dict[int, int] = {}
        self.latencies_s: list[float] = []
        self.violations: list[str] = []

    def record(self, status: int, latency_s: float) -> None:
        with self._lock:
            self.statuses[status] = self.statuses.get(status, 0) + 1
            self.latencies_s.append(latency_s)

    def violation(self, message: str) -> None:
        with self._lock:
            self.violations.append(message)


def run_load(
    base_url: str,
    plan: ReplayPlan,
    *,
    clients: int = 4,
    timeout_s: float = DEFAULT_CLIENT_TIMEOUT_S,
    allowed_statuses: tuple[int, ...] | None = None,
    on_midpoint=None,
) -> dict:
    """Replay ``plan`` against ``base_url``; return the benchmark table.

    ``allowed_statuses`` defines the run's *budget* (default: the plan's
    :attr:`~repro.fleet.replay.ReplayPlan.status_budget`): any response
    outside it is recorded as a violation, and so is a run in which no
    request answered 200 — a server that sheds everything stays inside a
    chaos budget while serving nothing.  ``on_midpoint`` fires exactly
    once, in the client thread that crosses ``plan.kill_worker_at``
    (default halfway) — the chaos hook that kills a worker mid-run.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if allowed_statuses is None:
        allowed_statuses = plan.status_budget
    cursor = _Cursor(len(plan.requests))
    tally = _Tally()
    midpoint_at = plan.kill_worker_at if plan.kill_worker_at is not None \
        else 0.5
    midpoint_index = max(1, int(len(plan.requests) * midpoint_at))
    midpoint_lock = threading.Lock()
    midpoint_fired = False

    def fire_midpoint_once() -> None:
        nonlocal midpoint_fired
        with midpoint_lock:
            if midpoint_fired:
                return
            midpoint_fired = True
        try:
            on_midpoint()
        except Exception as exc:  # noqa: BLE001 - recorded, not fatal
            tally.violation(f"midpoint hook failed: {exc}")

    def client_loop() -> None:
        while True:
            index = cursor.take()
            if index is None:
                return
            if on_midpoint is not None and index >= midpoint_index:
                fire_midpoint_once()
            spec = plan.requests[index]
            t_req = time.monotonic()
            try:
                status, _payload = post_advise(
                    base_url, spec.to_body(), timeout_s
                )
            except (urllib.error.URLError, OSError, TimeoutError) as exc:
                tally.violation(
                    f"request {index} ({spec.suite}): transport error "
                    f"{type(exc).__name__}: {exc}"
                )
                continue
            latency = time.monotonic() - t_req
            tally.record(status, latency)
            if status not in allowed_statuses:
                tally.violation(
                    f"request {index} ({spec.suite}): status {status} "
                    f"outside budget {sorted(allowed_statuses)}"
                )

    t0 = time.monotonic()
    threads = [
        threading.Thread(
            target=client_loop, name=f"loadgen-{i}", daemon=True
        )
        for i in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.monotonic() - t0
    if 200 not in tally.statuses:
        tally.violation("no request answered 200")

    latencies = sorted(tally.latencies_s)
    completed = len(latencies)
    return {
        "mix": plan.mix,
        "seed": plan.seed,
        "requests": len(plan.requests),
        "clients": clients,
        "matrices": list(plan.matrices),
        "sequence_sha256": plan.sequence_sha(),
        "statuses": {
            str(code): count
            for code, count in sorted(tally.statuses.items())
        },
        "violations": list(tally.violations),
        "timing": {
            "elapsed_s": round(elapsed, 4),
            "throughput_rps": round(completed / elapsed, 3)
            if elapsed > 0 else 0.0,
            "mean_ms": round(
                sum(latencies) / completed * 1000.0, 3
            ) if completed else 0.0,
            "p50_ms": round(percentile(latencies, 50.0) * 1000.0, 3),
            "p95_ms": round(percentile(latencies, 95.0) * 1000.0, 3),
            "p99_ms": round(percentile(latencies, 99.0) * 1000.0, 3),
        },
    }


def _healed(supervisor: FleetSupervisor) -> bool:
    """Every slot is mounted on a live worker that reported ready."""
    for slot in supervisor.slots:
        with slot.lock:
            worker = slot.worker
            if not slot.ready or worker is None or not worker.alive():
                return False
    return True


def drive(
    plan: ReplayPlan,
    cache_dir: str | Path,
    *,
    workers: int = 2,
    single: bool = False,
    clients: int = 4,
    warm: bool = True,
) -> dict:
    """Start a topology, replay ``plan`` through it, stop it; the table.

    The topology is one :class:`WorkerProcess` hit directly (``single``)
    or ``workers`` supervised workers behind the balancer
    (:func:`serve_fleet`); either way every worker runs under the plan's
    fault plan.  Once it is ready, :func:`warm_fleet` pays the cold
    advises (unless ``warm`` is False) and :func:`run_load` replays the
    plan within its status budget.  A plan with a scripted kill SIGKILLs
    worker ``seed % workers`` at its midpoint (fleet only: a lone worker
    has no failover) and waits for the supervisor to remount it, so the
    drain judges the healed fleet and no restart is left in flight.

    The table gains ``workers``, ``single``, ``restarts`` (fleet only) and
    ``clean_drain``: the lone worker's SIGTERM exit status was 0, or every
    fleet worker drained cleanly (``FleetBalancer.drained_clean``).
    Raises ``RuntimeError`` when a worker never becomes ready.
    """
    fault_plan = (
        json.dumps(plan.fault_plan) if plan.fault_plan is not None else None
    )
    count = 1 if single else workers

    def replay(base_url: str, on_midpoint=None) -> dict:
        print(
            f"loadtest: mix={plan.mix} seed={plan.seed} "
            f"requests={len(plan.requests)} clients={clients} "
            f"workers={count} target={base_url}",
            file=sys.stderr,
            flush=True,
        )
        if warm:
            warm_fleet(base_url, plan)
        table = run_load(
            base_url, plan, clients=clients, on_midpoint=on_midpoint
        )
        table["workers"] = count
        table["single"] = single
        return table

    if single:
        worker = WorkerProcess(0, cache_dir=cache_dir, fault_plan=fault_plan)
        try:
            worker.spawn()
            if not worker.wait_ready():
                raise RuntimeError("worker never became ready")
            table = replay(worker.base_url)
        finally:
            rc = worker.stop()
        table["clean_drain"] = rc == 0
        return table

    supervisor = FleetSupervisor(
        FleetConfig(workers=workers, cache_dir=cache_dir, fault_plan=fault_plan)
    )
    on_midpoint = None
    if plan.kill_worker_at is not None:
        victim = plan.seed % workers

        def on_midpoint() -> None:
            supervisor.kill_worker(victim)

    with serve_fleet(supervisor) as balancer:
        host, port = balancer.server_address[:2]
        table = replay(f"http://{host}:{port}", on_midpoint)
        if on_midpoint is not None:
            deadline = time.monotonic() + supervisor.config.ready_timeout_s
            while not _healed(supervisor) and time.monotonic() < deadline:
                time.sleep(0.1)
        table["restarts"] = sum(s["restarts"] for s in supervisor.snapshot())
    table["clean_drain"] = bool(balancer.drained_clean)
    return table
