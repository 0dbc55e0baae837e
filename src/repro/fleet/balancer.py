"""Content-sharded HTTP front balancer for the advisor fleet.

A small stdlib ``ThreadingHTTPServer`` that owns the fleet's public port
and routes every request to one of the supervisor's worker slots:

* ``POST /advise`` — routed by **content fingerprint shard**: a stable
  SHA-256 over the request's matrix spec (the ``matrix_market`` text or
  the normalised ``suite`` name) taken ``mod N``.  The same matrix always
  lands on the same worker, so each worker's recommendation-cache
  partition is disjoint and its hit rate is unaffected by fleet size.
  A down shard fails over to the next worker in the ring (``attempt``
  counts the hops in the ``request_routed`` event); advise is read-only,
  so replaying the request on another worker is always safe — the
  fallback worker simply computes (and caches) the answer itself.
* ``GET /stats`` — fan-in: every reachable worker's snapshot, merged by
  :func:`merge_stats` (counters summed, breaker states worst-of), plus
  the raw per-worker views (each carrying its ``worker_id``) and the
  balancer's own routing counters.
* ``GET /healthz`` / ``GET /readyz`` — fleet liveness vs readiness: the
  balancer is *live* whenever it answers, but only *ready* when every
  worker slot is routable (during a crash-restart window readiness drops
  to 503 while requests still succeed via shard failover).

The balancer holds no recommendation state of its own — restarting it
loses nothing but the routing counters.  Its handler keeps only these
routes: the HTTP plumbing (framing, error answers, the bounded body read,
the JSON-500 catch-all) is :class:`repro.serve.server.JSONRequestHandler`,
shared with every worker.  :func:`serve_fleet` is the fleet's one
start/stop lifecycle.
"""

from __future__ import annotations

import contextlib
import http.client
import threading
from hashlib import sha256
from http.server import ThreadingHTTPServer
from typing import Iterator

from ..engine.events import EventBus
from ..serve.server import (
    DEFAULT_MAX_BODY_BYTES,
    RETRY_AFTER_S,
    JSONRequestHandler,
)
from .supervisor import FleetSupervisor

__all__ = [
    "routing_fingerprint",
    "shard_for",
    "merge_stats",
    "FleetBalancer",
    "BalancerRequestHandler",
    "serve_fleet",
]

#: Socket timeout for one proxied worker request (generous: a cold advise
#: against a large suite matrix can take seconds).
DEFAULT_PROXY_TIMEOUT_S = 300.0

#: Breaker-state severity for the merged /stats view: the fleet reports
#: the *worst* state across workers per precision.
BREAKER_SEVERITY = {"closed": 0, "half_open": 1, "open": 2}

#: Counter keys of a worker /stats snapshot that merge by summation.
SUMMED_COUNTERS = (
    "requests", "cache_hits", "cache_misses", "errors", "degraded",
    "cache_entries",
)


def routing_fingerprint(request: dict) -> str | None:
    """The stable shard key of an ``/advise`` request body, or ``None``.

    Mirrors the server's matrix-spec contract: ``matrix_market`` content
    hashes as-is, a ``suite`` spec hashes by its normalised name, so
    ``"pwtk"`` and ``" PWTK "`` (and repeated requests generally) always
    route identically.  Hashing is SHA-256, never :func:`hash` — Python's
    string hashing is salted per process and would re-shard every restart.
    """
    if "matrix_market" in request:
        text = request["matrix_market"]
        if not isinstance(text, str):
            return None
        return sha256(b"mm:" + text.encode()).hexdigest()
    if "suite" in request:
        spec = str(request["suite"]).strip().lower()
        return sha256(f"suite:{spec}".encode()).hexdigest()
    return None


def shard_for(fingerprint: str, n_workers: int) -> int:
    """``hash(fingerprint) mod N`` — the worker that owns this matrix."""
    return int(fingerprint, 16) % n_workers


def merge_stats(worker_stats: list[dict]) -> dict:
    """One fleet-wide view of many worker ``/stats`` snapshots.

    Counters are *summed*; ``mean_latency_s`` is weighted by each worker's
    request count; per-precision breaker states take the *worst* state
    (and the max failure count) across workers, so one open breaker
    anywhere is visible at the fleet level instead of being overwritten
    by the healthy majority.
    """
    merged: dict = {key: 0 for key in SUMMED_COUNTERS}
    weighted_latency = 0.0
    total_requests = 0
    events: dict[str, int] = {}
    breakers: dict[str, dict] = {}
    machines: list[str] = []
    for stats in worker_stats:
        for key in SUMMED_COUNTERS:
            merged[key] += stats.get(key, 0)
        requests = stats.get("requests", 0)
        weighted_latency += stats.get("mean_latency_s", 0.0) * requests
        total_requests += requests
        machine = stats.get("machine")
        if machine is not None and machine not in machines:
            machines.append(machine)
        resilience = stats.get("resilience", {})
        for kind, count in resilience.get("events", {}).items():
            events[kind] = events.get(kind, 0) + count
        for precision, snap in resilience.get("breakers", {}).items():
            seen = breakers.get(precision)
            if seen is None:
                breakers[precision] = dict(snap)
                continue
            if BREAKER_SEVERITY.get(
                snap.get("state"), 0
            ) > BREAKER_SEVERITY.get(seen.get("state"), 0):
                seen["state"] = snap.get("state")
            seen["consecutive_failures"] = max(
                seen.get("consecutive_failures", 0),
                snap.get("consecutive_failures", 0),
            )
    merged["mean_latency_s"] = (
        weighted_latency / total_requests if total_requests else 0.0
    )
    merged["machine"] = machines[0] if len(machines) == 1 else machines
    merged["resilience"] = {"events": events, "breakers": breakers}
    return merged


class _RouteCounter:
    """Thread-safe tally of the balancer's own routing outcomes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counts: dict[str, int] = {
            "routed": 0, "retried": 0, "unroutable": 0,
        }

    def bump(self, key: str, by: int = 1) -> None:
        with self._lock:
            self.counts[key] += by

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self.counts)


class FleetBalancer(ThreadingHTTPServer):
    """The fleet's front door; holds the supervisor and routing state."""

    #: The request-body cap :meth:`JSONRequestHandler._read_json` enforces.
    max_body_bytes = DEFAULT_MAX_BODY_BYTES

    def __init__(
        self,
        server_address,
        handler_class,
        supervisor: FleetSupervisor,
        *,
        bus: EventBus | None = None,
    ) -> None:
        super().__init__(server_address, handler_class)
        self.supervisor = supervisor
        self.bus = bus if bus is not None else supervisor.bus
        self.routes = _RouteCounter()
        #: Whether every worker drained cleanly; set when
        #: :func:`serve_fleet` exits.
        self.drained_clean: bool | None = None


class BalancerRequestHandler(JSONRequestHandler):
    """Routes /advise by shard; aggregates /stats; reports fleet health."""

    server_version = "repro-fleet/1.0"

    @property
    def balancer(self) -> FleetBalancer:
        return self.server  # type: ignore[return-value]

    # ------------------------------- GET -------------------------------- #
    def _handle_get(self) -> None:
        supervisor = self.balancer.supervisor
        if self.path == "/healthz":
            self._send_json(
                200,
                {"status": "ok", "workers": supervisor.snapshot()},
            )
        elif self.path == "/readyz":
            workers = supervisor.snapshot()
            if all(w["ready"] for w in workers):
                self._send_json(200, {"status": "ready", "workers": workers})
            else:
                self._send_json(
                    503, {"status": "degraded", "workers": workers}
                )
        elif self.path == "/stats":
            self._send_json(200, self._aggregate_stats())
        else:
            self._error(404, f"unknown path {self.path!r}")

    def _aggregate_stats(self) -> dict:
        supervisor = self.balancer.supervisor
        per_worker: list[dict] = []
        for slot in supervisor.slots:
            with slot.lock:
                worker = slot.worker
            stats = worker.stats() if worker is not None else None
            if stats is not None:
                per_worker.append(stats)
        merged = merge_stats(per_worker)
        merged["workers"] = per_worker
        merged["fleet"] = {
            "size": len(supervisor.slots),
            "reachable": len(per_worker),
            "slots": supervisor.snapshot(),
            "routing": self.balancer.routes.snapshot(),
        }
        return merged

    # ------------------------------- POST ------------------------------- #
    def _handle_post(self) -> None:
        if self.path != "/advise":
            self._error(404, f"unknown path {self.path!r}")
            return
        read = self._read_json()
        if read is None:
            return
        body, request = read
        fingerprint = routing_fingerprint(request)
        if fingerprint is None:
            self._error(
                400,
                "request must carry either 'suite' (a suite entry name or "
                "index) or 'matrix_market' (file contents)",
            )
            return

        supervisor = self.balancer.supervisor
        n = len(supervisor.slots)
        shard = shard_for(fingerprint, n)
        for attempt in range(n):
            slot = supervisor.slots[(shard + attempt) % n]
            target = slot.route_target()
            if target is None:
                continue
            try:
                status, payload = self._proxy(target, body)
            except (OSError, http.client.HTTPException):
                # Transport failure: the worker died mid-request (or its
                # socket is gone).  Mark the slot down so the monitor's
                # restart owns it, and replay on the next shard — advise
                # is idempotent, so the retry is always safe.
                slot.mark_down()
                self.balancer.routes.bump("retried")
                continue
            self.balancer.routes.bump("routed")
            self.balancer.bus.emit(
                "request_routed",
                shard=shard,
                worker_id=slot.index,
                attempt=attempt,
            )
            headers = (
                {"Retry-After": str(RETRY_AFTER_S)} if status == 503 else None
            )
            if status >= 400:
                # Error relays close the connection, same as the worker's
                # own error path, to keep keep-alive framing simple.
                self.close_connection = True
            self._send_json(status, payload, headers)
            return
        self.balancer.routes.bump("unroutable")
        self._error(
            503,
            "no fleet worker is available; retry later",
            headers={"Retry-After": str(RETRY_AFTER_S)},
        )

    def _proxy(self, base_url: str, body: bytes) -> tuple[int, bytes]:
        """One worker round trip; returns (status, response body)."""
        host_port = base_url.removeprefix("http://")
        host, port = host_port.rsplit(":", 1)
        conn = http.client.HTTPConnection(
            host, int(port), timeout=DEFAULT_PROXY_TIMEOUT_S
        )
        try:
            conn.request(
                "POST",
                "/advise",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()


@contextlib.contextmanager
def serve_fleet(
    supervisor: FleetSupervisor, host: str = "127.0.0.1", port: int = 0
) -> Iterator[FleetBalancer]:
    """The fleet's one start/stop lifecycle; yields the serving balancer.

    The balancer binds first, so a busy port raises ``OSError`` before any
    worker is spawned.  Then the supervisor starts every worker and the
    balancer serves on a thread.  On exit the balancer stops serving, then
    the supervisor drains the workers; ``drained_clean`` records whether
    every one exited cleanly.  ``port=0`` binds an ephemeral port.
    """
    balancer = FleetBalancer(
        (host, port), BalancerRequestHandler, supervisor
    )
    try:
        supervisor.start()
    except BaseException:
        balancer.server_close()
        raise
    loop = threading.Thread(target=balancer.serve_forever, daemon=True)
    loop.start()
    try:
        yield balancer
    finally:
        balancer.shutdown()
        balancer.server_close()
        loop.join(timeout=5)
        balancer.drained_clean = supervisor.shutdown()
