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
loses nothing but the routing counters.
"""

from __future__ import annotations

import http.client
import json
import logging
import threading
from hashlib import sha256
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..engine.events import EventBus
from ..serve.server import DEFAULT_MAX_BODY_BYTES, RETRY_AFTER_S
from .supervisor import FleetSupervisor

__all__ = [
    "routing_fingerprint",
    "shard_for",
    "merge_stats",
    "FleetBalancer",
    "BalancerRequestHandler",
    "create_balancer",
]

logger = logging.getLogger(__name__)

#: Socket timeout for one proxied worker request (generous: a cold advise
#: against a large suite matrix can take seconds).
DEFAULT_PROXY_TIMEOUT_S = 300.0

#: Breaker-state severity for the merged /stats view: the fleet reports
#: the *worst* state across workers per precision.
BREAKER_SEVERITY = {"closed": 0, "half_open": 1, "open": 2}

#: Counter keys of a worker /stats snapshot that merge by summation.
SUMMED_COUNTERS = (
    "requests", "cache_hits", "cache_misses", "errors", "timeouts",
    "batches", "degraded", "cache_entries",
)

#: Counter keys of a worker's ``learn`` /stats block that merge by
#: summation (the shadow sub-block has its own summed keys below).
LEARN_SUMMED = ("trace_records", "trace_segments", "model_swaps")
SHADOW_SUMMED = (
    "observed", "agreed", "holdout_observed", "holdout_agreed", "window",
)


def _merge_learn(learn_blocks: list[dict]) -> dict:
    """Fleet-wide ``learn`` view: counters summed, gap recomputed from the
    pooled holdout tallies, drift-breaker state worst-of across workers,
    model versions collected (one entry per distinct version — a fleet
    mid-rollout legitimately shows more than one)."""
    merged: dict = {"enabled": True}
    for key in LEARN_SUMMED:
        merged[key] = sum(b.get(key, 0) for b in learn_blocks)
    modes: dict[str, int] = {}
    shadow: dict = {key: 0 for key in SHADOW_SUMMED}
    versions: list[str] = []
    breaker: dict | None = None
    for block in learn_blocks:
        for mode, count in block.get("modes", {}).items():
            modes[mode] = modes.get(mode, 0) + count
        for key in SHADOW_SUMMED:
            shadow[key] += block.get("shadow", {}).get(key) or 0
        version = block.get("model_version")
        if version is not None and version not in versions:
            versions.append(version)
        snap = block.get("drift_breaker")
        if snap is not None:
            if breaker is None:
                breaker = dict(snap)
            else:
                if BREAKER_SEVERITY.get(
                    snap.get("state"), 0
                ) > BREAKER_SEVERITY.get(breaker.get("state"), 0):
                    breaker["state"] = snap.get("state")
                breaker["consecutive_failures"] = max(
                    breaker.get("consecutive_failures", 0),
                    snap.get("consecutive_failures", 0),
                )
    observed = shadow["holdout_observed"]
    shadow["gap"] = (
        1.0 - shadow["holdout_agreed"] / observed if observed else None
    )
    merged["modes"] = modes
    merged["shadow"] = shadow
    merged["model_versions"] = sorted(versions)
    if breaker is not None:
        merged["drift_breaker"] = breaker
    return merged


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
    by the healthy majority.  Learn blocks (when any worker has learning
    enabled) merge the same way: tallies summed, the shadow gap recomputed
    from the pooled holdout counts, the drift breaker worst-of (see
    :func:`_merge_learn`).
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
    learn_blocks = [
        stats["learn"]
        for stats in worker_stats
        if stats.get("learn", {}).get("enabled")
    ]
    merged["learn"] = (
        _merge_learn(learn_blocks) if learn_blocks else {"enabled": False}
    )
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

    def __init__(
        self,
        server_address,
        handler_class,
        supervisor: FleetSupervisor,
        *,
        bus: EventBus | None = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        proxy_timeout_s: float = DEFAULT_PROXY_TIMEOUT_S,
    ) -> None:
        super().__init__(server_address, handler_class)
        self.supervisor = supervisor
        self.bus = bus if bus is not None else supervisor.bus
        self.max_body_bytes = max_body_bytes
        self.proxy_timeout_s = proxy_timeout_s
        self.routes = _RouteCounter()


class BalancerRequestHandler(BaseHTTPRequestHandler):
    """Routes /advise by shard; aggregates /stats; reports fleet health."""

    server_version = "repro-fleet/1.0"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY, as on the worker's handler (repro.serve.server): the
    # body segment must not wait ~40 ms for a delayed ACK of the headers.
    disable_nagle_algorithm = True

    @property
    def balancer(self) -> FleetBalancer:
        return self.server  # type: ignore[return-value]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        logger.debug("%s - %s", self.address_string(), format % args)

    # ------------------------------ helpers ----------------------------- #
    def _send_json(
        self, status: int, payload: dict, headers: dict | None = None
    ) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(
        self, status: int, message: str, headers: dict | None = None
    ) -> None:
        self.close_connection = True
        self._send_json(status, {"error": message}, headers)

    # ------------------------------- GET -------------------------------- #
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        try:
            self._handle_get()
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as exc:  # noqa: BLE001 - catch-all: JSON 500
            self._internal_error("GET", exc)

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
                # Belt and braces: the worker stamps its own worker_id
                # (``serve --worker-id``); fill it in for old workers.
                stats.setdefault("worker_id", slot.index)
                if stats.get("worker_id") is None:
                    stats["worker_id"] = slot.index
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
    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path != "/advise":
            self._error(404, f"unknown path {self.path!r}")
            return
        try:
            self._handle_advise()
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as exc:  # noqa: BLE001 - catch-all: JSON 500
            self._internal_error("POST", exc)

    def _internal_error(self, method: str, exc: Exception) -> None:
        logger.exception("unhandled error routing %s %s", method, self.path)
        try:
            self._error(
                500, f"internal balancer error: {type(exc).__name__}: {exc}"
            )
        except OSError:
            pass

    def _read_body(self) -> bytes | None:
        """The request body, or ``None`` after answering an error."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            self._error(400, "bad Content-Length")
            return None
        if length > self.balancer.max_body_bytes:
            self._error(
                413,
                f"request body of {length} bytes exceeds the limit of "
                f"{self.balancer.max_body_bytes} bytes",
            )
            return None
        if length <= 0:
            self._error(400, "missing request body")
            return None
        return self.rfile.read(length)

    def _handle_advise(self) -> None:
        body = self._read_body()
        if body is None:
            return
        try:
            request = json.loads(body)
        except json.JSONDecodeError as exc:
            self._error(400, f"request body is not valid JSON: {exc}")
            return
        if not isinstance(request, dict):
            self._error(400, "request body must be a JSON object")
            return
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
            self._send_json_bytes(status, payload, headers)
            return
        self.balancer.routes.bump("unroutable")
        self._error(
            503,
            "no fleet worker is available; retry later",
            headers={"Retry-After": str(RETRY_AFTER_S)},
        )

    def _send_json_bytes(
        self, status: int, body: bytes, headers: dict | None = None
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _proxy(self, base_url: str, body: bytes) -> tuple[int, bytes]:
        """One worker round trip; returns (status, response body)."""
        host_port = base_url.removeprefix("http://")
        host, port = host_port.rsplit(":", 1)
        conn = http.client.HTTPConnection(
            host, int(port), timeout=self.balancer.proxy_timeout_s
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


def create_balancer(
    supervisor: FleetSupervisor,
    host: str = "127.0.0.1",
    port: int = 8077,
    **kwargs,
) -> FleetBalancer:
    """A ready-to-run balancer; ``port=0`` binds an ephemeral port."""
    return FleetBalancer(
        (host, port), BalancerRequestHandler, supervisor, **kwargs
    )
