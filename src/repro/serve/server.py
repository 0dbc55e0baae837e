"""Stdlib JSON endpoint over :class:`~repro.serve.service.AdvisorService`.

A deliberately small ``http.server`` wrapper — no third-party web framework
— exposing:

* ``POST /advise`` — body ``{"suite": "<name-or-idx>"}`` or
  ``{"matrix_market": "<file contents>"}``, plus optional ``model``,
  ``precision``, ``nthreads``, ``prune``, ``top``, ``timeout_s``; answers
  with the ranked recommendation as JSON;
* ``GET /healthz`` — liveness probe (reports draining state);
* ``GET /readyz`` — readiness probe: 503 while draining or before a
  requested profile warmup completes, 200 otherwise (the fleet
  balancer's per-worker health check, see ``docs/serving.md``);
* ``GET /stats`` — the service counters plus the resilience section
  (event tallies, per-precision breaker states) and, on a learn-enabled
  service, the ``learn`` block (model version, serving-mode tallies,
  shadow gap, drift-breaker state — see ``docs/learning.md``).

:class:`ThreadingHTTPServer` gives one thread per connection; the service
underneath is thread-safe, so concurrent ``POST /advise`` requests are
supported out of the box.  The HTTP plumbing (framing, error answers, the
bounded body read, the catch-all) is :class:`JSONRequestHandler`, which the
fleet balancer's handler shares.  On top of that the server is hardened for
production traffic (see ``docs/resilience.md``):

* **bounded admission** — at most ``max_inflight`` concurrent ``/advise``
  requests; excess load is shed immediately with a 503 +
  ``Retry-After`` (``request_shed`` event) instead of queueing without
  bound;
* **deadlines** — ``request_timeout_s`` (overridable per request via the
  ``timeout_s`` body field, capped by the server limit) bounds each
  advise; an over-budget request gets a 504
  (``request_deadline_exceeded`` event);
* **degraded mode** — with the circuit breaker open, cached matrices are
  answered with ``"degraded": true`` and uncached ones get a 503;
* **catch-all** — an unexpected exception becomes a JSON 500 with the
  traceback logged, never a silently dropped connection;
* **graceful drain** — SIGTERM/SIGINT stop the accept loop, in-flight
  requests get ``drain_timeout_s`` to finish (``drain_begin`` /
  ``drain_end`` events), and the final stats snapshot is flushed to
  stderr before exit.
"""

from __future__ import annotations

import contextlib
import json
import logging
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterator

from ..errors import (
    DeadlineExceededError,
    ReproError,
    ServiceUnavailableError,
)
from ..resilience.faults import fault_point
from ..resilience.guard import Deadline
from .service import AdvisorService

__all__ = [
    "create_server",
    "run_server",
    "stop_signals",
    "AdvisorHTTPServer",
    "AdvisorRequestHandler",
    "JSONRequestHandler",
    "DEFAULT_MAX_BODY_BYTES",
    "DEFAULT_MAX_INFLIGHT",
    "DEFAULT_DRAIN_TIMEOUT_S",
]

logger = logging.getLogger(__name__)

#: Request-body ceiling.  8 MiB fits any realistic Matrix Market upload
#: this advisor should see; bigger bodies get a 413.  Constructor- and
#: CLI-overridable (``--max-body-bytes``).
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024
#: Concurrent /advise requests admitted before shedding with a 503.
DEFAULT_MAX_INFLIGHT = 8
#: How long a drain waits for in-flight requests before giving up.
DEFAULT_DRAIN_TIMEOUT_S = 10.0
#: Seconds a shed client is told to wait before retrying.
RETRY_AFTER_S = 1


class AdvisorHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer plus admission control and drain."""

    def __init__(
        self,
        server_address,
        handler_class,
        service: AdvisorService,
        *,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        request_timeout_s: float | None = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S,
    ) -> None:
        super().__init__(server_address, handler_class)
        self.service = service
        self.max_inflight = max_inflight
        self.request_timeout_s = request_timeout_s
        self.max_body_bytes = max_body_bytes
        self.drain_timeout_s = drain_timeout_s
        self._state_lock = threading.Lock()
        self._inflight = 0
        self._draining = False

    # --------------------------- admission ----------------------------- #
    def try_admit(self) -> bool:
        """Claim an in-flight slot; False sheds the request (503)."""
        with self._state_lock:
            if self._draining or self._inflight >= self.max_inflight:
                return False
            self._inflight += 1
            return True

    def release(self) -> None:
        with self._state_lock:
            self._inflight -= 1

    @property
    def inflight(self) -> int:
        with self._state_lock:
            return self._inflight

    @property
    def draining(self) -> bool:
        with self._state_lock:
            return self._draining

    # ----------------------------- drain ------------------------------- #
    def drain(self, timeout_s: float | None = None) -> bool:
        """Stop accepting, let in-flight requests finish, report cleanliness.

        Must be called from a thread other than the one running
        ``serve_forever`` (``shutdown()`` blocks until the accept loop
        exits).  Returns True when every in-flight request completed
        within the timeout.
        """
        timeout = self.drain_timeout_s if timeout_s is None else timeout_s
        with self._state_lock:
            self._draining = True
            inflight = self._inflight
        bus = self.service.bus
        bus.emit("drain_begin", inflight=inflight)
        t0 = time.monotonic()
        self.shutdown()
        while True:
            remaining = self.inflight
            if remaining == 0 or time.monotonic() - t0 >= timeout:
                break
            time.sleep(0.02)
        elapsed = time.monotonic() - t0
        clean = remaining == 0
        bus.emit(
            "drain_end",
            inflight=remaining,
            elapsed_s=round(elapsed, 3),
            clean=clean,
        )
        if not clean:
            logger.warning(
                "drain timed out after %.1fs with %d request(s) in flight",
                elapsed, remaining,
            )
        return clean


class JSONRequestHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 JSON plumbing shared by the advisor and the fleet balancer.

    A subclass implements ``_handle_get`` and ``_handle_post`` (its routes)
    and serves from a server carrying ``max_body_bytes``.  The response
    framing, error answers, bounded body read and catch-all live here once.
    """

    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on each accepted socket.  A response leaves as two
    # segments, the headers at end_headers() and then the body; with
    # Nagle on, the body waits for the client's ACK of the headers, which
    # a keep-alive client delays by ~40 ms.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        logger.debug("%s - %s", self.address_string(), format % args)

    # ------------------------------ helpers ----------------------------- #
    def _send_json(
        self, status: int, payload: dict | bytes, headers: dict | None = None
    ) -> None:
        """Answer with ``payload``: a dict, or bytes already encoded (the
        balancer relays a worker's answer unchanged)."""
        body = (
            payload if isinstance(payload, bytes)
            else json.dumps(payload).encode()
        )
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
        # Error paths may leave the request body unread (e.g. a 413 never
        # reads it), which would desynchronise a keep-alive connection —
        # so errors always close it.
        self.close_connection = True
        self._send_json(status, {"error": message}, headers)

    def _read_json(self) -> tuple[bytes, dict] | None:
        """The request body as raw bytes and as a JSON object, or ``None``
        after answering the error.

        The declared length is checked before any byte is read, so an
        oversized claim is refused from the header alone.
        """
        limit = self.server.max_body_bytes  # type: ignore[attr-defined]
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            self._error(400, "bad Content-Length")
            return None
        if length > limit:
            self._error(
                413,
                f"request body of {length} bytes exceeds the limit of "
                f"{limit} bytes",
            )
            return None
        if length <= 0:
            self._error(400, "missing request body")
            return None
        body = self.rfile.read(length)
        try:
            request = json.loads(body)
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            self._error(400, f"request body is not valid JSON: {exc}")
            return None
        if not isinstance(request, dict):
            self._error(400, "request body must be a JSON object")
            return None
        return body, request

    # ----------------------------- dispatch ----------------------------- #
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._guarded(self._handle_get)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._guarded(self._handle_post)

    def _handle_get(self) -> None:
        raise NotImplementedError

    def _handle_post(self) -> None:
        raise NotImplementedError

    def _guarded(self, handle) -> None:
        """Run one route; an unexpected exception becomes a JSON 500."""
        try:
            handle()
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client hung up; nothing to answer
        except Exception as exc:  # noqa: BLE001 - catch-all: JSON 500
            logger.exception(
                "unhandled error serving %s %s", self.command, self.path
            )
            try:
                self._error(
                    500, f"internal server error: {type(exc).__name__}: {exc}"
                )
            except OSError:
                pass  # headers already gone or socket dead; logged above


class AdvisorRequestHandler(JSONRequestHandler):
    """Routes requests to the server's attached :class:`AdvisorService`."""

    server_version = "repro-advisor/1.1"

    # The handler is instantiated per request; the service hangs off the
    # server object (see create_server).
    @property
    def service(self) -> AdvisorService:
        return self.server.service  # type: ignore[attr-defined]

    # ------------------------------- GET -------------------------------- #
    def _handle_get(self) -> None:
        if self.path == "/healthz":
            draining = self.server.draining  # type: ignore[attr-defined]
            self._send_json(
                200,
                {"status": "draining" if draining else "ok"},
            )
        elif self.path == "/readyz":
            # Readiness, distinct from liveness: a draining or still-warming
            # server is alive (healthz 200) but must not receive new
            # traffic — the fleet balancer's health probe keys off this.
            if self.server.draining:  # type: ignore[attr-defined]
                self._send_json(503, {"status": "draining"})
            elif not self.service.warmed_up:
                self._send_json(503, {"status": "warming"})
            else:
                self._send_json(200, {"status": "ready"})
        elif self.path == "/stats":
            self._send_json(200, self.service.stats())
        else:
            self._error(404, f"unknown path {self.path!r}")

    # ------------------------------- POST ------------------------------- #
    def _handle_post(self) -> None:
        if self.path != "/advise":
            self._error(404, f"unknown path {self.path!r}")
            return
        server: AdvisorHTTPServer = self.server  # type: ignore[assignment]
        if not server.try_admit():
            self.service.bus.emit(
                "request_shed",
                inflight=server.inflight,
                limit=server.max_inflight,
            )
            self._error(
                503,
                "server at capacity or draining; retry later",
                headers={"Retry-After": str(RETRY_AFTER_S)},
            )
            return
        try:
            self._handle_advise(server)
        finally:
            server.release()

    def _handle_advise(self, server: AdvisorHTTPServer) -> None:
        fault_point("serve.server.request")
        read = self._read_json()
        if read is None:
            return
        _, request = read
        try:
            matrix = self._resolve(request)
            timeout_s = self._timeout_for(request, server)
        except (ReproError, ValueError, KeyError) as exc:
            self._error(400, str(exc))
            return

        options = {}
        for opt in ("model", "precision", "nthreads", "prune"):
            if opt in request:
                options[opt] = request[opt]
        top = request.get("top", 3)
        deadline = Deadline(timeout_s) if timeout_s is not None else None
        t0 = time.monotonic()
        try:
            rec = self.service.advise(matrix, deadline=deadline, **options)
        except DeadlineExceededError as exc:
            self.service.bus.emit(
                "request_deadline_exceeded",
                timeout_s=timeout_s,
                elapsed_s=round(time.monotonic() - t0, 3),
            )
            self._error(504, str(exc))
            return
        except ServiceUnavailableError as exc:
            self._error(
                503, str(exc), headers={"Retry-After": str(RETRY_AFTER_S)}
            )
            return
        except ReproError as exc:
            self._error(422, f"{type(exc).__name__}: {exc}")
            return
        except (KeyError, TypeError, ValueError) as exc:
            # e.g. an unknown suite entry or a bad option value
            self._error(400, f"{exc.args[0] if exc.args else exc}")
            return

        payload = rec.to_payload()
        payload["cache_hit"] = rec.cache_hit
        payload["degraded"] = rec.degraded
        payload["learned"] = rec.learned
        payload["elapsed_s"] = rec.elapsed_s
        payload["best"] = rec.best.to_payload()
        payload["best"]["label"] = rec.best.label
        if isinstance(top, int) and top > 0:
            payload["ranking"] = [r.to_payload() for r in rec.top(top)]
        payload.pop("features", None)  # verbose; fetch via the library API
        self._send_json(200, payload)

    @staticmethod
    def _timeout_for(request: dict, server: AdvisorHTTPServer) -> float | None:
        """The request's deadline budget: body override, server default.

        A client may tighten the server's ``request_timeout_s`` but never
        loosen past it.
        """
        timeout = server.request_timeout_s
        if "timeout_s" in request:
            value = request["timeout_s"]
            if not isinstance(value, (int, float)) or value <= 0:
                raise ValueError(
                    f"timeout_s must be a positive number, got {value!r}"
                )
            timeout = min(value, timeout) if timeout is not None else value
        return timeout

    def _resolve(self, request: dict):
        """A COOMatrix (or suite spec) from the request body."""
        if "matrix_market" in request:
            from ..matrices.mmio import read_matrix_market_text

            coo = read_matrix_market_text(
                request["matrix_market"], source="<request>"
            )
            return coo.pattern_only()
        if "suite" in request:
            return request["suite"]
        raise ValueError(
            "request must carry either 'suite' (a suite entry name or "
            "index) or 'matrix_market' (file contents)"
        )


def create_server(
    service: AdvisorService,
    host: str = "127.0.0.1",
    port: int = 8077,
    *,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    request_timeout_s: float | None = None,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S,
) -> AdvisorHTTPServer:
    """A ready-to-run server; call ``serve_forever()`` (or use a thread).

    ``port=0`` binds an ephemeral port; read the actual one from
    ``server.server_address[1]``.
    """
    return AdvisorHTTPServer(
        (host, port),
        AdvisorRequestHandler,
        service,
        max_inflight=max_inflight,
        request_timeout_s=request_timeout_s,
        max_body_bytes=max_body_bytes,
        drain_timeout_s=drain_timeout_s,
    )


@contextlib.contextmanager
def stop_signals() -> Iterator[threading.Event]:
    """An event that SIGTERM and SIGINT set while the with-block runs.

    ``repro serve`` and ``repro fleet`` wait on it and shut down inside the
    block, so the handlers stay installed through the drain: a second
    signal cannot cut it short.  They are installed only on the main
    thread (tests drain their servers directly instead) and restored on
    exit.
    """
    stop = threading.Event()
    installed_handlers: dict[int, object] = {}
    if threading.current_thread() is threading.main_thread():
        def _request_stop(signum, frame):  # noqa: ARG001 - signal signature
            stop.set()

        for sig in (signal.SIGTERM, signal.SIGINT):
            installed_handlers[sig] = signal.signal(sig, _request_stop)
    try:
        yield stop
    finally:
        for sig, old in installed_handlers.items():
            signal.signal(sig, old)


def run_server(server: AdvisorHTTPServer) -> bool:
    """Serve until SIGTERM/SIGINT, then drain gracefully.

    The accept loop runs in a background thread while the calling thread
    waits for a stop signal, so ``server.drain()`` (which blocks on
    ``shutdown()``) can run safely from here.  Returns True for a clean
    drain.
    """
    with stop_signals() as stop:
        loop = threading.Thread(target=server.serve_forever, daemon=True)
        loop.start()
        stop.wait()
        clean = server.drain()
        server.server_close()
        loop.join(timeout=5)
        # Flush the final stats snapshot where log collectors will see it.
        print(
            json.dumps({"final_stats": server.service.stats()}),
            file=sys.stderr,
            flush=True,
        )
    return clean
