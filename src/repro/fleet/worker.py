"""One supervised ``repro serve`` child process.

A :class:`WorkerProcess` wraps exactly one OS process running the existing
:mod:`repro.serve` server — the fleet never reimplements the advisor; it
composes the hardened single-node server N times.  Each worker:

* binds an ephemeral port (``--port 0``) and announces it on stdout, which
  the parent parses (:data:`LISTEN_RE`, the one copy of that contract);
* owns a private recommendation-cache partition
  (``<cache_dir>/fleet/worker-<id>/``) — the balancer's fingerprint
  sharding guarantees no other worker ever writes those keys;
* shares the calibrated-profile store (``--profile-dir``) with the rest of
  the fleet, so only the first worker ever pays the multi-second
  calibration and replacements warm-start from disk;
* warms up before taking traffic (``--warmup``): the supervisor polls
  ``GET /readyz`` and only routes to (or SIGTERMs a predecessor of) a
  worker that answered 200.

A :class:`WorkerProcess` is single-use: one spawn, one OS process, one
shutdown.  Restarts create a fresh instance (see
:class:`~repro.fleet.supervisor.FleetSupervisor`).
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

__all__ = ["WorkerProcess", "wait_until_ready", "probe_ready"]

#: The serve CLI's announcement line (stable since PR 2).
LISTEN_RE = re.compile(r"listening on http://([\d.]+):(\d+)")

#: How long a worker may take to announce its port (imports + bind).
DEFAULT_SPAWN_TIMEOUT_S = 60.0
#: How long a worker may take to report ready (includes calibration when
#: the shared profile store is cold).
DEFAULT_READY_TIMEOUT_S = 300.0


def probe_ready(base_url: str, timeout: float = 5.0) -> bool:
    """One ``GET /readyz`` probe; True only on a 200."""
    try:
        with urllib.request.urlopen(
            f"{base_url}/readyz", timeout=timeout
        ) as resp:
            return resp.status == 200
    except urllib.error.HTTPError as exc:
        exc.read()
        return False
    except (urllib.error.URLError, OSError, TimeoutError):
        return False


def wait_until_ready(
    base_url: str,
    timeout_s: float,
    *,
    poll_s: float = 0.1,
    alive: "callable | None" = None,
) -> bool:
    """Poll ``/readyz`` until 200, timeout, or ``alive()`` turns False."""
    t0 = time.monotonic()
    while time.monotonic() - t0 < timeout_s:
        if alive is not None and not alive():
            return False
        if probe_ready(base_url):
            return True
        time.sleep(poll_s)
    return False


class WorkerProcess:
    """A supervised ``repro serve`` subprocess (spawn → ready → stop)."""

    def __init__(
        self,
        worker_id: int,
        *,
        cache_dir: str | Path,
        profile_dir: str | Path | None = None,
        host: str = "127.0.0.1",
        max_inflight: int | None = None,
        request_timeout_s: float | None = None,
        drain_timeout_s: float | None = None,
        fault_plan: str | None = None,
        warmup: bool = True,
        spawn_timeout_s: float = DEFAULT_SPAWN_TIMEOUT_S,
    ) -> None:
        self.worker_id = worker_id
        self.host = host
        self.cache_root = Path(cache_dir)
        self.worker_dir = self.cache_root / "fleet" / f"worker-{worker_id}"
        self.profile_dir = (
            Path(profile_dir) if profile_dir is not None else self.cache_root
        )
        self.max_inflight = max_inflight
        self.request_timeout_s = request_timeout_s
        self.drain_timeout_s = drain_timeout_s
        self.fault_plan = fault_plan
        self.warmup = warmup
        self.spawn_timeout_s = spawn_timeout_s
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self._stderr_file = None

    # ------------------------------ spawn ------------------------------- #
    def command(self) -> list[str]:
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--host", self.host,
            "--port", "0",
            "--cache-dir", str(self.worker_dir),
            "--profile-dir", str(self.profile_dir),
            "--worker-id", str(self.worker_id),
        ]
        if self.warmup:
            cmd.append("--warmup")
        if self.max_inflight is not None:
            cmd += ["--max-inflight", str(self.max_inflight)]
        if self.request_timeout_s is not None:
            cmd += ["--request-timeout", str(self.request_timeout_s)]
        if self.drain_timeout_s is not None:
            cmd += ["--drain-timeout", str(self.drain_timeout_s)]
        if self.fault_plan is not None:
            cmd += ["--fault-plan", self.fault_plan]
        return cmd

    def spawn(self) -> int:
        """Start the process and return its announced port."""
        if self.proc is not None:
            raise RuntimeError(
                f"worker {self.worker_id} already spawned (single-use)"
            )
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONUNBUFFERED"] = "1"
        # The child must import repro regardless of how the parent found it
        # (installed package or PYTHONPATH=src checkout).
        src_dir = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        if src_dir not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                src_dir + (os.pathsep + existing if existing else "")
            )
        # stderr goes to a file, never a pipe: workers log faults and the
        # final stats snapshot there, and an undrained pipe would block.
        self._stderr_file = open(
            self.worker_dir.parent / f"worker-{self.worker_id}.stderr",
            "a",
            encoding="utf-8",
        )
        self.proc = subprocess.Popen(
            self.command(),
            stdout=subprocess.PIPE,
            stderr=self._stderr_file,
            text=True,
            env=env,
        )
        self.port = self._parse_port()
        return self.port

    def _parse_port(self) -> int:
        """Read the announcement line off stdout (bounded by a thread)."""
        assert self.proc is not None and self.proc.stdout is not None
        found: list[int] = []

        def reader() -> None:
            for line in self.proc.stdout:
                match = LISTEN_RE.search(line)
                if match:
                    found.append(int(match.group(2)))
                    return

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        thread.join(timeout=self.spawn_timeout_s)
        if not found:
            rc = self.proc.poll()
            self.stop(timeout_s=2.0)
            raise RuntimeError(
                f"worker {self.worker_id} did not announce a port within "
                f"{self.spawn_timeout_s:.0f}s"
                + (f" (exited with status {rc})" if rc is not None else "")
            )
        return found[0]

    # ----------------------------- liveness ----------------------------- #
    @property
    def base_url(self) -> str:
        if self.port is None:
            raise RuntimeError(f"worker {self.worker_id} has no port yet")
        return f"http://{self.host}:{self.port}"

    @property
    def pid(self) -> int | None:
        return self.proc.pid if self.proc is not None else None

    def poll(self) -> int | None:
        """The exit status if the process died, else ``None``."""
        return self.proc.poll() if self.proc is not None else None

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def wait_ready(
        self,
        timeout_s: float = DEFAULT_READY_TIMEOUT_S,
        *,
        cancel: threading.Event | None = None,
    ) -> bool:
        """Poll ``/readyz`` until 200; False on timeout, on the process
        dying, or once ``cancel`` is set."""
        def waiting() -> bool:
            cancelled = cancel is not None and cancel.is_set()
            return self.alive() and not cancelled

        return wait_until_ready(self.base_url, timeout_s, alive=waiting)

    # ------------------------------- stop -------------------------------- #
    def terminate(self) -> None:
        """Ask for a graceful drain (SIGTERM; the server handles it)."""
        if self.alive():
            self.proc.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        """Hard-kill (chaos testing / drain-timeout escalation)."""
        if self.alive():
            self.proc.kill()

    def wait(self, timeout_s: float | None = None) -> int | None:
        if self.proc is None:
            return None
        try:
            return self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            return None

    def stop(self, timeout_s: float = 15.0) -> int | None:
        """Graceful stop: SIGTERM, bounded wait, SIGKILL escalation."""
        if self.proc is None:
            return None
        self.terminate()
        rc = self.wait(timeout_s)
        if rc is None:
            self.kill()
            rc = self.wait(5.0)
        self.close()
        return rc

    def close(self) -> None:
        """Release the parent-side file handles (idempotent)."""
        if self.proc is not None and self.proc.stdout is not None:
            try:
                self.proc.stdout.close()
            except OSError:
                pass
        if self._stderr_file is not None:
            try:
                self._stderr_file.close()
            except OSError:
                pass
            self._stderr_file = None

    def stats(self, timeout: float = 10.0) -> dict | None:
        """This worker's ``GET /stats`` snapshot, or None if unreachable."""
        try:
            with urllib.request.urlopen(
                f"{self.base_url}/stats", timeout=timeout
            ) as resp:
                return json.loads(resp.read())
        except (urllib.error.URLError, OSError, TimeoutError, ValueError):
            return None
