"""Process, HTTP and statistics helpers shared by the workloads.

The program under test runs as real child processes (``python -m repro
serve`` / ``fleet``) started from the checkout's ``src/``; this module
spawns them, waits for readiness, talks HTTP/1.1 keep-alive to them,
reads their peak resident memory from ``/proc`` and stops them.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LISTEN_RE = re.compile(r"listening on http://([\d.]+):(\d+)")


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result (exit non-zero)."""


def require_checkout() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program source at {SRC}/repro; run from the repository root"
        )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    # glibc gives each new thread's allocations their own arena; which
    # arena a request lands in would otherwise decide the peak RSS more
    # than the program's own allocations do.
    env["MALLOC_ARENA_MAX"] = "2"
    env.pop("REPRO_FAULT_PLAN", None)
    return env


# ------------------------------------------------------------------------- #
# Child processes
# ------------------------------------------------------------------------- #
class Program:
    """One ``python -m repro <verb>`` child announcing an HTTP address."""

    def __init__(self, args: list[str], log_dir: Path, name: str) -> None:
        self.name = name
        self.stdout_path = log_dir / f"{name}.stdout"
        self.stderr_path = log_dir / f"{name}.stderr"
        self._out = open(self.stdout_path, "w")
        self._err = open(self.stderr_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            cwd=ROOT, env=child_env(), stdout=self._out,
            stderr=self._err, stdin=subprocess.DEVNULL,
        )
        self.base_url: str | None = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_announce(self, timeout_s: float = 120.0) -> str:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            match = LISTEN_RE.search(self.stdout_path.read_text())
            if match:
                self.base_url = f"http://{match.group(1)}:{match.group(2)}"
                return self.base_url
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise BenchError(
            f"{self.name} did not announce an address "
            f"(exit {self.proc.poll()}): {self.tail_stderr()}"
        )

    def wait_ready(self, timeout_s: float = 240.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            try:
                status, _ = get_json(self.base_url, "/readyz", timeout=5.0)
            except (OSError, http.client.HTTPException):
                status = 0
            if status == 200:
                return
            time.sleep(0.01)
        raise BenchError(f"{self.name} never became ready: {self.tail_stderr()}")

    def tail_stderr(self) -> str:
        try:
            return self.stderr_path.read_text()[-800:]
        except OSError:
            return ""

    def stop(self, timeout_s: float = 30.0) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                kill_tree(self.proc.pid)
                self.proc.wait(timeout=10)
        self._out.close()
        self._err.close()


def kill_tree(pid: int) -> None:
    for child in descendants(pid):
        try:
            os.kill(child, signal.SIGKILL)
        except ProcessLookupError:
            pass
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def descendants(pid: int) -> list[int]:
    """Every live descendant pid of ``pid`` (via /proc children lists)."""
    out: list[int] = []
    todo = [pid]
    while todo:
        p = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{p}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                text = Path(f"/proc/{p}/task/{tid}/children").read_text()
            except OSError:
                continue
            for tok in text.split():
                out.append(int(tok))
                todo.append(int(tok))
    return out


def _status_mb(pid: int, field: str) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(field):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mb(pid: int) -> float:
    """VmHWM (peak resident set) of one live process, in MiB."""
    return _status_mb(pid, "VmHWM:")


def rss_mb(pid: int) -> float:
    """VmRSS (current resident set) of one live process, in MiB."""
    return _status_mb(pid, "VmRSS:")


def reset_peak_rss(pid: int) -> None:
    """Restart ``pid``'s VmHWM from its current RSS (best effort)."""
    try:
        Path(f"/proc/{pid}/clear_refs").write_text("5")
    except OSError:
        pass


# ------------------------------------------------------------------------- #
# HTTP
# ------------------------------------------------------------------------- #
def _split(base_url: str) -> tuple[str, int]:
    host, port = base_url.removeprefix("http://").rsplit(":", 1)
    return host, int(port)


def get_json(base_url: str, path: str, timeout: float = 30.0):
    conn = http.client.HTTPConnection(*_split(base_url), timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        raw = resp.read()
        try:
            return resp.status, json.loads(raw)
        except ValueError:
            return resp.status, None
    finally:
        conn.close()


class Client:
    """One keep-alive HTTP/1.1 connection posting JSON bodies."""

    def __init__(self, base_url: str, timeout: float = 170.0) -> None:
        self.addr = _split(base_url)
        self.timeout = timeout
        self.conn: http.client.HTTPConnection | None = None

    def post(self, path: str, body: bytes):
        """(status, payload-or-None); status 0 on a transport failure."""
        for attempt in (0, 1):
            reused = self.conn is not None
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    *self.addr, timeout=self.timeout
                )
            try:
                self.conn.request(
                    "POST", path, body=body,
                    headers={"Content-Type": "application/json"},
                )
                resp = self.conn.getresponse()
                raw = resp.read()
            except (OSError, http.client.HTTPException):
                self.close()
                # A keep-alive connection the server closed while idle fails
                # on reuse; retry once on a fresh connection.
                if attempt == 0 and reused:
                    continue
                return 0, None
            if resp.status >= 400 or resp.will_close:
                self.close()
            try:
                return resp.status, json.loads(raw)
            except ValueError:
                return resp.status, None
        return 0, None  # pragma: no cover - loop always returns

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


# ------------------------------------------------------------------------- #
# Statistics
# ------------------------------------------------------------------------- #
def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]); 0.0 when empty."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


class Metrics:
    """Ordered metric table: name -> (value, unit, samples)."""

    def __init__(self) -> None:
        self.rows: dict[str, tuple[float, str, int]] = {}

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        self.rows[name] = (float(value), unit, int(samples))

    def time(self, name: str, values, unit: str = "s") -> None:
        """Record the median of ``values`` with its sample count."""
        values = list(values)
        self.put(name, median(values), unit, len(values))


def fmt_row(name: str, value: float, unit: str, samples: int, note="") -> str:
    return f"  {name:<26} {value:>14.6f} {unit:<9} n={samples:<5} {note}"
