"""End-to-end smoke harness for the online learning loop (CI entry point).

Run as ``python -m repro.learn.smoke``.  The default mode exercises the
full closed loop against a *live* server, exactly as the ``learn-smoke``
CI job does:

1. spawn ``repro serve --learn --train-interval ...`` as a subprocess
   (a :class:`~repro.fleet.worker.WorkerProcess` whose command line adds
   the learning flags) and wait for ``/readyz``;
2. drive seeded deterministic traffic (small generated patterns posted as
   Matrix Market text, so no files and no suite build time);
3. poll ``GET /stats`` until a training cycle completed (``train_end``
   event), a model was published (``learn.model_version``) and hot-swapped
   in (``model_swap`` event);
4. drive a second traffic round and assert the published model actually
   serves (``learn.modes.guided`` > 0);
5. SIGTERM the server and require a clean drain (exit status 0).

``--verify-sha`` instead re-runs the reduced golden sweep
(:data:`repro.bench.harness.GOLDEN_SWEEP`) and asserts its canonical JSON
still hashes to :data:`~repro.bench.harness.GOLDEN_SWEEP_SHA` — proof
that the learning subsystem left the analytic model path untouched.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from ..fleet.loadgen import post_advise
from ..fleet.worker import WorkerProcess

__all__ = ["LearnWorker", "main", "run_server_smoke", "verify_sweep_sha"]

#: Matrices per traffic round; enough trainable records for the default
#: trainer threshold in one round.
ROUND_MATRICES = 12


# ------------------------------ traffic -------------------------------- #
def seeded_matrix_market(seed: int, nrows: int = 300, nnz: int = 2400) -> str:
    """A small deterministic coordinate-pattern body for ``POST /advise``."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, nrows, nnz)
    cols = rng.integers(0, nrows, nnz)
    pairs = np.unique(np.stack([rows, cols], axis=1), axis=0)
    lines = [
        "%%MatrixMarket matrix coordinate pattern general",
        f"{nrows} {nrows} {len(pairs)}",
    ]
    lines += [f"{r + 1} {c + 1}" for r, c in pairs]
    return "\n".join(lines) + "\n"


def drive_round(base_url: str, *, base_seed: int, n: int = ROUND_MATRICES) -> int:
    """POST ``n`` seeded matrices; returns how many answered."""
    answered = 0
    for i in range(n):
        body = {"matrix_market": seeded_matrix_market(base_seed + i)}
        status, payload = post_advise(base_url, body)
        if status == 200 and "ranking" in payload:
            answered += 1
    return answered


# ------------------------------ server --------------------------------- #
class LearnWorker(WorkerProcess):
    """A lone ``repro serve --learn`` that trains every ``train_interval`` s."""

    def __init__(self, cache_dir: Path, *, train_interval: float) -> None:
        super().__init__(0, cache_dir=cache_dir)
        self.train_interval = train_interval

    def command(self) -> list[str]:
        return super().command() + [
            "--learn",
            "--train-interval", str(self.train_interval),
            "--holdout-mod", "2",
        ]


def wait_for_train(worker: WorkerProcess, timeout_s: float = 60.0) -> dict:
    """Poll /stats until a train cycle + publish + swap are all visible."""
    deadline = time.monotonic() + timeout_s
    last: dict = {}
    while time.monotonic() < deadline:
        stats = worker.stats() or {}
        last = stats
        events = stats.get("resilience", {}).get("events", {})
        learn = stats.get("learn", {})
        if (
            events.get("train_end", 0) >= 1
            and learn.get("model_version")
            and events.get("model_swap", 0) >= 1
        ):
            return stats
        time.sleep(0.5)
    raise SystemExit(
        "FAIL: no completed train cycle + model swap within "
        f"{timeout_s:.0f}s; last stats: {json.dumps(last.get('learn', {}))}"
    )


def run_server_smoke(*, train_interval: float = 1.0) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        worker = LearnWorker(Path(tmp), train_interval=train_interval)
        try:
            worker.spawn()
            if not worker.wait_ready():
                raise SystemExit("FAIL: server never became ready")
            base_url = worker.base_url
            answered = drive_round(base_url, base_seed=100)
            print(f"round 1: {answered}/{ROUND_MATRICES} answered")
            if answered < ROUND_MATRICES:
                raise SystemExit("FAIL: round 1 dropped requests")
            stats = wait_for_train(worker)
            learn = stats["learn"]
            print(
                f"trained: model_version={learn['model_version']} "
                f"swaps={learn['model_swaps']} "
                f"trace_records={learn['trace_records']}"
            )
            drive_round(base_url, base_seed=100)  # cached round, now guided
            stats = worker.stats() or {}
            modes = stats.get("learn", {}).get("modes", {})
            print(f"modes after round 2: {modes}")
            if modes.get("guided", 0) < 1:
                raise SystemExit("FAIL: published model never served guided")
        finally:
            rc = worker.stop(timeout_s=30.0)
        if rc != 0:
            raise SystemExit(
                f"FAIL: server did not drain cleanly (exit status {rc})"
            )
        print("server smoke: OK (clean drain)")
    return 0


# ----------------------------- sweep sha ------------------------------- #
def verify_sweep_sha() -> int:
    """Re-run the golden reduced sweep and assert its sha is untouched."""
    from repro.bench.harness import GOLDEN_SWEEP, GOLDEN_SWEEP_SHA, run_sweep
    from repro.core.profiling import ProfileStore

    with tempfile.TemporaryDirectory() as store_dir:
        result = run_sweep(
            config=GOLDEN_SWEEP, profile_cache=ProfileStore(store_dir)
        )
    sha = hashlib.sha256(result.canonical_json().encode()).hexdigest()[:16]
    print(f"canonical sweep sha: {sha} (expected {GOLDEN_SWEEP_SHA})")
    if sha != GOLDEN_SWEEP_SHA:
        print("FAIL: learning subsystem perturbed the analytic model path",
              file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--verify-sha", action="store_true",
        help="re-run the canonical sweep and assert its sha, no server",
    )
    parser.add_argument(
        "--train-interval", type=float, default=1.0,
        help="server-side trainer interval in seconds (default: 1.0)",
    )
    args = parser.parse_args(argv)
    if args.verify_sha:
        return verify_sweep_sha()
    return run_server_smoke(train_interval=args.train_interval)


if __name__ == "__main__":
    sys.exit(main())
