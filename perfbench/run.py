"""Repository benchmark: cold uploads, hot fleet hits and the paper sweep.

Run from the repository root::

    python3 perfbench/run.py --workload advise-cold --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md):

* ``advise-cold`` — seeded, pairwise-distinct Matrix Market uploads to one
  ``repro serve``, closed loop, 1 client;
* ``advise-hot``  — Zipf-popular suite hits through ``repro fleet
  --workers 2``: an open loop at a fixed offered rate, then a closed-loop
  saturation phase;
* ``sweep``       — ``SweepEngine`` (jobs=2) over a fixed paper subset.

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (layers timed from outside, in-process).  Human-readable
lines come first; the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A run whose
cache hit ratio shows it measured the wrong path exits 3 without a
result; a run that cannot start the program exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import ROOT, BenchError, fmt_row, peak_rss_mb  # noqa: E402
from harness import require_checkout  # noqa: E402
from workloads import WORKLOADS, cleanup  # noqa: E402

#: Hard wall-clock limit of one run (the caller allows 180 s).
TIME_LIMIT_S = 165


def run_record(args, out) -> dict:
    import numpy

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    record.update(out.record)
    return record


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _on_signal(signum, frame):  # noqa: ARG001 - signal signature
    # Raised in the main thread, so every workload's finally block stops
    # the processes it started before the run exits.
    if signum == signal.SIGALRM:
        raise BenchError(f"run exceeded {TIME_LIMIT_S} s")
    raise BenchError(f"terminated by signal {signum}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    previous = {
        sig: signal.signal(sig, _on_signal)
        for sig in (signal.SIGALRM, signal.SIGTERM)
    }
    signal.alarm(TIME_LIMIT_S)
    workdir = ROOT / ".perfbench_runs" / (
        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    )
    try:
        require_checkout()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            out = WORKLOADS[args.workload](
                args.seed, args.seconds, bool(args.trace), workdir
            )
        finally:
            cleanup(workdir)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    if out.invalid:
        print(f"perfbench: invalid run: {out.invalid}", file=sys.stderr)
        return 3

    if args.trace:
        out.metrics.put("rss.loadgen_mb", peak_rss_mb(os.getpid()), "MiB", 1)
    names = spec["per_layer" if args.trace else "end_to_end"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    metrics = {}
    for entry in names:
        name, unit = entry["name"], entry["unit"]
        value, got_unit, n = out.metrics.rows.get(name, (0.0, unit, 0))
        if got_unit != unit:
            raise SystemExit(f"unit mismatch for {name}: {got_unit} != {unit}")
        print(fmt_row(name, value, unit, n,
                      "" if n else "(not exercised by this workload)"))
        metrics[name] = {"value": value, "unit": unit}
    ratio = out.failed / out.attempted if out.attempted else 0.0
    print(fmt_row("error_ratio", ratio, "fraction", out.attempted,
                  f"({out.failed} failed, {out.wrong} wrong)"))
    for note in out.notes:
        print(f"  {note}")
    print("run_record " + json.dumps(run_record(args, out), sort_keys=True))
    print(json.dumps({
        "correct": out.wrong == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
