"""Engine process of the ``sweep`` workload (run by ``run.py``, not by hand).

For each submission order it is given: calibrate the machine profiles
into a fresh cache dir's ``ProfileStore`` (one set-up sample), then run
``SweepEngine`` over the paper subset in that order with that dir
(profiles on disk, shards cold) and a JSONL run log.  Writes one JSON
result file:

    python3 perfbench/sweep_child.py '<spec json>'
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from hashlib import sha256
from pathlib import Path


def main(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    from repro.bench.harness import SweepConfig, SweepResult
    from repro.core.profiling import ProfileStore
    from repro.engine import SweepEngine
    from repro.engine.events import JsonlReporter
    from repro.machine.presets import get_preset

    machine = get_preset(spec["machine"])
    workdir = Path(spec["workdir"])
    setups, passes = [], []

    def setup(d: Path) -> None:
        t0 = time.perf_counter()
        store = ProfileStore(d)
        for precision in ("sp", "dp"):
            store.get(machine, precision)
        setups.append(time.perf_counter() - t0)

    for order in spec["orders"]:
        d = workdir / f"pass{len(passes)}"
        setup(d)
        config = SweepConfig(
            machine_name=spec["machine"],
            precisions=("sp", "dp"),
            thread_counts=(1, 2, 4),
            max_block_elems=8,
            suite_indices=tuple(order),
        )
        engine = SweepEngine(
            config, cache_dir=d, jobs=spec["jobs"],
            reporters=[JsonlReporter(d / "run.jsonl")],
        )
        t0 = time.perf_counter()
        result = engine.run()
        wall = time.perf_counter() - t0
        suite_ordered = SweepResult(
            config=dataclasses.replace(
                config, suite_indices=tuple(sorted(order))
            ),
            matrices=sorted(result.matrices, key=lambda m: m.idx),
            elapsed_s=0.0,
            missing=sorted(result.missing),
        )
        passes.append({
            "order": list(order),
            "wall_s": wall,
            "records": sum(len(m.records) for m in result.matrices),
            "missing": list(result.missing),
            "sha": sha256(
                suite_ordered.canonical_json().encode()
            ).hexdigest()[:16],
            "run_log": str(d / "run.jsonl"),
        })
    while len(setups) < spec["min_setups"]:
        setup(workdir / f"setup{len(setups)}")
    rss_kb = 0
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            rss_kb = int(line.split()[1])
    return {"setups_s": setups, "passes": passes, "rss_mb": rss_kb / 1024.0}


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    out = main(spec)
    Path(spec["result"]).write_text(json.dumps(out))
