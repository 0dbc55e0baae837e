#!/usr/bin/env python3
"""Explore the whole tuning space on one matrix (paper Table III, in small).

For a matrix of your choice (any entry of the 30-matrix suite), evaluate
every (format, block, implementation) candidate: simulated time, speedup
over CSR, working set, padding — and show what each performance model would
have picked.

Usage::

    python examples/format_explorer.py [matrix-name] [sp|dp]

e.g. ``python examples/format_explorer.py pwtk dp``.
"""

import sys

from repro import CORE2_XEON
from repro.bench.harness import MODEL_NAMES
from repro.bench.report import render_table
from repro.core import candidate_space, oracle_best, select_with_model
from repro.machine.batch import MatrixProgram
from repro.matrices import get_entry


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "pwtk"
    precision = sys.argv[2] if len(sys.argv) > 2 else "dp"
    entry = get_entry(name)
    print(f"building {entry.name} ({entry.note}) ...")
    coo = entry.build()

    candidates = candidate_space()
    results = MatrixProgram(coo, CORE2_XEON, candidates).evaluate(
        precision, 1, candidates, models=MODEL_NAMES
    )
    t_csr = next(
        r.t_real for r in results if r.candidate.kind == "csr"
    )

    rows = []
    for res in sorted(results, key=lambda r: r.t_real)[:15]:
        rows.append((
            res.candidate.label,
            f"{res.t_real * 1e3:.3f}",
            f"{t_csr / res.t_real:.2f}x",
            f"{res.ws_bytes / 2**20:.2f}",
            f"{res.padding_ratio:.3f}",
            f"{res.sim.bound}",
        ))
    print(render_table(
        ["candidate", "t (ms)", "vs CSR", "ws (MiB)", "padding", "bound"],
        rows,
        title=f"top 15 of {len(results)} candidates on {entry.name} "
              f"({precision})",
    ))

    best = oracle_best(results)
    print(f"\noracle best: {best.candidate.label}")
    for model in MODEL_NAMES:
        sel = select_with_model(results, model)
        off = (sel.t_real / best.t_real - 1) * 100
        print(f"{model.upper():8s} selects {sel.candidate.label:20s} "
              f"({off:+.1f}% off the best)")


if __name__ == "__main__":
    main()
