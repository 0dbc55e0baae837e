#!/usr/bin/env python3
"""Run the autotuner on a Matrix Market file (the real-data path).

The reproduction uses synthetic matrices, but the harness works unchanged on
the actual Davis-collection files the paper used.  This example writes one
of our generated matrices to ``.mtx``, reads it back (exercising the same
code path a downstream user's file would take) and autotunes it.

Usage::

    python examples/matrix_market_io.py [path/to/matrix.mtx]
"""

import sys
import tempfile
from pathlib import Path

from repro import AutoTuner, CORE2_XEON
from repro.matrices import read_matrix_market, write_matrix_market
from repro.matrices.generators import diagonal_pattern, random_values


def tune(path: Path) -> None:
    coo = read_matrix_market(path)
    print(f"loaded: {coo.nrows:,} x {coo.ncols:,}, {coo.nnz:,} nonzeros")

    tuner = AutoTuner(CORE2_XEON)
    for precision in ("sp", "dp"):
        choice = tuner.select(coo, precision=precision, model="overlap")
        print(
            f"{precision}: OVERLAP selects {choice.candidate.label:20s} "
            f"(ws {choice.ws_bytes / 2**20:.2f} MiB, "
            f"padding {choice.padding_ratio:.3f})"
        )


def main() -> None:
    if len(sys.argv) > 1:
        path = Path(sys.argv[1])
        print(f"reading {path} ...")
        tune(path)
        return
    demo = random_values(
        diagonal_pattern(40_000, (0, 1, -1, 150, -150), fill=0.9, seed=5),
        seed=6,
    )
    # A directory of its own, removed on exit: concurrent runs never share
    # the file, and none is left behind.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "repro_demo.mtx.gz"
        print(f"no file given; writing a demo matrix to {path} ...")
        write_matrix_market(path, demo)
        tune(path)


if __name__ == "__main__":
    main()
