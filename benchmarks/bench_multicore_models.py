"""Extension benchmark: model adaptation to multicore (Sec. VI).

"Another important future direction is to consider the adaptation of these
models on multicore platforms."  The models here already take an
``nthreads`` argument: the memory term uses the saturated aggregate
bandwidth while the profiled compute terms stay per-thread-divided by the
padding-aware partitioning.  This bench checks the adapted OVERLAP model
still selects well at 4 cores on representative matrices.
"""

from statistics import mean

from repro.core import (
    ProfileCache,
    candidate_space,
    oracle_best,
    profile_machine,
    select_with_model,
)
from repro.machine import CORE2_XEON
from repro.machine.batch import MatrixProgram
from repro.matrices.suite import get_entry

MATRICES = ("audikw_1", "fdiff", "parabolic_fem", "pwtk", "ASIC_680k",
            "stomach")


def _selection_offsets(nthreads):
    cache = ProfileCache()
    cache.seed(CORE2_XEON, profile_machine(CORE2_XEON, "dp"))
    candidates = candidate_space(include_vbl=False)
    offsets = []
    for name in MATRICES:
        coo = get_entry(name).build()
        program = MatrixProgram(
            coo, CORE2_XEON, candidates, profile_cache=cache
        )
        results = program.evaluate(
            "dp", nthreads, candidates, models=("overlap",)
        )
        best = oracle_best(results)
        sel = select_with_model(results, "overlap")
        offsets.append(sel.t_real / best.t_real - 1.0)
    return offsets


def test_overlap_adapts_to_four_cores(benchmark):
    offsets = benchmark.pedantic(
        _selection_offsets, args=(4,), rounds=1, iterations=1
    )
    print(
        "\n4-core OVERLAP selection, distance from the 4-core oracle: "
        + ", ".join(
            f"{n}={o * 100:.1f}%" for n, o in zip(MATRICES, offsets)
        )
    )
    assert mean(offsets) < 0.06
    assert max(offsets) < 0.15
