"""Ablation: the paper's 8-element block cap (DESIGN.md item 4).

The paper limits fixed-size blocks to 8 elements because "preliminary
experiments showed that such blocks cannot offer any speedup over standard
CSR".  This bench widens the candidate space to 16-element blocks on a
strongly blockable matrix and measures how much the oracle gains — the gain
should be marginal, validating the cap.
"""

from repro.core import candidate_space, oracle_best
from repro.machine import CORE2_XEON
from repro.machine.batch import MatrixProgram
from repro.matrices.generators import grid2d


def test_block_cap_costs_little(benchmark):
    coo = grid2d(100, 100, 9, dof=4, drop_fraction=0.15, seed=4)

    def evaluate(cap):
        candidates = candidate_space(max_block_elems=cap)
        program = MatrixProgram(coo, CORE2_XEON, candidates)
        return oracle_best(program.evaluate("dp", 1, candidates))

    best8 = benchmark.pedantic(evaluate, args=(8,), rounds=1, iterations=1)
    best16 = evaluate(16)
    gain = best8.t_real / best16.t_real
    print(
        f"\nbest with cap 8:  {best8.candidate.label} "
        f"({best8.t_real * 1e3:.3f} ms)"
        f"\nbest with cap 16: {best16.candidate.label} "
        f"({best16.t_real * 1e3:.3f} ms)"
        f"\ngain from larger blocks: {(gain - 1) * 100:.2f}%"
    )
    assert gain < 1.06  # larger blocks buy almost nothing
