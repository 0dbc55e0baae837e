"""Extension benchmark: learned format-kind selection (Sec. VI).

Leave-one-out over the 30-matrix suite: train the decision tree on 29
matrices' winning format kinds (from the cached sweep), predict the 30th,
and measure the real cost of the hybrid selection (learned kind + OVERLAP
block ranking within it) against the oracle.
"""

import numpy as np

from repro.core.learned import LearnedSelector, feature_vector
from repro.machine import CORE2_XEON
from repro.matrices.suite import SUITE
from repro.serve.features import extract_features


def _winning_kind(matrix_sweep, precision="dp"):
    records = matrix_sweep.select(precision=precision, nthreads=1)
    return min(records, key=lambda r: r.t_real).kind


def test_learned_selection_leave_one_out(benchmark, sweep):
    precision = "dp"
    entries = [e for e in SUITE if not e.special]
    coos = {e.name: e.build() for e in entries}
    feats = {
        name: feature_vector(extract_features(coo), CORE2_XEON, precision)
        for name, coo in coos.items()
    }
    labels = {
        e.name: _winning_kind(sweep.matrix(e.name), precision)
        for e in entries
    }

    def leave_one_out():
        hits = 0
        offs = []
        for test_entry in entries:
            train = [e.name for e in entries if e.name != test_entry.name]
            selector = LearnedSelector(CORE2_XEON, min_samples_leaf=2)
            selector.fit(
                np.array([feats[n] for n in train]),
                [labels[n] for n in train],
            )
            predicted = selector.predict_kind(coos[test_entry.name], precision)
            truth = labels[test_entry.name]
            if predicted == truth:
                hits += 1
            # Real cost of the best candidate within the predicted kind.
            records = sweep.matrix(test_entry.name).select(
                precision=precision, nthreads=1
            )
            best = min(records, key=lambda r: r.t_real)
            in_kind = [r for r in records if r.kind == predicted]
            best_in_kind = min(in_kind, key=lambda r: r.t_real)
            offs.append(best_in_kind.t_real / best.t_real - 1)
        return hits, sum(offs) / len(offs)

    hits, mean_off = benchmark.pedantic(
        leave_one_out, rounds=1, iterations=1
    )
    print(
        f"\nleave-one-out: {hits}/{len(entries)} kinds predicted exactly; "
        f"kind-constrained oracle {mean_off * 100:.1f}% off the global best"
    )
    # The structural features must carry real signal: far better than the
    # 1-in-6 chance level, and the predicted kind must contain near-best
    # candidates on average.
    assert hits >= len(entries) // 2
    assert mean_off < 0.10
