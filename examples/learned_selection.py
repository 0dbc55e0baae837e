#!/usr/bin/env python3
"""Learned format selection (the paper's Section VI ML direction).

Trains the from-scratch decision tree on synthetic archetypes of the
structural classes, then classifies unseen matrices and completes the
selection with the OVERLAP model inside the predicted format family.
"""

import numpy as np

from repro.core.learned import FEATURE_NAMES, LearnedSelector, feature_vector
from repro.machine import CORE2_XEON
from repro.matrices import generators as g
from repro.serve.features import extract_features

ARCHETYPES = [
    ("FEM mesh (3-dof blocks)",
     lambda s: g.grid2d(30, 30, 5, dof=3, drop_fraction=0.2, seed=s), "bcsr"),
    ("scattered / random",
     lambda s: g.random_uniform(4000, 4000, 24_000, seed=s), "csr"),
    ("circuit (diag + short rows)",
     lambda s: g.circuit(20_000, avg_offdiag=2.2, seed=s), "csr"),
    ("multi-diagonal (ragged)",
     lambda s: g.diagonal_pattern(5000, (0, 1, -1, 40, -40), 0.95, seed=s),
     "bcsd"),
    ("3D stencil (pure diagonals)",
     lambda s: g.grid3d(14 + s % 3, 14, 14, 7, seed=s), "bcsd"),
]

UNSEEN = [
    ("audikw-like 3D FEM",
     lambda: g.grid3d(10, 10, 10, 27, dof=3, drop_fraction=0.3, seed=77)),
    ("circuit-like",
     lambda: g.circuit(30_000, avg_offdiag=2.5, seed=78)),
    ("fdiff-like 3D stencil",
     lambda: g.grid3d(22, 22, 22, 7, seed=79)),
]


def main() -> None:
    feats, labels = [], []
    for _, build, kind in ARCHETYPES:
        for s in range(4):
            feats.append(feature_vector(extract_features(build(s)), CORE2_XEON))
            labels.append(kind)
    selector = LearnedSelector(CORE2_XEON, min_samples_leaf=1)
    selector.fit(np.array(feats), labels)
    print(f"trained on {len(labels)} archetype matrices, "
          f"{len(FEATURE_NAMES)} structural features each\n")

    for label, build in UNSEEN:
        coo = build()
        kind = selector.predict_kind(coo)
        choice = selector.select(coo, "dp")
        print(f"{label:26s} -> kind {kind:6s} -> {choice.candidate.label}")


if __name__ == "__main__":
    main()
