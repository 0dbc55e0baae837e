"""Learned format selection (the paper's future work, Section VI).

"Finally, we plan to develop more intelligent and adaptive performance
models for the execution of sparse kernels based on machine learning."

This module implements that direction with no external ML dependency:

* :func:`feature_vector` — the ten :data:`FEATURE_NAMES` of a matrix (the
  quantities Section III identifies as deciding blocked-SpMV behaviour:
  row lengths, run lengths, per-shape block fill, diagonal fill,
  input-vector footprint vs. cache), read off the advisor's feature
  bundle (:func:`repro.serve.features.extract_features`).  It is the one
  vector every learner here trains on and predicts from: this offline
  selector, its benchmark, and the online loop of :mod:`repro.learn`;
* :class:`DecisionTree` — a small CART classifier (Gini impurity, axis
  splits) written from scratch;
* :class:`LearnedSelector` — trains a tree on sweep data to predict the
  winning *format kind* for a matrix, then delegates the block-shape and
  implementation choice within that kind to the OVERLAP model.  The hybrid
  mirrors production autotuners: learning prunes the search space, the
  analytic model ranks inside it.

``benchmarks/bench_learned_selection.py`` evaluates it leave-one-out over
the 30-matrix suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ModelError
from ..formats.coo import COOMatrix
from ..machine.cache import x_budget_lines
from ..machine.machine import MachineModel
from ..types import Precision

if TYPE_CHECKING:  # pragma: no cover - typing only (serve sits above core)
    from ..serve.features import MatrixFeatures

__all__ = [
    "FEATURE_NAMES",
    "feature_vector",
    "DecisionTree",
    "LearnedSelector",
]

FEATURE_NAMES = (
    "log_nnz_per_row",
    "row_length_cv",
    "mean_run_length",
    "fill_1x2",
    "fill_2x1",
    "fill_2x2",
    "fill_3x3",
    "diag_fill_4",
    "x_footprint_ratio",
    "density_log10",
)


def feature_vector(
    features: MatrixFeatures,
    machine: MachineModel,
    precision: Precision | str = Precision.DP,
) -> list[float]:
    """The :data:`FEATURE_NAMES` vector of a matrix, read off the advisor's
    feature bundle (:func:`repro.serve.features.extract_features`).

    The fills are the bundle's probes: ``1 x 2``, ``2 x 1``, ``2 x 2``,
    ``3 x 3`` and the size-4 diagonal are all probed sizes, so each is
    the exact block-count ratio of the (panel-sampled, past 480k
    nonzeros) pattern.
    """
    precision = Precision.coerce(precision)
    budget_bytes = x_budget_lines(
        machine.l2.size_bytes, machine.l2.line_bytes, machine.x_cache_fraction
    ) * machine.l2.line_bytes
    return [
        math.log10(max(features.row_mean, 1e-3)),
        features.row_cv,
        features.mean_run_length,
        features.est_rect_fill(1, 2),
        features.est_rect_fill(2, 1),
        features.est_rect_fill(2, 2),
        features.est_rect_fill(3, 3),
        features.est_diag_fill(4),
        (features.ncols * precision.itemsize) / budget_bytes,
        math.log10(max(features.density, 1e-12)),
    ]


# --------------------------------------------------------------------- #
# A small CART classifier
# --------------------------------------------------------------------- #
@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    label: object = None  # leaf payload

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def to_payload(self) -> dict:
        if self.is_leaf:
            return {"label": self.label}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_payload(),
            "right": self.right.to_payload(),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "_Node":
        if "feature" not in payload:
            return cls(label=payload["label"])
        return cls(
            feature=int(payload["feature"]),
            threshold=float(payload["threshold"]),
            left=cls.from_payload(payload["left"]),
            right=cls.from_payload(payload["right"]),
        )


@dataclass
class DecisionTree:
    """CART classifier with Gini impurity and axis-aligned splits."""

    max_depth: int = 4
    min_samples_leaf: int = 1
    _root: _Node | None = field(default=None, repr=False)
    _classes: list = field(default_factory=list, repr=False)

    def fit(self, X: np.ndarray, y: list) -> "DecisionTree":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != len(y):
            raise ModelError("X must be 2-D with one row per label")
        if X.shape[0] == 0:
            raise ModelError("cannot fit on an empty dataset")
        self._classes = sorted(set(y))
        codes = np.array([self._classes.index(v) for v in y])
        self._root = self._build(X, codes, depth=0)
        return self

    def predict(self, x: np.ndarray):
        if self._root is None:
            raise ModelError("tree is not fitted")
        node = self._root
        x = np.asarray(x, dtype=np.float64)
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.label

    # --------------------------- serialization ------------------------- #
    def to_payload(self) -> dict:
        """JSON-safe encoding of a fitted tree (the model artifact body).

        The round trip is exact: thresholds survive via JSON's float
        round-tripping, so a deserialized tree predicts identically.
        """
        if self._root is None:
            raise ModelError("tree is not fitted")
        return {
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "classes": list(self._classes),
            "root": self._root.to_payload(),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "DecisionTree":
        tree = cls(
            max_depth=int(payload["max_depth"]),
            min_samples_leaf=int(payload["min_samples_leaf"]),
        )
        tree._classes = list(payload["classes"])
        tree._root = _Node.from_payload(payload["root"])
        return tree

    # ------------------------------------------------------------------ #
    def _build(self, X: np.ndarray, codes: np.ndarray, depth: int) -> _Node:
        majority = self._classes[np.bincount(codes).argmax()]
        if (
            depth >= self.max_depth
            or codes.shape[0] < 2 * self.min_samples_leaf
            or np.unique(codes).shape[0] == 1
        ):
            return _Node(label=majority)
        feature, threshold = self._best_split(X, codes)
        if feature < 0:
            return _Node(label=majority)
        mask = X[:, feature] <= threshold
        return _Node(
            feature=feature,
            threshold=threshold,
            left=self._build(X[mask], codes[mask], depth + 1),
            right=self._build(X[~mask], codes[~mask], depth + 1),
        )

    def _best_split(self, X: np.ndarray, codes: np.ndarray) -> tuple[int, float]:
        n, d = X.shape
        best = (-1, 0.0)
        best_gini = _gini(codes)
        for f in range(d):
            values = np.unique(X[:, f])
            if values.shape[0] < 2:
                continue
            midpoints = (values[1:] + values[:-1]) / 2
            for t in midpoints:
                mask = X[:, f] <= t
                nl = int(mask.sum())
                if nl < self.min_samples_leaf or n - nl < self.min_samples_leaf:
                    continue
                g = (
                    nl * _gini(codes[mask]) + (n - nl) * _gini(codes[~mask])
                ) / n
                # Prefer strict improvements, but accept a tie when nothing
                # improves: parity-style labelings (XOR) need a first cut
                # that only pays off one level deeper.
                if g < best_gini - 1e-12 or (
                    best[0] == -1 and g <= best_gini + 1e-12
                ):
                    best_gini = g
                    best = (f, float(t))
        return best


def _gini(codes: np.ndarray) -> float:
    if codes.shape[0] == 0:
        return 0.0
    _, counts = np.unique(codes, return_counts=True)
    p = counts / codes.shape[0]
    return float(1.0 - (p * p).sum())


# --------------------------------------------------------------------- #
# The hybrid selector
# --------------------------------------------------------------------- #
class LearnedSelector:
    """Tree-predicted format kind + OVERLAP-ranked block within it."""

    def __init__(
        self,
        machine: MachineModel,
        *,
        max_depth: int = 4,
        min_samples_leaf: int = 2,
    ) -> None:
        self.machine = machine
        self.tree = DecisionTree(
            max_depth=max_depth, min_samples_leaf=min_samples_leaf
        )
        self._fitted = False

    def fit(self, features: np.ndarray, winning_kinds: list[str]) -> "LearnedSelector":
        """Train on (:func:`feature_vector`, winning format kind) pairs."""
        self.tree.fit(features, winning_kinds)
        self._fitted = True
        return self

    def predict_kind(self, coo: COOMatrix, precision: Precision | str = "dp") -> str:
        if not self._fitted:
            raise ModelError("selector is not fitted")
        # Imported lazily: serve sits above this module.
        from ..serve.features import extract_features

        return self.tree.predict(
            feature_vector(extract_features(coo), self.machine, precision)
        )

    def select(
        self,
        coo: COOMatrix,
        precision: Precision | str = "dp",
        *,
        profile_cache=None,
    ):
        """Full selection: predicted kind, OVERLAP-ranked block within it.

        Returns the winning :class:`~repro.core.selection.CandidateResult`.
        """
        from ..machine.batch import MatrixProgram
        from .candidates import candidate_space
        from .selection import select_with_model

        kind = self.predict_kind(coo, precision)
        pool = [
            c for c in candidate_space() if c.kind == kind
        ]
        if not pool:
            raise ModelError(f"no candidates of predicted kind {kind!r}")
        model = "overlap" if kind != "vbl" else "mem"
        results = MatrixProgram(
            coo, self.machine, pool, profile_cache=profile_cache
        ).predict(precision, 1, pool, models=(model,))
        # select_with_model excludes vbl for fixed-size models; handle here.
        if kind == "vbl":
            return results[0]
        return select_with_model(results, model)
