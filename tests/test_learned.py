"""Tests for the learned format selector (decision tree + features)."""

import numpy as np
import pytest

from repro.core.candidates import candidate_space
from repro.core.learned import (
    FEATURE_NAMES,
    DecisionTree,
    LearnedSelector,
    feature_vector,
)
from repro.core.selection import evaluate_candidates, select_with_model
from repro.errors import ModelError
from repro.formats import COOMatrix
from repro.formats.blockstats import bcsd_block_stats, bcsr_block_stats
from repro.formats.coarsen import worth_coarsening
from repro.machine import CORE2_XEON
from repro.matrices import generators as g
from repro.serve.features import SAMPLE_TARGET_NNZ, extract_features

FILL_FEATURES = ("fill_1x2", "fill_2x1", "fill_2x2", "fill_3x3", "diag_fill_4")


def _blockstats_fills(coo):
    """The five fills by the per-nonzero BlockStats definition."""
    stats = [
        bcsr_block_stats(coo, r, c) for r, c in ((1, 2), (2, 1), (2, 2), (3, 3))
    ]
    stats.append(bcsd_block_stats(coo, 4))
    return [st.nnz / st.nnz_stored if st.n_blocks else 1.0 for st in stats]


def _vector(coo, precision="dp"):
    """The learned selector's feature vector of ``coo``, as an array."""
    return np.array(
        feature_vector(extract_features(coo), CORE2_XEON, precision)
    )


def _empty_rows(seed):
    """Nonzeros only on every third row, in an odd number of rows."""
    r = np.random.default_rng(seed)
    rows = 3 * r.integers(0, 334, 3000)
    return COOMatrix(1001, 700, rows, r.integers(0, 700, 3000), None)


class TestFeatures:
    def test_vector_shape(self):
        coo = g.grid2d(20, 20, 5)
        feats = _vector(coo)
        assert feats.shape == (len(FEATURE_NAMES),)
        assert np.isfinite(feats).all()

    def test_fem_features_show_blocks(self):
        fem = g.grid2d(20, 20, 5, dof=3)
        feats = dict(zip(FEATURE_NAMES, _vector(fem)))
        assert feats["fill_3x3"] == 1.0
        assert feats["mean_run_length"] >= 3.0

    def test_random_features_show_no_blocks(self):
        rnd = g.random_uniform(3000, 3000, 20_000, seed=1)
        feats = dict(zip(FEATURE_NAMES, _vector(rnd)))
        assert feats["fill_2x2"] < 0.35
        assert feats["mean_run_length"] < 1.2

    @pytest.mark.parametrize("build, coarsened", [
        (lambda: g.random_uniform(3000, 2500, 20_000, seed=1), True),
        (lambda: g.banded_random(4001, 30_000, 25, seed=2), True),
        (lambda: g.grid2d(21, 19, 9, dof=3, drop_fraction=0.2, seed=3), True),
        (lambda: _empty_rows(4), True),
        (lambda: g.random_uniform(800_000, 800_000, 10_000, seed=2), False),
        (lambda: COOMatrix(5, 7, np.zeros(0, int), np.zeros(0, int)), False),
    ], ids=["random", "banded", "fem", "empty_rows", "past_guard", "empty"])
    def test_fills_equal_the_blockstats_definition(self, build, coarsened):
        """On an unsampled pattern the bundle's fills are the BlockStats
        ratios bit for bit, on both sides of the coarsening guard."""
        coo = build()
        assert worth_coarsening(coo.nrows, coo.ncols, coo.nnz) == coarsened
        feats = _vector(coo)
        got = feats[[FEATURE_NAMES.index(name) for name in FILL_FEATURES]]
        assert got.tobytes() == np.array(_blockstats_fills(coo)).tobytes()

    def test_x_footprint_ratio_scales_with_ncols(self):
        small = g.random_uniform(2000, 2000, 10_000, seed=2)
        big = g.random_uniform(800_000, 800_000, 10_000, seed=2)
        f_small = _vector(small)
        f_big = _vector(big)
        idx = FEATURE_NAMES.index("x_footprint_ratio")
        assert f_big[idx] > f_small[idx] * 100

    def test_selector_classifies_the_bundle_vector_when_sampled(
        self, monkeypatch
    ):
        """Past the sampling threshold the bundle's fills come from row
        panels, so they differ from a whole-pattern count; the selector
        must classify the bundle's vector, the one the advisor trains on
        and serves from."""
        coo = g.random_uniform(200_000, 200_000, 600_000, seed=5)
        assert coo.nnz > 2 * SAMPLE_TARGET_NNZ
        features = extract_features(coo)
        assert features.sampled
        selector = LearnedSelector(CORE2_XEON).fit(
            np.zeros((2, len(FEATURE_NAMES))), ["csr", "csr"]
        )
        seen = []
        monkeypatch.setattr(
            selector.tree, "predict", lambda x: seen.append(list(x)) or "csr"
        )
        assert selector.predict_kind(coo, "sp") == "csr"
        assert seen == [feature_vector(features, CORE2_XEON, "sp")]

    def test_online_loop_reads_the_same_function(self):
        from repro.learn import runtime

        assert runtime.feature_vector is feature_vector


class TestDecisionTree:
    def test_separable_data(self):
        rng = np.random.default_rng(3)
        X = rng.random((200, 2))
        y = ["a" if x[0] <= 0.5 else "b" for x in X]
        tree = DecisionTree(max_depth=2).fit(X, y)
        assert tree.predict([0.2, 0.9]) == "a"
        assert tree.predict([0.8, 0.1]) == "b"

    def test_two_level_split(self):
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = ["a", "b", "b", "a"]  # XOR needs depth 2
        tree = DecisionTree(max_depth=2, min_samples_leaf=1).fit(X, y)
        assert [tree.predict(x) for x in X] == y

    def test_depth_limit_yields_majority(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = ["a", "a", "a", "b"]
        tree = DecisionTree(max_depth=0).fit(X, y)
        assert all(tree.predict(x) == "a" for x in X)

    def test_single_class(self):
        X = np.zeros((5, 3))
        y = ["only"] * 5
        tree = DecisionTree().fit(X, y)
        assert tree.predict(np.zeros(3)) == "only"

    def test_unfitted_raises(self):
        with pytest.raises(ModelError):
            DecisionTree().predict(np.zeros(2))

    def test_fit_validation(self):
        with pytest.raises(ModelError):
            DecisionTree().fit(np.zeros((3, 2)), ["a", "b"])
        with pytest.raises(ModelError):
            DecisionTree().fit(np.zeros((0, 2)), [])


class TestLearnedSelector:
    @pytest.fixture(scope="class")
    def trained(self):
        """Train on synthetic archetypes of the three structural classes."""
        selector = LearnedSelector(CORE2_XEON, min_samples_leaf=1)
        builders = [
            (lambda s: g.grid2d(30, 30, 5, dof=3, drop_fraction=0.2, seed=s),
             "bcsr"),
            (lambda s: g.random_uniform(4000, 4000, 24_000, seed=s), "csr"),
            (lambda s: g.diagonal_pattern(
                5000, (0, 1, -1, 40, -40), 0.95, seed=s), "bcsd"),
        ]
        feats, labels = [], []
        for build, kind in builders:
            for s in range(4):
                feats.append(_vector(build(s)))
                labels.append(kind)
        return selector.fit(np.array(feats), labels)

    def test_classifies_held_out_matrices(self, trained):
        assert trained.predict_kind(
            g.grid2d(26, 26, 5, dof=3, drop_fraction=0.2, seed=99)
        ) == "bcsr"
        assert trained.predict_kind(
            g.random_uniform(5000, 5000, 30_000, seed=99)
        ) == "csr"
        assert trained.predict_kind(
            g.diagonal_pattern(6000, (0, 1, -1, 50, -50), 0.95, seed=99)
        ) == "bcsd"

    def test_select_returns_candidate_of_predicted_kind(self, trained):
        coo = g.grid2d(30, 30, 5, dof=3, drop_fraction=0.2, seed=55)
        result = trained.select(coo, "dp")
        assert result.candidate.kind == "bcsr"

    @pytest.mark.parametrize("build", [
        lambda: g.grid2d(30, 30, 5, dof=3, drop_fraction=0.2, seed=55),
        lambda: g.random_uniform(4000, 4000, 24_000, seed=56),
        lambda: g.diagonal_pattern(5000, (0, 1, -1, 40, -40), 0.95, seed=57),
    ], ids=["bcsr", "csr", "bcsd"])
    def test_select_matches_the_reference_loop(self, trained, build):
        """The OVERLAP ranking inside the predicted kind is the
        per-candidate reference loop's, candidate and predictions."""
        coo = build()
        kind = trained.predict_kind(coo, "dp")
        pool = [c for c in candidate_space() if c.kind == kind]
        want = select_with_model(
            evaluate_candidates(
                coo, CORE2_XEON, "dp", candidates=pool,
                models=("overlap",), run_simulation=False,
            ),
            "overlap",
        )
        got = trained.select(coo, "dp")
        assert got.candidate == want.candidate
        assert got.predictions == want.predictions

    def test_unfitted_raises(self):
        sel = LearnedSelector(CORE2_XEON)
        with pytest.raises(ModelError):
            sel.predict_kind(g.grid2d(5, 5, 5))
