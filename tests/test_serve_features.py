"""Tests for the advisor's structural-feature extractor."""

import functools
import json
from hashlib import sha256

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import COOMatrix, coarsen
from repro.serve import features
from repro.serve.features import (
    DIAG_PROBES,
    ROW_PROBES,
    SAMPLE_TARGET_NNZ,
    MatrixFeatures,
    extract_features,
    matrix_fingerprint,
)

from .conftest import make_random_coo


class TestFingerprint:
    def test_deterministic(self):
        a = make_random_coo(40, 40, 200, seed=1, with_values=False)
        assert matrix_fingerprint(a) == matrix_fingerprint(a)

    def test_value_blind(self):
        pattern = make_random_coo(40, 40, 200, seed=1, with_values=False)
        valued = pattern.with_values(np.ones(pattern.nnz))
        assert matrix_fingerprint(pattern) == matrix_fingerprint(valued)

    def test_pattern_sensitive(self):
        a = make_random_coo(40, 40, 200, seed=1, with_values=False)
        b = make_random_coo(40, 40, 200, seed=2, with_values=False)
        assert matrix_fingerprint(a) != matrix_fingerprint(b)

    def test_shape_sensitive(self):
        diag = COOMatrix.eye(8)
        wide = COOMatrix(8, 16, diag.rows, diag.cols)
        assert matrix_fingerprint(diag) != matrix_fingerprint(wide)


class TestFills:
    def test_dense_pattern_fills_are_one(self):
        coo = COOMatrix.from_dense(np.ones((24, 24)))
        f = extract_features(coo)
        for r in ROW_PROBES:
            assert f.row_fill[r] == pytest.approx(1.0)
            assert f.col_fill[r] == pytest.approx(1.0)
        assert f.est_rect_fill(8, 8) == pytest.approx(1.0)
        assert f.est_rect_full_frac(2, 2) == pytest.approx(1.0)
        assert f.density == pytest.approx(1.0)
        # 24x24 with a 16-wide band: most (not all) entries are in-band.
        assert f.bandedness > 0.9

    def test_sparse_random_fill_is_low(self):
        coo = make_random_coo(600, 600, 1800, seed=5, with_values=False)
        f = extract_features(coo)
        # ~0.5% density: 2x2 blocks are almost all singletons (fill ~ 1/4).
        assert f.est_rect_fill(2, 2) < 0.5
        assert f.est_rect_full_frac(3, 3) < 0.05

    def test_estimate_clipped_by_marginals(self):
        coo = make_random_coo(300, 300, 3000, seed=6, with_values=False)
        f = extract_features(coo)
        for r, c in ((2, 2), (4, 4), (5, 7), (8, 8)):
            est = f.est_rect_fill(r, c)
            assert 0.0 < est <= 1.0
            assert est <= f._interp(f.row_fill, r) + 1e-12
            assert est <= f._interp(f.col_fill, c) + 1e-12

    def test_interpolation_between_probes(self):
        coo = make_random_coo(300, 300, 3000, seed=7, with_values=False)
        f = extract_features(coo)
        lo, hi = f.row_fill[4], f.row_fill[6]
        mid = f._interp(f.row_fill, 5)
        assert min(lo, hi) - 1e-12 <= mid <= max(lo, hi) + 1e-12
        assert f._interp(f.row_fill, 1) == 1.0

    def test_diagonal_matrix_diag_fill(self):
        f = extract_features(COOMatrix.eye(240))
        # BCSD blocks are segments along a diagonal: a pure diagonal fills
        # every segment completely, at every probed size.
        for b in DIAG_PROBES:
            assert f.diag_fill[b] == pytest.approx(1.0)
            assert f.diag_full_frac[b] == pytest.approx(1.0)
        assert f.bandwidth == 0
        assert f.bandedness == pytest.approx(1.0)


class TestSampling:
    def _banded(self, n: int) -> COOMatrix:
        rows = np.repeat(np.arange(n), 3)
        cols = np.clip(rows + np.tile([-1, 0, 1], n), 0, n - 1)
        return COOMatrix(n, n, rows, cols)

    def test_small_matrix_not_sampled(self):
        f = extract_features(self._banded(1000))
        assert not f.sampled
        assert f.sample_nnz == f.nnz

    def test_large_matrix_sampled(self):
        n = SAMPLE_TARGET_NNZ  # 3 nnz/row -> nnz = 3n > 2 * target
        f = extract_features(self._banded(n))
        assert f.sampled
        assert f.sample_nnz < f.nnz
        # Homogeneous structure: sampled fills match the exact ones.
        exact = extract_features(self._banded(1000))
        for r in ROW_PROBES:
            assert f.row_fill[r] == pytest.approx(exact.row_fill[r], abs=0.02)

    def test_full_feature_passes_use_whole_matrix(self):
        n = SAMPLE_TARGET_NNZ
        f = extract_features(self._banded(n))
        # nnz / bandwidth / density come from the full pattern, not the
        # sample.
        assert f.nnz == 3 * n - 2
        assert f.bandwidth == 1


class TestPayload:
    def test_round_trip(self):
        coo = make_random_coo(200, 150, 900, seed=9, with_values=False)
        f = extract_features(coo)
        back = MatrixFeatures.from_payload(f.to_payload())
        assert back == f

    def test_payload_is_json_safe(self):
        import json

        coo = make_random_coo(50, 50, 120, seed=10, with_values=False)
        payload = extract_features(coo).to_payload()
        assert json.loads(json.dumps(payload)) == payload


# --------------------------------------------------------------------------- #
# The probes are counted by sparse coarsening; BlockStats is their oracle.
# --------------------------------------------------------------------------- #

def _assert_probes_match_oracle(probes: dict, sample: COOMatrix) -> None:
    """Every probe equals its definition over the per-nonzero BlockStats
    analysis (``fill_of`` / ``full_block_fraction``).  ``probes`` maps
    field names to probe dicts, like ``vars(extract_features(...))``."""
    for name, expected in features._blockstats_probes(sample).items():
        got = probes[name]
        # Same keys in the same order, same values to the bit.
        assert list(got.items()) == list(expected.items()), name
        assert all(type(v) is float for v in got.values()), name


@st.composite
def structured_patterns(draw):
    """Random scatter plus dense tiles, diagonal runs, an optional dense
    row and an optional band of empty rows, on square, tall and wide
    shapes: patterns with full blocks of every probed kind."""
    nrows = draw(st.integers(1, 80))
    ncols = draw(st.integers(1, 240))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(0, 3 * max(nrows, ncols)))
    rows = [rng.integers(0, nrows, k)]
    cols = [rng.integers(0, ncols, k)]
    for _ in range(draw(st.integers(0, 4))):
        r0, c0 = rng.integers(0, nrows), rng.integers(0, ncols)
        h, w = rng.integers(1, 13, 2)
        rr, cc = np.meshgrid(
            np.arange(r0, min(r0 + h, nrows)),
            np.arange(c0, min(c0 + w, ncols)),
            indexing="ij",
        )
        rows.append(rr.ravel())
        cols.append(cc.ravel())
    for _ in range(draw(st.integers(0, 3))):
        i = np.arange(nrows)
        j = i + rng.integers(-nrows + 1, ncols)
        keep = (j >= 0) & (j < ncols) & (rng.random(nrows) < 0.9)
        rows.append(i[keep])
        cols.append(j[keep])
    if draw(st.booleans()):
        rows.append(np.full(ncols, rng.integers(0, nrows)))
        cols.append(np.arange(ncols))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    if draw(st.booleans()):
        lo = rng.integers(0, nrows)
        keep = (rows < lo) | (rows >= lo + rng.integers(1, 30))
        rows, cols = rows[keep], cols[keep]
    return COOMatrix(nrows, ncols, rows, cols)


class TestCountedProbes:
    @given(coo=structured_patterns())
    @settings(max_examples=60, deadline=None)
    def test_equal_blockstats_definition(self, coo):
        # The counting itself on every pattern, also those the guard
        # sends to BlockStats, and the bundle whichever path it took.
        _assert_probes_match_oracle(features._count_probes(coo), coo)
        _assert_probes_match_oracle(vars(extract_features(coo)), coo)

    @given(coo=structured_patterns(), target=st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_sampled_path_equals_definition_on_the_sample(self, coo, target):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                features, "_sample_panels",
                functools.partial(features._sample_panels, target_nnz=target),
            )
            f = extract_features(coo)
            sample, sampled = features._sample_panels(coo)
        assert f.sampled == sampled
        assert f.sample_nnz == sample.nnz
        _assert_probes_match_oracle(vars(f), sample)

    @pytest.mark.parametrize(
        "coo",
        [
            COOMatrix(7, 5, np.array([], dtype=np.int64),
                      np.array([], dtype=np.int64)),
            COOMatrix(1, 1, [0], [0]),
            COOMatrix(9, 300, [4], [299]),
            COOMatrix(5, 64, np.full(64, 3), np.arange(64)),
            COOMatrix(40, 3, np.arange(40), np.arange(40) % 3),
        ],
        ids=["nnz0", "nnz1", "wide-nnz1", "dense-row", "tall"],
    )
    def test_edge_patterns(self, coo):
        _assert_probes_match_oracle(features._count_probes(coo), coo)
        _assert_probes_match_oracle(vars(extract_features(coo)), coo)

    def test_nnz0_keeps_neutral_values(self):
        empty = np.array([], dtype=np.int64)
        f = extract_features(COOMatrix(6, 6, empty, empty))
        for name in ("row_fill", "col_fill", "diag_fill", "rect_fill"):
            assert set(getattr(f, name).values()) == {1.0}
        for name in ("diag_full_frac", "rect_full_frac"):
            assert set(getattr(f, name).values()) == {0.0}

    def test_in_range_patterns_never_run_blockstats(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("BlockStats probe on an in-range pattern")

        monkeypatch.setattr(features, "bcsr_block_stats", refuse)
        monkeypatch.setattr(features, "bcsd_block_stats", refuse)
        empty = np.array([], dtype=np.int64)
        banded = TestSampling()._banded(SAMPLE_TARGET_NNZ)
        for coo in (
            COOMatrix(6, 6, empty, empty),
            COOMatrix.eye(50),
            make_random_coo(300, 900, 4000, seed=3, with_values=False),
            banded,
        ):
            extract_features(coo)
        assert extract_features(banded).sampled

    @pytest.mark.parametrize(
        "ncols", [2**31 - 2, 2**20], ids=["past-int32", "hypersparse"]
    )
    def test_past_the_guard_takes_blockstats_path(self, ncols, monkeypatch):
        """3 x (2^31 - 2) fits int32 on every axis but the shifted
        pattern's nrows + ncols - 1 columns; 3 x 2^20 fits, but its maps
        would be a million times the pattern.  Both must get the O(nnz)
        probes, never O(ncols) coarsening maps."""
        def refuse(*args, **kwargs):
            raise AssertionError("coarsening past the guard")

        monkeypatch.setattr(coarsen, "pattern_csr", refuse)
        monkeypatch.setattr(coarsen, "shifted_pattern", refuse)
        coo = COOMatrix(3, ncols, [1], [ncols - 1])
        assert not features.worth_coarsening(coo.nrows, coo.ncols, coo.nnz)
        _assert_probes_match_oracle(vars(extract_features(coo)), coo)


@pytest.mark.slow
def test_suite_features_are_pinned():
    """The whole feature bundle of every suite matrix, to the bit: drift
    in a probe or a global statistic would silently change pruning."""
    from repro.matrices.suite import get_entry

    payloads = []
    for idx in range(1, 31):
        payload = extract_features(get_entry(idx).build()).to_payload()
        del payload["extract_s"]
        payloads.append(payload)
    blob = json.dumps(payloads, sort_keys=True).encode()
    assert sha256(blob).hexdigest()[:16] == "db1b3d01731856dc"
