"""Tests for the canonical COO container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError, ShapeMismatchError
from repro.formats import COOMatrix
from repro.formats.coo import _canonicalise

from .conftest import make_random_coo


class TestConstruction:
    def test_sorts_row_major(self):
        coo = COOMatrix(3, 3, [2, 0, 1, 0], [0, 2, 1, 0], [1.0, 2.0, 3.0, 4.0])
        assert coo.rows.tolist() == [0, 0, 1, 2]
        assert coo.cols.tolist() == [0, 2, 1, 0]
        assert coo.values.tolist() == [4.0, 2.0, 3.0, 1.0]

    def test_merges_duplicates_summing_values(self):
        coo = COOMatrix(2, 2, [0, 0, 1, 0], [1, 1, 0, 1], [1.0, 2.0, 5.0, 4.0])
        assert coo.nnz == 2
        assert coo.to_dense()[0, 1] == pytest.approx(7.0)
        assert coo.to_dense()[1, 0] == pytest.approx(5.0)

    def test_merges_duplicates_pattern_only(self):
        coo = COOMatrix(2, 2, [0, 0], [1, 1], None)
        assert coo.nnz == 1
        assert coo.values is None

    def test_empty_matrix(self):
        coo = COOMatrix(5, 5, [], [], [])
        assert coo.nnz == 0
        assert coo.to_dense().shape == (5, 5)

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(FormatError):
            COOMatrix(2, 2, [0, 2], [0, 0], [1.0, 1.0])
        with pytest.raises(FormatError):
            COOMatrix(2, 2, [0], [5], [1.0])

    def test_rejects_negative_indices(self):
        with pytest.raises(FormatError):
            COOMatrix(2, 2, [-1], [0], [1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            COOMatrix(2, 2, [0, 1], [0], [1.0])
        with pytest.raises(ShapeMismatchError):
            COOMatrix(2, 2, [0], [0], [1.0, 2.0])

    def test_arrays_are_readonly(self):
        coo = COOMatrix(2, 2, [0], [1], [1.0])
        with pytest.raises(ValueError):
            coo.rows[0] = 1


class TestConversions:
    def test_from_dense_round_trip(self):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((7, 5)) * (rng.random((7, 5)) < 0.4)
        coo = COOMatrix.from_dense(dense)
        np.testing.assert_array_equal(coo.to_dense(), dense)

    def test_from_dense_rejects_1d(self):
        with pytest.raises(ShapeMismatchError):
            COOMatrix.from_dense(np.ones(4))

    def test_eye(self):
        eye = COOMatrix.eye(4)
        np.testing.assert_array_equal(eye.to_dense(), np.eye(4))

    def test_pattern_only_drops_values(self):
        coo = make_random_coo(10, 10, 30, seed=1)
        pat = coo.pattern_only()
        assert pat.values is None
        assert pat.nnz == coo.nnz
        assert not pat.has_values

    def test_with_values(self):
        coo = make_random_coo(10, 10, 30, seed=2, with_values=False)
        vals = np.arange(coo.nnz, dtype=float)
        full = coo.with_values(vals)
        assert full.has_values
        np.testing.assert_array_equal(full.values, vals)


class TestBehaviour:
    def test_spmv_matches_dense(self, small_coo, small_x):
        expected = small_coo.to_dense() @ small_x
        np.testing.assert_allclose(small_coo.spmv(small_x), expected)

    def test_spmv_rejects_wrong_x(self, small_coo):
        with pytest.raises(ShapeMismatchError):
            small_coo.spmv(np.ones(small_coo.ncols + 1))

    def test_spmv_requires_values(self, small_coo, small_x):
        with pytest.raises(FormatError):
            small_coo.pattern_only().spmv(small_x)

    def test_row_counts(self):
        coo = COOMatrix(4, 4, [0, 0, 2], [0, 1, 3], [1.0, 1.0, 1.0])
        assert coo.row_counts().tolist() == [2, 0, 1, 0]

    def test_equality(self):
        a = make_random_coo(8, 8, 20, seed=5)
        b = make_random_coo(8, 8, 20, seed=5)
        c = make_random_coo(8, 8, 20, seed=6)
        assert a == b
        assert a != c
        assert a != a.pattern_only()

    def test_working_set_accounting(self):
        coo = make_random_coo(10, 12, 40, seed=4)
        e = 8  # dp
        expected = (
            e * coo.nnz          # values
            + 2 * 4 * coo.nnz    # row + col indices
            + e * (10 + 12)      # x and y
        )
        assert coo.working_set("dp") == expected

    def test_padding_is_zero(self, small_coo):
        assert small_coo.padding == 0
        assert small_coo.padding_ratio == 1.0


def _lexsort_canonicalise(nrows, ncols, rows, cols, values):
    """The reference: lexsort by (row, col), then sum duplicate runs."""
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    values = None if values is None else values[order]
    keep = np.ones(rows.shape[0], dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    if values is not None:
        summed = np.zeros(int(keep.sum()), dtype=np.float64)
        np.add.at(summed, np.cumsum(keep) - 1, values)
        values = summed
    return rows[keep], cols[keep], values


#: Shapes up to one whose ``nrows * ncols`` overflows int64 (the lexsort
#: fallback); indices are drawn from the first few rows and columns.
_SHAPES = [(1, 1), (3, 7), (64, 2), (2**31, 2**31), (2**32, 2**32), (2**62, 3)]


class TestKeySortCanonicalise:
    @given(
        shape=st.sampled_from(_SHAPES),
        n=st.integers(1, 200),
        spread=st.integers(1, 12),
        seed=st.integers(0, 2**31 - 1),
        with_values=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_lexsort_reference(
        self, shape, n, spread, seed, with_values
    ):
        nrows, ncols = shape
        rng = np.random.default_rng(seed)
        # A small index range makes duplicate coordinates common.
        rows = rng.integers(0, min(nrows, spread), n)
        cols = rng.integers(0, min(ncols, spread), n)
        if rng.random() < 0.3:  # touch the far corner of the shape
            rows[0], cols[0] = nrows - 1, ncols - 1
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
        values = values if with_values else None
        got = _canonicalise(nrows, ncols, rows, cols, values)
        want = _lexsort_canonicalise(nrows, ncols, rows, cols, values)
        for g, w in zip(got[:2], want[:2]):
            assert g.dtype == w.dtype == np.int64
            assert np.array_equal(g, w)
        if with_values:
            # Duplicate sums must be bit-equal, not merely close.
            assert got[2].view(np.uint64).tolist() == (
                want[2].view(np.uint64).tolist()
            )
        else:
            assert got[2] is None

    def test_overflowing_shape_takes_the_lexsort_fallback(self, monkeypatch):
        calls = []
        real = np.lexsort
        monkeypatch.setattr(
            np, "lexsort", lambda keys: calls.append(1) or real(keys)
        )
        COOMatrix(2**40, 2**40, [5, 1], [3, 2**39], [1.0, 2.0])
        assert calls == [1]
        COOMatrix(2**31, 2**31, [5, 1], [3, 2**30], [1.0, 2.0])
        assert calls == [1]
