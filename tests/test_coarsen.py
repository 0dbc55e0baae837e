"""Tests for the sparse-coarsening helpers shared by the fused planner and
the advisor's feature probes: block counts must equal the per-nonzero
BlockStats analysis, block for block."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats.blockstats import bcsd_block_stats, bcsr_block_stats
from repro.formats.coarsen import (
    INT32_LIMIT,
    MAX_DIMS_PER_NNZ,
    coarsen_rows,
    column_groups,
    merge_columns,
    pattern_csr,
    row_aggregation,
    shifted_pattern,
    worth_coarsening,
)

from .conftest import make_random_coo


@st.composite
def coos(draw):
    nrows = draw(st.integers(1, 70))
    ncols = draw(st.integers(1, 70))
    nnz = draw(st.integers(0, min(400, nrows * ncols)))
    seed = draw(st.integers(0, 2**31 - 1))
    return make_random_coo(nrows, ncols, nnz, seed=seed, with_values=False)


def _row_ptr(coo):
    return np.concatenate(([0], np.cumsum(coo.row_counts())))


def _sorted(mat):
    mat = mat.copy()
    mat.sort_indices()
    return mat


@given(coo=coos(), heights=st.sets(st.integers(1, 12), min_size=1))
@settings(max_examples=40, deadline=None)
def test_composite_heights_equal_direct_products(coo, heights):
    A = pattern_csr(coo, _row_ptr(coo))
    built = coarsen_rows(A, heights)
    assert set(built) == heights
    for h in heights:
        direct = _sorted(row_aggregation(coo.nrows, h) @ A)
        got = _sorted(built[h])
        assert got.shape == direct.shape
        np.testing.assert_array_equal(got.indptr, direct.indptr)
        np.testing.assert_array_equal(got.indices, direct.indices)
        np.testing.assert_array_equal(got.data, direct.data)


@given(coo=coos())
@settings(max_examples=30, deadline=None)
def test_counts_equal_blockstats(coo):
    row_ptr = _row_ptr(coo)
    by_height = coarsen_rows(pattern_csr(coo, row_ptr), range(1, 9))
    for r in range(1, 9):
        for c in range(1, 9):
            mat = by_height[r] @ column_groups(coo.ncols, c)
            stats = bcsr_block_stats(coo, r, c)
            np.testing.assert_array_equal(_sorted(mat).data, stats.counts)
    by_size = coarsen_rows(shifted_pattern(coo, row_ptr), range(1, 9))
    for b in range(1, 9):
        stats = bcsd_block_stats(coo, b)
        np.testing.assert_array_equal(_sorted(by_size[b]).data, stats.counts)


@st.composite
def odd_coos(draw):
    """Patterns whose column count is rarely a multiple of the width,
    with empty rows, and single-row ones."""
    nrows = draw(st.one_of(st.just(1), st.integers(1, 40)))
    ncols = draw(st.integers(1, 67))
    nnz = draw(st.integers(0, min(300, nrows * ncols)))
    seed = draw(st.integers(0, 2**31 - 1))
    return make_random_coo(nrows, ncols, nnz, seed=seed, with_values=False)


@given(coo=odd_coos())
@settings(max_examples=60, deadline=None)
def test_merge_columns_equals_the_sorted_product(coo):
    A = pattern_csr(coo, _row_ptr(coo))
    before = [a.copy() for a in (A.data, A.indices, A.indptr)]
    for c in range(2, 9):
        got = merge_columns(A, c)
        want = _sorted(A @ column_groups(coo.ncols, c))
        assert got.shape == want.shape
        assert got.has_sorted_indices
        # The merged entries own right-sized arrays, as a product's do.
        assert got.indices.base is None and got.data.base is None
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b)
    # The merge works in place on copies: A itself is untouched.
    for a, b in zip(before, (A.data, A.indices, A.indptr)):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def test_merge_columns_on_empty_rows():
    coo = make_random_coo(6, 10, 0, seed=3, with_values=False)
    A = pattern_csr(coo, _row_ptr(coo))
    got = merge_columns(A, 3)
    assert got.shape == (6, 4)
    assert got.indptr.tolist() == [0] * 7
    assert got.nnz == 0


@pytest.mark.parametrize(
    "nrows,ncols,nnz,worth",
    [
        (INT32_LIMIT - 1, 1, INT32_LIMIT - 1, True),
        (INT32_LIMIT, 1, INT32_LIMIT - 1, False),
        (1, INT32_LIMIT, INT32_LIMIT - 1, False),
        (10, 10, INT32_LIMIT, False),
        # The shifted pattern has nrows + ncols - 1 columns.
        (2, INT32_LIMIT - 2, 2**30, True),
        (3, INT32_LIMIT - 2, 2**30, False),
        # Maps at most MAX_DIMS_PER_NNZ times the pattern.
        (500, 500, 1000 // MAX_DIMS_PER_NNZ, True),
        (500, 500, 1000 // MAX_DIMS_PER_NNZ - 1, False),
        (3, 2**20, 1, False),
        (4, 4, 0, False),
    ],
)
def test_guard(nrows, ncols, nnz, worth):
    assert worth_coarsening(nrows, ncols, nnz) is worth
