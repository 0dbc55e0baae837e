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
