"""Tests for the multithreading partition substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.formats import build_format
from repro.parallel import balanced_partition, stored_per_block_row
from repro.parallel.partition import cumulative_weights, row_counts

from .conftest import make_random_coo


class TestBalancedPartition:
    def test_single_thread_covers_all(self):
        p = balanced_partition(np.ones(10), 1)
        assert p.boundaries.tolist() == [0, 10]

    def test_boundaries_monotone_and_cover(self):
        rng = np.random.default_rng(0)
        w = rng.integers(1, 50, 100).astype(float)
        p = balanced_partition(w, 4)
        b = p.boundaries
        assert b[0] == 0 and b[-1] == 100
        assert np.all(np.diff(b) >= 0)
        assert p.nthreads == 4

    def test_uniform_weights_split_evenly(self):
        p = balanced_partition(np.ones(100), 4)
        assert p.boundaries.tolist() == [0, 25, 50, 75, 100]

    def test_balance_quality(self):
        """No thread exceeds the ideal share by more than one max weight."""
        rng = np.random.default_rng(1)
        w = rng.integers(1, 100, 500).astype(float)
        for k in (2, 3, 4, 8):
            p = balanced_partition(w, k)
            sums = p.segment_sums(w)
            assert sums.max() <= w.sum() / k + w.max()

    def test_heavy_single_row(self):
        """A single enormous row dominates one thread, the rest share."""
        w = np.ones(50)
        w[10] = 1000.0
        p = balanced_partition(w, 4)
        sums = p.segment_sums(w)
        assert sums.max() >= 1000.0
        assert p.boundaries[-1] == 50

    def test_zero_weights(self):
        p = balanced_partition(np.zeros(20), 4)
        assert p.boundaries[0] == 0 and p.boundaries[-1] == 20

    def test_more_threads_than_rows(self):
        p = balanced_partition(np.ones(2), 4)
        assert p.boundaries[-1] == 2
        assert p.nthreads == 4  # some threads own nothing

    def test_rejects_zero_threads(self):
        with pytest.raises(ModelError):
            balanced_partition(np.ones(4), 0)

    def test_segment_sums(self):
        w = np.array([1.0, 2, 3, 4, 5, 6])
        p = balanced_partition(w, 2)
        sums = p.segment_sums(w)
        assert sums.sum() == pytest.approx(21.0)

    @given(
        n=st.integers(1, 200),
        k=st.integers(1, 8),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_cover_and_order(self, n, k, seed):
        w = np.random.default_rng(seed).integers(0, 20, n).astype(float)
        p = balanced_partition(w, k)
        b = p.boundaries
        assert b.shape[0] == k + 1
        assert b[0] == 0 and b[-1] == n
        assert np.all(np.diff(b) >= 0)
        assert p.segment_sums(w).sum() == pytest.approx(w.sum())


class TestFormatWeights:
    @pytest.mark.parametrize("kind,block", [
        ("csr", None),
        ("bcsr", (2, 3)),
        ("bcsd", 4),
        ("vbl", None),
    ])
    def test_weights_sum_to_stored(self, kind, block):
        coo = make_random_coo(36, 36, 200, seed=61, with_values=False)
        fmt = build_format(coo, kind, block, with_values=False)
        w = stored_per_block_row(fmt)
        assert w.shape[0] == fmt.n_block_rows
        assert int(w.sum()) == fmt.nnz_stored

    def test_padding_aware_weights(self):
        """BCSR weights count the padding zeros — the paper's balancing
        criterion ('we also accounted for the extra zero elements')."""
        coo = make_random_coo(36, 36, 200, seed=62, with_values=False)
        bcsr = build_format(coo, "bcsr", (2, 4), with_values=False)
        assert int(stored_per_block_row(bcsr).sum()) > coo.nnz

    @pytest.mark.parametrize("kind,block", [
        ("csr", None), ("bcsr", (2, 3)), ("bcsd", 4), ("vbl", None),
    ])
    def test_cumulative_weights_are_the_running_weight(self, kind, block):
        coo = make_random_coo(36, 36, 200, seed=63, with_values=False)
        fmt = build_format(coo, kind, block, with_values=False)
        got = cumulative_weights(fmt)
        assert got.dtype == np.float64
        assert got.tolist() == np.cumsum(stored_per_block_row(fmt)).tolist()

    def test_row_counts_are_memoised_read_only_diffs(self):
        coo = make_random_coo(36, 36, 200, seed=63, with_values=False)
        fmt = build_format(coo, "vbl", None, with_values=False)
        counts = row_counts(fmt, "block_row_ptr")
        assert counts.dtype == np.float64
        assert counts.tolist() == np.diff(fmt.block_row_ptr).tolist()
        assert row_counts(fmt, "block_row_ptr") is counts
        assert not counts.flags.writeable
        # CSR and 1D-VBL weigh rows by the memoised element counts.
        assert stored_per_block_row(fmt) is row_counts(fmt, "row_ptr")
