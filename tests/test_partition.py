"""Tests for the multithreading partition substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.formats import build_format
from repro.machine import executor
from repro.machine.presets import get_preset
from repro.parallel import balanced_partition, stored_per_block_row
from repro.parallel.partition import (
    pointer_partition,
    prefix_sums,
    weight_pointer,
)
from repro.types import Impl

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
    def test_pointer_partition_splits_the_running_weight(self, kind, block):
        coo = make_random_coo(36, 36, 200, seed=63, with_values=False)
        fmt = build_format(coo, kind, block, with_values=False)
        ptr, elems = weight_pointer(fmt)
        weights = stored_per_block_row(fmt)
        for nthreads in range(1, 9):
            got = pointer_partition(ptr, elems, nthreads).boundaries
            want = balanced_partition(weights, nthreads).boundaries
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()

    def test_weights_are_fresh_pointer_differences(self):
        coo = make_random_coo(36, 36, 200, seed=63, with_values=False)
        fmt = build_format(coo, "bcsr", (2, 3), with_values=False)
        w = stored_per_block_row(fmt)
        assert w.dtype == np.float64
        assert w.tolist() == (np.diff(fmt.brow_ptr) * 6).tolist()
        # Nothing of the rows is memoised on the part.
        assert stored_per_block_row(fmt) is not w
        assert "_row_counts" not in fmt.__dict__


@st.composite
def _pointers(draw):
    """Block-row pointers from an arbitrary start, with empty rows (and
    runs of them, trailing ones included) and all-empty parts."""
    counts = draw(st.lists(
        st.one_of(st.just(0), st.integers(0, 9)), min_size=0, max_size=60,
    ))
    start = draw(st.integers(0, 1000))
    return start + np.concatenate(([0], np.cumsum(counts))).astype(np.int64)


class TestPointerPartition:
    """The integer search equals the float running-weight split it
    replaces, ``balanced_partition(weights, T)``."""

    @given(ptr=_pointers(), elems=st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_running_weight_split(self, ptr, elems):
        weights = np.diff(ptr).astype(np.float64) * elems
        for nthreads in range(1, 9):
            got = pointer_partition(ptr, elems, nthreads).boundaries
            want = balanced_partition(weights, nthreads).boundaries
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist(), nthreads

    @pytest.mark.parametrize("counts,elems", [
        ([4] * 12, 3),            # every target lands on a running weight
        ([1, 2, 3, 0, 0, 6], 5),  # targets between and on weights
        ([0, 0, 8, 0, 0], 2),     # one heavy row among empty ones
        ([0, 0, 0], 4),           # total weight 0: the even split
        ([3, 0, 0, 0], 7),        # trailing empty rows
    ])
    def test_edge_pointers(self, counts, elems):
        ptr = 5 + np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        weights = np.diff(ptr).astype(np.float64) * elems
        for nthreads in range(1, 9):
            got = pointer_partition(ptr, elems, nthreads).boundaries
            want = balanced_partition(weights, nthreads).boundaries
            assert got.tolist() == want.tolist(), nthreads

    @given(
        k=st.integers(1, 2**40), elems=st.integers(1, 8),
        side=st.sampled_from([-np.inf, None, np.inf]),
    )
    @settings(max_examples=300, deadline=None)
    def test_ceil_quotient_is_the_least_count(self, k, elems, side):
        """The search key ``ceil(target / elems)`` is exactly the least
        ``q`` with ``q * elems >= target`` for targets on a multiple of
        ``elems`` and one ulp either side of it.  (A target is at least
        ``1 / nthreads`` of a positive integer total, never subnormal.)"""
        base = float(k * elems)
        target = base if side is None else float(np.nextafter(base, side))
        q = int(np.ceil(target / elems))
        assert q * elems >= target
        assert (q - 1) * elems < target

    def test_rejects_zero_threads(self):
        with pytest.raises(ModelError):
            pointer_partition(np.array([0, 1]), 1, 0)


def _boundary_parts():
    """One part of every costed kind: CSR, BCSR, BCSD, 1D-VBL, and both
    decompositions' blocked parts and CSR remainders."""
    coo = make_random_coo(90, 90, 1400, seed=64, with_values=False)
    parts = [
        build_format(coo, kind, block, with_values=False)
        for kind, block in (
            ("csr", None), ("bcsr", (2, 3)), ("bcsd", 4), ("vbl", None),
        )
    ]
    for kind, block in (("bcsr_dec", (2, 2)), ("bcsd_dec", 2)):
        dec = build_format(coo, kind, block, with_values=False)
        assert len(dec.parts) == 2
        parts.extend(dec.parts)
    return parts


class TestRowCostBoundaries:
    """The chunked boundary pass reads the whole-part prefix
    ``prefix_sums(block_row_cycles(...))`` value for value."""

    MACHINE = get_preset("core2-xeon-2.66")

    def _check(self, part, positions):
        costs = self.MACHINE.costs
        for precision in ("sp", "dp"):
            for impl in {costs.effective_impl(part, i) for i in Impl}:
                want = prefix_sums(
                    costs.block_row_cycles(part, impl, precision)
                )[positions]
                got = executor.row_cost_prefix_at(
                    part, costs, impl, precision, positions
                )
                assert got.dtype == np.float64
                assert got.tolist() == want.tolist(), (part.kind, impl)

    @pytest.mark.parametrize("chunk_delta", [+5, 0, -1])
    def test_every_kind_shorter_equal_longer_than_a_chunk(
        self, monkeypatch, chunk_delta
    ):
        for part in _boundary_parts():
            n = part.n_block_rows
            chunk = max(n + chunk_delta, 1)
            monkeypatch.setattr(executor, "COST_CHUNK_ROWS", chunk)
            everywhere = np.arange(n + 1)
            self._check(part, everywhere)
            self._check(part, np.array([0, n]))

    def test_boundaries_on_chunk_edges(self, monkeypatch):
        for part in _boundary_parts():
            n = part.n_block_rows
            for chunk in (1, 3, 7, n // 3):
                monkeypatch.setattr(executor, "COST_CHUNK_ROWS", chunk)
                edges = np.arange(0, n + 1, chunk)
                self._check(part, np.union1d(edges, [n]))
                self._check(part, np.union1d(edges[1:2], [0, n]))

    def test_partition_boundaries_at_the_real_chunk(self):
        """Parts longer than :data:`COST_CHUNK_ROWS` at the module's
        chunk size, read at the partition boundaries the simulator uses."""
        rows = executor.COST_CHUNK_ROWS + 1234
        coo = make_random_coo(rows, 64, 3 * rows, seed=65, with_values=False)
        for kind, block in (("csr", None), ("bcsr", (1, 2)), ("vbl", None)):
            part = build_format(coo, kind, block, with_values=False)
            assert part.n_block_rows > executor.COST_CHUNK_ROWS
            ptr, elems = weight_pointer(part)
            positions = np.unique(np.concatenate([
                pointer_partition(ptr, elems, t).boundaries
                for t in range(1, self.MACHINE.max_threads + 1)
            ]))
            self._check(part, positions)

    def test_empty_part_reads_zero(self):
        coo = make_random_coo(0, 0, 0, seed=1, with_values=False)
        part = build_format(coo, "csr", None, with_values=False)
        got = executor.row_cost_prefix_at(
            part, self.MACHINE.costs, Impl.SCALAR, "dp", np.array([0])
        )
        assert got.tolist() == [0.0]
