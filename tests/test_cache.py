"""Tests for the x-miss estimator against its oracles (the per-window loop
and the exact LRU simulator of :mod:`repro.oracle`)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.cache import estimate_stream_misses, x_budget_lines
from repro.oracle import LRUCache, estimate_stream_misses_windowed


class TestBudget:
    def test_basic(self):
        assert x_budget_lines(4 * 1024 * 1024, 64, 0.5) == 32768

    def test_never_zero(self):
        assert x_budget_lines(16, 64, 0.5) == 1


class TestEstimator:
    def test_resident_stream_no_misses(self):
        lines = np.tile(np.arange(10), 100)
        assert estimate_stream_misses(lines, budget_lines=16) == 0

    def test_empty_stream(self):
        assert estimate_stream_misses(np.empty(0, dtype=int), 100) == 0

    def test_zero_budget(self):
        assert estimate_stream_misses(np.arange(10), 0) == 0

    def test_sequential_sweep_is_free(self):
        """A pure forward sweep touches each line once per iteration —
        that is streaming traffic (already in ws), not latency: the
        compulsory discount cancels it."""
        lines = np.arange(1000)
        assert estimate_stream_misses(lines, budget_lines=50) == 0
        # Without the discount the raw windowed count shows the thrash.
        raw = estimate_stream_misses(
            lines, budget_lines=50, discount_compulsory=False
        )
        assert raw >= 900

    def test_irregular_rescans_cost_beyond_footprint(self):
        """Random accesses over a big footprint keep re-missing the same
        lines: the miss count exceeds the footprint even after discount."""
        rng = np.random.default_rng(7)
        lines = rng.integers(0, 4096, 60_000)
        misses = estimate_stream_misses(lines, budget_lines=256)
        assert misses > 4096

    def test_random_stream_misses_scale_with_footprint(self):
        rng = np.random.default_rng(0)
        small = rng.integers(0, 64, 4000)
        large = rng.integers(0, 4096, 4000)
        budget = 128
        m_small = estimate_stream_misses(small, budget)
        m_large = estimate_stream_misses(large, budget)
        assert m_small == 0  # footprint fits
        assert m_large > 1000

    def test_locality_beats_random(self):
        """A banded stream (mesh matrix) must miss far less than a uniform
        random stream of the same length and footprint."""
        rng = np.random.default_rng(1)
        n_lines = 2048
        length = 20000
        banded = (np.arange(length) // 10) % n_lines  # slow sweep
        random = rng.integers(0, n_lines, length)
        budget = 256
        assert (
            estimate_stream_misses(banded, budget)
            < estimate_stream_misses(random, budget) / 2
        )

    def test_non_cyclic_counts_compulsory(self):
        lines = np.arange(100)
        cyclic = estimate_stream_misses(lines, 10, cyclic=True)
        cold = estimate_stream_misses(lines, 10, cyclic=False)
        assert cold >= cyclic  # cold start adds the first window's misses

    def test_peak_memory_stays_linear_in_the_stream(self):
        """2M accesses over 1M lines at budget 64: a (windows x distinct)
        presence map would need ~25 GiB; the estimator must stay within a
        small multiple of the stream's own bytes."""
        lines = np.random.default_rng(5).integers(0, 1_000_000, 2_000_000)
        tracemalloc.start()
        try:
            misses = estimate_stream_misses(lines, 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert misses > 1_000_000
        assert peak <= 6 * lines.nbytes

    def test_monotone_in_budget(self):
        rng = np.random.default_rng(2)
        lines = rng.integers(0, 1024, 10000)
        misses = [
            estimate_stream_misses(lines, b) for b in (32, 128, 512, 2048)
        ]
        assert misses == sorted(misses, reverse=True)


@st.composite
def _stream_and_budget(draw):
    """A line-id stream with tunable locality, plus a budget.

    Ids are shifted to a zero, positive or negative minimum and spread up
    to 2^40 apart, so both the offset and the dense-rank key paths run.
    """
    n_lines = draw(st.integers(min_value=1, max_value=300))
    length = draw(st.integers(min_value=0, max_value=2000))
    style = draw(st.sampled_from(("random", "sweep", "banded", "clustered")))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    if style == "random":
        lines = rng.integers(0, n_lines, length)
    elif style == "sweep":
        lines = np.arange(length) % n_lines
    elif style == "banded":
        stride = draw(st.integers(min_value=1, max_value=50))
        lines = (np.arange(length) // stride) % n_lines
    else:  # clustered: short runs of repeated lines
        lines = np.repeat(
            rng.integers(0, n_lines, (length // 4) + 1), 4
        )[:length]
    spread = draw(st.sampled_from((1, 1, 3, 2**40, 2**40 + 7)))
    shift = draw(st.one_of(st.just(0), st.integers(-(2**50), 2**50)))
    budget = draw(st.integers(min_value=0, max_value=n_lines + 50))
    return lines.astype(np.int64) * spread + shift, budget


class TestVectorizedEquivalence:
    """The vectorized estimator IS the windowed loop, just faster.

    The loop version is kept verbatim as the executable specification;
    these tests pin the vectorized rewrite to it exactly — any disagreement
    on any stream is a bug, not a tolerance question.
    """

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        _stream_and_budget(),
        st.booleans(),
        st.booleans(),
    )
    def test_matches_windowed_loop(self, sb, cyclic, discount):
        lines, budget = sb
        assert estimate_stream_misses(
            lines, budget, cyclic=cyclic, discount_compulsory=discount
        ) == estimate_stream_misses_windowed(
            lines, budget, cyclic=cyclic, discount_compulsory=discount
        )

    def test_matches_on_window_boundary_lengths(self):
        # Stream lengths straddling multiples of the window size exercise
        # the ragged last window and the cyclic wrap to it.
        budget = 16
        rng = np.random.default_rng(11)
        for length in (15, 16, 17, 31, 32, 33, 64, 65):
            lines = rng.integers(0, 40, length)
            for cyclic in (True, False):
                for discount in (True, False):
                    assert estimate_stream_misses(
                        lines, budget, cyclic=cyclic, discount_compulsory=discount
                    ) == estimate_stream_misses_windowed(
                        lines, budget, cyclic=cyclic, discount_compulsory=discount
                    ), (length, cyclic, discount)

    def test_single_window_stream(self):
        # Whole stream fits one window: cyclic wraps to itself (every line
        # present → zero misses pre-discount is impossible, it's the same
        # window), non-cyclic charges it wholesale.
        lines = np.array([5, 6, 5, 7], dtype=np.int64)
        for cyclic in (True, False):
            for discount in (True, False):
                assert estimate_stream_misses(
                    lines, 2, cyclic=cyclic, discount_compulsory=discount
                ) == estimate_stream_misses_windowed(
                    lines, 2, cyclic=cyclic, discount_compulsory=discount
                )

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_stream_and_budget())
    def test_resident_footprint_matches_lru_exactly(self, sb):
        """When the distinct footprint fits the cache, both the estimator
        and the true LRU (after its compulsory cold misses) agree: zero."""
        lines, budget = sb
        if len(lines) == 0 or budget == 0:
            return
        distinct = int(np.unique(lines).shape[0])
        if distinct > budget:
            return
        assert estimate_stream_misses(lines, budget) == 0
        lru = LRUCache(budget).run(lines)
        assert lru == distinct  # compulsory misses only


class TestLRUOracle:
    def test_basic_hit_miss(self):
        c = LRUCache(2)
        assert not c.access(1)   # miss
        assert not c.access(2)   # miss
        assert c.access(1)       # hit
        assert not c.access(3)   # miss, evicts 2 (LRU)
        assert not c.access(2)   # miss again

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_run_counts_misses(self):
        c = LRUCache(4)
        assert c.run(np.array([0, 1, 2, 3, 0, 1, 2, 3])) == 4

    def test_estimator_tracks_oracle_ordering(self):
        """On contrasting streams the fast estimator must order miss rates
        the same way the exact LRU does."""
        rng = np.random.default_rng(3)
        length, n_lines, cap = 6000, 512, 64
        streams = {
            "regular": (np.arange(length) // 20) % n_lines,
            "random": rng.integers(0, n_lines, length),
        }
        est = {
            k: estimate_stream_misses(v, cap) for k, v in streams.items()
        }
        lru = {k: LRUCache(cap).run(v) for k, v in streams.items()}
        assert (est["regular"] < est["random"]) == (
            lru["regular"] < lru["random"]
        )
