"""Tests for the x-miss estimator against its oracles (the per-window loop
and the exact LRU simulator of :mod:`repro.oracle`), both through explicit
line-id arrays and through the simulator's access-stream path."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats.base import XAccessStream
from repro.machine import cache
from repro.machine.cache import (
    MAP_SPAN_WINDOWS,
    estimate_stream_misses,
    estimate_x_access_misses,
    x_budget_lines,
)
from repro.oracle import LRUCache, estimate_stream_misses_windowed

MODES = [(c, d) for c in (True, False) for d in (True, False)]


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


@st.composite
def _access_stream(draw):
    """An access stream as the formats produce them, a line size and a
    budget.

    Fixed widths 1-8 start down to column -8 (BCSD edge diagonals) and
    1D-VBL runs have variable widths; budgets are drawn independently of
    the width, so accesses straddle windows.  Column spans reach far
    beyond 8x the budget and 8x the stream, so both count branches and
    the explicit-id path's dense ranking run, and short streams fit a
    single window.
    """
    n_access = draw(st.integers(min_value=1, max_value=400))
    variable = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    span = draw(st.sampled_from((4, 40, 400, 4_000, 200_000)))
    style = draw(st.sampled_from(("random", "sorted", "banded")))
    if style == "random":
        starts = rng.integers(-8, span, n_access)
    elif style == "sorted":
        starts = np.sort(rng.integers(-8, span, n_access))
    else:
        band = draw(st.integers(min_value=1, max_value=64))
        starts = (np.arange(n_access) * span // n_access - 8
                  + rng.integers(0, band, n_access))
    if variable:
        widths = rng.integers(1, 13, n_access)
        stream = XAccessStream(np.maximum(starts, 0), 1, widths)
    else:
        stream = XAccessStream(starts, draw(st.integers(1, 8)))
    line_elems = draw(st.sampled_from((1, 3, 8, 16)))
    budget = draw(st.one_of(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=3_000),
    ))
    return stream, line_elems, budget


class TestStreamPath:
    """The simulator's path, window by window from the access stream, is
    the windowed loop over ``stream.line_ids(line_elems)``."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_access_stream())
    def test_matches_windowed_loop(self, sbl):
        stream, line_elems, budget = sbl
        lines = stream.line_ids(line_elems)
        for cyclic, discount in MODES:
            want = estimate_stream_misses_windowed(
                lines, budget, cyclic=cyclic, discount_compulsory=discount
            )
            assert estimate_x_access_misses(
                stream, line_elems, budget,
                cyclic=cyclic, discount_compulsory=discount,
            ) == want, (cyclic, discount)
            assert estimate_stream_misses(
                lines, budget, cyclic=cyclic, discount_compulsory=discount
            ) == want, (cyclic, discount)

    def test_every_count_branch_runs(self, monkeypatch):
        """Presence maps, stamps and the dense ranking each count at least
        one of these streams, and every count equals the spec."""
        rng = np.random.default_rng(4)
        budget = 16
        streams = [
            # span within MAP_SPAN_WINDOWS windows: presence maps
            XAccessStream(rng.integers(-8, 6 * budget, 600), 3),
            # span beyond it: stamps
            XAccessStream(
                rng.integers(0, 100 * MAP_SPAN_WINDOWS * budget, 600), 2
            ),
            # 1D-VBL runs
            XAccessStream(
                rng.integers(0, 60 * budget, 300), 1, rng.integers(1, 9, 300)
            ),
        ]
        # Ids spread beyond 8x the stream: dense-ranked, then counted.
        sparse = rng.integers(0, 2**40, 500)
        want = [
            estimate_stream_misses_windowed(s.line_ids(1), budget)
            for s in streams
        ] + [estimate_stream_misses_windowed(sparse, budget)]

        used, spans = [], []
        for name in ("_count_by_maps", "_count_by_stamps"):
            real = getattr(cache, name)

            def spy(*args, _real=real, _name=name):
                used.append(_name)
                return _real(*args)

            monkeypatch.setattr(cache, name, spy)
        real_windowed = cache._windowed_misses

        def windowed(window_ids, n, span, window, **kwargs):
            spans.append(span)
            return real_windowed(window_ids, n, span, window, **kwargs)

        monkeypatch.setattr(cache, "_windowed_misses", windowed)
        got = [estimate_x_access_misses(s, 1, budget) for s in streams]
        got.append(estimate_stream_misses(sparse, budget))
        assert got == want
        assert {"_count_by_maps", "_count_by_stamps"} <= set(used)
        # The sparse ids reached the loop as ranks, not as 2^40 offsets.
        assert spans[-1] <= sparse.shape[0]

    def test_rejects_bad_line_size(self):
        with pytest.raises(ValueError):
            estimate_x_access_misses(XAccessStream(np.arange(4), 1), 0, 8)

    def test_peak_memory_stays_below_one_stream_array(self):
        """A production-shaped stream (2^22 elements of width-4 accesses,
        dp lines, the paper machine's 32768-line budget): the estimate
        must not allocate even one int64 array as long as the element
        stream."""
        n_access = 2**20
        starts = np.sort(
            np.random.default_rng(6).integers(-4, 2**21, n_access)
        )
        stream = XAccessStream(starts, 4)
        n = stream.n_elements
        assert n >= 2**22
        tracemalloc.start()
        try:
            misses = estimate_x_access_misses(stream, 8, 32768)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n
        assert misses == estimate_stream_misses(stream.line_ids(8), 32768)


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
