"""Cache models for the input-vector access stream.

Three models live here:

* :func:`estimate_stream_misses` — the fast *working-set window* estimator
  the execution simulator uses.  It walks the access stream in windows of
  roughly one cache's worth of lines and counts, per window, the lines that
  were not touched in the previous window.  Regular (banded, blocked)
  streams revisit a small set of lines per window and miss almost never;
  uniformly random or power-law streams touch fresh lines constantly and
  miss heavily — exactly the distinction the paper draws between matrices
  that are bandwidth-bound and the latency-bound ones (#12, #14, #15, #28).
  The stream is treated as cyclic (steady state over 100 iterations, as the
  paper measures): the "previous window" of the first window is the last
  window of the stream.  The implementation sorts each window's ids in
  place — O(n log W) time, O(n) memory — and dedupes and matches the
  resulting globally sorted ``(window, line)`` keys in a few vectorized
  passes; no Python loop over windows.

* :func:`estimate_stream_misses_windowed` — the original per-window Python
  loop (``np.unique`` per window, ``np.isin`` per window pair), kept as the
  executable specification.  The test suite asserts the vectorized
  estimator agrees with it exactly on randomized streams, and the sweep
  benchmark times the estimator against it.

* :class:`LRUCache` — an exact, tiny, deliberately slow fully-associative
  LRU simulator used by the test suite to sanity-check the estimators'
  ordering properties on small streams.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

__all__ = [
    "estimate_stream_misses",
    "estimate_stream_misses_windowed",
    "LRUCache",
    "x_budget_lines",
]


def x_budget_lines(
    cache_bytes: int, line_bytes: int, x_cache_fraction: float
) -> int:
    """Number of cache lines the streaming SpMV leaves available to x."""
    return max(int(cache_bytes * x_cache_fraction) // line_bytes, 1)


def estimate_stream_misses(
    line_ids: np.ndarray,
    budget_lines: int,
    *,
    cyclic: bool = True,
    discount_compulsory: bool = True,
) -> int:
    """Estimate *latency-costing* cache misses of a cyclic access stream.

    Parameters
    ----------
    line_ids:
        Cache-line id of every access, in execution order.
    budget_lines:
        Lines of cache capacity available to this stream.
    cyclic:
        Treat the stream as repeating (steady-state SpMV).  When False the
        first window is charged its compulsory misses.
    discount_compulsory:
        Subtract one miss per distinct line.  Touching each line of x once
        per iteration is ordinary streaming traffic — it is already counted
        in the working set and a forward sweep is prefetch-friendly.  What
        costs latency is *re-fetching* lines that irregular accesses keep
        evicting, i.e. the misses beyond the footprint.
    """
    line_ids = np.asarray(line_ids)
    n = line_ids.shape[0]
    if n == 0 or budget_lines <= 0:
        return 0
    window = max(int(budget_lines), 1)
    n_windows = -(-n // window)
    # One row per window; the ragged last row is padded with its own last
    # id, which adds no (window, line) incidence.
    rows = np.empty(n_windows * window, dtype=np.int64)
    lo = int(line_ids.min())
    span = int(line_ids.max()) - lo + 1
    if span <= 8 * n and n_windows * span < 2**62:
        # Offsets into the id span: a presence map over it is no larger
        # than the stream, and (window, offset) packs into one int64.
        rows[:n] = line_ids
        rows[:n] -= lo
        seen = np.zeros(span, dtype=bool)
        seen[rows[:n]] = True
        distinct_total = int(np.count_nonzero(seen))
        del seen
    else:
        # Ids spread far apart: dense-rank them instead.
        unique_lines = np.unique(line_ids)
        distinct_total = unique_lines.shape[0]
        rows[:n] = np.searchsorted(unique_lines, line_ids)
        span = distinct_total
    if distinct_total <= budget_lines:
        # The whole x footprint is cache-resident in steady state.
        return 0
    rows[n:] = rows[n - 1]
    grid = rows.reshape(n_windows, window)
    grid.sort(axis=1)
    # key = window * span + offset is globally sorted once each row is, so
    # dropping equal neighbours leaves the distinct (window, line) pairs.
    grid += (np.arange(n_windows, dtype=np.int64) * span)[:, None]
    keep = np.empty(rows.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(rows[1:], rows[:-1], out=keep[1:])
    pairs = rows[keep]
    del rows, grid, keep
    # A pair misses iff its line was absent from the previous window, i.e.
    # (window - 1, line) is not itself a pair.  The cyclic steady state
    # wraps window 0's predecessor around to the last window.
    prev_keys = pairs - span
    first = prev_keys < 0
    if cyclic:
        prev_keys[first] += n_windows * span
    pos = np.searchsorted(pairs, prev_keys)
    np.minimum(pos, pairs.shape[0] - 1, out=pos)
    present = pairs[pos] == prev_keys
    del pos
    if cyclic:
        misses = int(np.count_nonzero(~present))
    else:
        # The first window is charged its compulsory misses wholesale.
        misses = int(np.count_nonzero(first)) + int(
            np.count_nonzero(~present[~first])
        )
    if discount_compulsory:
        misses = max(misses - distinct_total, 0)
    return misses


def estimate_stream_misses_windowed(
    line_ids: np.ndarray,
    budget_lines: int,
    *,
    cyclic: bool = True,
    discount_compulsory: bool = True,
) -> int:
    """Reference implementation of :func:`estimate_stream_misses`.

    The original per-window Python loop, kept verbatim as the executable
    specification: ``tests/test_cache.py`` asserts the estimator returns
    exactly the same count on randomized streams, and
    ``benchmarks/bench_sweep.py`` measures against it (as the pre-SimPlan
    baseline and on fdiff's out-of-budget streams).  Do not optimize this
    function.
    """
    line_ids = np.asarray(line_ids)
    n = line_ids.shape[0]
    if n == 0 or budget_lines <= 0:
        return 0
    distinct_total = np.unique(line_ids).shape[0]
    if distinct_total <= budget_lines:
        # The whole x footprint is cache-resident in steady state.
        return 0
    window = max(int(budget_lines), 1)
    n_windows = -(-n // window)
    bounds = [min(k * window, n) for k in range(n_windows + 1)]
    uniques = [
        np.unique(line_ids[bounds[k] : bounds[k + 1]]) for k in range(n_windows)
    ]
    misses = 0
    for k in range(n_windows):
        cur = uniques[k]
        if k == 0:
            if not cyclic:
                misses += cur.shape[0]
                continue
            prev = uniques[-1]
        else:
            prev = uniques[k - 1]
        # Lines touched now but absent from the previous window → misses.
        misses += int(cur.shape[0] - np.isin(cur, prev, assume_unique=True).sum())
    if discount_compulsory:
        misses = max(misses - distinct_total, 0)
    return misses


class LRUCache:
    """Exact fully-associative LRU cache of ``capacity`` lines (test oracle)."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lines: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, line: int) -> bool:
        """Touch ``line``; returns True on hit."""
        if line in self._lines:
            self._lines.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        self._lines[line] = None
        if len(self._lines) > self.capacity:
            self._lines.popitem(last=False)
        return False

    def run(self, line_ids: np.ndarray) -> int:
        """Feed a whole stream; returns the miss count."""
        for line in np.asarray(line_ids).tolist():
            self.access(int(line))
        return self.misses
