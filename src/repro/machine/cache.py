"""Cache model for the input-vector access stream.

:func:`estimate_stream_misses` is the *working-set window* estimator the
execution simulator uses.  It walks the access stream in windows of
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

Its executable specification — the original per-window loop — and an
exact LRU simulator live in :mod:`repro.oracle`, for the tests and the
sweep benchmark.
"""

from __future__ import annotations

import numpy as np

__all__ = ["estimate_stream_misses", "x_budget_lines"]


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
