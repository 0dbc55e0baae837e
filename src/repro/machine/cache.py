"""Cache model for the input-vector access stream.

The simulator's x-miss term is a *working-set window* estimator.  It walks
the access stream in windows of one cache's worth of lines, ``budget``
consecutive x elements each, and counts per window the lines that were
not touched in the previous window.  Regular (banded, blocked) streams
revisit a small set of lines per window and miss almost never; uniformly
random or power-law streams touch fresh lines constantly and miss heavily
— exactly the distinction the paper draws between matrices that are
bandwidth-bound and the latency-bound ones (#12, #14, #15, #28).  The
stream is treated as cyclic (steady state over 100 iterations, as the
paper measures): the "previous window" of the first window is the last
window of the stream.

One loop counts, window by window, over line *offsets* in the stream's
id span ``[lo, hi]``:

* while the span is at most :data:`MAP_SPAN_WINDOWS` windows of lines,
  each window fills a presence map over the span, and its new lines are
  the map's bits absent from the previous window's map — a memset, a
  scatter and a compare, no sort;
* beyond that (tiny budgets over wide footprints) a per-line stamp of the
  last window that touched it finds the window's new lines in O(window),
  and a scatter/read-back of their positions counts them once each.

A union of the windows gives the distinct total, which cancels the
compulsory misses.  Time is O(n + windows * min(span, 8 * budget)) and
memory O(span + budget): nothing as long as the stream is allocated.

:func:`estimate_x_access_misses` feeds the loop from a format's
:class:`~repro.formats.base.XAccessStream`, expanding each window's line
ids on its own; it is the simulator's path.  :func:`estimate_stream_misses`
feeds it from an explicit line-id array (tests, benchmarks).  Their
executable specification — the original per-window loop — and an exact
LRU simulator live in :mod:`repro.oracle`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..formats.base import XAccessStream

__all__ = [
    "MAP_SPAN_WINDOWS",
    "estimate_stream_misses",
    "estimate_x_access_misses",
    "x_budget_lines",
]

#: Presence maps are compared while the line span is at most this many
#: windows of lines, so each window's O(span) map work stays O(window).
#: Every suite stream is inside it (the widest, rajat31 and wb-edu in dp,
#: span 3.1 windows); wider spans count each window in O(window).
MAP_SPAN_WINDOWS = 8

#: An explicit id stream spread wider than this many times its own
#: length is dense-ranked first, so the per-line maps stay O(stream).
_RANK_SPAN_RATIO = 8

#: Window ``k``'s line offsets in ``[0, span)``: every line the window
#: touches, possibly repeated, in any order (the count reads only the set);
#: the array may be a buffer the next call overwrites.
_WindowIds = Callable[[int], np.ndarray]


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
    window = int(budget_lines)
    lo = int(line_ids.min())
    span = int(line_ids.max()) - lo + 1
    if span > _RANK_SPAN_RATIO * n:
        # Ids spread far apart: dense-rank them, so the maps over the
        # span are no larger than the stream.
        unique_lines = np.unique(line_ids)
        ranks = np.searchsorted(unique_lines, line_ids)
        span = unique_lines.shape[0]
        del unique_lines

        def window_ids(k: int) -> np.ndarray:
            return ranks[k * window : (k + 1) * window]

    else:
        buf = np.empty(min(window, n), dtype=np.int64)

        def window_ids(k: int) -> np.ndarray:
            ids = line_ids[k * window : (k + 1) * window]
            out = buf[: ids.shape[0]]
            out[:] = ids
            out -= lo
            return out

    return _windowed_misses(
        window_ids, n, span, window,
        cyclic=cyclic, discount_compulsory=discount_compulsory,
    )


def estimate_x_access_misses(
    stream: XAccessStream,
    line_elems: int,
    budget_lines: int,
    *,
    cyclic: bool = True,
    discount_compulsory: bool = True,
) -> int:
    """:func:`estimate_stream_misses` of ``stream.line_ids(line_elems)``,
    without building it: each window's element line ids are expanded from
    the access stream on their own, so no array as long as the element
    stream is allocated."""
    if line_elems < 1:
        raise ValueError("line_elems must be >= 1")
    n = stream.n_elements
    if n == 0 or budget_lines <= 0:
        return 0
    window = int(budget_lines)
    starts = stream.starts
    if stream.widths is None:
        width = stream.width
        first_col = int(starts.min())
        last_col = int(starts.max()) + width - 1
    else:
        widths = stream.widths
        first_col = int(starts.min())
        last_col = int((starts + widths - 1).max())
        # ends[a]: the element index one past access a.
        ends = np.cumsum(widths)
    # Line ids clip negative columns to line 0 (XAccessStream.line_ids);
    # the map is monotone, so the span's ends come from the extreme columns.
    lo = max(first_col, 0) // line_elems
    span = max(last_col, 0) // line_elems - lo + 1
    # Columns are rebased to the first line's first column before the
    # division, floor((col - base) / L) == floor(col / L) - lo exactly, so
    # the offsets come out of the expansion.  Only a stream reaching left
    # of column 0 (BCSD edge diagonals) needs the clip, and there base = 0.
    base = lo * line_elems
    clip = first_col < 0
    # A power-of-two line (every preset's) divides by a shift.
    shift = line_elems.bit_length() - 1
    if line_elems != 1 << shift:
        shift = -1
    if stream.widths is None:
        lanes = np.arange(width, dtype=np.int64) - base
        buf = np.empty(min(window, n) + 2 * (width - 1), dtype=np.int64)
    else:
        buf = np.empty(min(window, n), dtype=np.int64)

    def window_ids(k: int) -> np.ndarray:
        e0 = k * window
        e1 = min(e0 + window, n)
        if stream.widths is None:
            # Lane-major: row j holds lane j of accesses a0..a1-1, each a
            # contiguous add.  Lanes of the two edge accesses that fall
            # outside the window repeat the window's first element instead,
            # which leaves its set of lines unchanged.
            a0 = e0 // width
            a1 = -(-e1 // width)
            m = a1 - a0
            block = buf[: width * m].reshape(width, m)
            for j in range(width):
                np.add(starts[a0:a1], lanes[j], out=block[j])
            head = e0 - a0 * width
            tail = e1 - (a1 - 1) * width
            if head or tail < width:
                first = block[head, 0]
                block[:head, 0] = first
                block[tail:, m - 1] = first
            cols = buf[: width * m]
        else:
            # Accesses a0..a1-1 cover elements [e0, e1); element e of
            # access a reads column starts[a] + (e - begin[a]).
            a0 = int(np.searchsorted(ends, e0, side="right"))
            a1 = int(np.searchsorted(ends, e1 - 1, side="right")) + 1
            w = widths[a0:a1]
            begin = int(ends[a0] - w[0])
            shifted = np.repeat(starts[a0:a1] - (ends[a0:a1] - w), w)
            cols = buf[: e1 - e0]
            np.add(
                shifted[e0 - begin : e1 - begin],
                np.arange(e0 - base, e1 - base, dtype=np.int64),
                out=cols,
            )
        if clip:
            np.maximum(cols, 0, out=cols)
        if shift >= 0:
            np.right_shift(cols, shift, out=cols)
        else:
            np.floor_divide(cols, line_elems, out=cols)
        return cols

    return _windowed_misses(
        window_ids, n, span, window,
        cyclic=cyclic, discount_compulsory=discount_compulsory,
    )


def _windowed_misses(
    window_ids: _WindowIds,
    n: int,
    span: int,
    window: int,
    *,
    cyclic: bool,
    discount_compulsory: bool,
) -> int:
    """The estimator over ``n`` accesses in windows of ``window``, reading
    each window's line offsets (in ``[0, span)``) from ``window_ids``."""
    if span <= window:
        # At most ``window`` distinct lines: the whole x footprint is
        # cache-resident in steady state.
        return 0
    n_windows = -(-n // window)
    if span <= MAP_SPAN_WINDOWS * window:
        misses, distinct_total = _count_by_maps(
            window_ids, n_windows, span, cyclic
        )
    else:
        misses, distinct_total = _count_by_stamps(
            window_ids, n_windows, span, cyclic
        )
    if distinct_total <= window:
        return 0
    if discount_compulsory:
        misses = max(misses - distinct_total, 0)
    return misses


def _count_by_maps(
    window_ids: _WindowIds, n_windows: int, span: int, cyclic: bool
) -> tuple[int, int]:
    """(raw misses, distinct lines) from rolling presence maps over the
    span: O(span) per window."""
    prev = np.zeros(span, dtype=bool)
    cur = np.empty(span, dtype=bool)
    fresh = np.empty(span, dtype=bool)
    seen = np.zeros(span, dtype=bool)
    if cyclic:
        # Window 0's predecessor is the last window.
        prev[window_ids(n_windows - 1)] = True
    misses = 0
    for k in range(n_windows):
        cur.fill(False)
        cur[window_ids(k)] = True
        np.greater(cur, prev, out=fresh)
        misses += int(np.count_nonzero(fresh))
        np.logical_or(seen, cur, out=seen)
        prev, cur = cur, prev
    return misses, int(np.count_nonzero(seen))


def _count_by_stamps(
    window_ids: _WindowIds, n_windows: int, span: int, cyclic: bool
) -> tuple[int, int]:
    """(raw misses, distinct lines) from per-line stamps of the last window
    that touched each line: O(window) per window."""
    untouched = -2
    last = np.full(span, untouched, dtype=np.int64)
    slot = np.empty(span, dtype=np.intp)
    order = np.arange(0, dtype=np.intp)
    if cyclic:
        # Window 0's predecessor is the last window, stamped as window -1.
        last[window_ids(n_windows - 1)] = -1
    misses = 0
    for k in range(n_windows):
        ids = window_ids(k)
        new = ids[last[ids] != k - 1]
        m = new.shape[0]
        if m:
            if m > order.shape[0]:
                order = np.arange(m, dtype=np.intp)
            # Each distinct new line keeps exactly one of its positions,
            # whichever write wins, and only that one reads itself back.
            slot[new] = order[:m]
            misses += int(np.count_nonzero(slot[new] == order[:m]))
        last[ids] = k
    return misses, int(np.count_nonzero(last != untouched))
