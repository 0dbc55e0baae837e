"""Block counts of fixed-size blockings by sparse coarsening.

For the aligned ``r x c`` blocking of a 0/1 pattern ``A`` (a CSR), the
number of nonzeros in block ``(I, J)`` is entry ``(I, J)`` of the sparse
product ``R_r @ A @ C_c``, where the row aggregation ``R_r`` sums each
group of ``r`` rows and the column grouping ``C_c`` each group of ``c``
columns: one C-level matmat per blocking instead of a sort over the
nonzeros.  A one-row blocking needs no product at all: ``A`` is sorted by
(row, col), so relabelling its columns to ``col // c`` leaves each row's
labels non-decreasing, and merging equal neighbours in one pass
(:func:`merge_columns`) gives ``A @ C_c`` with its indices already
sorted.  A diagonal (BCSD) blocking coarsens the *shifted* pattern,
which puts each nonzero at column ``col - row + nrows - 1``: within a
row segment a block is one diagonal, so ``R_b @ shifted`` counts the
nonzeros of every (segment, diagonal) block.

These building blocks serve both consumers of block counts: the fused
planner (:func:`repro.machine.batch.plan_structures`), which keeps the
coarse matrices, and the advisor's feature probes
(:mod:`repro.serve.features`), which read only their entry counts.  A
:class:`Coarsening` holds one pattern's products, so a caller that runs
both on the same pattern (the advisor's cold request) builds each one
once.  :mod:`repro.formats.blockstats` stays the per-nonzero
specification that both are tested against.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

import numpy as np
from scipy import sparse

from .coo import COOMatrix

__all__ = [
    "INT32_LIMIT",
    "MAX_DIMS_PER_NNZ",
    "worth_coarsening",
    "pattern_csr",
    "shifted_pattern",
    "row_aggregation",
    "column_groups",
    "merge_columns",
    "coarsen_rows",
    "Coarsening",
]

#: Every index of a coarsening must stay below this (scipy's 32-bit path).
INT32_LIMIT = 2**31

#: Largest ``(nrows + ncols) / nnz`` worth coarsening.  The maps, and the
#: workspace of every sparse product (two arrays as long as the product
#: has columns), cost O(nrows + ncols), against O(nnz log nnz) for the
#: per-nonzero analysis.  The advisor's 17 feature probes on 100k random
#: nonzeros (2-vCPU Xeon) took 0.2-0.6x the per-nonzero time at ratios
#: 0.5-2, 1.7x at 8, 6x at 32 and 36x at 128; the sampled suite matrices,
#: at 5-7, still ran faster coarsened.
MAX_DIMS_PER_NNZ = 8


def worth_coarsening(nrows: int, ncols: int, nnz: int) -> bool:
    """The one guard in front of every coarsening.

    Every index must fit 32 bits: the nonzeros, the rows and columns, and
    the shifted pattern's ``nrows + ncols - 1`` columns.  And the
    O(nrows + ncols) maps must stay within :data:`MAX_DIMS_PER_NNZ` times
    the pattern, so a cheap upload that declares huge dimensions around a
    few nonzeros costs O(nnz), not O(ncols), memory and time.  A pattern
    past the guard goes to the per-nonzero analysis instead.
    """
    return (
        max(nrows, ncols, nnz, nrows + ncols - 1) < INT32_LIMIT
        and nrows + ncols <= MAX_DIMS_PER_NNZ * nnz
    )


def _pattern(
    indices: np.ndarray, row_ptr: np.ndarray, shape: tuple[int, int]
) -> sparse.csr_matrix:
    return sparse.csr_matrix(
        (
            np.ones(indices.shape[0], dtype=np.int32),
            indices.astype(np.int32),
            row_ptr.astype(np.int32),
        ),
        shape=shape, copy=False,
    )


def pattern_csr(coo: COOMatrix, row_ptr: np.ndarray) -> sparse.csr_matrix:
    """``A``: the 0/1 pattern of a canonical COO, with row pointer
    ``row_ptr``, as an int32 CSR."""
    return _pattern(coo.cols, row_ptr, (coo.nrows, coo.ncols))


def shifted_pattern(coo: COOMatrix, row_ptr: np.ndarray) -> sparse.csr_matrix:
    """The pattern with each nonzero at column ``col - row + nrows - 1``.

    Row ``i`` keeps its nonzeros, so the coarse entry ``(s, d + nrows -
    1)`` of ``R_b @ shifted`` counts the nonzeros of segment ``s`` on
    diagonal ``d = col - row``: exactly one BCSD block.
    """
    return _pattern(
        coo.cols - coo.rows + (coo.nrows - 1), row_ptr,
        (coo.nrows, coo.nrows + coo.ncols - 1),
    )


def row_aggregation(nrows: int, h: int) -> sparse.csr_matrix:
    """``R_h``: the ``ceil(nrows / h) x nrows`` 0/1 map that sums each
    group of ``h`` consecutive rows (the last group may be short)."""
    n_h = -(-nrows // h)
    ptr = np.minimum(np.arange(n_h + 1, dtype=np.int64) * h, nrows)
    return sparse.csr_matrix(
        (
            np.ones(nrows, dtype=np.int32),
            np.arange(nrows, dtype=np.int32),
            ptr.astype(np.int32),
        ),
        shape=(n_h, nrows), copy=False,
    )


def column_groups(ncols: int, c: int) -> sparse.csr_matrix:
    """``C_c``: the ``ncols x ceil(ncols / c)`` 0/1 map that sums each
    group of ``c`` consecutive columns."""
    return sparse.csr_matrix(
        (
            np.ones(ncols, dtype=np.int32),
            np.arange(ncols, dtype=np.int32) // c,
            np.arange(ncols + 1, dtype=np.int32),
        ),
        shape=(ncols, -(-ncols // c)), copy=False,
    )


def merge_columns(mat: sparse.csr_matrix, c: int) -> sparse.csr_matrix:
    """``mat @ column_groups(ncols, c)`` for a canonical ``mat`` (indices
    sorted within rows, no duplicates), with its indices sorted.

    Relabelling column ``j`` to ``j // c`` keeps each row sorted, so every
    run of equal neighbours is one group: ``sum_duplicates`` merges the
    runs in one pass, adding their entries, and need not sort first.  It
    works in place, so ``data`` and ``indptr`` are copies; sharing
    ``mat``'s arrays would corrupt ``mat``.  It leaves the merged entries
    at the front of the relabelled arrays (a view unless they shrank
    below half), so those are copied out, as right-sized as a product's.
    """
    out = sparse.csr_matrix(
        (mat.data.copy(), mat.indices // c, mat.indptr.copy()),
        shape=(mat.shape[0], -(-mat.shape[1] // c)), copy=False,
    )
    out.has_sorted_indices = True
    out.sum_duplicates()
    if out.indices.base is not None:
        out.indices = out.indices.copy()
    if out.data.base is not None:
        out.data = out.data.copy()
    return out


def coarsen_rows(
    mat: sparse.csr_matrix,
    heights: Iterable[int],
    built: dict[int, sparse.csr_matrix] | None = None,
) -> dict[int, sparse.csr_matrix]:
    """``{h: R_h @ mat}`` for every requested height (``mat`` itself for 1).

    A height that a smaller built height ``d`` divides is built from that
    one, as ``R_{h/d} @ (R_d @ mat)``: grouping ``h / d`` coarse rows of
    height ``d`` gives the same blocks with the same counts, because
    ``ceil(ceil(n / d) / k) == ceil(n / (d * k))``, from an input with
    fewer rows and entries.  The largest such ``d`` gives the smallest
    input.  The products' in-row entry order may differ from a direct
    ``R_h @ mat``; their sorted form is the same.  ``built`` holds the
    heights built by earlier calls on the same ``mat``: they are reused,
    and serve as divisors, and the new ones are added to it.
    """
    built = {} if built is None else built
    heights = set(heights)
    for h in sorted(heights):
        if h in built:
            continue
        if h <= 1:
            built[h] = mat
            continue
        base = max((d for d in built if 1 < d < h and h % d == 0), default=1)
        src = built[base] if base > 1 else mat
        built[h] = row_aggregation(src.shape[0], h // base) @ src
    return {h: built[h] for h in heights}


class Coarsening:
    """The row and diagonal coarsenings of one canonical pattern, each
    built once.

    :meth:`by_height` returns ``R_h @ A`` and :meth:`by_size` ``R_b @
    shifted``, memoised across calls, so the advisor's feature probes and
    the planner of one cold request share every product they both need.
    The row counts and pointer, ``A`` and ``shifted`` are built on first
    use.
    Sharing is exact whatever order a product's entries take within a
    row (the planner sorts a product in place before it reads index
    values): the probes read entry counts, and every planner consumer
    reads row-level counts or sorts first.  The products are as large as
    the pattern, so an object lives for one request and is never cached
    on the pattern.
    """

    def __init__(self, coo: COOMatrix) -> None:
        self.coo = coo
        self._by_height: dict[int, sparse.csr_matrix] = {}
        self._by_size: dict[int, sparse.csr_matrix] = {}

    @cached_property
    def row_counts(self) -> np.ndarray:
        """Nonzeros per row."""
        return np.bincount(self.coo.rows, minlength=self.coo.nrows)

    @cached_property
    def row_ptr(self) -> np.ndarray:
        """Each row's first nonzero (int64, ``nrows + 1`` entries)."""
        ptr = np.zeros(self.coo.nrows + 1, dtype=np.int64)
        np.cumsum(self.row_counts, out=ptr[1:])
        return ptr

    @cached_property
    def pattern(self) -> sparse.csr_matrix:
        """``A``: :func:`pattern_csr`."""
        return pattern_csr(self.coo, self.row_ptr)

    @cached_property
    def shifted(self) -> sparse.csr_matrix:
        """:func:`shifted_pattern`."""
        return shifted_pattern(self.coo, self.row_ptr)

    def by_height(
        self, heights: Iterable[int]
    ) -> dict[int, sparse.csr_matrix]:
        """``{h: R_h @ A}`` (``A`` for 1)."""
        return coarsen_rows(self.pattern, heights, self._by_height)

    def by_size(self, sizes: Iterable[int]) -> dict[int, sparse.csr_matrix]:
        """``{b: R_b @ shifted}``: the (segment, diagonal) block counts."""
        return coarsen_rows(self.shifted, sizes, self._by_size)
