"""Batch-fused whole-matrix candidate evaluation: one array program per matrix.

The sweep evaluates ~105 candidates per matrix.  Done one candidate at a
time, the work is Python-shaped twice over:

* every block shape re-analyses the same nonzero pattern from scratch
  (``bcsr_block_stats`` / ``bcsd_block_stats`` are ~15 full passes over the
  nnz-sized index arrays each, plus a stable argsort for ``r > 1``), and
* every (candidate, precision, threads) cell assembles its scalar timing
  terms in a separate Python-level call.

This module turns both into array programs:

:func:`plan_structures` is the **fused structural planning pass**: one call
analyses *all* requested blockings of a matrix.  The key observation is
that the simulator consumes only block *cardinalities* — every cost on the
x-resident evaluation path (``working_set``, ``block_row_cycles``,
``stored_per_block_row``, the partitioner) is pointer-diff / count
arithmetic; column-index *values* are read only by the x-miss estimator
(out-of-cache matrices) and the kernels.  So the pass computes the
cardinalities eagerly by *sparse coarsening*: for an ``r x c`` blocking,
the count of nonzeros per block is the single C-level sparse product
``R_r @ A @ C_c`` where ``A`` is the 0/1 pattern in CSR and ``R_r`` /
``C_c`` are the row/column aggregation maps; diagonal blockings coarsen a
column-shifted pattern (``d = col - row``) the same way, and ``R_r @ A``
is shared across widths of one height; a composite height is built by
grouping the coarse rows of a height that divides it.  A one-row
blocking merges the sorted pattern's ``col // c`` runs instead of a
product.  The maps, the merge and the guard live in
:mod:`repro.formats.coarsen`, shared with the advisor's feature probes;
a cold advise hands the planner the probes'
:class:`~repro.formats.coarsen.Coarsening`, so each product is built
once per request.
Index values (block columns, diagonal starts, decomposition-remainder
columns) are materialized *lazily* on first access, reproducing the
per-call converters' arrays bit-for-bit.  The decomposed variants' CSR remainders are derived
arithmetically (``nnz_per_row - c * full_blocks_per_block_row``).  The
outputs are ordinary format objects (lazily-materializing subclasses),
**bit-identical** (array-for-array) to what ``build_candidate`` constructs
once read — the per-call converters remain the executable specification,
pinned by the equivalence tests.

:class:`MatrixProgram` is the **batched cell evaluator**: one (precision,
threads) plane of cells goes through the simulator
(:func:`repro.machine.executor.simulate_cells`, the one simulator, whose
cells axis is the candidate axis) and through the MEM/MEMCOMP/OVERLAP
predictors stacked the same way — working sets, per-part profiled block
times and overlap factors as arrays over the cells.  Bit-identity with
the per-candidate models holds because every float operation is
elementwise with the same operands in the same order: IEEE 754
arithmetic is deterministic per element and NumPy float64 elementwise ops
are exactly Python-float ops.  The unfactored reference simulator lives
in :mod:`repro.oracle`.  See ``docs/batching.md`` for the layout and the
bit-identity argument.

This module is deterministic model code: it must not read the wall clock
(lint rule ``determinism``).  Phase timings are charged through an injected
``clock`` callable supplied by the harness.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from ..core.candidates import Candidate, unique_structures
from ..core.selection import CandidateResult, build_candidate
from ..errors import ModelError
from ..formats.base import SparseFormat
from ..formats.bcsd import BCSDMatrix
from ..formats.bcsr import BCSRMatrix
from ..formats.coarsen import (
    Coarsening,
    column_groups,
    merge_columns,
    worth_coarsening,
)
from ..formats.coo import COOMatrix
from ..formats.csr import CSRMatrix
from ..formats.decomposed import DecomposedMatrix
from ..formats.vbl import VBLMatrix
from ..types import VBL_MAX_BLOCK, BlockShape, Impl, Precision
from .executor import simulate_cells
from .machine import MachineModel

__all__ = ["plan_structures", "MatrixProgram"]

#: Model names whose batched predictors this module implements.
_MODEL_NAMES = ("mem", "memcomp", "overlap")
_PROFILED_MODELS = ("memcomp", "overlap")


# --------------------------------------------------------------------------- #
# The fused structural planning pass
# --------------------------------------------------------------------------- #

def _ptr_from_counts(counts: np.ndarray, n_rows: int) -> np.ndarray:
    """Same construction as the per-format converters (bincount + cumsum)."""
    ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


class _Coarse:
    """One blocking's coarse count matrix, shared by its consumers.

    ``mat[I, J]`` is the number of matrix nonzeros falling in block
    ``(I, J)`` — a CSR over block coordinates produced by one sparse
    matmat, or for a one-row blocking by one merge of the sorted
    pattern.  A product's indices are unsorted within rows until
    :meth:`sorted` is first needed; the in-place sort reorders the counts
    alongside, so eager consumers (cardinalities, full-block counts per
    row) read the matmul order and lazy ones the converters' sorted
    order.  Both orders agree on everything row-granular.  A merge's
    indices are sorted already, so :meth:`sorted` has nothing to do.
    """

    __slots__ = ("mat", "_sorted")

    def __init__(self, mat) -> None:
        self.mat = mat
        self._sorted: tuple[np.ndarray, np.ndarray] | None = None

    def sorted(self) -> tuple[np.ndarray, np.ndarray]:
        if self._sorted is None:
            self.mat.sort_indices()
            self._sorted = (self.mat.indices, self.mat.data)
        return self._sorted

    def block_rows(self) -> np.ndarray:
        """Block-row index of every block, in sorted == matmul order."""
        m = self.mat
        return np.repeat(
            np.arange(m.shape[0], dtype=np.int64), np.diff(m.indptr)
        )


def _full_rows(co: _Coarse, full_count: int) -> tuple[int, np.ndarray]:
    """(number, per-block-row count) of exactly-full blocks.

    Counted by locating the (few) full blocks' positions between the
    row-pointer boundaries — no pass over every block beyond the mask.
    """
    m = co.mat
    pos = np.flatnonzero(m.data == full_count)
    return pos.shape[0], np.diff(np.searchsorted(pos, m.indptr))


def _sorted_bcol_thunk(co: _Coarse) -> Callable[[], np.ndarray]:
    def thunk() -> np.ndarray:
        return co.sorted()[0]

    return thunk


def _full_bcol_thunk(co: _Coarse, full_count: int) -> Callable[[], np.ndarray]:
    def thunk() -> np.ndarray:
        idx, cnt = co.sorted()
        return idx[cnt == full_count]

    return thunk


def _diag_j0_thunk(
    co: _Coarse, b: int, nrows: int, full_count: int | None = None
) -> Callable[[], np.ndarray]:
    """BCSD block start columns: ``j0 = d + seg*b`` with ``d`` the stored,
    shifted diagonal index.  Sorted-by-(seg, d) equals the converter's
    sorted-by-(seg, j0) because ``j0`` is monotone in ``d`` within a
    segment."""

    def thunk() -> np.ndarray:
        idx, cnt = co.sorted()
        j0 = idx.astype(np.int64) + (co.block_rows() * b - (nrows - 1))
        return j0 if full_count is None else j0[cnt == full_count]

    return thunk


def _rect_rest_thunk(
    co: _Coarse, rows: np.ndarray, cols: np.ndarray, r: int, c: int
) -> Callable[[], np.ndarray]:
    """Columns of the nonzeros outside full ``r x c`` blocks, in canonical
    order: each element looks up its own block's count by binary search on
    the (block row, block col) key, which is globally sorted."""

    def thunk() -> np.ndarray:
        idx, cnt = co.sorted()
        n_bcols = np.int64(co.mat.shape[1])
        bkey = co.block_rows() * n_bcols + idx
        ekey = (rows // r) * n_bcols + cols // c
        return cols[cnt[np.searchsorted(bkey, ekey)] != r * c]

    return thunk


def _diag_rest_thunk(
    co: _Coarse, rows: np.ndarray, cols: np.ndarray, b: int,
    nrows: int, ncols: int,
) -> Callable[[], np.ndarray]:
    def thunk() -> np.ndarray:
        idx, cnt = co.sorted()
        span = np.int64(nrows + ncols - 1)
        bkey = co.block_rows() * span + idx
        ekey = (rows // b) * span + (cols - rows + (nrows - 1))
        return cols[cnt[np.searchsorted(bkey, ekey)] != b]

    return thunk


class _LazyIndexValues:
    """Deferred column-index values for the fused planning pass.

    The x-resident evaluation path never reads index *values* — every
    cost it consumes is pointer-diff / count arithmetic — so the fused
    pass stores only a thunk that reproduces the per-call converter's
    array bit-for-bit and materializes it on first access (the x-miss
    estimator of out-of-cache matrices, the kernels, the equivalence
    tests)."""

    _thunk: Callable[[], np.ndarray] | None

    def _materialize(self, expected_len: int) -> np.ndarray:
        cached = self.__dict__.get("_lazy_values")
        if cached is None:
            cached = np.asarray(self._thunk(), dtype=np.int64)
            if cached.shape[0] != expected_len:
                raise ModelError(
                    f"lazy index materialization produced "
                    f"{cached.shape[0]} entries, expected {expected_len}"
                )
            self.__dict__["_lazy_values"] = cached
            self._thunk = None
        return cached


class _LazyCSR(CSRMatrix, _LazyIndexValues):
    """Structure-only CSR whose ``col_ind`` materializes on first read.

    Bypasses the parent constructor (its bracket checks read ``col_ind``);
    the planning arithmetic guarantees ``row_ptr[-1] == nnz`` exactly.
    """

    def __init__(self, nrows, ncols, row_ptr, nnz, thunk) -> None:
        SparseFormat.__init__(self, int(nrows), int(ncols), int(nnz))
        self.row_ptr = row_ptr
        self.values = None
        self._thunk = thunk

    @property
    def col_ind(self) -> np.ndarray:
        return self._materialize(self.nnz)


class _LazyBCSR(BCSRMatrix, _LazyIndexValues):
    """Structure-only BCSR whose ``bcol_ind`` materializes on first read."""

    def __init__(
        self, nrows, ncols, block, brow_ptr, nnz, n_blocks, thunk
    ) -> None:
        SparseFormat.__init__(self, int(nrows), int(ncols), int(nnz))
        self.block = block
        self.brow_ptr = brow_ptr
        self.bval = None
        self._n_blocks = int(n_blocks)
        self._thunk = thunk

    @property
    def n_blocks(self) -> int:
        return self._n_blocks

    @property
    def bcol_ind(self) -> np.ndarray:
        return self._materialize(self._n_blocks)


class _LazyBCSD(BCSDMatrix, _LazyIndexValues):
    """Structure-only BCSD whose ``bcol_ind`` materializes on first read."""

    def __init__(self, nrows, ncols, b, brow_ptr, nnz, n_blocks, thunk) -> None:
        SparseFormat.__init__(self, int(nrows), int(ncols), int(nnz))
        self.b = int(b)
        self.brow_ptr = brow_ptr
        self.bval = None
        self._n_blocks = int(n_blocks)
        self._thunk = thunk

    @property
    def n_blocks(self) -> int:
        return self._n_blocks

    @property
    def bcol_ind(self) -> np.ndarray:
        return self._materialize(self._n_blocks)


def _vbl_fused(
    coo: COOMatrix, nnz_per_row: np.ndarray, row_ptr: np.ndarray
) -> VBLMatrix:
    """``VBLMatrix.from_coo(coo, with_values=False)``, with the 255-element
    run splitting done per *run* instead of per element (identical arrays;
    the converter remains the spec, pinned by the equivalence tests)."""
    rows, cols, n = coo.rows, coo.cols, coo.nnz
    brk = np.empty(n, dtype=bool)
    brk[0] = True
    np.not_equal(rows[1:], rows[:-1], out=brk[1:])
    brk[1:] |= cols[1:] != (cols[:-1] + 1)
    run_first = np.flatnonzero(brk)
    sizes0 = np.diff(run_first, append=n)
    if sizes0.max() > VBL_MAX_BLOCK:
        nsplit = -(-sizes0 // VBL_MAX_BLOCK)
        total = int(nsplit.sum())
        base = np.repeat(run_first, nsplit)
        k = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(nsplit) - nsplit, nsplit
        )
        first_idx = base + k * VBL_MAX_BLOCK
    else:
        first_idx = run_first
    bcol_ind = cols[first_idx]
    sizes = np.diff(first_idx, append=n).astype(np.uint8)
    block_row_ptr = _ptr_from_counts(
        np.bincount(rows[first_idx], minlength=coo.nrows), coo.nrows
    )
    return VBLMatrix(
        coo.nrows, coo.ncols, row_ptr, bcol_ind, sizes, block_row_ptr, None
    )


def plan_structures(
    coo: COOMatrix,
    structures: Iterable[tuple[str, tuple[int, int] | int | None]],
    *,
    timings: dict | None = None,
    clock: Callable[[], float] | None = None,
    coarsening: Coarsening | None = None,
) -> dict[tuple, SparseFormat]:
    """Build every requested ``(kind, block)`` structure in one fused pass.

    Returns a dict usable as the sweep's ``fmt_cache``.  Array-for-array
    identical to :func:`repro.core.selection.build_candidate` run per
    structure (the equivalence tests pin this).  ``timings``/``clock``
    charge the coarsening to ``"stats"`` and the object assembly to
    ``"convert"``, mirroring the per-call path's phase accounting.
    ``coarsening`` is ``coo``'s, when the caller's feature probes already
    built some of its products (the advisor's cold request); without one
    the pass builds its own.
    """
    structures = list(dict.fromkeys(structures))
    out: dict[tuple, SparseFormat] = {}
    if not worth_coarsening(coo.nrows, coo.ncols, coo.nnz):
        # Empty, >int32 or hypersparse patterns: nothing to coarsen, or
        # maps far larger than the pattern; defer to the per-structure
        # builders (identical by construction).
        for kind, block in structures:
            out[(kind, block)] = build_candidate(
                coo, Candidate(kind, block, Impl.SCALAR)
            )
        return out

    now = clock if (clock is not None and timings is not None) else None

    def charge(phase: str, t0: float) -> float:
        t1 = now()
        timings[phase] = timings.get(phase, 0.0) + t1 - t0
        return t1

    rows, cols, n = coo.rows, coo.cols, coo.nnz
    nrows, ncols = coo.nrows, coo.ncols

    if coarsening is None:
        coarsening = Coarsening(coo)
    elif coarsening.coo is not coo:
        raise ModelError("the shared coarsening is of another pattern")

    t0 = now() if now else 0.0
    nnz_per_row = coarsening.row_counts
    row_ptr = coarsening.row_ptr

    rect_shapes = {b for k, b in structures if k in ("bcsr", "bcsr_dec")}
    diag_sizes = {b for k, b in structures if k in ("bcsd", "bcsd_dec")}

    # ---- coarsen: one sparse matmat per blocking, R_r @ A shared ---------- #
    # One-row blockings merge the sorted pattern's column runs instead.
    coarse: dict[tuple, _Coarse] = {}
    if rect_shapes:
        by_height = coarsening.by_height({r for r, _ in rect_shapes})
        group = {
            c: column_groups(ncols, c)
            for c in {c for r, c in rect_shapes if r > 1 and c > 1}
        }
        for r, c in sorted(rect_shapes):
            if c == 1:
                mat = by_height[r]
            elif r == 1:
                mat = merge_columns(by_height[1], c)
            else:
                mat = by_height[r] @ group[c]
            coarse[("rect", (r, c))] = _Coarse(mat)
    if diag_sizes:
        # Block (segment s, diagonal d) <-> entry (s, d + nrows - 1).
        by_size = coarsening.by_size(diag_sizes)
        for b in sorted(diag_sizes):
            coarse[("diag", b)] = _Coarse(by_size[b])
    # The structures hold the products they need; a coarsening built here
    # goes now, with the shifted pattern, before the objects are assembled
    # (a caller's stays alive with the caller).
    coarsening = None
    if now:
        t0 = charge("stats", t0)

    # ---- assemble the format objects -------------------------------------- #
    # One object for the plain CSR structure and every decomposition without
    # a full block, so the part-level memos (partitions, row-cost boundary
    # values, x-miss counts) are computed once per matrix.
    whole_csr = CSRMatrix(nrows, ncols, row_ptr, cols, None)
    for kind, block in structures:
        if kind == "csr":
            out[(kind, block)] = whole_csr
        elif kind == "vbl":
            out[(kind, block)] = _vbl_fused(coo, nnz_per_row, row_ptr)
        elif kind == "bcsr":
            r, c = block
            co = coarse[("rect", block)]
            out[(kind, block)] = _LazyBCSR(
                nrows, ncols, BlockShape(r, c),
                co.mat.indptr.astype(np.int64), n,
                co.mat.indices.shape[0], _sorted_bcol_thunk(co),
            )
        elif kind == "bcsd":
            b = block
            co = coarse[("diag", b)]
            out[(kind, block)] = _LazyBCSD(
                nrows, ncols, b, co.mat.indptr.astype(np.int64), n,
                co.mat.indices.shape[0], _diag_j0_thunk(co, b, nrows),
            )
        elif kind == "bcsr_dec":
            r, c = block
            co = coarse[("rect", block)]
            rc = r * c
            n_brows = co.mat.shape[0]
            n_full, full_per_brow = _full_rows(co, rc)
            parts: list[SparseFormat] = []
            if n_full:
                parts.append(_LazyBCSR(
                    nrows, ncols, BlockShape(r, c),
                    _ptr_from_counts(full_per_brow, n_brows),
                    n_full * rc, n_full, _full_bcol_thunk(co, rc),
                ))
            n_rest = n - n_full * rc
            if n_rest or not parts:
                if n_full:
                    # A full r x c block holds c elements of each of its
                    # r rows, so the remainder's per-row counts are plain
                    # integer arithmetic.
                    rest_per_row = (
                        nnz_per_row - c * np.repeat(full_per_brow, r)[:nrows]
                    )
                    parts.append(_LazyCSR(
                        nrows, ncols, _ptr_from_counts(rest_per_row, nrows),
                        n_rest, _rect_rest_thunk(co, rows, cols, r, c),
                    ))
                else:
                    parts.append(whole_csr)
            out[(kind, block)] = DecomposedMatrix(
                nrows, ncols, parts, "bcsr_dec", "BCSR-DEC"
            )
        elif kind == "bcsd_dec":
            b = block
            co = coarse[("diag", b)]
            n_segs = co.mat.shape[0]
            n_full, full_per_seg = _full_rows(co, b)
            parts = []
            if n_full:
                parts.append(_LazyBCSD(
                    nrows, ncols, b,
                    _ptr_from_counts(full_per_seg, n_segs),
                    n_full * b, n_full,
                    _diag_j0_thunk(co, b, nrows, full_count=b),
                ))
            n_rest = n - n_full * b
            if n_rest or not parts:
                if n_full:
                    # A full diagonal block holds 1 element of each of its
                    # b segment rows.
                    rest_per_row = (
                        nnz_per_row - np.repeat(full_per_seg, b)[:nrows]
                    )
                    parts.append(_LazyCSR(
                        nrows, ncols, _ptr_from_counts(rest_per_row, nrows),
                        n_rest, _diag_rest_thunk(co, rows, cols, b, nrows, ncols),
                    ))
                else:
                    parts.append(whole_csr)
            out[(kind, block)] = DecomposedMatrix(
                nrows, ncols, parts, "bcsd_dec", "BCSD-DEC"
            )
        else:
            raise ModelError(f"cannot plan structure kind {kind!r}")
    if now:
        charge("convert", t0)
    return out


# --------------------------------------------------------------------------- #
# The batched cell evaluator
# --------------------------------------------------------------------------- #

class MatrixProgram:
    """All sweep cells of one matrix as a vectorized array program.

    Built once per matrix: the fused planning pass constructs every
    candidate structure, and :meth:`evaluate` batch-evaluates one
    (precision, threads) plane of cells — the candidate loop is an array
    axis.  :meth:`predict` is the models-only plane every selector ranks
    (the advisor, ``AutoTuner`` and ``LearnedSelector``); it runs no
    simulator.  The simulator's per-part memos (row-cost boundary
    values, partitions, x-miss counts) live on the structures' parts, so
    they die with the program.
    """

    def __init__(
        self,
        coo: COOMatrix,
        machine: MachineModel,
        candidates: Sequence[Candidate],
        *,
        profile_cache=None,
        timings: dict | None = None,
        clock: Callable[[], float] | None = None,
        coarsening: Coarsening | None = None,
    ) -> None:
        self.coo = coo
        self.machine = machine
        self.profile_cache = profile_cache
        self._timings = timings
        self._clock = clock if timings is not None else None
        self.fmt_cache = plan_structures(
            coo, unique_structures(candidates), timings=timings, clock=clock,
            coarsening=coarsening,
        )

    def _charge(self, phase: str, t0: float) -> None:
        if self._clock is not None:
            self._timings[phase] = (
                self._timings.get(phase, 0.0) + self._clock() - t0
            )

    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        precision: Precision | str,
        nthreads: int,
        candidates: Sequence[Candidate],
        *,
        models: Iterable[str] = (),
    ) -> list[CandidateResult]:
        """Evaluate one (precision, threads) plane of cells, vectorized.

        Returns one :class:`~repro.core.selection.CandidateResult` per
        candidate, in candidate order: :meth:`predict`'s cells with the
        simulated breakdown attached.  ``models`` names the predictors to
        attach (MEMCOMP/OVERLAP skip candidates they do not cover, as in
        the paper).
        """
        precision = Precision.coerce(precision)
        t0 = self._clock() if self._clock else 0.0
        fmts, parts, ws = self._plane(precision, candidates)
        sims = simulate_cells(
            parts, ws, [c.impl for c in candidates],
            self.machine, precision, nthreads,
        )
        self._charge("simulate", t0)
        cells = self._cells(
            candidates, fmts, parts, ws, precision, nthreads, tuple(models)
        )
        for cell, sim in zip(cells, sims):
            cell.sim = sim
        return cells

    def predict(
        self,
        precision: Precision | str,
        nthreads: int,
        candidates: Sequence[Candidate],
        *,
        models: Iterable[str] = (),
    ) -> list[CandidateResult]:
        """Model predictions for one (precision, threads) plane, no simulator.

        The one ranking path: the fused planning pass plus
        :meth:`_predict`.  It runs no simulator axis and never materializes
        lazy index values.  The results carry ``sim=None``; their
        predictions are bit-identical to the per-candidate reference loop's,
        ``evaluate_candidates(..., run_simulation=False)``.
        """
        precision = Precision.coerce(precision)
        return self._cells(
            candidates, *self._plane(precision, candidates),
            precision, nthreads, tuple(models),
        )

    def _plane(
        self, precision: Precision, candidates: Sequence[Candidate]
    ) -> tuple[list, list, list[int]]:
        """Each cell's structure, submatrices and working set, computed
        once per structure (its scalar and SIMD cells share them)."""
        per_structure: dict = {}
        fmts, parts, ws = [], [], []
        for cand in candidates:
            key = (cand.kind, cand.block)
            entry = per_structure.get(key)
            if entry is None:
                fmt = self.fmt_cache[key]
                entry = per_structure[key] = (
                    fmt, tuple(fmt.submatrices()), fmt.working_set(precision)
                )
            fmts.append(entry[0])
            parts.append(entry[1])
            ws.append(entry[2])
        return fmts, parts, ws

    def _cells(
        self,
        candidates: Sequence[Candidate],
        fmts: list[SparseFormat],
        parts: list[tuple[SparseFormat, ...]],
        ws: list[int],
        precision: Precision,
        nthreads: int,
        models: tuple[str, ...],
    ) -> list[CandidateResult]:
        """One plane's results with the requested model predictions."""
        cells = [
            CandidateResult(
                candidate=cand,
                ws_bytes=w,
                padding_ratio=fmt.padding_ratio,
                n_blocks=fmt.n_blocks,
            )
            for cand, fmt, w in zip(candidates, fmts, ws)
        ]
        if models:
            self._predict(
                cells, parts, np.array(ws, dtype=np.int64).astype(np.float64),
                precision, nthreads, models,
            )
        return cells

    # ------------------------------------------------------------------ #
    def _predict(
        self,
        cells: list[CandidateResult],
        parts: list[tuple[SparseFormat, ...]],
        ws_f: np.ndarray,
        precision: Precision,
        nthreads: int,
        models: tuple[str, ...],
    ) -> None:
        """Attach MEM/MEMCOMP/OVERLAP predictions, vectorized over cells.

        ``parts[j]`` and ``ws_f[j]`` are cell ``j``'s submatrices and
        working set — all the models read of a structure.
        """
        machine = self.machine
        unknown = set(models) - set(_MODEL_NAMES)
        if unknown:
            raise ModelError(f"no batched predictor for models {sorted(unknown)}")
        profiled = tuple(m for m in models if m in _PROFILED_MODELS)
        # Fetched before the phase timer starts: the per-cell path
        # calibrates outside its phase windows too.
        profile = self._profile(precision) if profiled else None
        t0 = self._clock() if self._clock else 0.0
        bw = machine.memory_bandwidth(nthreads)
        if "mem" in models:
            pred_mem = ws_f / bw
        covered: list[int] = []
        if profiled:
            # MEMCOMP/OVERLAP only cover fixed-size blockings (the paper
            # excludes 1D-VBL); a missing or mismatched profile omits their
            # predictions, exactly like the per-cell ModelError path.
            if profile is not None and profile.precision is precision:
                covered = [
                    j for j, cell_parts in enumerate(parts)
                    if all(
                        part.block_descriptor()[0] != "vbl"
                        for part in cell_parts
                    )
                ]
        if covered:
            acc = {m: np.zeros(len(covered)) for m in profiled}
            max_parts = max(len(parts[j]) for j in covered)
            for slot in range(max_parts):
                sel, ws_i, nb, t_b, nof = [], [], [], [], []
                for i, j in enumerate(covered):
                    if slot >= len(parts[j]):
                        continue
                    part = parts[j][slot]
                    part_impl = machine.costs.effective_impl(
                        part, cells[j].candidate.impl
                    )
                    sel.append(i)
                    ws_i.append(
                        part.working_set_matrix_only(precision)
                        + part.vector_bytes(precision)
                    )
                    nb.append(part.n_blocks)
                    t_b.append(profile.block_time(part, part_impl))
                    if "overlap" in profiled:
                        nof.append(profile.nof_factor(part, part_impl))
                sel_a = np.array(sel, dtype=np.int64)
                ws_a = np.array(ws_i, dtype=np.float64)
                nb_a = np.array(nb, dtype=np.float64)
                tb_a = np.array(t_b, dtype=np.float64)
                if "memcomp" in acc:
                    acc["memcomp"][sel_a] += ws_a / bw + nb_a * tb_a
                if "overlap" in acc:
                    nof_a = np.array(nof, dtype=np.float64)
                    acc["overlap"][sel_a] += ws_a / bw + nof_a * nb_a * tb_a
        for m in models:
            if m == "mem":
                for j, cell in enumerate(cells):
                    cell.predictions[m] = float(pred_mem[j])
            elif covered:
                for i, j in enumerate(covered):
                    cells[j].predictions[m] = float(acc[m][i])
        self._charge("models", t0)

    def _profile(self, precision: Precision):
        from ..core.profiling import DEFAULT_PROFILE_CACHE

        cache = (
            self.profile_cache
            if self.profile_cache is not None
            else DEFAULT_PROFILE_CACHE
        )
        return cache.get(self.machine, precision)
