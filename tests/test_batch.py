"""Equivalence suite for the batched whole-matrix array program.

The contract of :mod:`repro.machine.batch` is bit-identity, not closeness:
every structure the fused planning pass builds must match the per-call
converters array-for-array, and every cell :class:`MatrixProgram` evaluates
must match the oracle's ``simulate_reference`` and the per-candidate
model predictions float-for-float.  All comparisons here are exact (``==``
on dataclasses, dtype-aware ``array_equal`` on arrays).
"""

from __future__ import annotations

import dataclasses
import gc
import weakref
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import MODEL_NAMES
from repro.core.candidates import Candidate, candidate_space, unique_structures
from repro.core.profiling import ProfileCache
from repro.core.selection import (
    AutoTuner,
    build_candidate,
    evaluate_candidates,
    select_with_model,
)
from repro.formats.coo import COOMatrix
from repro.machine.batch import MatrixProgram, _LazyCSR, plan_structures
from repro.machine.cache import x_budget_lines
from repro.machine.costs import KernelCostModel
from repro.machine.executor import _shape_max_col, simulate
from repro.oracle import simulate_reference
from repro.types import Impl, Precision

from .conftest import make_random_coo

CANDIDATES = candidate_space(max_block_elems=4)
STRUCTURES = unique_structures(CANDIDATES)


@pytest.fixture(scope="module")
def profile_cache_both(machine, profile_dp, profile_sp):
    """A cache pre-seeded with both precisions (no test-time calibration)."""
    cache = ProfileCache()
    cache.seed(machine, profile_dp)
    cache.seed(machine, profile_sp)
    return cache


# The structural attributes of each format kind.  Comparison is
# attribute-based rather than ``type``/``vars``-based because the fused
# pass may return lazily-materializing subclasses: *reading* the index
# attributes here forces materialization, which must then match the
# per-call converter's arrays bit-for-bit.
_FORMAT_ATTRS = {
    "csr": ("row_ptr", "col_ind", "values"),
    "vbl": ("row_ptr", "bcol_ind", "blk_size", "block_row_ptr", "values"),
    "bcsr": ("block", "brow_ptr", "bcol_ind", "bval"),
    "bcsd": ("b", "brow_ptr", "bcol_ind", "bval"),
}


def assert_same_format(a, b) -> None:
    """Exact structural equality: same kind, same arrays bit-for-bit."""
    assert a.kind == b.kind
    assert a.shape == b.shape
    assert a.nnz == b.nnz
    assert a.nnz_stored == b.nnz_stored
    assert a.n_blocks == b.n_blocks
    if a.kind in ("bcsr_dec", "bcsd_dec", "decomposed"):
        assert a.display_name == b.display_name
        assert len(a.parts) == len(b.parts)
        for pa, pb in zip(a.parts, b.parts):
            assert_same_format(pa, pb)
        return
    for key in _FORMAT_ATTRS[a.kind]:
        va, vb = getattr(a, key), getattr(b, key)
        if isinstance(va, np.ndarray):
            assert isinstance(vb, np.ndarray), key
            assert va.dtype == vb.dtype, key
            assert np.array_equal(va, vb), key
        else:
            assert va == vb, (key, va, vb)


@st.composite
def random_coos(draw, max_dim=120, max_nnz=500):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    nnz = draw(st.integers(0, min(max_nnz, nrows * ncols)))
    seed = draw(st.integers(0, 2**31 - 1))
    return make_random_coo(nrows, ncols, nnz, seed=seed, with_values=False)


class TestPlanStructures:
    @given(coo=random_coos())
    @settings(max_examples=25, deadline=None)
    def test_matches_per_structure_builders(self, coo):
        fused = plan_structures(coo, STRUCTURES)
        assert set(fused) == set(STRUCTURES)
        for kind, block in STRUCTURES:
            reference = build_candidate(
                coo, Candidate(kind, block, Impl.SCALAR)
            )
            assert_same_format(fused[(kind, block)], reference)

    def test_empty_matrix_falls_back(self):
        coo = COOMatrix(8, 8, np.array([], dtype=np.int64),
                        np.array([], dtype=np.int64), None)
        fused = plan_structures(coo, STRUCTURES)
        for kind, block in STRUCTURES:
            assert_same_format(
                fused[(kind, block)],
                build_candidate(coo, Candidate(kind, block, Impl.SCALAR)),
            )

    def test_hypersparse_pattern_skips_coarsening(self, monkeypatch):
        """Three rows by a million columns around one nonzero: coarsening
        maps would be O(ncols), so the per-structure builders run."""
        import repro.formats.coarsen as coarsen

        def refuse(*args, **kwargs):
            raise AssertionError("coarsened a hypersparse pattern")

        monkeypatch.setattr(coarsen, "pattern_csr", refuse)
        monkeypatch.setattr(coarsen, "shifted_pattern", refuse)
        coo = COOMatrix(3, 2**20, [1], [2**20 - 1], None)
        fused = plan_structures(coo, STRUCTURES)
        for kind, block in STRUCTURES:
            assert_same_format(
                fused[(kind, block)],
                build_candidate(coo, Candidate(kind, block, Impl.SCALAR)),
            )

    def test_charges_stats_and_convert_phases(self, small_coo):
        import time

        timings: dict = {}
        plan_structures(
            small_coo, STRUCTURES, timings=timings, clock=time.perf_counter
        )
        assert timings["stats"] > 0.0
        assert timings["convert"] > 0.0


class TestMatrixProgramEquivalence:
    @given(
        coo=random_coos(),
        precision=st.sampled_from(["dp", "sp"]),
        nthreads=st.integers(1, 4),
    )
    @settings(max_examples=20, deadline=None)
    def test_cells_match_per_cell_path(
        self, coo, precision, nthreads, machine, profile_cache_both
    ):
        """Every (candidate, precision, threads) cell — simulated breakdown
        and model predictions — is exactly what the oracle's simulator and
        the per-candidate models produce on ``build_candidate``'s
        structures."""
        candidates = (
            CANDIDATES
            if nthreads == 1
            else tuple(c for c in CANDIDATES if c.kind != "vbl")
        )
        models = MODEL_NAMES if nthreads == 1 else ()
        program = MatrixProgram(
            coo, machine, CANDIDATES, profile_cache=profile_cache_both
        )
        batched = program.evaluate(
            precision, nthreads, candidates, models=models
        )
        fmt_cache: dict = {}
        reference = evaluate_candidates(
            coo,
            machine,
            precision,
            candidates=candidates,
            models=models,
            profile_cache=profile_cache_both,
            run_simulation=False,
            nthreads=nthreads,
            fmt_cache=fmt_cache,
        )
        assert len(batched) == len(reference)
        for got, want in zip(batched, reference):
            cand = want.candidate
            assert got.candidate == cand
            assert got.ws_bytes == want.ws_bytes
            assert got.padding_ratio == want.padding_ratio
            assert got.n_blocks == want.n_blocks
            # SimResult is a frozen dataclass: == is exact float equality.
            assert got.sim == simulate_reference(
                fmt_cache[(cand.kind, cand.block)],
                machine, precision, cand.impl, nthreads,
            )
            assert got.predictions == want.predictions

    def test_autotuner_batched_select_agrees(self, small_coo, machine):
        """``AutoTuner.select`` picks what the per-candidate reference
        loop picks, with the same predictions."""
        # The "mem" model needs no calibrated profile, so this stays fast.
        tuner = AutoTuner(machine)
        batched = tuner.select(small_coo, model="mem", candidates=CANDIDATES)
        reference = select_with_model(
            evaluate_candidates(
                small_coo, machine, "dp", candidates=CANDIDATES,
                models=("mem",), run_simulation=False,
            ),
            "mem",
        )
        assert batched.candidate == reference.candidate
        assert batched.predictions == reference.predictions

    def test_autotuner_batched_select_runs_no_simulator(
        self, machine, monkeypatch
    ):
        """Selection reads only predictions: on a pattern whose x stream
        overflows the cache budget, ``AutoTuner.select`` never reaches the
        x-miss estimator and equals the reference loop's choice (``sim``
        included)."""
        import repro.machine.executor as executor

        def refuse(*args, **kwargs):
            raise AssertionError("selection ran the x-miss estimator")

        monkeypatch.setattr(executor, "estimate_x_access_misses", refuse)
        small = dataclasses.replace(
            machine,
            l1=dataclasses.replace(machine.l1, size_bytes=4 * 1024),
            l2=dataclasses.replace(machine.l2, size_bytes=16 * 1024),
        )
        coo = make_random_coo(200, 6000, 4000, seed=5, with_values=False)
        batched = AutoTuner(small).select(coo, model="mem")
        assert batched == select_with_model(
            evaluate_candidates(
                coo, small, "dp", models=("mem",), run_simulation=False
            ),
            "mem",
        )
        assert batched.sim is None
        # The pattern does reach the estimator once a cell is simulated.
        with pytest.raises(AssertionError, match="x-miss estimator"):
            MatrixProgram(coo, small, [batched.candidate]).evaluate(
                "dp", 1, [batched.candidate]
            )


def _assert_same_predictions(got, want) -> None:
    """``predict``'s cells against ``evaluate_candidates``' — exact."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.candidate == w.candidate
        assert g.ws_bytes == w.ws_bytes
        assert g.padding_ratio == w.padding_ratio
        assert g.n_blocks == w.n_blocks
        assert g.sim is None
        # dict == compares the floats exactly (and the covered models).
        assert g.predictions == w.predictions


FULL_SPACE = candidate_space()


def _degenerate_coos():
    empty = np.array([], dtype=np.int64)
    return {
        "empty": COOMatrix(9, 7, empty, empty, None),
        "1x1": COOMatrix(1, 1, [0], [0], None),
        "dense-row": COOMatrix(
            5, 40, np.full(40, 2), np.arange(40), None
        ),
    }


class TestMatrixProgramPredict:
    """``MatrixProgram.predict`` is the advisor's ranking path: the same
    predictions as the per-candidate oracle, bit-for-bit, without the
    simulator."""

    @given(
        coo=random_coos(),
        precision=st.sampled_from(["dp", "sp"]),
        nthreads=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_patterns(
        self, coo, precision, nthreads, machine, profile_cache_both
    ):
        program = MatrixProgram(
            coo, machine, FULL_SPACE, profile_cache=profile_cache_both
        )
        _assert_same_predictions(
            program.predict(
                precision, nthreads, FULL_SPACE, models=MODEL_NAMES
            ),
            evaluate_candidates(
                coo, machine, precision, candidates=FULL_SPACE,
                models=MODEL_NAMES, profile_cache=profile_cache_both,
                run_simulation=False, nthreads=nthreads,
            ),
        )

    @pytest.mark.parametrize("name", sorted(_degenerate_coos()))
    def test_degenerate_patterns(self, name, machine, profile_cache_both):
        coo = _degenerate_coos()[name]
        program = MatrixProgram(
            coo, machine, FULL_SPACE, profile_cache=profile_cache_both
        )
        for precision in ("sp", "dp"):
            for nthreads in (1, 2, 4):
                _assert_same_predictions(
                    program.predict(
                        precision, nthreads, FULL_SPACE, models=MODEL_NAMES
                    ),
                    evaluate_candidates(
                        coo, machine, precision, candidates=FULL_SPACE,
                        models=MODEL_NAMES, profile_cache=profile_cache_both,
                        run_simulation=False, nthreads=nthreads,
                    ),
                )

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "name", ["dense", "pwtk", "stomach", "gearbox", "largebasis", "rail4284"]
    )
    def test_suite_matrices(self, name, machine, profile_cache_both):
        from repro.matrices.suite import get_entry

        coo = get_entry(name).build()
        program = MatrixProgram(
            coo, machine, FULL_SPACE, profile_cache=profile_cache_both
        )
        fmt_cache: dict = {}
        for precision in ("sp", "dp"):
            for nthreads in (1, 2, 4):
                _assert_same_predictions(
                    program.predict(
                        precision, nthreads, FULL_SPACE, models=MODEL_NAMES
                    ),
                    evaluate_candidates(
                        coo, machine, precision, candidates=FULL_SPACE,
                        models=MODEL_NAMES, profile_cache=profile_cache_both,
                        run_simulation=False, nthreads=nthreads,
                        fmt_cache=fmt_cache,
                    ),
                )

    def test_leaves_no_reference_cycle(
        self, machine, profile_cache_both, small_coo
    ):
        """With the cyclic GC off, every planned format dies with the
        program: ``predict`` hangs nothing pointing back on a format, and
        reads no lazy index values."""
        with _gc_disabled():
            program = MatrixProgram(
                small_coo, machine, FULL_SPACE,
                profile_cache=profile_cache_both,
            )
            program.predict("dp", 2, FULL_SPACE, models=MODEL_NAMES)
            fmts = list(program.fmt_cache.values())
            assert not any(
                "_lazy_values" in part.__dict__
                for f in fmts for part in f.submatrices()
            )
            refs = [weakref.ref(f) for f in fmts]
            del program, fmts
            assert [r for r in refs if r() is not None] == []


#: Dimensions no block size of the paper space (2..8) divides, so every
#: blocking has a ragged last block row and block column.
_ODD_DIMS = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


@st.composite
def odd_shaped_coos(draw):
    """Random or banded patterns, square or rectangular, over odd
    dimensions, always touching the last column."""
    nrows = draw(st.sampled_from(_ODD_DIMS))
    ncols = draw(st.sampled_from(_ODD_DIMS))
    seed = draw(st.integers(0, 2**31 - 1))
    if draw(st.booleans()):
        nnz = draw(st.integers(1, nrows * ncols // 2))
        rows = np.random.default_rng(seed).integers(0, nrows, nnz)
        cols = np.random.default_rng(seed + 1).integers(0, ncols, nnz)
    else:
        half = draw(st.integers(0, 5))
        offsets = np.arange(-half, half + 1)
        rows = np.repeat(np.arange(nrows), offsets.shape[0])
        cols = rows + np.tile(offsets, nrows)
        keep = (cols >= 0) & (cols < ncols)
        rows, cols = rows[keep], cols[keep]
    rows = np.append(rows, nrows - 1)
    cols = np.append(cols, ncols - 1)
    return COOMatrix(nrows, ncols, rows, cols, None)


class TestPerPartWork:
    """Each per-part quantity of the simulator axes is computed once per
    part: the x-miss shape bound skips streams it proves resident, one
    whole-pattern CSR part (with its row-cost boundary values) serves
    every structure that holds it, and no part keeps a per-row float
    array."""

    @given(coo=odd_shaped_coos())
    @settings(max_examples=30, deadline=None)
    def test_shape_bound_covers_every_stream(self, coo):
        structures = unique_structures(FULL_SPACE)
        fused = plan_structures(coo, structures)
        built = [
            build_candidate(coo, Candidate(kind, block, Impl.SCALAR))
            for kind, block in structures
        ]
        fmts = [*fused.values(), *built]
        for fmt in fmts:
            for part in fmt.submatrices():
                bound = _shape_max_col(part)
                assert bound is not None, part.block_descriptor()
                stream = part.x_access_stream()
                if len(stream):
                    touched = int(stream.element_columns().max())
                    assert bound >= touched, part.block_descriptor()

    def test_resident_remainders_stay_lazy(self, machine):
        """fdiff's case: ncols is exactly line_elems x budget at dp, so
        each DEC remainder's shape proves its x footprint fits, and
        ``evaluate`` never materializes its column indices — while every
        cell still equals the oracle's."""
        small = dataclasses.replace(
            machine,
            l1=dataclasses.replace(machine.l1, size_bytes=4 * 1024),
            l2=dataclasses.replace(machine.l2, size_bytes=16 * 1024),
        )
        budget = x_budget_lines(
            small.l2.size_bytes, small.l2.line_bytes, small.x_cache_fraction
        )
        nrows, ncols = 400, small.l2.line_bytes // 8 * budget
        rng = np.random.default_rng(3)
        # Dense 4x4 tiles give most blockings full blocks, so their
        # remainders are lazily planned; scattered singles fill the rest.
        tile_r = rng.integers(0, nrows // 4, 60) * 4
        tile_c = rng.integers(0, ncols // 4, 60) * 4
        offsets = np.arange(16)
        rows = np.concatenate([
            (tile_r[:, None] + offsets // 4).ravel(),
            rng.integers(0, nrows, 2000), [0],
        ])
        cols = np.concatenate([
            (tile_c[:, None] + offsets % 4).ravel(),
            rng.integers(0, ncols, 2000), [ncols - 1],
        ])
        coo = COOMatrix(nrows, ncols, rows, cols, None)
        program = MatrixProgram(coo, small, FULL_SPACE)
        remainders = [
            part
            for (kind, _), fmt in program.fmt_cache.items()
            if kind in ("bcsr_dec", "bcsd_dec")
            for part in fmt.parts
            if isinstance(part, _LazyCSR)
        ]
        assert len(remainders) >= 10
        built = {
            (kind, block): build_candidate(
                coo, Candidate(kind, block, Impl.SCALAR)
            )
            for kind, block in unique_structures(FULL_SPACE)
        }
        for precision in ("sp", "dp"):
            for nthreads in (1, 2, 4):
                cells = program.evaluate(precision, nthreads, FULL_SPACE)
                assert all(
                    cell.ws_bytes > small.l2.size_bytes for cell in cells
                )
                assert [c.sim for c in cells] == [
                    simulate_reference(
                        built[(c.kind, c.block)], small, precision,
                        c.impl, nthreads,
                    )
                    for c in FULL_SPACE
                ]
        assert not any("_lazy_values" in p.__dict__ for p in remainders)

    def test_parts_keep_no_per_row_float_memo(self, machine):
        """After the six paper-config planes, no part holds a float array
        as long as its block rows: partitions come from the pointer
        search, and row costs are kept only at the thread boundaries."""
        coo = make_random_coo(300, 300, 2500, seed=13, with_values=False)
        program = MatrixProgram(coo, machine, FULL_SPACE)
        multi = tuple(c for c in FULL_SPACE if c.kind != "vbl")
        for precision in ("sp", "dp"):
            for nthreads in (1, 2, 4):
                program.evaluate(
                    precision, nthreads, FULL_SPACE if nthreads == 1 else multi
                )

        def float_arrays(value):
            if isinstance(value, np.ndarray):
                if value.dtype.kind == "f":
                    yield value
            elif isinstance(value, dict):
                for item in value.values():
                    yield from float_arrays(item)
            elif isinstance(value, (tuple, list)):
                for item in value:
                    yield from float_arrays(item)

        parts = {
            id(part): part
            for fmt in program.fmt_cache.values()
            for part in fmt.submatrices()
        }
        assert len(parts) > 20
        for part in parts.values():
            n = part.n_block_rows
            assert n > 2 * machine.max_threads
            assert "_boundary_costs" in part.__dict__
            for name, value in part.__dict__.items():
                sizes = [a.size for a in float_arrays(value)]
                assert all(size < n for size in sizes), (part.kind, name)

    def test_whole_csr_part_is_shared(self, machine, monkeypatch):
        """Every decomposition without a full block holds the plain CSR
        structure itself, so its row costs run once per precision."""
        coo = make_random_coo(300, 300, 1500, seed=11, with_values=False)
        program = MatrixProgram(coo, machine, FULL_SPACE)
        csr = program.fmt_cache[("csr", None)]
        whole = [
            fmt.parts[0]
            for (kind, _), fmt in program.fmt_cache.items()
            if kind in ("bcsr_dec", "bcsd_dec") and len(fmt.parts) == 1
        ]
        assert len(whole) >= 3
        assert all(part is csr for part in whole)

        real = KernelCostModel.block_row_cycles
        calls = Counter()

        def counted(self, part, impl, precision, **kwargs):
            if part is csr:
                calls[(Impl.coerce(impl), Precision.coerce(precision))] += 1
            return real(self, part, impl, precision, **kwargs)

        monkeypatch.setattr(KernelCostModel, "block_row_cycles", counted)
        multi = tuple(c for c in FULL_SPACE if c.kind != "vbl")
        for precision in ("sp", "dp"):
            for nthreads in (1, 2, 4):
                program.evaluate(
                    precision, nthreads, FULL_SPACE if nthreads == 1 else multi
                )
        assert calls == {
            (Impl.SCALAR, Precision.SP): 1, (Impl.SCALAR, Precision.DP): 1,
        }


@contextmanager
def _gc_disabled():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestPlansLeaveNoReferenceCycle:
    """The simulator's memos live on format parts and must not point back
    strongly, or every simulated format (index arrays, x streams) outlives
    its last user until the cyclic GC happens to run."""

    def test_evaluate(self, machine, profile_cache_both, small_coo):
        with _gc_disabled():
            program = MatrixProgram(
                small_coo, machine, FULL_SPACE,
                profile_cache=profile_cache_both,
            )
            for precision in ("sp", "dp"):
                program.evaluate(
                    precision, 2, FULL_SPACE, models=MODEL_NAMES
                )
            fmts = list(program.fmt_cache.values())
            refs = [weakref.ref(f) for f in fmts]
            del program, fmts
            assert [r for r in refs if r() is not None] == []

    @pytest.mark.parametrize(
        "kind,block",
        [("csr", None), ("bcsr", (2, 2)), ("bcsr_dec", (2, 3)),
         ("bcsd", 4), ("bcsd_dec", 2), ("vbl", None)],
    )
    def test_per_cell_plan(self, kind, block, machine, small_coo):
        """``simulate()``, one cell at a time."""
        with _gc_disabled():
            fmt = build_candidate(small_coo, Candidate(kind, block, Impl.SCALAR))
            for nthreads in (1, 2):
                simulate(fmt, machine, "dp", Impl.SCALAR, nthreads)
            ref = weakref.ref(fmt)
            del fmt
            assert ref() is None


class TestSharedCoarsening:
    """A cold advise plans from the coarsening its feature probes built:
    the structures must be the ones the planner builds alone, array for
    array, whatever order the shared products keep within a row."""

    @given(coo=st.one_of(random_coos(), odd_shaped_coos()))
    @settings(max_examples=30, deadline=None)
    def test_plans_the_same_arrays(self, coo):
        from repro.formats.coarsen import Coarsening
        from repro.serve.features import _count_probes

        structures = unique_structures(FULL_SPACE)
        shared = Coarsening(coo)
        _count_probes(coo, shared)
        fused = plan_structures(coo, structures, coarsening=shared)
        alone = plan_structures(coo, structures)
        assert set(fused) == set(alone)
        for key, fmt in alone.items():
            assert_same_format(fused[key], fmt)

    def test_rejects_another_patterns_coarsening(self, small_coo):
        from repro.errors import ModelError
        from repro.formats.coarsen import Coarsening

        other = COOMatrix.eye(small_coo.nrows)
        with pytest.raises(ModelError, match="another pattern"):
            plan_structures(
                small_coo, STRUCTURES, coarsening=Coarsening(other)
            )
