"""Tests for candidate enumeration and autotuned selection."""

import numpy as np
import pytest

from repro.bench.harness import SweepRecord
from repro.core import (
    MODELS,
    AutoTuner,
    Candidate,
    CandidateResult,
    candidate_space,
    oracle_best,
    rank_with_model,
    register_extended_models,
    select_with_model,
)
from repro.core.candidates import diag_sizes, rect_shapes
from repro.core.selection import StatsCache, build_candidate, evaluate_candidates
from repro.errors import ModelError
from repro.matrices.generators import grid2d, random_values
from repro.types import Impl


@pytest.fixture(scope="module")
def fem():
    return grid2d(110, 110, 5, dof=3)


class TestCandidateSpace:
    def test_rect_shapes_respect_paper_cap(self):
        shapes = rect_shapes(8)
        assert len(shapes) == 19
        assert all(2 <= s.elems <= 8 for s in shapes)
        assert (1, 1) not in [(s.r, s.c) for s in shapes]

    def test_diag_sizes(self):
        assert diag_sizes(8) == [2, 3, 4, 5, 6, 7, 8]

    def test_full_space_count(self):
        space = candidate_space()
        # CSR + (19 rect x 2 kinds x 2 impls) + (7 diag x 2 kinds x 2 impls)
        # + 1D-VBL
        assert len(space) == 1 + 19 * 2 * 2 + 7 * 2 * 2 + 1

    def test_csr_and_vbl_scalar_only(self):
        space = candidate_space()
        for cand in space:
            if cand.kind in ("csr", "vbl"):
                assert cand.impl is Impl.SCALAR

    def test_exclusions(self):
        space = candidate_space(include_vbl=False, include_decomposed=False,
                                impls=(Impl.SCALAR,))
        kinds = {c.kind for c in space}
        assert kinds == {"csr", "bcsr", "bcsd"}
        assert all(c.impl is Impl.SCALAR for c in space)

    def test_candidate_validation(self):
        with pytest.raises(ModelError):
            Candidate("csr", (2, 2), Impl.SCALAR)
        with pytest.raises(ModelError):
            Candidate("vbl", None, Impl.SIMD)
        with pytest.raises(ModelError):
            Candidate("bcsr", 4, Impl.SCALAR)
        with pytest.raises(ModelError):
            Candidate("bcsd", (2, 2), Impl.SCALAR)
        with pytest.raises(ModelError):
            Candidate("cso", None, Impl.SCALAR)
        with pytest.raises(ModelError):
            Candidate("ubcsr", (2, 2), Impl.SCALAR)

    def test_labels(self):
        assert Candidate("bcsr", (2, 4), Impl.SIMD).label == "BCSR 2x4 simd"
        assert Candidate("bcsd_dec", 3, Impl.SCALAR).label == "BCSD-DEC 3"
        assert Candidate("csr", None, Impl.SCALAR).label == "CSR"


class TestBuildCandidate:
    @pytest.mark.parametrize("cand", [
        Candidate("csr", None, Impl.SCALAR),
        Candidate("bcsr", (2, 3), Impl.SCALAR),
        Candidate("bcsr_dec", (2, 3), Impl.SIMD),
        Candidate("bcsd", 4, Impl.SCALAR),
        Candidate("bcsd_dec", 4, Impl.SIMD),
        Candidate("vbl", None, Impl.SCALAR),
    ])
    def test_kinds_map_to_formats(self, small_coo, cand):
        fmt = build_candidate(small_coo, cand)
        assert fmt.nnz == small_coo.nnz

    def test_stats_cache_shared(self, small_coo):
        cache = StatsCache(small_coo)
        build_candidate(
            small_coo, Candidate("bcsr", (2, 2), Impl.SCALAR),
            stats_cache=cache,
        )
        assert (2, 2) in cache._rect
        build_candidate(
            small_coo, Candidate("bcsr_dec", (2, 2), Impl.SCALAR),
            stats_cache=cache,
        )
        assert len(cache._rect) == 1  # reused, not recomputed


class TestEvaluation:
    def test_predictions_and_sim_populated(self, fem, machine):
        results = evaluate_candidates(
            fem, machine, "dp",
            candidates=candidate_space(impls=(Impl.SCALAR,)),
        )
        assert len(results) == 1 + 19 * 2 + 7 * 2 + 1
        for res in results:
            assert res.sim is not None
            assert res.t_real > 0
            if res.candidate.kind == "vbl":
                assert "overlap" not in res.predictions
                assert "mem" in res.predictions
            else:
                assert set(res.predictions) == {"mem", "memcomp", "overlap"}

    def test_selection_rules(self, fem, machine):
        results = evaluate_candidates(fem, machine, "dp")
        mem_sel = select_with_model(results, "mem")
        assert mem_sel.candidate.impl is Impl.SCALAR  # MEM defaults non-simd
        overlap_sel = select_with_model(results, "overlap")
        best = oracle_best(results)
        # OVERLAP must land within 10% of the oracle on this matrix.
        assert overlap_sel.t_real <= best.t_real * 1.10

    def test_oracle_requires_simulation(self, fem, machine):
        results = evaluate_candidates(
            fem, machine, "dp", run_simulation=False,
            candidates=candidate_space(impls=(Impl.SCALAR,)),
        )
        with pytest.raises(ModelError):
            oracle_best(results)

    def test_fmt_cache_reused_across_calls(self, fem, machine):
        cache = {}
        evaluate_candidates(
            fem, machine, "dp", fmt_cache=cache,
            candidates=candidate_space(impls=(Impl.SCALAR,)),
        )
        n_first = len(cache)
        evaluate_candidates(
            fem, machine, "sp", fmt_cache=cache,
            candidates=candidate_space(impls=(Impl.SCALAR,)),
        )
        assert len(cache) == n_first  # nothing rebuilt


def _result(kind, block, impl, **predictions):
    return CandidateResult(
        candidate=Candidate(kind, block, impl), ws_bytes=0,
        padding_ratio=1.0, n_blocks=0, predictions=predictions,
    )


class TestRankWithModel:
    @pytest.fixture
    def results(self):
        """1D-VBL predicted cheapest by MEM; ties at 0.5 under both models."""
        return [
            _result("vbl", None, Impl.SCALAR, mem=0.1),
            _result("bcsr", (2, 2), Impl.SIMD, mem=0.5, overlap=0.5),
            _result("csr", None, Impl.SCALAR, mem=0.9, overlap=0.9),
            _result("bcsd", 4, Impl.SCALAR, mem=0.5, overlap=0.5),
            _result("bcsr", (2, 2), Impl.SCALAR, mem=0.5, overlap=0.7),
        ]

    @staticmethod
    def _labels(ranked):
        return [r.candidate.label for r in ranked]

    def test_vbl_is_excluded(self, results):
        assert "1D-VBL" not in self._labels(rank_with_model(results, "mem"))

    def test_mem_ranks_scalar_kernels_only(self, results):
        assert self._labels(rank_with_model(results, "mem")) == [
            "BCSD 4", "BCSR 2x2", "CSR",
        ]

    def test_ties_keep_candidate_order(self, results):
        assert self._labels(rank_with_model(results, "overlap")) == [
            "BCSR 2x2 simd", "BCSD 4", "BCSR 2x2", "CSR",
        ]
        assert self._labels(rank_with_model(results[::-1], "overlap")) == [
            "BCSD 4", "BCSR 2x2 simd", "BCSR 2x2", "CSR",
        ]

    def test_select_is_the_head_of_the_ranking(self, results):
        for model in ("mem", "overlap"):
            assert select_with_model(results, model) is rank_with_model(
                results, model
            )[0]

    def test_accepts_sweep_records(self):
        def record(kind, block, impl, **predictions):
            return SweepRecord(
                kind=kind, block=block, impl=impl, precision="dp",
                nthreads=1, t_real=1.0, t_mem=1.0, t_comp=0.0,
                t_latency=0.0, ws_bytes=0, padding_ratio=1.0, n_blocks=0,
                predictions=predictions,
            )

        records = [
            record("vbl", None, "scalar", mem=0.1),
            record("bcsr", [2, 2], "simd", mem=0.2, overlap=0.2),
            record("csr", None, "scalar", mem=0.3, overlap=0.3),
        ]
        assert rank_with_model(records, "overlap") == records[1:]
        assert rank_with_model(records, "mem") == [records[2]]

    def test_uncovered_model_raises(self, results):
        with pytest.raises(ModelError, match="covered no candidate"):
            rank_with_model(results[:1], "overlap")


class TestAutoTuner:
    def test_end_to_end(self, machine):
        coo = random_values(grid2d(40, 40, 5, dof=3), seed=3)
        tuner = AutoTuner(machine)
        choice = tuner.select(coo, precision="dp", model="overlap")
        fmt = tuner.build(coo, choice.candidate)
        assert fmt.has_values
        x = np.random.default_rng(4).standard_normal(coo.ncols)
        np.testing.assert_allclose(fmt.spmv(x), coo.to_dense() @ x)

    def test_profile_cached(self, machine):
        tuner = AutoTuner(machine)
        assert tuner.profile("dp") is tuner.profile("dp")

    def test_blockable_matrix_gets_blocked_format(self, fem, machine):
        tuner = AutoTuner(machine)
        choice = tuner.select(fem, precision="dp", model="overlap")
        assert choice.candidate.kind != "csr"

    def test_refuses_the_per_candidate_path(self, small_coo, machine):
        """``batch`` survives only as a keyword that accepts True."""
        tuner = AutoTuner(machine)
        with pytest.raises(ModelError):
            tuner.select(small_coo, model="mem", batch=False)

    def test_refuses_a_model_without_a_batched_predictor(
        self, small_coo, machine
    ):
        """The one ranking path predicts MEM/MEMCOMP/OVERLAP only; a
        registered extension model is refused, as the advisor refuses it."""
        saved = dict(MODELS)
        try:
            register_extended_models()
            with pytest.raises(ModelError, match=r"overlap\+lat"):
                AutoTuner(machine).select(small_coo, model="overlap+lat")
        finally:
            MODELS.clear()
            MODELS.update(saved)
