"""End-to-end integration tests spanning the whole stack."""

import numpy as np
import pytest

from repro import (
    AutoTuner,
    CORE2_XEON,
    GENERIC_MODERN,
    build_format,
    simulate,
)
from repro.core import oracle_best, select_with_model
from repro.core.selection import evaluate_candidates
from repro.matrices import generators as g
from repro.matrices import read_matrix_market, write_matrix_market


class TestAutotuneAndMultiply:
    """Generate -> select -> build -> multiply -> verify, per matrix class."""

    @pytest.mark.parametrize("builder,expect_blocked", [
        (lambda: g.grid2d(40, 40, 5, dof=3), True),
        (lambda: g.diagonal_pattern(4000, (0, 1, -1, 63, -63), 0.97), True),
        (lambda: g.random_uniform(3000, 3000, 20_000, seed=5), None),
    ])
    def test_full_cycle(self, builder, expect_blocked):
        coo = g.random_values(builder(), seed=8)
        tuner = AutoTuner(CORE2_XEON)
        choice = tuner.select(coo, precision="dp", model="overlap")
        if expect_blocked is True:
            assert choice.candidate.kind != "csr"
        fmt = tuner.build(coo, choice.candidate)
        x = np.random.default_rng(9).standard_normal(coo.ncols)
        np.testing.assert_allclose(
            fmt.spmv(x), coo.to_dense() @ x, rtol=1e-9, atol=1e-9
        )

    def test_selection_close_to_oracle_on_mesh(self):
        coo = g.grid2d(110, 110, 5, dof=3, drop_fraction=0.2, seed=10)
        results = evaluate_candidates(coo, CORE2_XEON, "dp")
        best = oracle_best(results)
        sel = select_with_model(results, "overlap")
        assert sel.t_real <= best.t_real * 1.10


class TestDifferentMachines:
    def test_modern_machine_changes_tradeoffs(self):
        """A machine with ample bandwidth shifts selection toward
        compute-friendly configurations; the API carries through."""
        coo = g.grid2d(60, 60, 9, dof=3, drop_fraction=0.2, seed=11)
        for machine in (CORE2_XEON, GENERIC_MODERN):
            tuner = AutoTuner(machine)
            choice = tuner.select(coo, precision="sp", model="overlap")
            assert choice.ws_bytes > 0

    def test_ablated_machine_still_simulates(self):
        quiet = CORE2_XEON.with_overrides(latency_hide=1.0)
        fmt = build_format(
            g.random_uniform(200_000, 200_000, 600_000, seed=12),
            "csr",
            with_values=False,
        )
        res = simulate(fmt, quiet, "dp", "scalar")
        assert res.t_latency == 0.0  # all latency hidden


class TestFilePipeline:
    def test_mtx_to_selection(self, tmp_path):
        """Matrix Market file in, tuned format out."""
        coo = g.random_values(
            g.clustered_rows(2000, 2000, 16_000, (3, 9), seed=13), seed=14
        )
        path = tmp_path / "m.mtx"
        write_matrix_market(path, coo)
        loaded = read_matrix_market(path)
        assert loaded == coo
        tuner = AutoTuner(CORE2_XEON)
        choice = tuner.select(loaded, precision="dp", model="memcomp")
        fmt = tuner.build(loaded, choice.candidate)
        x = np.ones(loaded.ncols)
        np.testing.assert_allclose(
            fmt.spmv(x), loaded.to_dense() @ x, rtol=1e-9, atol=1e-9
        )


class TestNumericalConsistencyAcrossFormats:
    def test_all_formats_agree_bitwise_tolerance(self):
        """Every format computes the same y on the same operands."""
        coo = g.random_values(
            g.grid2d(25, 25, 9, dof=2, drop_fraction=0.3, seed=15), seed=16
        )
        x = np.random.default_rng(17).standard_normal(coo.ncols)
        reference = None
        for kind, block in [
            ("csr", None), ("bcsr", (2, 2)), ("bcsr_dec", (2, 2)),
            ("bcsd", 3), ("bcsd_dec", 3), ("vbl", None),
        ]:
            y = build_format(coo, kind, block).spmv(x)
            if reference is None:
                reference = y
            else:
                np.testing.assert_allclose(y, reference, rtol=1e-9, atol=1e-9)
