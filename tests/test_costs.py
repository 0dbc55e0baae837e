"""Tests for the kernel cost tables."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.formats import CSRMatrix, VBLMatrix, build_format
from repro.machine.costs import KernelCostModel
from repro.types import Impl

from .conftest import make_random_coo

COSTS = KernelCostModel()


class TestBlockCycles:
    def test_scalar_grows_with_elements(self):
        costs = [
            COSTS.rect_block_cycles(r, c, "scalar", "dp")
            for r, c in [(1, 2), (2, 2), (2, 4)]
        ]
        assert costs == sorted(costs)

    def test_simd_lanes(self):
        assert COSTS.lanes("dp") == 2
        assert COSTS.lanes("sp") == 4

    def test_simd_helps_wide_blocks_more_in_sp(self):
        """The sp SIMD advantage on a 2x4 block must exceed the dp one —
        the mechanism behind Table II's sp-simd shift toward BCSR."""
        gain = {}
        for prec in ("sp", "dp"):
            scalar = COSTS.rect_block_cycles(2, 4, "scalar", prec)
            simd = COSTS.rect_block_cycles(2, 4, "simd", prec)
            gain[prec] = scalar / simd
        assert gain["sp"] > gain["dp"]

    def test_simd_not_worth_it_for_tiny_blocks(self):
        scalar = COSTS.rect_block_cycles(1, 2, "scalar", "dp")
        simd = COSTS.rect_block_cycles(1, 2, "simd", "dp")
        assert simd >= scalar

    def test_alignment_penalty(self):
        aligned = COSTS.rect_block_cycles(1, 4, "simd", "sp")
        unaligned = COSTS.rect_block_cycles(1, 5, "simd", "sp")
        # 1x5 needs two vector ops AND the penalty.
        assert unaligned > aligned + COSTS.align_penalty_cycles - 1e-9

    def test_diag_simd_avoids_horizontal_add(self):
        rect = COSTS.rect_block_cycles(1, 4, "simd", "dp")
        diag = COSTS.diag_block_cycles(4, "simd", "dp")
        assert diag < rect + COSTS.hadd_cycles


class TestBlockRowCycles:
    def test_csr_per_row(self):
        coo = make_random_coo(20, 20, 80, seed=51, with_values=False)
        csr = CSRMatrix.from_coo(coo, with_values=False)
        cycles = COSTS.block_row_cycles(csr, Impl.SCALAR, "dp")
        assert cycles.shape == (20,)
        expected = (
            COSTS.row_overhead_cycles
            + np.diff(csr.row_ptr) * COSTS.csr_elem_cycles["dp"]
        )
        np.testing.assert_allclose(cycles, expected)

    def test_csr_rejects_simd(self):
        coo = make_random_coo(10, 10, 30, seed=52, with_values=False)
        csr = CSRMatrix.from_coo(coo, with_values=False)
        with pytest.raises(ModelError):
            COSTS.block_row_cycles(csr, Impl.SIMD, "dp")

    def test_vbl_rejects_simd(self):
        coo = make_random_coo(10, 10, 30, seed=53, with_values=False)
        vbl = VBLMatrix.from_coo(coo, with_values=False)
        with pytest.raises(ModelError):
            COSTS.block_row_cycles(vbl, Impl.SIMD, "dp")

    @pytest.mark.parametrize("kind,block", [
        ("bcsr", (2, 2)), ("bcsd", 4), ("vbl", None),
    ])
    def test_rows_sum_positive(self, kind, block):
        coo = make_random_coo(24, 24, 100, seed=54, with_values=False)
        fmt = build_format(coo, kind, block, with_values=False)
        impl = Impl.SCALAR
        cycles = COSTS.block_row_cycles(fmt, impl, "dp")
        assert cycles.shape[0] == fmt.n_block_rows
        assert (cycles > 0).all()


class TestComputeCycles:
    def test_padding_costs_compute(self):
        """BCSR on a scattered pattern computes on its padding zeros."""
        coo = make_random_coo(40, 40, 100, seed=55, with_values=False)
        csr = build_format(coo, "csr", with_values=False)
        bcsr = build_format(coo, "bcsr", (2, 4), with_values=False)
        t_csr = COSTS.compute_cycles(csr, Impl.SCALAR, "dp")
        t_bcsr = COSTS.compute_cycles(bcsr, Impl.SCALAR, "dp")
        assert bcsr.padding_ratio > 2.0
        assert t_bcsr > t_csr

    def test_decomposed_pays_pass_startup(self):
        from tests.test_decomposed import make_blocky_coo

        coo = make_blocky_coo()
        dec = build_format(coo, "bcsr_dec", (2, 2), with_values=False)
        assert len(dec.submatrices()) == 2
        total = COSTS.compute_cycles(dec, Impl.SCALAR, "dp")
        parts = sum(
            COSTS.block_row_cycles(p, Impl.SCALAR, "dp").sum()
            for p in dec.submatrices()
        )
        assert total == pytest.approx(parts + COSTS.pass_startup_cycles)

    def test_effective_impl_keeps_csr_scalar(self):
        coo = make_random_coo(10, 10, 30, seed=56, with_values=False)
        csr = build_format(coo, "csr", with_values=False)
        assert KernelCostModel.effective_impl(csr, Impl.SIMD) is Impl.SCALAR
        bcsr = build_format(coo, "bcsr", (2, 2), with_values=False)
        assert KernelCostModel.effective_impl(bcsr, Impl.SIMD) is Impl.SIMD

    def test_simd_config_on_decomposed_mixes_impls(self):
        """In a SIMD run the DEC blocked part vectorizes, the CSR part not —
        total must sit strictly between all-scalar and a hypothetical
        all-simd lower bound for a blocked-dominated matrix."""
        from tests.test_decomposed import make_blocky_coo

        dec = build_format(
            make_blocky_coo(), "bcsr_dec", (2, 2), with_values=False
        )
        t_scalar = COSTS.compute_cycles(dec, Impl.SCALAR, "sp")
        t_simd = COSTS.compute_cycles(dec, Impl.SIMD, "sp")
        assert t_simd != t_scalar
