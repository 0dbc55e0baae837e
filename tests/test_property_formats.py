"""Property-based tests (hypothesis) over all storage formats.

The central invariant: every format is an exact, lossless representation of
the sparse matrix — for any pattern, shape and block parameter, ``spmv``
agrees with the dense reference and ``to_dense`` reproduces the original.
Working-set invariants (padding ≥ 0, DEC padding = 0, VBL size cap) ride
along.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import (
    COOMatrix,
    build_format,
)
from repro.types import VBL_MAX_BLOCK


@st.composite
def coo_matrices(draw, max_dim=40, max_nnz=160):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    nnz = draw(st.integers(0, min(max_nnz, nrows * ncols)))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, nrows, nnz)
    cols = rng.integers(0, ncols, nnz)
    # Values away from zero so cancellation cannot mask indexing bugs.
    values = rng.uniform(0.5, 2.0, nnz) * rng.choice([-1.0, 1.0], nnz)
    return COOMatrix(nrows, ncols, rows, cols, values)


RECT_BLOCKS = [(1, 2), (2, 1), (2, 2), (3, 2), (2, 4), (1, 8), (8, 1), (3, 3)]
DIAG_SIZES = [2, 3, 4, 7, 8]


def _x_for(coo, seed=0):
    return np.random.default_rng(seed).standard_normal(coo.ncols)


class TestSpmvAgreesWithDense:
    @given(coo=coo_matrices(), block=st.sampled_from(RECT_BLOCKS))
    @settings(max_examples=40, deadline=None)
    def test_bcsr(self, coo, block):
        fmt = build_format(coo, "bcsr", block)
        x = _x_for(coo)
        np.testing.assert_allclose(
            fmt.spmv(x), coo.to_dense() @ x, rtol=1e-10, atol=1e-10
        )

    @given(coo=coo_matrices(), block=st.sampled_from(RECT_BLOCKS))
    @settings(max_examples=40, deadline=None)
    def test_bcsr_dec(self, coo, block):
        fmt = build_format(coo, "bcsr_dec", block)
        x = _x_for(coo)
        np.testing.assert_allclose(
            fmt.spmv(x), coo.to_dense() @ x, rtol=1e-10, atol=1e-10
        )

    @given(coo=coo_matrices(), b=st.sampled_from(DIAG_SIZES))
    @settings(max_examples=40, deadline=None)
    def test_bcsd(self, coo, b):
        fmt = build_format(coo, "bcsd", b)
        x = _x_for(coo)
        np.testing.assert_allclose(
            fmt.spmv(x), coo.to_dense() @ x, rtol=1e-10, atol=1e-10
        )

    @given(coo=coo_matrices(), b=st.sampled_from(DIAG_SIZES))
    @settings(max_examples=40, deadline=None)
    def test_bcsd_dec(self, coo, b):
        fmt = build_format(coo, "bcsd_dec", b)
        x = _x_for(coo)
        np.testing.assert_allclose(
            fmt.spmv(x), coo.to_dense() @ x, rtol=1e-10, atol=1e-10
        )

    @given(coo=coo_matrices())
    @settings(max_examples=40, deadline=None)
    def test_csr_vbl(self, coo):
        x = _x_for(coo)
        expected = coo.to_dense() @ x
        for kind in ("csr", "vbl"):
            fmt = build_format(coo, kind)
            np.testing.assert_allclose(
                fmt.spmv(x), expected, rtol=1e-10, atol=1e-10
            )


class TestStructuralInvariants:
    @given(coo=coo_matrices(), block=st.sampled_from(RECT_BLOCKS))
    @settings(max_examples=40, deadline=None)
    def test_padding_and_ws(self, coo, block):
        bcsr = build_format(coo, "bcsr", block, with_values=False)
        assert bcsr.padding >= 0
        assert bcsr.nnz == coo.nnz
        assert bcsr.working_set("sp") <= bcsr.working_set("dp")
        dec = build_format(coo, "bcsr_dec", block, with_values=False)
        assert dec.padding == 0
        assert sum(p.nnz for p in dec.submatrices()) == coo.nnz

    @given(coo=coo_matrices())
    @settings(max_examples=40, deadline=None)
    def test_vbl_block_cap(self, coo):
        vbl = build_format(coo, "vbl", with_values=False)
        if vbl.n_blocks:
            sizes = vbl.blk_size.astype(int)
            assert sizes.max() <= VBL_MAX_BLOCK
            assert sizes.min() >= 1
            assert int(sizes.sum()) == coo.nnz

    @given(coo=coo_matrices(), b=st.sampled_from(DIAG_SIZES))
    @settings(max_examples=40, deadline=None)
    def test_bcsd_dec_blocked_part_in_bounds(self, coo, b):
        dec = build_format(coo, "bcsd_dec", b, with_values=False)
        for part in dec.submatrices():
            if part.kind == "bcsd":
                assert (part.bcol_ind >= 0).all()
                assert (part.bcol_ind + b <= coo.ncols).all()

    @given(coo=coo_matrices())
    @settings(max_examples=30, deadline=None)
    def test_to_dense_round_trips(self, coo):
        expected = coo.to_dense()
        for kind, block in [
            ("csr", None), ("bcsr", (2, 2)), ("bcsd", 3), ("vbl", None)
        ]:
            fmt = build_format(coo, kind, block)
            np.testing.assert_allclose(fmt.to_dense(), expected)


class TestXAccessStream:
    @given(coo=coo_matrices(), block=st.sampled_from(RECT_BLOCKS))
    @settings(max_examples=30, deadline=None)
    def test_stream_length_matches_blocks(self, coo, block):
        for kind in ("bcsr", "bcsr_dec"):
            fmt = build_format(coo, kind, block, with_values=False)
            for part in fmt.submatrices():
                assert len(part.x_access_stream()) == part.n_blocks

    @given(coo=coo_matrices())
    @settings(max_examples=30, deadline=None)
    def test_line_ids_nonnegative(self, coo):
        fmt = build_format(coo, "bcsd", 4, with_values=False)
        lines = fmt.x_access_stream().line_ids(8)
        if len(lines):
            assert lines.min() >= 0
