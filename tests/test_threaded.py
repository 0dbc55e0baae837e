"""Tests for real multithreaded SpMV (row-block slices + thread pool)."""

import numpy as np
import pytest

from repro.errors import FormatError, ModelError
from repro.formats import COOMatrix, build_format
from repro.parallel.threaded import ThreadedSpMV, row_block_slice

from .conftest import make_random_coo


@pytest.fixture(scope="module")
def coo():
    rng = np.random.default_rng(71)
    n, m, nnz = 600, 500, 8000
    return COOMatrix(
        n, m, rng.integers(0, n, nnz), rng.integers(0, m, nnz),
        rng.standard_normal(nnz),
    )


@pytest.fixture(scope="module")
def x(coo):
    return np.random.default_rng(72).standard_normal(coo.ncols)


class TestRowBlockSlice:
    @pytest.mark.parametrize("kind,block,height", [
        ("csr", None, 1), ("bcsr", (3, 2), 3), ("bcsd", 4, 4),
        ("vbl", None, 1),
    ])
    def test_slices_partition_the_product(self, coo, x, kind, block, height):
        fmt = build_format(coo, kind, block)
        full = fmt.spmv(x)
        n_rows = fmt.n_block_rows
        cut = n_rows // 3
        for lo, hi in [(0, cut), (cut, n_rows)]:
            piece = row_block_slice(fmt, lo, hi)
            seg = piece.spmv(x)
            start = lo * height
            np.testing.assert_allclose(
                seg, full[start : start + seg.shape[0]], atol=1e-12
            )

    def test_empty_slice(self, coo, x):
        fmt = build_format(coo, "csr")
        piece = row_block_slice(fmt, 5, 5)
        assert piece.nrows == 0
        assert piece.spmv(x).shape == (0,)

    def test_shares_memory(self, coo):
        fmt = build_format(coo, "csr")
        piece = row_block_slice(fmt, 0, 10)
        assert np.shares_memory(piece.col_ind, fmt.col_ind)
        assert np.shares_memory(piece.values, fmt.values)

    def test_bounds_checked(self, coo):
        fmt = build_format(coo, "csr")
        with pytest.raises(ModelError):
            row_block_slice(fmt, -1, 5)
        with pytest.raises(ModelError):
            row_block_slice(fmt, 0, fmt.n_block_rows + 1)

    def test_unsupported_kind(self, coo):
        # A decomposed format is sliced pass by pass (ThreadedSpMV), never
        # as a whole.
        fmt = build_format(coo, "bcsr_dec", (2, 2))
        with pytest.raises(ModelError):
            row_block_slice(fmt, 0, 1)

    def test_last_slice_row_overhang(self):
        """A BCSR slice ending at the ragged last block row keeps the true
        row count."""
        coo = make_random_coo(10, 8, 40, seed=73)
        fmt = build_format(coo, "bcsr", (3, 2))
        piece = row_block_slice(fmt, 2, fmt.n_block_rows)
        assert piece.nrows == 10 - 6  # rows 6..9


class TestThreadedSpMV:
    @pytest.mark.parametrize("kind,block", [
        ("csr", None), ("bcsr", (3, 2)), ("bcsr_dec", (2, 2)),
        ("bcsd", 4), ("bcsd_dec", 3), ("vbl", None),
    ])
    @pytest.mark.parametrize("nthreads", [1, 2, 4])
    def test_matches_sequential(self, coo, x, kind, block, nthreads):
        fmt = build_format(coo, kind, block)
        mv = ThreadedSpMV(fmt, nthreads)
        np.testing.assert_allclose(mv(x), fmt.spmv(x), atol=1e-10)

    def test_reusable_and_accumulating(self, coo, x):
        fmt = build_format(coo, "bcsr", (2, 2))
        mv = ThreadedSpMV(fmt, 2)
        base = np.ones(coo.nrows)
        out = mv(x, out=base.copy())
        np.testing.assert_allclose(out, 1.0 + fmt.spmv(x), atol=1e-10)
        # Second application with the same plan.
        np.testing.assert_allclose(mv(x), fmt.spmv(x), atol=1e-10)

    def test_more_threads_than_rows(self, x):
        coo = make_random_coo(3, 500, 30, seed=74)
        fmt = build_format(coo, "csr")
        mv = ThreadedSpMV(fmt, 8)
        np.testing.assert_allclose(mv(x), fmt.spmv(x), atol=1e-12)

    def test_rejects_structure_only(self, coo):
        fmt = build_format(coo, "csr", with_values=False)
        with pytest.raises(FormatError):
            ThreadedSpMV(fmt, 2)

    def test_rejects_bad_inputs(self, coo, x):
        fmt = build_format(coo, "csr")
        with pytest.raises(ModelError):
            ThreadedSpMV(fmt, 0)
        mv = ThreadedSpMV(fmt, 2)
        with pytest.raises(FormatError):
            mv(np.ones(coo.ncols + 1))
