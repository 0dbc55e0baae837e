"""Tests for the to_coo extraction API: every format hands back its COO."""

import numpy as np
import pytest

from repro.formats import COOMatrix, build_format


def make_coo(seed=41, n=50, m=44, nnz=400):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.5, 2.0, nnz) * rng.choice([-1.0, 1.0], nnz)
    return COOMatrix(
        n, m, rng.integers(0, n, nnz), rng.integers(0, m, nnz), vals
    )


class TestToCoo:
    @pytest.mark.parametrize("kind,block", [
        ("csr", None), ("bcsr", (2, 3)), ("bcsr_dec", (2, 2)),
        ("bcsd", 4), ("bcsd_dec", 3), ("vbl", None),
    ])
    def test_exact_round_trip(self, kind, block):
        coo = make_coo(seed=44)
        fmt = build_format(coo, kind, block)
        assert fmt.to_coo() == coo

    def test_identity_on_coo(self):
        coo = make_coo(seed=45)
        assert coo.to_coo() is coo
