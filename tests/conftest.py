"""Shared fixtures for the test suite."""

from __future__ import annotations

import http.client
import time

import numpy as np
import pytest

from repro.core.profiling import ProfileCache, profile_machine
from repro.formats import COOMatrix
from repro.machine import CORE2_XEON


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20090701)


@pytest.fixture(scope="session")
def machine():
    """The paper's testbed preset."""
    return CORE2_XEON


@pytest.fixture(scope="session")
def profile_dp(machine):
    """Calibrated dp block profile (session-scoped: profiling is slow)."""
    return profile_machine(machine, "dp")


@pytest.fixture(scope="session")
def profile_sp(machine):
    return profile_machine(machine, "sp")


@pytest.fixture(scope="session")
def shared_profile_cache(machine, profile_dp):
    """A ProfileCache pre-seeded with the session profile, so services in
    tests never re-calibrate (~0.4s each)."""
    cache = ProfileCache()
    cache.seed(machine, profile_dp)
    return cache


def make_random_coo(
    nrows: int, ncols: int, nnz: int, seed: int, with_values: bool = True
) -> COOMatrix:
    """Small random test matrix (duplicates merged, so nnz is approximate)."""
    r = np.random.default_rng(seed)
    rows = r.integers(0, nrows, nnz)
    cols = r.integers(0, ncols, nnz)
    values = r.standard_normal(nnz) if with_values else None
    return COOMatrix(nrows, ncols, rows, cols, values)


def keepalive_get_seconds(host: str, port: int, path: str, n: int = 40) -> float:
    """Seconds that ``n`` GETs of ``path`` take over one keep-alive
    ``http.client.HTTPConnection``, each answer read in full."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        t0 = time.perf_counter()
        for _ in range(n):
            conn.request("GET", path)
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 200
        return time.perf_counter() - t0
    finally:
        conn.close()


@pytest.fixture()
def small_coo():
    """A 60x45 random matrix with values."""
    return make_random_coo(60, 45, 420, seed=7)


@pytest.fixture()
def small_x(small_coo, rng):
    return np.random.default_rng(11).standard_normal(small_coo.ncols)
