"""Tests for the t_b / nof profiling machinery (paper eq. 4 methodology)."""

import dataclasses
import json
from hashlib import sha256

import pytest

from repro.core.profiling import (
    BlockProfile,
    ProfileCache,
    ProfileStore,
    dense_coo,
    profile_machine,
    profile_to_payload,
)
from repro.errors import ProfileError
from repro.formats import BCSRMatrix, CSRMatrix
from repro.serve.store import profile_token
from repro.types import Impl, Precision


class TestDenseCoo:
    def test_shape_and_count(self):
        coo = dense_coo(5)
        assert coo.nnz == 25
        assert coo.shape == (5, 5)

    def test_canonical_order(self):
        coo = dense_coo(4)
        assert coo.rows.tolist() == sorted(coo.rows.tolist())


class TestProfileContents:
    def test_covers_whole_fixed_size_space(self, profile_dp):
        keys = set(profile_dp.t_b)
        # CSR + 19 rectangular shapes x 2 impls + 7 diagonal sizes x 2 impls
        assert (("csr", None), Impl.SCALAR) in keys
        assert (("bcsr", (2, 2)), Impl.SCALAR) in keys
        assert (("bcsr", (2, 2)), Impl.SIMD) in keys
        assert (("bcsd", 8), Impl.SIMD) in keys
        assert len(keys) == 1 + 19 * 2 + 7 * 2

    def test_all_positive(self, profile_dp):
        assert all(v > 0 for v in profile_dp.t_b.values())
        assert all(v >= 0 for v in profile_dp.nof.values())

    def test_nof_below_one(self, profile_dp):
        """nof is the non-overlapped *fraction* of compute: on a streaming
        dense profile it cannot plausibly exceed ~1."""
        assert all(v <= 1.2 for v in profile_dp.nof.values())

    def test_bigger_blocks_cost_more(self, profile_dp):
        t = profile_dp.t_b
        assert (
            t[(("bcsr", (2, 4)), Impl.SCALAR)]
            > t[(("bcsr", (1, 2)), Impl.SCALAR)]
        )

    def test_csr_element_cheaper_than_any_block(self, profile_dp):
        t_elem = profile_dp.t_b[(("csr", None), Impl.SCALAR)]
        t_blk = profile_dp.t_b[(("bcsr", (2, 2)), Impl.SCALAR)]
        assert t_elem < t_blk  # one element vs a 4-element block

    def test_lookup_helpers(self, profile_dp, small_coo):
        csr = CSRMatrix.from_coo(small_coo, with_values=False)
        assert profile_dp.block_time(csr, Impl.SCALAR) > 0
        assert profile_dp.nof_factor(csr, Impl.SCALAR) >= 0

    def test_lookup_missing_raises(self, profile_dp, small_coo):
        bcsr = BCSRMatrix.from_coo(small_coo, (8, 8), with_values=False)
        with pytest.raises(ProfileError):
            profile_dp.block_time(bcsr, Impl.SCALAR)  # 64 elems: unprofiled

    def test_precisions_differ(self, profile_dp, profile_sp):
        key = (("bcsr", (2, 2)), Impl.SCALAR)
        assert profile_dp.t_b[key] != profile_sp.t_b[key]


class TestMethodologyGuards:
    def test_small_profile_must_fit_l1(self, machine):
        with pytest.raises(ProfileError):
            profile_machine(machine, "dp", small_n=400)

    def test_large_profile_must_exceed_l2(self, machine):
        with pytest.raises(ProfileError):
            profile_machine(machine, "dp", large_n=100)


class TestProfileCache:
    def test_caches_by_machine_and_precision(self, machine):
        cache = ProfileCache()
        a = cache.get(machine, "dp")
        b = cache.get(machine, "dp")
        c = cache.get(machine, "sp")
        assert a is b
        assert a is not c
        assert isinstance(a, BlockProfile)

    @pytest.mark.parametrize("kind", ["cache", "store"])
    def test_freed_machine_id_never_serves_stale_profile(
        self, machine, kind, tmp_path, monkeypatch
    ):
        """A machine created after another was freed may reuse its id();
        the in-memory layer must still answer for the machine it was
        asked about."""
        import repro.core.profiling as profiling

        def named_profile(m, precision, **_):
            return BlockProfile(
                machine_name=m.name, precision=Precision.coerce(precision)
            )

        monkeypatch.setattr(profiling, "profile_machine", named_profile)
        cache = ProfileCache() if kind == "cache" else ProfileStore(tmp_path)
        # Cache levels built up front, so each loop turn allocates exactly
        # one machine and CPython hands it the freed one's address.
        l2s = [
            dataclasses.replace(machine.l2, size_bytes=machine.l2.size_bytes * k)
            for k in range(2, 42)
        ]
        for k, l2 in enumerate(l2s):
            m = dataclasses.replace(machine, name=f"m{k}", l2=l2)
            assert cache.get(m, "dp").machine_name == f"m{k}"
            del m


class TestCalibrationPins:
    """The calibrated profiles are pinned byte for byte: every cached
    advisor entry and on-disk profile is keyed by these values, so any
    change to the calibration path must leave them untouched."""

    @pytest.mark.parametrize(
        "precision,payload_sha,token",
        [
            ("sp", "b54cdd10f8bdd4e1", "9ba5f7fa79bc6346"),
            ("dp", "f0b18385a0c207f6", "ed067383c4d9cf0d"),
        ],
    )
    def test_core2_profiles_are_pinned(
        self, precision, payload_sha, token, profile_sp, profile_dp
    ):
        profile = profile_sp if precision == "sp" else profile_dp
        payload = json.dumps(profile_to_payload(profile), sort_keys=True)
        assert sha256(payload.encode()).hexdigest()[:16] == payload_sha
        assert profile_token(profile) == token


class TestLatencyCalibration:
    """``calibrate_latency`` reads the x-miss count the simulation already
    estimated instead of estimating the same stream twice."""

    @pytest.mark.parametrize(
        "precision,latency_hex",
        [("sp", "0x1.3a5d5fee67d17p-25"), ("dp", "0x1.3a7b200ff0904p-25")],
    )
    def test_latency_cost_is_pinned_and_estimated_once(
        self, machine, monkeypatch, precision, latency_hex
    ):
        import repro.machine.cache as cache
        import repro.machine.executor as executor

        real = cache.estimate_x_access_misses
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1:])
            return real(*args, **kwargs)

        monkeypatch.setattr(cache, "estimate_x_access_misses", counted)
        monkeypatch.setattr(executor, "estimate_x_access_misses", counted)
        profile = profile_machine(machine, precision, calibrate_latency=True)
        assert profile.latency_cost_s.hex() == latency_hex
        assert len(calls) == 1
