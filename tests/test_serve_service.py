"""Tests for the thread-safe AdvisorService (advise, cache, stats)."""

from collections import Counter

import pytest

from repro.serve.service import (
    AdviseOptions,
    AdvisorService,
    Recommendation,
    resolve_matrix,
)

from .conftest import make_random_coo


@pytest.fixture()
def service(machine, shared_profile_cache, tmp_path):
    return AdvisorService(
        machine, cache_dir=tmp_path, profile_cache=shared_profile_cache
    )


@pytest.fixture(scope="module")
def small():
    return make_random_coo(200, 200, 2000, seed=3, with_values=False)


class TestResolveMatrix:
    def test_coo_passthrough(self, small):
        assert resolve_matrix(small) is small

    def test_suite_name_and_index(self):
        by_name = resolve_matrix("dense")
        by_idx = resolve_matrix(1)
        by_digit = resolve_matrix("1")
        assert by_name.nnz == by_idx.nnz == by_digit.nnz

    def test_mtx_path(self, tmp_path, small):
        from repro.matrices.mmio import write_matrix_market

        path = tmp_path / "m.mtx"
        write_matrix_market(path, small)
        assert resolve_matrix(path).nnz == small.nnz

    def test_unknown_suite_raises(self):
        with pytest.raises(KeyError):
            resolve_matrix("no-such-matrix")


class TestAdvise:
    def test_returns_ranked_recommendation(self, service, small):
        rec = service.advise(small)
        assert isinstance(rec, Recommendation)
        assert rec.nnz == small.nnz
        assert not rec.cache_hit
        preds = [r.predicted_s for r in rec.ranking]
        assert preds == sorted(preds)
        assert rec.best is rec.ranking[0]
        assert rec.n_candidates_evaluated <= rec.n_candidates_total / 3

    def test_cold_advise_hashes_the_pattern_once(
        self, service, small, monkeypatch
    ):
        """The store key's fingerprint is handed to the feature pass, so a
        cold answer hashes the pattern once, with an unchanged payload."""
        import repro.serve.features as features

        real = features.matrix_fingerprint
        calls = []

        def counted(coo):
            calls.append(coo)
            return real(coo)

        monkeypatch.setattr(features, "matrix_fingerprint", counted)
        rec = service.advise(small)
        assert not rec.cache_hit
        assert calls == [small]
        assert rec.fingerprint == rec.features["fingerprint"] == real(small)

    def test_cold_advise_builds_each_coarsening_once(
        self, service, monkeypatch
    ):
        """The feature probes and the planner of one unsampled upload share
        its coarsenings: every ``R_h @ A`` and ``R_b @ shifted`` is one
        product, counted by its shape (distinct for every height here)."""
        import numpy as np

        import repro.formats.coarsen as coarsen
        from repro.formats.coo import COOMatrix

        n = 240  # dense 6 x 6 diagonal blocks plus the superdiagonal
        rows = np.concatenate([np.repeat(np.arange(n), 6), np.arange(n - 1)])
        cols = np.concatenate([
            np.repeat(np.arange(n) // 6 * 6, 6) + np.tile(np.arange(6), n),
            np.arange(1, n),
        ])
        coo = COOMatrix(n, n, rows, cols)
        real = coarsen.row_aggregation
        built = Counter()

        class Counted:
            def __init__(self, agg):
                self.agg = agg

            def __matmul__(self, src):
                out = self.agg @ src
                built[out.shape] += 1
                return out

        monkeypatch.setattr(
            coarsen, "row_aggregation", lambda k, h: Counted(real(k, h))
        )
        rec = service.advise(coo)
        assert not rec.cache_hit and not rec.features["sampled"]
        planned = {(r.kind, r.block) for r in rec.ranking}
        # The pool plans heights and sizes the probes built too.
        assert {("bcsr", (2, 2)), ("bcsr", (6, 1)), ("bcsd", 2)} <= planned
        a_cols, shifted_cols = n, 2 * n - 1
        for h in (2, 3, 4, 6, 8):
            assert built[(-(-n // h), a_cols)] == 1
        for b in (2, 4, 6, 8):
            assert built[(-(-n // b), shifted_cols)] == 1
        assert max(built.values()) == 1

    def test_no_prune_evaluates_everything(self, service, small):
        rec = service.advise(small, prune=False)
        assert rec.n_candidates_evaluated == rec.n_candidates_total
        assert rec.pruned_structures == {}

    def test_cache_hit_on_second_call(self, service, small):
        first = service.advise(small)
        second = service.advise(small)
        assert not first.cache_hit
        assert second.cache_hit
        assert [r.to_payload() for r in second.ranking] == [
            r.to_payload() for r in first.ranking
        ]
        stats = service.stats()
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 1
        assert stats["cache_entries"] == 1
        assert stats["mean_latency_s"] > 0

    def test_options_key_cache_separation(self, service, small):
        service.advise(small, model="overlap")
        rec = service.advise(small, model="mem")
        assert not rec.cache_hit  # different options -> different entry
        assert service.stats()["cache_entries"] == 2

    def test_use_cache_false_recomputes(self, service, small):
        service.advise(small)
        rec = service.advise(small, use_cache=False)
        assert not rec.cache_hit

    def test_memoryless_service(self, machine, shared_profile_cache, small):
        service = AdvisorService(
            machine, cache_dir=None, profile_cache=shared_profile_cache
        )
        rec = service.advise(small)
        assert not rec.cache_hit
        stats = service.stats()
        assert not stats["persistent_cache"]
        assert stats["cache_entries"] == 0

    def test_mem_model_ranking_is_scalar_only(self, service, small):
        rec = service.advise(small, model="mem")
        assert all(r.impl == "scalar" for r in rec.ranking)

    def test_error_counted(self, service):
        with pytest.raises(KeyError):
            service.advise("no-such-matrix")
        assert service.stats()["errors"] == 1


class TestAdviseDenseParity:
    def test_matches_exhaustive_autotuner(
        self, machine, shared_profile_cache, tmp_path
    ):
        """Acceptance: pruned advise on 'dense' picks exactly the candidate
        the exhaustive AutoTuner selects with the OVERLAP model."""
        from repro.core.selection import AutoTuner

        coo = resolve_matrix("dense")
        tuner = AutoTuner(machine, profile_cache=shared_profile_cache)
        exhaustive = tuner.select(coo, precision="dp", model="overlap")
        service = AdvisorService(
            machine, cache_dir=tmp_path, profile_cache=shared_profile_cache
        )
        rec = service.advise("dense", model="overlap")
        assert rec.best.candidate == exhaustive.candidate
        assert rec.best.predicted_s == pytest.approx(
            exhaustive.predictions["overlap"]
        )


class TestRecommendationPayload:
    def test_round_trip(self, service, small):
        rec = service.advise(small)
        back = Recommendation.from_payload(rec.to_payload(), cache_hit=True)
        assert back.fingerprint == rec.fingerprint
        assert back.options == rec.options
        assert back.cache_hit
        assert back.best.candidate == rec.best.candidate
        assert isinstance(back.best.block, (tuple, int, type(None)))

    def test_options_cache_key_distinguishes(self):
        a = AdviseOptions()
        b = AdviseOptions(prune=False)
        c = AdviseOptions(model="mem")
        assert len({a.cache_key(), b.cache_key(), c.cache_key()}) == 3
