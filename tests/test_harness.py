"""Tests for sweep harness internals and Table II config pools."""

import dataclasses
import json

import pytest

from repro.bench.experiments import _config_records
from repro.bench.harness import (
    MatrixSweep,
    SweepConfig,
    SweepRecord,
    SweepResult,
    load_or_run_sweep,
)
from repro.core import Candidate, select_with_model
from repro.engine import ShardStore
from repro.types import Impl


def _rec(kind, block, impl, precision="dp", nthreads=1, t=1.0, preds=None):
    return SweepRecord(
        kind=kind, block=block, impl=impl, precision=precision,
        nthreads=nthreads, t_real=t, t_mem=t * 0.8, t_comp=t * 0.3,
        t_latency=0.0, ws_bytes=1000, padding_ratio=1.0, n_blocks=10,
        predictions=preds or {},
    )


@pytest.fixture()
def matrix_sweep():
    m = MatrixSweep(
        idx=1, name="t", domain="test", geometry=False, special=False,
        nrows=10, ncols=10, nnz=50,
    )
    m.records = [
        _rec("csr", None, "scalar", t=1.0,
             preds={"mem": 1.0, "memcomp": 1.2, "overlap": 1.1}),
        _rec("bcsr", (2, 2), "scalar", t=0.9,
             preds={"mem": 0.8, "memcomp": 1.0, "overlap": 0.95}),
        _rec("bcsr", (2, 2), "simd", t=0.85,
             preds={"mem": 0.8, "memcomp": 0.9, "overlap": 0.84}),
        _rec("vbl", None, "scalar", t=0.95, preds={"mem": 0.7}),
        _rec("bcsr", (2, 2), "scalar", precision="sp", t=0.5,
             preds={"mem": 0.4}),
        _rec("bcsr", (2, 2), "scalar", nthreads=2, t=0.6),
    ]
    return m


class TestSelect:
    def test_filters_compose(self, matrix_sweep):
        assert len(matrix_sweep.select(precision="dp", nthreads=1)) == 4
        assert len(matrix_sweep.select(precision="sp")) == 1
        assert len(matrix_sweep.select(nthreads=2)) == 1
        assert len(matrix_sweep.select(impls=("simd",))) == 1
        assert len(matrix_sweep.select(kinds=("csr", "vbl"))) == 2

    def test_candidate_reconstruction(self, matrix_sweep):
        rec = matrix_sweep.records[1]
        cand = rec.candidate
        assert cand == Candidate("bcsr", (2, 2), Impl.SCALAR)


class TestConfigRecords:
    def test_non_simd_pool_is_all_scalar(self, matrix_sweep):
        pool = _config_records(matrix_sweep, "dp", simd=False)
        assert {r.impl for r in pool} == {"scalar"}
        assert {r.kind for r in pool} == {"csr", "bcsr", "vbl"}

    def test_simd_pool_drops_vbl_and_uses_simd_blocks(self, matrix_sweep):
        pool = _config_records(matrix_sweep, "dp", simd=True)
        kinds = {(r.kind, r.impl) for r in pool}
        assert ("csr", "scalar") in kinds
        assert ("bcsr", "simd") in kinds
        assert all(r.kind != "vbl" for r in pool)
        assert all(r.impl == "simd" for r in pool if r.kind == "bcsr")


class TestModelSelection:
    def test_mem_restricted_to_scalar_and_no_vbl(self, matrix_sweep):
        records = matrix_sweep.select(precision="dp", nthreads=1)
        sel = select_with_model(records, "mem")
        # VBL has the lowest mem prediction (0.7) but is excluded; the
        # SIMD record is excluded for MEM too.
        assert sel.kind == "bcsr"
        assert sel.impl == "scalar"

    def test_overlap_may_pick_simd(self, matrix_sweep):
        records = matrix_sweep.select(precision="dp", nthreads=1)
        sel = select_with_model(records, "overlap")
        assert sel.impl == "simd"


class TestSweepConfig:
    def test_version_in_fingerprint(self):
        a = SweepConfig(version=1).fingerprint()
        b = SweepConfig(version=2).fingerprint()
        assert a != b

    def test_defaults(self):
        cfg = SweepConfig()
        assert cfg.precisions == ("sp", "dp")
        assert cfg.thread_counts == (1, 2, 4)
        assert cfg.max_block_elems == 8
        assert cfg.suite_indices is None

    def test_suite_indices_in_fingerprint(self):
        full = SweepConfig()
        subset = SweepConfig(suite_indices=(1, 27, 30))
        assert full.fingerprint() != subset.fingerprint()
        assert subset.fingerprint() != SweepConfig(
            suite_indices=(1, 27)
        ).fingerprint()

    def test_entries_subset(self):
        cfg = SweepConfig(suite_indices=(30, 1))
        names = [e.name for e in cfg.entries()]
        assert names == ["stomach", "dense"]
        assert len(SweepConfig().entries()) == 30

    def test_entries_unknown_index(self):
        with pytest.raises(KeyError):
            SweepConfig(suite_indices=(99,)).entries()


def _stub_result(config):
    m = MatrixSweep(
        idx=1, name="stub", domain="test", geometry=False, special=False,
        nrows=4, ncols=4, nnz=8, records=[_rec("csr", None, "scalar")],
    )
    return SweepResult(config=config, matrices=[m], elapsed_s=1.0)


class TestSweepResultPersistence:
    def test_canonical_json_ignores_elapsed(self):
        a = _stub_result(SweepConfig())
        b = _stub_result(SweepConfig())
        b.elapsed_s = 99.0
        assert a.canonical_json() == b.canonical_json()


#: Real sweeps small enough to run in well under a second: dense (suite
#: index 1), alone or with stomach (30), in one precision and thread count.
SMALL = SweepConfig(
    precisions=("dp",), thread_counts=(1,), max_block_elems=4,
    suite_indices=(1,),
)
SMALL_PAIR = dataclasses.replace(SMALL, suite_indices=(1, 30))


def _events(run_log, kind):
    return [
        e for e in map(json.loads, run_log.read_text().splitlines())
        if e["event"] == kind
    ]


class TestShardServedSweep:
    """The shard store is the sweep's only cache."""

    def test_fresh_recomputes_a_completed_config(self, tmp_path):
        load_or_run_sweep(SMALL, cache_dir=tmp_path)
        log = tmp_path / "fresh.jsonl"
        result = load_or_run_sweep(
            SMALL, cache_dir=tmp_path, resume=False, run_log=log
        )
        assert [e["shard"] for e in _events(log, "shard_finish")] == [1]
        assert _events(log, "shard_cached") == []
        assert result.matrices[0].name == "dense"


class TestCorruptCacheRecovery:
    def test_valid_cache_short_circuits(self, tmp_path):
        # A completed config is served from its shards: every shard is
        # cached, none starts, and the data are the first run's.
        first = load_or_run_sweep(
            SMALL_PAIR, cache_dir=tmp_path, run_log=tmp_path / "run1.jsonl"
        )
        log = tmp_path / "run2.jsonl"
        second = load_or_run_sweep(SMALL_PAIR, cache_dir=tmp_path, run_log=log)
        assert [e["shard"] for e in _events(log, "shard_cached")] == [1, 30]
        assert _events(log, "shard_start") == []
        assert second.canonical_json() == first.canonical_json()

    @pytest.mark.parametrize("garbage", [
        "", "{truncated", '{"config": {}}', '{"matrices": "nope"}',
    ])
    def test_corrupt_cache_reruns(self, tmp_path, garbage):
        store = ShardStore(tmp_path, SMALL)
        store.save(1, _stub_result(SMALL).matrices[0])
        store.shard_path(1).write_text(garbage)
        result = load_or_run_sweep(SMALL, cache_dir=tmp_path)
        assert result.matrices[0].name == "dense"
        # Bytes that do not parse are kept as evidence; a payload that
        # parses but is no shard of this config is stale and dropped.
        quarantined = tmp_path / "quarantine" / "shard_001.json"
        assert quarantined.exists() == (garbage in ("", "{truncated"))
        # The rerun rewrote a valid shard.
        assert store.load(1).name == "dense"
