"""Tests of the benchmark itself: every check it makes must be able to fail.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import config  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from harness import ROOT, SRC, Metrics  # noqa: E402
from workloads import Outcome, score_cold, score_hot, score_sweep  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ------------------------------- the spec -------------------------------- #
def test_benchmark_json_shape():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert BENCH["paths"] == ["perfbench"]
    assert 1 <= BENCH["run_seconds"] <= 60
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_every_layer_metric_names_what_it_should_move():
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    assert set(layers.MOVES) == per_layer
    for metric, (where, moves) in layers.MOVES.items():
        assert set(where) <= set(workloads.WORKLOADS), metric
        assert set(moves) <= end_to_end, metric


# ---------------------------- seeded inputs ------------------------------ #
def test_cold_inputs_are_a_pure_function_of_the_seed():
    a = inputs.digest(r.body for r in inputs.cold_requests(3, 1))
    b = inputs.digest(r.body for r in inputs.cold_requests(3, 1))
    c = inputs.digest(r.body for r in inputs.cold_requests(4, 1))
    assert a == b != c


def test_cold_rounds_cover_every_class_and_the_whole_ladder():
    rounds = 3
    sizes = []
    for rnd in range(rounds):
        plan = inputs.cold_round_plan(9, rnd, rounds)
        assert sorted(p[0] for p in plan) == sorted(config.COLD_CLASSES)
        assert sorted(p[2] for p in plan) == ["dp"] * 4 + ["sp"] * 4
        sizes += [p[1] for p in plan]
    assert sorted(sizes) == inputs.cold_sizes(rounds).tolist()
    assert [p[:2] for p in inputs.cold_round_plan(9, 1, rounds)] != [
        p[:2] for p in inputs.cold_round_plan(9, 0, rounds)
    ]


def test_cold_uploads_are_pairwise_distinct_by_fingerprint():
    sys.path.insert(0, str(SRC))
    from repro.formats.coo import COOMatrix
    from repro.serve.features import matrix_fingerprint

    reqs = inputs.cold_requests(5, 1) + inputs.cold_requests(6, 1)
    fps = {
        matrix_fingerprint(COOMatrix(r.nrows, r.ncols, r.rows, r.cols, None))
        for r in reqs
    }
    assert len(fps) == len(reqs)
    assert all(len(r.body) <= config.COLD_MAX_BODY_BYTES for r in reqs)


def test_hot_traffic_is_seeded_and_holds_the_zipf_mix():
    counts = inputs.zipf_block_counts()
    assert sum(counts) == config.HOT_BLOCK
    assert counts == sorted(counts, reverse=True) and min(counts) >= 1
    seq = inputs.hot_sequence(7, 1, config.HOT_BLOCK)
    assert [seq.count(m) for m in config.HOT_MATRICES] == counts
    assert seq == inputs.hot_sequence(7, 1, config.HOT_BLOCK)
    assert seq != inputs.hot_sequence(8, 1, config.HOT_BLOCK)
    due = inputs.poisson_due_times(7, 6.0, 60)
    assert due == inputs.poisson_due_times(7, 6.0, 60)
    assert due != inputs.poisson_due_times(8, 6.0, 60)
    assert due == sorted(due) and len(due) == 60
    assert abs(due[-1] - inputs.poisson_due_times(8, 6.0, 60)[-1]) < 1e-9
    assert 8.0 < due[-1] < 12.0


def test_sweep_order_puts_the_long_pole_first():
    order = inputs.sweep_order(2, 0)
    assert order[0] == config.SWEEP_LONG_POLE
    assert sorted(order[1:]) == sorted(config.SWEEP_REST)
    assert order == inputs.sweep_order(2, 0)


# ------------------------------ failures --------------------------------- #
def _cold_payload(fp, kind="csr", block=None, impl="scalar", hit=False):
    return {"fingerprint": fp, "cache_hit": hit,
            "best": {"kind": kind, "block": block, "impl": impl}}


def test_tampered_cold_top1_is_a_failure():
    results = [(200, _cold_payload("a")), (200, _cold_payload("b", "bcsr", [2, 2]))]
    expected = {0: ("csr", None, "scalar"), 1: ("bcsr", (2, 1), "scalar")}
    out = Outcome()
    score_cold(out, results, expected)
    assert (out.attempted, out.failed, out.wrong) == (2, 1, 1)
    assert out.invalid is None


@pytest.mark.parametrize("status", [503, 504, 500, 0])
def test_shed_timeout_and_dropped_uploads_are_failures(status):
    results = [(200, _cold_payload("a")), (status, None)]
    out = Outcome()
    score_cold(out, results, {0: ("csr", None, "scalar")})
    assert out.failed == 1 and out.failed / out.attempted > 0


def test_cold_run_with_a_cache_hit_is_invalid():
    results = [(200, _cold_payload("a", hit=True))]
    out = Outcome()
    score_cold(out, results, {0: ("csr", None, "scalar")})
    assert "hit_ratio" in out.invalid


def test_cold_run_with_repeated_uploads_is_invalid():
    results = [(200, _cold_payload("a")), (200, _cold_payload("a"))]
    out = Outcome()
    score_cold(out, results, {i: ("csr", None, "scalar") for i in range(2)})
    assert "distinct" in out.invalid


def _hot_payload(rank_kind="csr", hit=True):
    return {"fingerprint": "f", "cache_hit": hit,
            "best": {"kind": "csr", "block": None, "impl": "scalar"},
            "ranking": [{"kind": rank_kind}]}


def test_hot_answers_must_repeat_the_warming_pass():
    answers = {"dense": workloads._answer(_hot_payload())}
    out = Outcome()
    ratio = score_hot(out, [
        ("dense", 200, _hot_payload()),
        ("dense", 200, _hot_payload(rank_kind="bcsr")),
        ("dense", 503, None),
        ("dense", 504, None),
        ("dense", 0, None),
    ], answers)
    assert (out.attempted, out.failed, out.wrong) == (5, 4, 1)
    assert ratio == 1.0 and out.invalid is None


def test_hot_run_with_a_cache_miss_is_invalid():
    answers = {"dense": workloads._answer(_hot_payload())}
    out = Outcome()
    ratio = score_hot(out, [("dense", 200, _hot_payload(hit=False))], answers)
    assert ratio == 0.0 and "hit_ratio" in out.invalid


def test_wrong_sweep_sha_fails_every_shard_of_the_pass():
    good = {"missing": [], "sha": config.SWEEP_SHA}
    out = Outcome()
    score_sweep(out, [good, {"missing": [], "sha": "0" * 16},
                      {"missing": [23], "sha": config.SWEEP_SHA}])
    n = 1 + len(config.SWEEP_REST)
    assert out.attempted == 3 * n
    assert out.failed == n + 1 and out.wrong == 1


def test_reference_top1_catches_a_tampered_answer():
    """The real reference path (in-process exhaustive batched select)."""
    req = inputs.cold_requests(1, 1)[0]
    expected = workloads._reference_cold([req], [0], ROOT / "no-such-cache")
    kind, block, impl = expected[0]
    right = _cold_payload("x", kind, list(block) if block else block, impl)
    wrong = _cold_payload("x", "bcsd" if kind != "bcsd" else "csr", 4, impl)
    for payload, failed in ((right, 0), (wrong, 1)):
        out = Outcome()
        score_cold(out, [(200, payload)], expected)
        assert out.failed == failed


# ----------------------------- result line -------------------------------- #
def test_result_line_reports_failures(monkeypatch, capsys):
    def stub(seed, seconds, trace, workdir):
        out = Outcome()
        out.metrics = Metrics()
        for m in BENCH["end_to_end"]:
            out.metrics.put(m["name"], 1.5, m["unit"], 3)
        out.attempted, out.failed, out.wrong = 4, 2, 1
        return out

    monkeypatch.setitem(run.WORKLOADS, "sweep", stub)
    rc = run.main(["--workload", "sweep", "--seed", "1", "--seconds", "1"])
    line = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(line)
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False and result["failed"] == 2
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


def test_invalid_run_prints_no_result(monkeypatch, capsys):
    def stub(seed, seconds, trace, workdir):
        out = Outcome()
        out.invalid = "advise-hot store.hit_ratio is 0.500, not 1"
        return out

    monkeypatch.setitem(run.WORKLOADS, "advise-hot", stub)
    rc = run.main(["--workload", "advise-hot", "--seed", "1", "--seconds", "1"])
    assert rc == 3 and capsys.readouterr().out == ""


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "advise-cold",
         "--seed", "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, q = workloads.tail(range(100))
    assert q == 90.0 and 88.0 < value < 91.0
    assert workloads.tail([3, 1, 2]) == (3.0, 100.0)
