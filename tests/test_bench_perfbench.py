"""BENCH_perfbench.json: the checked-in record of alternating perfbench pairs.

A speed claim counts only if this file backs it, so its shape is pinned
here and every summary it states is recomputed from the raw pairs it
carries: a hand-edited median, a dropped pair or a claim the pairs do not
support fails the suite.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCH_perfbench.json").read_text())
END_TO_END = {
    m["name"]: m
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}
WORKLOADS = [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text()
)["workloads"]]


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1}


def _better(metric, change, parent):
    if END_TO_END[metric]["better"] == "lower":
        return change < parent
    return change > parent


def test_header_names_host_and_commits():
    assert BENCH["schema"] == 1
    assert BENCH["host"]["nproc"] >= 1
    assert BENCH["host"]["cpu_model"]
    commits = BENCH["commits"]
    for key in ("parent", "parent_src_tree", "change_src_tree"):
        assert len(commits[key]) == 40, key
    assert commits["parent_src_tree"] != commits["change_src_tree"]
    assert "--seconds 20" in BENCH["command"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_pairs_and_summaries(workload):
    entry = BENCH["workloads"][workload]
    pairs = entry["pairs"]
    claimed = BENCH["claim"]["workload"] == workload
    assert len(pairs) == entry["n_pairs"] >= (10 if claimed else 3)
    assert entry["seeds"] == [p["seed"] for p in pairs]
    assert len(set(entry["seeds"])) == len(pairs)
    # Which side runs first alternates from pair to pair.
    firsts = [p["first"] for p in pairs]
    assert all(a != b for a, b in zip(firsts, firsts[1:]))
    for pair in pairs:
        for side in ("parent", "change"):
            run = pair[side]
            assert run["correct"] is True
            assert run["failed"] == 0 < run["attempted"]
            assert set(run["metrics"]) == set(END_TO_END)
    assert set(entry["metrics"]) == set(END_TO_END)
    for metric, summary in entry["metrics"].items():
        assert summary["bound"] == END_TO_END[metric]["bound"]
        for side in ("parent", "change"):
            values = [p[side]["metrics"][metric] for p in pairs]
            assert summary[side] == pytest.approx(_quartiles(values))
        wins = sum(
            _better(metric, p["change"]["metrics"][metric],
                    p["parent"]["metrics"][metric])
            for p in pairs
        )
        assert summary["change_wins"] == wins


def test_claimed_metric_beats_the_parent():
    """The claim rule: the change wins at least 9/10 of the pairs and its
    median beats the parent's by more than the parent's own IQR."""
    claim = BENCH["claim"]
    summary = BENCH["workloads"][claim["workload"]]["metrics"][claim["metric"]]
    n_pairs = BENCH["workloads"][claim["workload"]]["n_pairs"]
    parent, change = summary["parent"], summary["change"]
    assert summary["change_wins"] >= 0.9 * n_pairs
    if END_TO_END[claim["metric"]]["better"] == "lower":
        assert parent["median"] - change["median"] > parent["iqr"]
    else:
        assert change["median"] - parent["median"] > parent["iqr"]


def test_no_metric_worse_than_its_bound():
    """The acceptance rule, next to the record it judges: on no workload
    is an end-to-end metric's change median worse than the parent's by
    more than its bound times the parent's median."""
    worse = []
    for workload, entry in BENCH["workloads"].items():
        for metric, summary in entry["metrics"].items():
            parent = summary["parent"]["median"]
            change = summary["change"]["median"]
            loss = change - parent
            if END_TO_END[metric]["better"] == "higher":
                loss = -loss
            if loss > summary["bound"] * parent:
                worse.append(f"{workload} {metric}: {parent:.4g} -> {change:.4g}")
    assert not worse, worse
