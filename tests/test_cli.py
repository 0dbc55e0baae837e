"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.bench.harness import SweepConfig, run_sweep
from repro.engine import ShardStore

from .test_experiments import MINI_SUITE

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestParser:
    def test_rejects_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["tableX"])

    def test_requires_an_experiment(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_resume_and_fresh_conflict(self):
        with pytest.raises(SystemExit):
            cli.main(["sweep", "--resume", "--fresh"])


class TestConfigFromArgs:
    def _config(self, *argv):
        args = cli._build_parser().parse_args(["sweep", *argv])
        return cli._config_from_args(args)

    def test_defaults_to_full_config(self):
        assert self._config() == SweepConfig()

    def test_subset_flags(self):
        cfg = self._config(
            "--matrices", "1,27,30", "--precisions", "dp", "--threads", "1,2"
        )
        assert cfg.suite_indices == (1, 27, 30)
        assert cfg.precisions == ("dp",)
        assert cfg.thread_counts == (1, 2)

    @pytest.mark.parametrize("argv,message", [
        (["--jobs", "0"], "--jobs must be >= 1"),
        (["--matrices", "1,99"], "no suite entry 99"),
        (["--matrices", ""], "no suite entries"),
        (["--precisions", ""], "--precisions selected nothing"),
        (["--threads", ""], "--threads selected nothing"),
    ])
    def test_invalid_sweep_flags_fail_cleanly(self, capsys, tmp_path,
                                              argv, message):
        code = cli.main(
            ["sweep", *argv, "--cache-dir", str(tmp_path)]
        )
        assert code == 2
        assert message in capsys.readouterr().err

    def test_engine_flag_defaults(self):
        args = cli._build_parser().parse_args(["sweep"])
        assert args.jobs is None
        assert args.resume is True
        assert args.run_log is None
        args = cli._build_parser().parse_args(["sweep", "--fresh"])
        assert args.resume is False


class TestColind:
    def test_colind_runs_without_sweep(self, capsys, monkeypatch):
        # Patch the latency-bound set down to one matrix to keep it fast.
        from repro.bench import experiments

        original = experiments.colind_zero

        def fast_colind():
            return original(matrix_ids=(12,))

        monkeypatch.setattr(experiments, "colind_zero", fast_colind)
        assert cli.main(["colind"]) == 0
        out = capsys.readouterr().out
        assert "col_ind=0" in out
        assert "wikipedia" in out


class TestSweepDriven:
    #: The CLI config the seeded shards belong to: suite indices 1-4 in
    #: the default precisions and thread counts.
    MATRICES = ["--matrices", "1,2,3,4"]

    @pytest.fixture()
    def tiny_cache(self, tmp_path):
        """Seed the shard store with a mini-suite sweep under the config
        of ``--matrices 1,2,3,4``, so the CLI serves it from the shards
        instead of sweeping the real matrices."""
        sweep = run_sweep(MINI_SUITE, SweepConfig())
        store = ShardStore(tmp_path, SweepConfig(suite_indices=(1, 2, 3, 4)))
        for matrix in sweep.matrices:
            assert store.save(matrix.idx, matrix)
        return tmp_path

    def _main(self, *experiments, cache_dir):
        return cli.main(
            [*experiments, *self.MATRICES, "--cache-dir", str(cache_dir)]
        )

    def test_table2_from_cache(self, capsys, tiny_cache):
        assert self._main("table2", cache_dir=tiny_cache) == 0
        out = capsys.readouterr().out
        assert "Table II" in out

    def test_multiple_experiments(self, capsys, tiny_cache):
        assert self._main("table3", "fig2", "table4", cache_dir=tiny_cache) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "Figure 2" in out
        assert "Table IV" in out

    def test_fig3_fig4_both_precisions(self, capsys, tiny_cache):
        assert self._main("fig3", "fig4", cache_dir=tiny_cache) == 0
        out = capsys.readouterr().out
        assert "Figure 3 (sp)" in out
        assert "Figure 3 (dp)" in out
        assert "Figure 4 (sp)" in out

    def test_sweep_reports_stats(self, capsys, tiny_cache):
        assert self._main("sweep", cache_dir=tiny_cache) == 0
        assert "sweep ready: 4 matrices" in capsys.readouterr().out


class TestAdviseCLI:
    def test_advise_dense_matches_exhaustive(self, capsys, tmp_path,
                                             machine, shared_profile_cache,
                                             monkeypatch):
        """Acceptance: ``advise dense --top 3`` leads with the candidate the
        exhaustive AutoTuner picks under OVERLAP."""
        from repro.serve import service as service_mod

        # Reuse the session profile so the CLI path skips calibration.
        monkeypatch.setattr(
            service_mod.AdvisorService,
            "__init__",
            _patched_init(shared_profile_cache),
        )
        assert cli.main(
            ["advise", "dense", "--top", "3",
             "--cache-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "1. BCSR 8x1 simd" in out
        assert "evaluated 33/105 candidates" in out
        assert out.count("ms/spmv") == 3

    def test_advise_json_output(self, capsys, tmp_path,
                                shared_profile_cache, monkeypatch):
        from repro.serve import service as service_mod

        monkeypatch.setattr(
            service_mod.AdvisorService,
            "__init__",
            _patched_init(shared_profile_cache),
        )
        assert cli.main(
            ["advise", "pwtk", "--json", "--cache-dir", str(tmp_path)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ranking"][0]["kind"] == "bcsr"
        assert payload["cache_hit"] is False

    def test_advise_unknown_matrix_fails_cleanly(self, capsys, tmp_path):
        code = cli.main(
            ["advise", "no-such-matrix", "--cache-dir", str(tmp_path)]
        )
        assert code == 1
        assert "no-such-matrix" in capsys.readouterr().err

    def test_advise_rejects_bad_top(self, capsys, tmp_path):
        code = cli.main(
            ["advise", "dense", "--top", "0", "--cache-dir", str(tmp_path)]
        )
        assert code == 2
        assert "--top" in capsys.readouterr().err

    def test_advise_parser_defaults(self):
        args = cli._build_advise_parser().parse_args(["dense"])
        assert args.model == "overlap"
        assert args.precision == "dp"
        assert args.top == 3
        assert args.prune is True
        assert args.use_cache is True
        args = cli._build_advise_parser().parse_args(
            ["dense", "--no-prune", "--no-cache"]
        )
        assert args.prune is False
        assert args.use_cache is False

    def test_serve_parser_defaults(self):
        args = cli._build_serve_parser().parse_args([])
        assert args.host == "127.0.0.1"
        assert args.port == 8077
        args = cli._build_serve_parser().parse_args(["--port", "9000"])
        assert args.port == 9000


def _patched_init(profile_cache):
    from repro.serve.service import AdvisorService

    original = AdvisorService.__init__

    def init(self, machine=None, **kwargs):
        kwargs["profile_cache"] = profile_cache
        original(self, machine, **kwargs)

    return init


@pytest.mark.slow
class TestEngineSmoke:
    """Tier-1 end-to-end smoke: a real ``python -m repro sweep --jobs 2``
    on a 3-matrix suite subset against a temp cache dir."""

    ARGS = [
        "sweep", "--jobs", "2",
        "--matrices", "1,27,30", "--precisions", "dp", "--threads", "1",
    ]

    def test_sweep_jobs2_end_to_end(self, tmp_path):
        run_log = tmp_path / "run.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *self.ARGS,
             "--cache-dir", str(tmp_path), "--run-log", str(run_log),
             "--progress"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={**os.environ,
                 "PYTHONPATH": str(REPO_ROOT / "src")
                 + os.pathsep + os.environ.get("PYTHONPATH", "")},
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert "sweep ready: 3 matrices" in proc.stdout

        # The run log recorded every shard going through the pool.
        events = [json.loads(l) for l in run_log.read_text().splitlines()]
        finished = sorted(
            e["shard"] for e in events if e["event"] == "shard_finish"
        )
        assert finished == [1, 27, 30]
        assert events[0]["jobs"] == 2

        # A second invocation is served from the shards: every shard is
        # cached, none runs.
        n_lines = len(events)
        assert cli.main([*self.ARGS, "--cache-dir", str(tmp_path),
                         "--run-log", str(run_log)]) == 0
        rerun = [
            json.loads(l) for l in run_log.read_text().splitlines()[n_lines:]
        ]
        kinds = [e["event"] for e in rerun]
        assert sorted(
            e["shard"] for e in rerun if e["event"] == "shard_cached"
        ) == [1, 27, 30]
        assert "shard_start" not in kinds
        assert "shard_finish" not in kinds
