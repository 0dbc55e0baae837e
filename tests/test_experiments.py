"""Tests for the sweep harness and the table/figure projections.

A miniature 4-matrix suite keeps the sweep fast while covering the
structural extremes (blockable FEM, diagonal, random, dense).
"""

import pytest

from repro.bench import (
    SweepConfig,
    SweepResult,
    colind_zero,
    figure2,
    figure3,
    figure4,
    run_sweep,
    table2,
    table3,
    table4,
)
from repro.bench.report import render_series, render_table
from repro.engine import ShardStore
from repro.matrices import generators as g
from repro.matrices.suite import SuiteEntry


def _entry(idx, name, special, geometry, builder):
    return SuiteEntry(
        idx=idx, name=name, domain="test", geometry=geometry,
        special=special, paper_rows=1, paper_nnz=1, paper_ws_mib=1.0,
        builder=builder, note="test entry",
    )


MINI_SUITE = (
    _entry(1, "mini-dense", True, False, lambda: g.dense(120)),
    _entry(2, "mini-random", True, False,
           lambda: g.random_uniform(4000, 4000, 30_000, seed=1)),
    _entry(3, "mini-fem", False, True, lambda: g.grid2d(40, 40, 5, dof=3)),
    _entry(4, "mini-diag", False, True,
           lambda: g.diagonal_pattern(6000, (0, 1, -1, 40, -40), 0.95,
                                      seed=2)),
)


@pytest.fixture(scope="module")
def mini_sweep():
    config = SweepConfig(precisions=("sp", "dp"), thread_counts=(1, 2, 4))
    return run_sweep(MINI_SUITE, config)


class TestSweepData:
    def test_all_matrices_present(self, mini_sweep):
        assert [m.name for m in mini_sweep.matrices] == [
            e.name for e in MINI_SUITE
        ]

    def test_record_counts(self, mini_sweep):
        m = mini_sweep.matrix("mini-fem")
        # 106 candidates single-threaded, 105 (no VBL) for 2 and 4 threads,
        # times two precisions.
        assert len(m.select(precision="dp", nthreads=1)) == 106
        assert len(m.select(precision="dp", nthreads=2)) == 105
        assert len(m.records) == 2 * (106 + 105 + 105)

    def test_predictions_only_single_thread(self, mini_sweep):
        m = mini_sweep.matrix("mini-fem")
        assert all(r.predictions for r in m.select(nthreads=1)
                   if r.kind != "vbl")
        assert all(not r.predictions for r in m.select(nthreads=2))

    def test_matrix_lookup(self, mini_sweep):
        assert mini_sweep.matrix(3).name == "mini-fem"
        with pytest.raises(KeyError):
            mini_sweep.matrix("nope")

    def test_save_load_round_trip(self, mini_sweep, tmp_path):
        # The shard store is the sweep's on-disk form: every matrix comes
        # back record for record, and so does the whole sweep's data.
        store = ShardStore(tmp_path, mini_sweep.config)
        for m in mini_sweep.matrices:
            assert store.save(m.idx, m)
        loaded = SweepResult(
            config=mini_sweep.config,
            matrices=[store.load(m.idx) for m in mini_sweep.matrices],
            elapsed_s=0.0,
        )
        assert loaded.canonical_json() == mini_sweep.canonical_json()
        orig = mini_sweep.matrix("mini-fem").records
        back = loaded.matrix("mini-fem").records
        assert len(orig) == len(back)
        assert orig[0] == back[0]
        assert back[5].candidate == orig[5].candidate

    def test_fingerprint_stable(self):
        a = SweepConfig().fingerprint()
        b = SweepConfig().fingerprint()
        c = SweepConfig(max_block_elems=6).fingerprint()
        assert a == b != c


class TestProjections:
    def test_table2_counts_sum(self, mini_sweep):
        result = table2(mini_sweep)
        n_regular = sum(1 for m in mini_sweep.matrices if not m.special)
        for cfg, counts in result.wins.items():
            total = sum(v for v in counts.values() if v is not None)
            assert total == n_regular, cfg
        assert "1D-VBL" in result.render()

    def test_table2_fem_goes_to_blocking(self, mini_sweep):
        """On a suite of blockable matrices, CSR cannot win everything."""
        result = table2(mini_sweep)
        assert result.wins["dp"].get("csr", 0) < 2

    def test_table3_structure(self, mini_sweep):
        result = table3(mini_sweep)
        assert len(result.rows) == 4  # all matrices, specials included
        assert result.averages[0] == "Average"
        rendered = result.render()
        assert "BCSR min" in rendered

    def test_table3_min_le_max(self, mini_sweep):
        for row in table3(mini_sweep).rows:
            for base in (1, 4, 7, 10):
                lo, avg, hi = (float(row[base + i]) for i in range(3))
                assert lo <= avg + 0.005 and avg <= hi + 0.005

    def test_figure2_counts(self, mini_sweep):
        result = figure2(mini_sweep)
        n_regular = sum(1 for m in mini_sweep.matrices if not m.special)
        assert set(result.wins) == {
            f"{p}-{c}c" for p in ("sp", "dp") for c in (1, 2, 4)
        }
        for counts in result.wins.values():
            assert sum(counts.values()) == n_regular
            assert "vbl" not in counts

    def test_figure3_models_ordered(self, mini_sweep):
        for precision in ("sp", "dp"):
            result = figure3(mini_sweep, precision)
            assert len(result.matrix_ids) == 2  # specials excluded
            for i in range(len(result.matrix_ids)):
                assert (
                    result.normalized["mem"][i]
                    <= result.normalized["overlap"][i] + 1e-9
                )
                assert (
                    result.normalized["overlap"][i]
                    <= result.normalized["memcomp"][i] + 1e-9
                )
            assert "abs(t_mem" in result.render()

    def test_figure4_normalized_ge_one(self, mini_sweep):
        for precision in ("sp", "dp"):
            result = figure4(mini_sweep, precision)
            for model, values in result.normalized.items():
                assert all(v >= 1.0 - 1e-12 for v in values), model

    def test_table4_structure(self, mini_sweep):
        result = table4(mini_sweep)
        assert [row[0] for row in result.rows] == [
            "MEM", "MEMCOMP", "OVERLAP"
        ]
        n_regular = 2
        for row in result.rows:
            assert 0 <= int(row[1]) <= n_regular
            assert 0 <= int(row[3]) <= n_regular
        assert "off-best" in result.render()


class TestColindZero:
    def test_runs_on_selected_matrices(self):
        result = colind_zero(matrix_ids=(12,))
        assert len(result.rows) == 1
        assert "wikipedia" in result.rows[0][0]
        speedup = float(result.rows[0][3].rstrip("x"))
        assert speedup > 1.3  # latency-bound matrix gains a lot
        assert "col_ind=0" in result.render()


class TestExport:
    def test_figure_data_files(self, mini_sweep, tmp_path):
        from repro.bench.export import export_figure_data

        written = export_figure_data(mini_sweep, tmp_path / "figs")
        assert len(written) == 5
        for path in written:
            assert path.exists()
            lines = path.read_text().strip().splitlines()
            assert len(lines) >= 2  # header + data
            assert len(lines[0].split("\t")) >= 4

    def test_fig3_tsv_values_match(self, mini_sweep, tmp_path):
        from repro.bench.export import export_figure_data
        from repro.bench.experiments import figure3

        export_figure_data(mini_sweep, tmp_path)
        f3 = figure3(mini_sweep, "dp")
        lines = (tmp_path / "figure3_dp.tsv").read_text().strip().splitlines()
        first = lines[1].split("\t")
        assert int(first[0]) == f3.matrix_ids[0]
        assert abs(float(first[1]) - f3.normalized["mem"][0]) < 1e-5


class TestReportRendering:
    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [["1", "2"], ["333", "4"]],
                           title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert all(len(l) == len(lines[2]) for l in lines[2:4])

    def test_render_series_handles_none(self):
        out = render_series("x", [1, 2], {"s": [1.0, None]})
        assert "-" in out


class TestPartialSweepWarning:
    @pytest.fixture()
    def partial_sweep(self, mini_sweep):
        import dataclasses

        return dataclasses.replace(mini_sweep, missing=[2, 17])

    def test_complete_sweep_renders_clean(self, mini_sweep, capsys):
        rendered = table2(mini_sweep).render()
        assert "PARTIAL SWEEP" not in rendered
        assert "PARTIAL SWEEP" not in capsys.readouterr().err

    def test_footnote_and_stderr_banner(self, partial_sweep, capsys):
        rendered = table2(partial_sweep).render()
        assert "PARTIAL SWEEP" in rendered
        assert "2, 17" in rendered
        err = capsys.readouterr().err
        assert "PARTIAL SWEEP" in err
        assert "!!!" in err

    def test_every_projection_warns(self, partial_sweep, capsys):
        results = [
            table2(partial_sweep),
            table3(partial_sweep),
            table4(partial_sweep),
            figure2(partial_sweep),
            figure3(partial_sweep, "dp"),
            figure4(partial_sweep, "dp"),
        ]
        for result in results:
            assert "PARTIAL SWEEP" in result.render(), type(result).__name__
        assert capsys.readouterr().err.count("PARTIAL SWEEP") == len(results)

    def test_warn_if_partial_helpers(self, capsys):
        from repro.bench.report import missing_note, warn_if_partial

        assert missing_note(()) is None
        assert warn_if_partial(()) == ""
        assert capsys.readouterr().err == ""
        note = missing_note([9, 3])
        assert "3, 9" in note
        footnote = warn_if_partial([3])
        assert footnote.startswith("\n* ")
        assert "PARTIAL SWEEP" in capsys.readouterr().err
