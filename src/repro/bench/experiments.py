"""One function per paper table/figure (the per-experiment index of DESIGN.md).

Every function is a pure projection of a :class:`~repro.bench.harness.
SweepResult` (except Table I and the col_ind-zeroing benchmark, which build
matrices directly).  Each returns a small result object with a ``render()``
method producing the paper-shaped text table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean

from ..core.selection import select_with_model
from ..formats.csr import CSRMatrix
from ..machine.executor import simulate
from ..machine.machine import MachineModel
from ..machine.presets import get_preset
from ..matrices.suite import SUITE
from .harness import MatrixSweep, SweepRecord, SweepResult
from .report import render_series, render_table, warn_if_partial

__all__ = [
    "table1",
    "table2",
    "table3",
    "figure2",
    "figure3",
    "figure4",
    "table4",
    "colind_zero",
]

#: Format kinds in the paper's presentation order (Table II / Fig. 2).
_KIND_ORDER = ("csr", "bcsr", "bcsr_dec", "bcsd", "bcsd_dec", "vbl")
_KIND_LABEL = {
    "csr": "CSR",
    "bcsr": "BCSR",
    "bcsr_dec": "BCSR-DEC",
    "bcsd": "BCSD",
    "bcsd_dec": "BCSD-DEC",
    "vbl": "1D-VBL",
}
_MODELS = ("mem", "memcomp", "overlap")

#: The matrices the paper identifies as latency-bound in Section V-B.
LATENCY_BOUND_IDS = (12, 14, 15, 28)


# ===================================================================== #
# Table I — the matrix suite
# ===================================================================== #
@dataclass
class Table1Result:
    rows: list[tuple]

    def render(self) -> str:
        return render_table(
            ["#", "Matrix", "Domain", "rows", "nonzeros", "ws (MiB)",
             "paper ws (MiB)"],
            self.rows,
            title="Table I: matrix suite (ws = CSR working set, single precision)",
        )


def table1() -> Table1Result:
    """Regenerate Table I: per-matrix rows / nnz / CSR-sp working set."""
    rows = []
    for entry in SUITE:
        coo = entry.build()
        ws = CSRMatrix.from_coo(coo, with_values=False).working_set("sp")
        rows.append(
            (
                f"{entry.idx:02d}",
                entry.name,
                entry.domain,
                f"{coo.nrows:,}",
                f"{coo.nnz:,}",
                f"{ws / 2**20:.2f}",
                f"{entry.paper_ws_mib:.2f}",
            )
        )
    return Table1Result(rows=rows)


# ===================================================================== #
# Table II — wins per format per configuration
# ===================================================================== #
def _config_records(
    m: MatrixSweep, precision: str, simd: bool, nthreads: int = 1
) -> list[SweepRecord]:
    """The candidate pool of one Table II configuration.

    Non-SIMD configs run every format's scalar kernel (1D-VBL included);
    SIMD configs use vectorized kernels for the fixed-size blocked formats,
    scalar CSR, and drop 1D-VBL (the paper has no SIMD 1D-VBL).
    """
    records = m.select(precision=precision, nthreads=nthreads)
    if not simd:
        return [r for r in records if r.impl == "scalar"]
    pool = []
    for r in records:
        if r.kind == "csr" and r.impl == "scalar":
            pool.append(r)
        elif r.kind in ("bcsr", "bcsr_dec", "bcsd", "bcsd_dec") and r.impl == "simd":
            pool.append(r)
    return pool


@dataclass
class Table2Result:
    wins: dict[str, dict[str, int]]  # config -> kind -> count
    missing: tuple[int, ...] = ()

    def render(self) -> str:
        configs = list(self.wins)
        rows = []
        for kind in _KIND_ORDER:
            row = [_KIND_LABEL[kind]]
            for cfg in configs:
                count = self.wins[cfg].get(kind)
                row.append("-" if count is None else str(count))
            rows.append(row)
        return render_table(
            ["Method/Configuration"] + configs,
            rows,
            title=(
                "Table II: matrices won per format "
                "(special matrices excluded)"
            ),
        ) + warn_if_partial(self.missing)


def table2(sweep: SweepResult) -> Table2Result:
    """Regenerate Table II: wins for dp / dp-simd / sp / sp-simd."""
    wins: dict[str, dict[str, int]] = {}
    for precision in ("dp", "sp"):
        for simd in (False, True):
            cfg = precision + ("-simd" if simd else "")
            counts = {k: 0 for k in _KIND_ORDER}
            if simd:
                counts["vbl"] = None  # not implemented, as in the paper
            for m in sweep.matrices:
                if m.special:
                    continue
                pool = _config_records(m, precision, simd)
                best = min(pool, key=lambda r: r.t_real)
                counts[best.kind] += 1
            wins[cfg] = counts
    return Table2Result(wins=wins, missing=tuple(sweep.missing))


# ===================================================================== #
# Table III — speedups over CSR per matrix (dp, no SIMD)
# ===================================================================== #
@dataclass
class Table3Result:
    rows: list[tuple]
    averages: tuple
    missing: tuple[int, ...] = ()

    def render(self) -> str:
        headers = [
            "Matrix",
            "BCSR min", "BCSR avg", "BCSR max",
            "BCSR-DEC min", "BCSR-DEC avg", "BCSR-DEC max",
            "BCSD min", "BCSD avg", "BCSD max",
            "BCSD-DEC min", "BCSD-DEC avg", "BCSD-DEC max",
            "1D-VBL",
        ]
        rows = list(self.rows) + [self.averages]
        return render_table(
            headers,
            rows,
            title="Table III: speedup over CSR per matrix, double precision, scalar",
        ) + warn_if_partial(self.missing)


def table3(sweep: SweepResult) -> Table3Result:
    """Regenerate Table III: min/avg/max speedup over CSR per format."""
    rows = []
    per_col: list[list[float]] = [[] for _ in range(13)]
    for m in sweep.matrices:
        records = m.select(precision="dp", nthreads=1, impls=("scalar",))
        t_csr = next(r.t_real for r in records if r.kind == "csr")
        cells: list[object] = [f"{m.idx:02d}.{m.name}"]
        col = 0
        for kind in ("bcsr", "bcsr_dec", "bcsd", "bcsd_dec"):
            speedups = [
                t_csr / r.t_real for r in records if r.kind == kind
            ]
            for v in (min(speedups), mean(speedups), max(speedups)):
                cells.append(f"{v:.2f}")
                per_col[col].append(v)
                col += 1
        vbl = next(r for r in records if r.kind == "vbl")
        v = t_csr / vbl.t_real
        cells.append(f"{v:.2f}")
        per_col[12].append(v)
        rows.append(tuple(cells))
    averages = tuple(
        ["Average"] + [f"{mean(c):.2f}" for c in per_col]
    )
    return Table3Result(rows=rows, averages=averages,
                        missing=tuple(sweep.missing))


# ===================================================================== #
# Figure 2 — wins across 1/2/4 cores
# ===================================================================== #
@dataclass
class Figure2Result:
    wins: dict[str, dict[str, int]]  # "<precision>-<cores>c" -> kind -> count
    missing: tuple[int, ...] = ()

    def render(self) -> str:
        configs = list(self.wins)
        rows = []
        for kind in _KIND_ORDER[:-1]:  # no 1D-VBL in the multicore study
            row = [_KIND_LABEL[kind]]
            row += [str(self.wins[cfg].get(kind, 0)) for cfg in configs]
            rows.append(row)
        return render_table(
            ["Method"] + configs,
            rows,
            title=(
                "Figure 2: distribution of wins across formats for "
                "1, 2 and 4 cores (best over scalar/SIMD kernels)"
            ),
        ) + warn_if_partial(self.missing)


def figure2(sweep: SweepResult) -> Figure2Result:
    """Regenerate Fig. 2: per-core-count win distribution, sp and dp."""
    wins: dict[str, dict[str, int]] = {}
    for precision in ("sp", "dp"):
        for cores in sweep.config.thread_counts:
            cfg = f"{precision}-{cores}c"
            counts = {k: 0 for k in _KIND_ORDER[:-1]}
            for m in sweep.matrices:
                if m.special:
                    continue
                pool = [
                    r
                    for r in m.select(precision=precision, nthreads=cores)
                    if r.kind != "vbl"
                ]
                best = min(pool, key=lambda r: r.t_real)
                counts[best.kind] += 1
            wins[cfg] = counts
    return Figure2Result(wins=wins, missing=tuple(sweep.missing))


# ===================================================================== #
# Figure 3 — prediction accuracy
# ===================================================================== #
@dataclass
class Figure3Result:
    precision: str
    matrix_ids: list[int]
    normalized: dict[str, list[float]]  # model -> per-matrix mean pred/real
    mean_abs_error: dict[str, float]  # model -> mean |pred - real| / real
    missing: tuple[int, ...] = ()

    def render(self) -> str:
        legend = ", ".join(
            f"abs(t_{m} - t_real) ~ {self.mean_abs_error[m] * 100:.1f}%"
            for m in _MODELS
        )
        body = render_series(
            "matrix",
            self.matrix_ids,
            {f"t_{m}/t_real": self.normalized[m] for m in _MODELS},
            title=(
                f"Figure 3 ({self.precision}): predicted / real execution "
                "time per matrix (mean over all blocks and methods)"
            ),
        )
        return body + "\n" + legend + warn_if_partial(self.missing)


def figure3(sweep: SweepResult, precision: str) -> Figure3Result:
    """Regenerate one panel of Fig. 3 for ``precision``."""
    ids: list[int] = []
    normalized: dict[str, list[float]] = {m: [] for m in _MODELS}
    abs_err: dict[str, list[float]] = {m: [] for m in _MODELS}
    for m in sweep.matrices:
        if m.special:
            continue  # the paper omits the two special matrices here
        records = [
            r
            for r in m.select(precision=precision, nthreads=1)
            if "overlap" in r.predictions  # fixed-size candidates only
        ]
        ids.append(m.idx)
        for model in _MODELS:
            ratios = [r.predictions[model] / r.t_real for r in records]
            normalized[model].append(mean(ratios))
            abs_err[model].extend(abs(x - 1.0) for x in ratios)
    return Figure3Result(
        precision=precision,
        matrix_ids=ids,
        normalized=normalized,
        mean_abs_error={m: mean(abs_err[m]) for m in _MODELS},
        missing=tuple(sweep.missing),
    )


# ===================================================================== #
# Figure 4 / Table IV — selection accuracy
# ===================================================================== #
@dataclass
class Figure4Result:
    precision: str
    matrix_ids: list[int]
    normalized: dict[str, list[float]]  # model -> t_real(selection)/t_best
    missing: tuple[int, ...] = ()

    def render(self) -> str:
        return render_series(
            "matrix",
            self.matrix_ids,
            {f"t_{m}": self.normalized[m] for m in _MODELS},
            title=(
                f"Figure 4 ({self.precision}): real time of each model's "
                "selection, normalized to the best overall"
            ),
        ) + warn_if_partial(self.missing)


def figure4(sweep: SweepResult, precision: str) -> Figure4Result:
    """Regenerate one panel of Fig. 4 for ``precision``."""
    ids: list[int] = []
    normalized: dict[str, list[float]] = {m: [] for m in _MODELS}
    for m in sweep.matrices:
        if m.special:
            continue
        records = m.select(precision=precision, nthreads=1)
        best = min(records, key=lambda r: r.t_real)
        ids.append(m.idx)
        for model in _MODELS:
            sel = select_with_model(records, model)
            normalized[model].append(sel.t_real / best.t_real)
    return Figure4Result(
        precision=precision,
        matrix_ids=ids,
        normalized=normalized,
        missing=tuple(sweep.missing),
    )


@dataclass
class Table4Result:
    rows: list[tuple]
    missing: tuple[int, ...] = ()

    def render(self) -> str:
        return render_table(
            [
                "Model",
                "sp #correct", "sp off-best",
                "dp #correct", "dp off-best",
            ],
            self.rows,
            title=(
                "Table IV: optimal selections per model and mean distance "
                "from the best performance"
            ),
        ) + warn_if_partial(self.missing)


def table4(sweep: SweepResult) -> Table4Result:
    """Regenerate Table IV: #correct selections + avg distance from best.

    A selection counts as correct when it matches the oracle's *method and
    block* (the paper's criterion), regardless of implementation.
    """
    stats: dict[str, dict[str, tuple[int, float]]] = {}
    for precision in ("sp", "dp"):
        per_model: dict[str, tuple[int, float]] = {}
        for model in _MODELS:
            correct = 0
            offsets: list[float] = []
            for m in sweep.matrices:
                if m.special:
                    continue
                records = m.select(precision=precision, nthreads=1)
                best = min(records, key=lambda r: r.t_real)
                sel = select_with_model(records, model)
                if (sel.kind, sel.block) == (best.kind, best.block):
                    correct += 1
                offsets.append(sel.t_real / best.t_real - 1.0)
            per_model[model] = (correct, mean(offsets))
        stats[precision] = per_model
    rows = []
    for model in _MODELS:
        sp_c, sp_off = stats["sp"][model]
        dp_c, dp_off = stats["dp"][model]
        rows.append(
            (
                model.upper(),
                str(sp_c),
                f"{sp_off * 100:.1f}%",
                str(dp_c),
                f"{dp_off * 100:.1f}%",
            )
        )
    return Table4Result(rows=rows, missing=tuple(sweep.missing))


# ===================================================================== #
# Section V-B — the col_ind-zeroing custom benchmark
# ===================================================================== #
@dataclass
class ColIndZeroResult:
    rows: list[tuple]

    def render(self) -> str:
        return render_table(
            ["Matrix", "t_csr", "t_csr (col_ind=0)", "speedup"],
            self.rows,
            title=(
                "Custom benchmark (Sec. V-B): CSR with zeroed col_ind on "
                "the latency-bound matrices"
            ),
        )


def colind_zero(
    machine: MachineModel | None = None,
    matrix_ids: tuple[int, ...] = LATENCY_BOUND_IDS,
) -> ColIndZeroResult:
    """Reproduce the benchmark that zeroes CSR's col_ind.

    With all column indices equal to zero every x access hits one cache
    line, so the runs isolate how much time the latency-bound matrices lose
    to input-vector misses (the paper saw 2-4x).
    """
    machine = machine if machine is not None else get_preset("core2-xeon-2.66")
    rows = []
    for entry in SUITE:
        if entry.idx not in matrix_ids:
            continue
        coo = entry.build()
        csr = CSRMatrix.from_coo(coo, with_values=False)
        normal = simulate(csr, machine, "dp", "scalar")
        zeroed = simulate(csr, machine, "dp", "scalar", zero_col_ind=True)
        rows.append(
            (
                f"{entry.idx:02d}.{entry.name}",
                f"{normal.t_total * 1e3:.3f} ms",
                f"{zeroed.t_total * 1e3:.3f} ms",
                f"{normal.t_total / zeroed.t_total:.2f}x",
            )
        )
    return ColIndZeroResult(rows=rows)
