"""Candidate evaluation and format selection (the paper's tuning loop).

:class:`AutoTuner` is the high-level public API: profile once, then select
the best (format, block, implementation) for any matrix and build it.  It
ranks through the whole-matrix array program
(:meth:`repro.machine.batch.MatrixProgram.predict`), the one evaluation
path of the sweep, the advisor and the examples.

:func:`evaluate_candidates` is the per-candidate reference loop that path
is pinned to: it converts the matrix into every candidate format through
:func:`build_candidate`, asks each performance model for a prediction, and
optionally runs the simulator.  :mod:`repro.oracle` and the equivalence
tests compare against it; it is not part of the package's public API.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..errors import ModelError
from ..formats.base import SparseFormat
from ..formats.bcsd import BCSDMatrix
from ..formats.bcsr import BCSRMatrix
from ..formats.blockstats import bcsd_block_stats, bcsr_block_stats
from ..formats.coo import COOMatrix
from ..formats.csr import CSRMatrix
from ..formats.decomposed import decompose_bcsd, decompose_bcsr
from ..formats.vbl import VBLMatrix
from ..machine.executor import SimResult, simulate
from ..machine.machine import MachineModel
from ..types import Impl, Precision
from .candidates import FIXED_BLOCK_KINDS, Candidate, candidate_space
from .models import MODELS, PerformanceModel
from .profiling import DEFAULT_PROFILE_CACHE, BlockProfile, ProfileCache

__all__ = [
    "CandidateResult",
    "StatsCache",
    "build_candidate",
    "rank_with_model",
    "select_with_model",
    "oracle_best",
    "AutoTuner",
]


class StatsCache:
    """Per-matrix cache of block-structure analyses, shared across kinds.

    Pass a ``timings`` dict to accumulate the seconds spent in the
    structural analyses under its ``"stats"`` key (the sweep's ``--profile``
    phase breakdown).
    """

    def __init__(
        self, coo: COOMatrix, *, timings: dict | None = None
    ) -> None:
        self.coo = coo
        self._rect: dict[tuple[int, int], object] = {}
        self._diag: dict[int, object] = {}
        self._timings = timings

    def _charge(self, t0: float) -> None:
        if self._timings is not None:
            self._timings["stats"] = (
                self._timings.get("stats", 0.0) + time.perf_counter() - t0
            )

    def rect(self, r: int, c: int):
        if (r, c) not in self._rect:
            t0 = time.perf_counter()
            self._rect[(r, c)] = bcsr_block_stats(self.coo, r, c)
            self._charge(t0)
        return self._rect[(r, c)]

    def diag(self, b: int):
        if b not in self._diag:
            t0 = time.perf_counter()
            self._diag[b] = bcsd_block_stats(self.coo, b)
            self._charge(t0)
        return self._diag[b]


def build_candidate(
    coo: COOMatrix,
    candidate: Candidate,
    *,
    with_values: bool = False,
    stats_cache: StatsCache | None = None,
) -> SparseFormat:
    """Convert ``coo`` to ``candidate``'s storage format."""
    cache = stats_cache if stats_cache is not None else StatsCache(coo)
    kind, block = candidate.kind, candidate.block
    if kind == "csr":
        return CSRMatrix.from_coo(coo, with_values=with_values)
    if kind == "vbl":
        return VBLMatrix.from_coo(coo, with_values=with_values)
    if kind == "bcsr":
        return BCSRMatrix.from_coo(
            coo, block, with_values=with_values, stats=cache.rect(*block)
        )
    if kind == "bcsr_dec":
        return decompose_bcsr(
            coo, block, with_values=with_values, stats=cache.rect(*block)
        )
    if kind == "bcsd":
        return BCSDMatrix.from_coo(
            coo, block, with_values=with_values, stats=cache.diag(block)
        )
    if kind == "bcsd_dec":
        return decompose_bcsd(
            coo, block, with_values=with_values, stats=cache.diag(block)
        )
    raise ModelError(f"cannot build candidate kind {kind!r}")


@dataclass
class CandidateResult:
    """Everything learnt about one candidate on one matrix."""

    candidate: Candidate
    ws_bytes: int
    padding_ratio: float
    n_blocks: int
    predictions: dict[str, float] = field(default_factory=dict)
    sim: SimResult | None = None

    @property
    def t_real(self) -> float:
        if self.sim is None:
            raise ModelError("candidate was evaluated without simulation")
        return self.sim.t_total


def evaluate_candidates(
    coo: COOMatrix,
    machine: MachineModel,
    precision: Precision | str,
    *,
    candidates: Sequence[Candidate] | None = None,
    models: Iterable[PerformanceModel | str] = ("mem", "memcomp", "overlap"),
    profile: BlockProfile | None = None,
    profile_cache: ProfileCache | None = None,
    run_simulation: bool = True,
    nthreads: int = 1,
    fmt_cache: dict | None = None,
    timings: dict | None = None,
) -> list[CandidateResult]:
    """Evaluate every candidate on ``coo``: predictions and simulated time.

    The per-candidate reference loop: one conversion, model call and
    simulator call per candidate.  :class:`~repro.machine.batch.MatrixProgram`
    must reproduce its results bit for bit (the equivalence tests pin it).

    Models that do not cover a candidate (MEMCOMP/OVERLAP on 1D-VBL) simply
    omit a prediction for it, as in the paper.

    Pass a (caller-owned) ``fmt_cache`` dict to reuse the converted
    structures — and the per-part row costs, partitions and cache-miss
    analyses memoised on them — across repeated calls for the same matrix
    (different precisions / thread counts).

    Pass a ``timings`` dict to accumulate per-phase seconds into its
    ``"convert"`` / ``"stats"`` / ``"simulate"`` / ``"models"`` keys.
    """
    precision = Precision.coerce(precision)
    if candidates is None:
        candidates = candidate_space()
    model_objs = [m if isinstance(m, PerformanceModel) else MODELS[m] for m in models]
    needs_profile = any(m.requires_profile for m in model_objs)
    if profile is None and needs_profile:
        cache = profile_cache if profile_cache is not None else DEFAULT_PROFILE_CACHE
        profile = cache.get(machine, precision)

    stats_cache = StatsCache(coo, timings=timings)
    # Build each structure once and share it across scalar/SIMD candidates:
    # its parts memoise the simulator's row costs and x-miss analysis.
    if fmt_cache is None:
        fmt_cache = {}
    results: list[CandidateResult] = []
    for cand in candidates:
        fmt_key = (cand.kind, cand.block)
        fmt = fmt_cache.get(fmt_key)
        if fmt is None:
            t0 = time.perf_counter()
            stats_s = timings.get("stats", 0.0) if timings is not None else 0.0
            fmt = build_candidate(coo, cand, stats_cache=stats_cache)
            fmt_cache[fmt_key] = fmt
            if timings is not None:
                # Conversion time net of the shared structural analysis,
                # which StatsCache already charged to "stats".
                timings["convert"] = (
                    timings.get("convert", 0.0)
                    + (time.perf_counter() - t0)
                    - (timings.get("stats", 0.0) - stats_s)
                )
        res = CandidateResult(
            candidate=cand,
            ws_bytes=fmt.working_set(precision),
            padding_ratio=fmt.padding_ratio,
            n_blocks=fmt.n_blocks,
        )
        t0 = time.perf_counter()
        for model in model_objs:
            try:
                res.predictions[model.name] = model.predict(
                    fmt, machine, precision, cand.impl, profile, nthreads
                )
            except ModelError:
                continue  # model does not cover this candidate
        if timings is not None:
            timings["models"] = (
                timings.get("models", 0.0) + time.perf_counter() - t0
            )
        if run_simulation:
            t0 = time.perf_counter()
            res.sim = simulate(fmt, machine, precision, cand.impl, nthreads)
            if timings is not None:
                timings["simulate"] = (
                    timings.get("simulate", 0.0) + time.perf_counter() - t0
                )
        results.append(res)
    return results


def rank_with_model(
    results: Sequence[CandidateResult], model_name: str
) -> list[CandidateResult]:
    """The candidates a model ranks, best (lowest prediction) first.

    As in the paper, the models tune over the *fixed-size* blocking space
    only (Section IV: "we do not consider variable size blocking methods"),
    and the MEM model — blind to kernel implementations — defaults to the
    non-SIMD kernels.  The sort is stable, so tied predictions keep the
    order of ``results``.  Accepts anything with ``candidate`` and
    ``predictions``, e.g. the sweep's :class:`~repro.bench.harness.
    SweepRecord`.
    """
    model = MODELS[model_name]
    pool = [
        r
        for r in results
        if model_name in r.predictions and r.candidate.kind in FIXED_BLOCK_KINDS
    ]
    if not model.impl_aware:
        pool = [r for r in pool if r.candidate.impl is Impl.SCALAR]
    if not pool:
        raise ModelError(f"model {model_name!r} covered no candidate")
    pool.sort(key=lambda r: r.predictions[model_name])
    return pool


def select_with_model(
    results: Sequence[CandidateResult], model_name: str
) -> CandidateResult:
    """The candidate a model selects: the head of :func:`rank_with_model`."""
    return rank_with_model(results, model_name)[0]


def oracle_best(results: Sequence[CandidateResult]) -> CandidateResult:
    """The candidate with the best *simulated* (measured) time."""
    pool = [r for r in results if r.sim is not None]
    if not pool:
        raise ModelError("no simulated results to take the oracle over")
    return min(pool, key=lambda r: r.t_real)


class AutoTuner:
    """High-level selection API.

    >>> tuner = AutoTuner(CORE2_XEON)
    >>> choice = tuner.select(coo, precision="dp", model="overlap")
    >>> fmt = tuner.build(coo, choice.candidate)   # with values, ready to spmv
    """

    def __init__(
        self,
        machine: MachineModel,
        *,
        profile_cache: ProfileCache | None = None,
    ) -> None:
        self.machine = machine
        self.profile_cache = (
            profile_cache if profile_cache is not None else ProfileCache()
        )

    def profile(self, precision: Precision | str) -> BlockProfile:
        """Calibrate (or fetch the cached) block profile."""
        return self.profile_cache.get(self.machine, precision)

    def select(
        self,
        coo: COOMatrix,
        *,
        precision: Precision | str = Precision.DP,
        model: str = "overlap",
        candidates: Sequence[Candidate] | None = None,
        nthreads: int = 1,
        batch: bool = True,
    ) -> CandidateResult:
        """Pick the best candidate for ``coo`` according to ``model``.

        Ranks through the whole-matrix array program's models-only plane
        (:meth:`repro.machine.batch.MatrixProgram.predict`), which predicts
        MEM, MEMCOMP and OVERLAP; the result carries ``sim=None``, since
        selection reads only predictions.
        """
        # ``batch`` accepts only True.  perfbench's advise-cold reference
        # passes ``batch=True``; that caller is the only reason it exists.
        if not batch:
            raise ModelError("AutoTuner.select has one path; batch must be True")
        # Imported lazily: machine.batch sits above this module.
        from ..machine.batch import MatrixProgram

        if candidates is None:
            candidates = candidate_space()
        program = MatrixProgram(
            coo, self.machine, candidates, profile_cache=self.profile_cache
        )
        results = program.predict(
            precision, nthreads, candidates, models=(model,)
        )
        return select_with_model(results, model)

    def build(
        self, coo: COOMatrix, candidate: Candidate
    ) -> SparseFormat:
        """Materialise the selected format with values, ready for spmv."""
        return build_candidate(coo, candidate, with_values=True)
