"""The sweep harness: run every candidate on every suite matrix and cache.

One full sweep produces, for each (matrix, candidate, precision, threads):
the simulated "measured" time with its breakdown, the format's working set
and padding, and — for the single-threaded runs — the prediction of each
performance model.  Every table and figure of the paper is a projection of
this dataset, so it is computed once and cached under ``.repro_cache/``
(keyed by a fingerprint of the configuration).

Execution is delegated to :mod:`repro.engine`: the sweep is decomposed
into per-matrix *shards* that run across a worker pool, each persisted
atomically under ``shards/<fingerprint>/``, so an interrupted sweep
resumes from where it stopped.  That shard store is the sweep's only
on-disk form: a completed config is served shard by shard, and
``--fresh`` recomputes it.  A ``sweep_<fingerprint>.json`` file left by
older versions is no longer read and can be deleted.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from ..core.candidates import Candidate, candidate_space
from ..core.profiling import BlockProfile, ProfileCache
from ..core.selection import CandidateResult
from ..formats.coo import COOMatrix
from ..ioutils import remove_stale_tmp_files
from ..machine.batch import MatrixProgram
from ..machine.machine import MachineModel
from ..machine.presets import get_preset
from ..matrices.suite import SUITE, SuiteEntry, get_entry
from ..types import Impl, Precision

__all__ = [
    "SweepConfig",
    "SweepRecord",
    "MatrixSweep",
    "SweepResult",
    "assemble_matrix_sweep",
    "sweep_matrix",
    "matrix_sweep_from_payload",
    "run_sweep",
    "load_or_run_sweep",
    "DEFAULT_CACHE_DIR",
    "GOLDEN_SWEEP",
    "GOLDEN_SWEEP_SHA",
    "PHASE_NAMES",
]


#: Bump when the simulator, the cost tables or the suite change meaningfully.
SWEEP_VERSION = 10

#: sha256 prefix of :data:`GOLDEN_SWEEP`'s ``canonical_json()``.  The
#: version is part of that JSON, so only a :data:`SWEEP_VERSION` bump may
#: move it; any other change that moves it has altered a simulated number.
GOLDEN_SWEEP_SHA = "5eb35e90e7ecbca8"

DEFAULT_CACHE_DIR = Path(".repro_cache")

MODEL_NAMES = ("mem", "memcomp", "overlap")

#: The per-shard phase-timing keys, in reporting order (``--profile``).
PHASE_NAMES = ("convert", "stats", "simulate", "models")


@dataclass(frozen=True)
class SweepConfig:
    """Everything that determines a sweep's outcome."""

    machine_name: str = "core2-xeon-2.66"
    precisions: tuple[str, ...] = ("sp", "dp")
    thread_counts: tuple[int, ...] = (1, 2, 4)
    max_block_elems: int = 8
    #: Restrict the sweep to these 1-based suite indices (``None`` = all
    #: 30 matrices).  Part of the fingerprint: a subset sweep caches
    #: separately from the full one.
    suite_indices: tuple[int, ...] | None = None
    version: int = SWEEP_VERSION

    def fingerprint(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return sha256(payload.encode()).hexdigest()[:16]

    def entries(self) -> tuple[SuiteEntry, ...]:
        """The suite entries this config sweeps, in suite order."""
        if self.suite_indices is None:
            return SUITE
        return tuple(get_entry(i) for i in self.suite_indices)


#: The reduced golden sweep (dp, one thread, ``max_block_elems=4``, suite
#: 1/27/30) pinned by :data:`GOLDEN_SWEEP_SHA`.
GOLDEN_SWEEP = SweepConfig(
    precisions=("dp",),
    thread_counts=(1,),
    max_block_elems=4,
    suite_indices=(1, 27, 30),
)


@dataclass
class SweepRecord:
    """One (candidate, precision, threads) data point on one matrix."""

    kind: str
    block: tuple[int, int] | int | None
    impl: str
    precision: str
    nthreads: int
    t_real: float
    t_mem: float
    t_comp: float
    t_latency: float
    ws_bytes: int
    padding_ratio: float
    n_blocks: int
    predictions: dict[str, float] = field(default_factory=dict)

    @property
    def candidate(self) -> Candidate:
        block = tuple(self.block) if isinstance(self.block, list) else self.block
        return Candidate(self.kind, block, Impl(self.impl))


@dataclass
class MatrixSweep:
    """All data points for one suite matrix.

    :func:`sweep_matrix` additionally attaches a ``_phase_timings`` dict
    (phase name → seconds; see :data:`PHASE_NAMES`) as a plain attribute.
    Being a non-field attribute it survives pickling between engine workers
    but stays out of ``asdict`` — and therefore out of the persisted shard
    payloads and ``SweepResult.canonical_json()``.
    """

    idx: int
    name: str
    domain: str
    geometry: bool
    special: bool
    nrows: int
    ncols: int
    nnz: int
    records: list[SweepRecord] = field(default_factory=list)

    def select(
        self,
        precision: str | None = None,
        nthreads: int | None = None,
        impls: Sequence[str] | None = None,
        kinds: Sequence[str] | None = None,
    ) -> list[SweepRecord]:
        """Filter records by precision / thread count / impl / kind."""
        out = self.records
        if precision is not None:
            out = [r for r in out if r.precision == precision]
        if nthreads is not None:
            out = [r for r in out if r.nthreads == nthreads]
        if impls is not None:
            out = [r for r in out if r.impl in impls]
        if kinds is not None:
            out = [r for r in out if r.kind in kinds]
        return out


def matrix_sweep_from_payload(payload: Mapping) -> MatrixSweep:
    """Rebuild a :class:`MatrixSweep` from its JSON (``asdict``) form."""
    m = dict(payload)
    records = [
        SweepRecord(**{
            **r,
            "block": tuple(r["block"])
            if isinstance(r["block"], list)
            else r["block"],
        })
        for r in m.pop("records")
    ]
    return MatrixSweep(records=records, **m)


@dataclass
class SweepResult:
    """A full (or, after quarantines, partial) sweep over the suite."""

    config: SweepConfig
    matrices: list[MatrixSweep]
    elapsed_s: float
    #: Suite indices whose shard was quarantined after repeated failures.
    #: Empty for a complete sweep.
    missing: list[int] = field(default_factory=list)

    def matrix(self, name_or_idx: str | int) -> MatrixSweep:
        for m in self.matrices:
            if m.name == name_or_idx or m.idx == name_or_idx:
                return m
        raise KeyError(f"no sweep data for matrix {name_or_idx!r}")

    def canonical_json(self) -> str:
        """Deterministic serialization of the sweep *data*.

        Excludes ``elapsed_s`` (volatile wall-clock timing), so two sweeps
        of the same config are byte-identical here regardless of worker
        count or scheduling order.
        """
        payload = {
            "config": asdict(self.config),
            "missing": list(self.missing),
            "matrices": [asdict(m) for m in self.matrices],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def assemble_matrix_sweep(
    entry: SuiteEntry,
    coo: COOMatrix,
    config: SweepConfig,
    candidates: Sequence[Candidate],
    evaluate: Callable[..., Sequence[CandidateResult]],
) -> MatrixSweep:
    """One matrix's records, every (precision, threads) plane in sweep order.

    ``evaluate(precision, nthreads, candidates, models=...)`` returns one
    plane's results: :func:`sweep_matrix` passes
    :meth:`~repro.machine.batch.MatrixProgram.evaluate`, the reference
    sweep in :mod:`repro.oracle` its per-candidate path, so both turn
    results into records the same way.
    """
    # The multicore experiment drops 1D-VBL, as the paper does ("we have
    # chosen not to implement a multithreaded version of 1D-VBL").
    mt_candidates = tuple(c for c in candidates if c.kind != "vbl")
    sweep = MatrixSweep(
        idx=entry.idx,
        name=entry.name,
        domain=entry.domain,
        geometry=entry.geometry,
        special=entry.special,
        nrows=coo.nrows,
        ncols=coo.ncols,
        nnz=coo.nnz,
    )
    for precision in config.precisions:
        for nthreads in config.thread_counts:
            single = nthreads == 1
            results = evaluate(
                precision,
                nthreads,
                candidates if single else mt_candidates,
                models=MODEL_NAMES if single else (),
            )
            for res in results:
                cand = res.candidate
                sweep.records.append(
                    SweepRecord(
                        kind=cand.kind,
                        block=cand.block,
                        impl=cand.impl.value,
                        precision=Precision.coerce(precision).value,
                        nthreads=nthreads,
                        t_real=res.sim.t_total,
                        t_mem=res.sim.t_mem,
                        t_comp=res.sim.t_comp,
                        t_latency=res.sim.t_latency,
                        ws_bytes=res.ws_bytes,
                        padding_ratio=res.padding_ratio,
                        n_blocks=res.n_blocks,
                        predictions=dict(res.predictions),
                    )
                )
    return sweep


def sweep_matrix(
    entry: SuiteEntry,
    config: SweepConfig = SweepConfig(),
    *,
    machine: MachineModel | None = None,
    profile_cache: ProfileCache | None = None,
) -> MatrixSweep:
    """Sweep every candidate over one suite matrix (one engine shard).

    Deterministic in ``(entry, config)``: the record order and every value
    are identical no matter which process or worker runs it — the property
    the engine's parallel path relies on.  One fused planning pass builds
    every structure, then each (precision, threads) plane is evaluated as
    one array program (:class:`repro.machine.batch.MatrixProgram`).
    """
    machine = machine if machine is not None else get_preset(config.machine_name)
    profile_cache = profile_cache if profile_cache is not None else ProfileCache()
    candidates = candidate_space(max_block_elems=config.max_block_elems)
    coo = entry.build()
    timings: dict[str, float] = {}
    program = MatrixProgram(
        coo,
        machine,
        candidates,
        profile_cache=profile_cache,
        timings=timings,
        clock=time.perf_counter,
    )
    sweep = assemble_matrix_sweep(
        entry, coo, config, candidates, program.evaluate
    )
    sweep._phase_timings = timings
    return sweep


def run_sweep(
    entries: Iterable[SuiteEntry] | None = None,
    config: SweepConfig = SweepConfig(),
    *,
    machine: MachineModel | None = None,
    progress: bool = False,
    profile_cache: ProfileCache | None = None,
) -> SweepResult:
    """Run the sweep serially in-process (no caching, no pool).

    This is the reference path the engine's parallel output is tested
    against; production runs go through :func:`load_or_run_sweep`.
    ``entries`` defaults to ``config.entries()``.  ``profile_cache`` lets
    callers share one calibration across runs.
    """
    machine = machine if machine is not None else get_preset(config.machine_name)
    if profile_cache is None:
        profile_cache = ProfileCache()

    t_start = time.perf_counter()
    matrices: list[MatrixSweep] = []
    for entry in config.entries() if entries is None else entries:
        t0 = time.perf_counter()
        matrices.append(
            sweep_matrix(
                entry, config, machine=machine, profile_cache=profile_cache
            )
        )
        if progress:
            print(
                f"[sweep] {entry.idx:2d} {entry.name:15s} "
                f"({time.perf_counter() - t0:5.1f}s)",
                flush=True,
            )
    return SweepResult(
        config=config,
        matrices=matrices,
        elapsed_s=time.perf_counter() - t_start,
    )


def load_or_run_sweep(
    config: SweepConfig = SweepConfig(),
    *,
    cache_dir: str | Path = DEFAULT_CACHE_DIR,
    progress: bool = False,
    jobs: int | None = 1,
    resume: bool = True,
    run_log: str | Path | None = None,
    profile: bool = False,
) -> SweepResult:
    """Return the sweep for ``config``, served from its shards or run.

    Runs through the :mod:`repro.engine` worker pool, whose shard store
    is the sweep's only cache: a completed config is served shard by
    shard (one ``shard_cached`` event each, no ``shard_start``).

    * ``jobs`` — worker processes (``None`` = ``os.cpu_count()``).
    * ``resume`` — reuse the shards an earlier run persisted; ``False``
      discards them and recomputes everything (``--fresh``).
    * ``run_log`` — append machine-readable JSONL engine events here.
    * ``profile`` — print a per-shard and aggregate phase-timing breakdown
      (convert / stats / simulate / models seconds) after the sweep.
    """
    # Opening the cache dir is the natural place to collect orphaned tmp
    # files left by crashed writers (ours or a sibling process's).
    if Path(cache_dir).is_dir():
        remove_stale_tmp_files(cache_dir)

    # Imported here, not at module top: the engine is built on top of this
    # module and importing it eagerly would be circular.
    from ..engine.events import JsonlReporter, PhaseReporter, ProgressReporter
    from ..engine.pool import SweepEngine

    reporters = []
    if progress:
        reporters.append(ProgressReporter())
    if profile:
        reporters.append(PhaseReporter())
    log_reporter = None
    if run_log is not None:
        log_reporter = JsonlReporter(run_log)
        reporters.append(log_reporter)
    try:
        return SweepEngine(
            config,
            cache_dir=cache_dir,
            jobs=jobs,
            resume=resume,
            reporters=reporters,
        ).run()
    finally:
        if log_reporter is not None:
            log_reporter.close()
