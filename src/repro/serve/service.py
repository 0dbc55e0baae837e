"""The thread-safe format-advisor service.

:class:`AdvisorService` wraps the paper's model-based tuning loop (ranking
candidates by their batched model predictions,
:meth:`repro.machine.batch.MatrixProgram.predict`) into a long-lived,
concurrent, cached service:

* **profile once** — the machine profile is calibrated lazily per precision
  and shared (read-only) across every request and thread;
* **prune** — the candidate space is cut down from features before any
  conversion happens (:mod:`repro.serve.pruning`), unless the caller asks
  for the exhaustive loop;
* **cache** — recommendations persist in the fingerprint-keyed
  :class:`~repro.serve.store.AdvisorStore`, versioned by the profile
  calibration, so a repeated matrix is answered without touching a model;
* **learn** — with a :class:`~repro.learn.LearnConfig` the service drives
  the online training loop (:mod:`repro.learn`): every answered request is
  trace-logged and shadow-compared, published models guide the candidate
  pool on non-holdout requests, and a drift alarm falls the service back
  to pure model-based selection (see ``docs/learning.md``).
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..learn import LearnConfig

from ..core.candidates import Candidate, candidate_space
from ..core.learned import feature_vector
from ..core.models import MODELS
from ..core.profiling import ProfileCache, ProfileStore
from ..core.selection import rank_with_model
from ..durability.report import forward_to_bus
from ..engine.events import EventBus
from ..errors import ServiceUnavailableError
from ..formats.coarsen import Coarsening
from ..formats.coo import COOMatrix
from ..machine.batch import MatrixProgram
from ..machine.machine import MachineModel
from ..machine.presets import get_preset
from ..resilience.faults import current_plan, fault_point
from ..resilience.guard import BreakerConfig, CircuitBreaker, Deadline
from ..types import Impl, Precision
from .features import FEATURES_VERSION, MatrixFeatures, extract_features
from .pruning import PruneDecision, prune_candidates
from .store import AdvisorStore, profile_token

__all__ = [
    "AdviseOptions",
    "RankedCandidate",
    "Recommendation",
    "AdvisorService",
    "resolve_matrix",
]

logger = logging.getLogger(__name__)

DEFAULT_MACHINE = "core2-xeon-2.66"


def resolve_matrix(matrix: COOMatrix | str | int | Path) -> COOMatrix:
    """Turn a request's matrix spec into a pattern.

    Accepts a :class:`COOMatrix`, a suite entry name or 1-based index, or a
    path to a Matrix Market file (detected by suffix / existence).
    """
    if isinstance(matrix, COOMatrix):
        return matrix
    if isinstance(matrix, int):
        from ..matrices.suite import get_entry

        return get_entry(matrix).build()
    spec = str(matrix)
    path = Path(spec)
    if path.suffix in (".mtx", ".gz") or path.exists():
        from ..matrices.mmio import read_matrix_market

        return read_matrix_market(path).pattern_only()
    from ..matrices.suite import get_entry

    if spec.isdigit():
        return get_entry(int(spec)).build()
    return get_entry(spec).build()


@dataclass(frozen=True)
class AdviseOptions:
    """Everything (besides the matrix and the profile) that determines a
    recommendation — the options half of the cache key."""

    model: str = "overlap"
    precision: str = "dp"
    nthreads: int = 1
    prune: bool = True
    max_block_elems: int = 8

    def cache_key(self) -> str:
        return (
            f"v{FEATURES_VERSION}|{self.model}|{self.precision}"
            f"|t{self.nthreads}|p{int(self.prune)}|e{self.max_block_elems}"
        )

    def to_payload(self) -> dict:
        return {
            "model": self.model,
            "precision": self.precision,
            "nthreads": self.nthreads,
            "prune": self.prune,
            "max_block_elems": self.max_block_elems,
        }


@dataclass(frozen=True)
class RankedCandidate:
    """One entry of a recommendation's ranking."""

    kind: str
    block: tuple[int, int] | int | None
    impl: str
    predicted_s: float

    @property
    def candidate(self) -> Candidate:
        return Candidate(self.kind, self.block, Impl(self.impl))

    @property
    def label(self) -> str:
        return self.candidate.label

    def to_payload(self) -> dict:
        return {
            "kind": self.kind,
            "block": self.block,
            "impl": self.impl,
            "predicted_s": self.predicted_s,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "RankedCandidate":
        block = payload["block"]
        if isinstance(block, list):
            block = tuple(block)
        return cls(
            kind=payload["kind"],
            block=block,
            impl=payload["impl"],
            predicted_s=payload["predicted_s"],
        )


@dataclass
class Recommendation:
    """The advisor's answer for one matrix."""

    fingerprint: str
    nrows: int
    ncols: int
    nnz: int
    options: AdviseOptions
    #: Every candidate the selected model scored, best first.
    ranking: list[RankedCandidate]
    n_candidates_evaluated: int
    n_candidates_total: int
    n_structures_evaluated: int
    n_structures_total: int
    elapsed_s: float
    cache_hit: bool = False
    #: True when the answer was served from cache *because* the circuit
    #: breaker is open (the cold path is refusing work).  Like
    #: ``cache_hit`` this is per-response state, never persisted.
    degraded: bool = False
    features: dict | None = None
    pruned_structures: dict[str, str] = field(default_factory=dict)
    #: Phase → seconds breakdown of the evaluation (convert / stats /
    #: simulate / models); ``None`` on cache hits served from entries
    #: written before the field existed.
    phase_timings: dict[str, float] | None = None
    #: Learn-mode annotations (serving mode, model version, shadow
    #: outcome) stamped by the learn runtime.  Per-response state like
    #: ``cache_hit``/``degraded`` — never persisted in the cache.
    learned: dict | None = None

    @property
    def best(self) -> RankedCandidate:
        return self.ranking[0]

    def top(self, n: int) -> list[RankedCandidate]:
        return self.ranking[:n]

    def to_payload(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "nrows": self.nrows,
            "ncols": self.ncols,
            "nnz": self.nnz,
            "options": self.options.to_payload(),
            "ranking": [r.to_payload() for r in self.ranking],
            "n_candidates_evaluated": self.n_candidates_evaluated,
            "n_candidates_total": self.n_candidates_total,
            "n_structures_evaluated": self.n_structures_evaluated,
            "n_structures_total": self.n_structures_total,
            "elapsed_s": self.elapsed_s,
            "features": self.features,
            "pruned_structures": self.pruned_structures,
            "phase_timings": self.phase_timings,
        }

    @classmethod
    def from_payload(
        cls, payload: dict, *, cache_hit: bool = False
    ) -> "Recommendation":
        return cls(
            fingerprint=payload["fingerprint"],
            nrows=payload["nrows"],
            ncols=payload["ncols"],
            nnz=payload["nnz"],
            options=AdviseOptions(**payload["options"]),
            ranking=[
                RankedCandidate.from_payload(r) for r in payload["ranking"]
            ],
            n_candidates_evaluated=payload["n_candidates_evaluated"],
            n_candidates_total=payload["n_candidates_total"],
            n_structures_evaluated=payload["n_structures_evaluated"],
            n_structures_total=payload["n_structures_total"],
            elapsed_s=payload["elapsed_s"],
            cache_hit=cache_hit,
            features=payload.get("features"),
            pruned_structures=dict(payload.get("pruned_structures", {})),
            phase_timings=payload.get("phase_timings"),
        )


class _EventCounter:
    """Bus reporter that tallies resilience events for ``GET /stats``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counts: dict[str, int] = {}

    def handle(self, event: dict) -> None:
        kind = event["event"]
        with self._lock:
            self.counts[kind] = self.counts.get(kind, 0) + 1

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self.counts)


class AdvisorService:
    """Thread-safe advise over one machine model.

    >>> service = AdvisorService()
    >>> rec = service.advise("dense")
    >>> rec.best.label
    'BCSR 8x1 simd'
    """

    def __init__(
        self,
        machine: MachineModel | None = None,
        *,
        cache_dir: str | Path | None = ".repro_cache",
        profile_cache: ProfileCache | None = None,
        breaker_config: BreakerConfig | None = None,
        reporters: tuple | list = (),
        worker_id: int | None = None,
        learn_config: "LearnConfig | None" = None,
        drift_breaker_config: BreakerConfig | None = None,
    ) -> None:
        self.machine = (
            machine if machine is not None else get_preset(DEFAULT_MACHINE)
        )
        if profile_cache is None:
            # With a cache dir the calibration itself persists too: a
            # restarted service warm-starts from disk instead of paying the
            # multi-second calibration again (the round trip is float-exact,
            # so recommendations and cache tokens are unchanged).
            profile_cache = (
                ProfileStore(cache_dir) if cache_dir is not None else ProfileCache()
            )
        self.profile_cache = profile_cache
        self.store = AdvisorStore(cache_dir) if cache_dir is not None else None
        #: Identifies this service in a fleet's aggregated ``/stats`` view
        #: (``None`` for a standalone server).
        self.worker_id = worker_id
        self._profile_lock = threading.Lock()
        self._tokens: dict[Precision, str] = {}
        # Warmup/readiness: the event is *set* when the service is ready to
        # take traffic.  With no warmup requested the service is born ready;
        # ``start_warmup``/``warmup`` clear it until calibration completes,
        # which ``GET /readyz`` surfaces as a 503.
        self._warmup_done = threading.Event()
        self._warmup_done.set()
        self._stats_lock = threading.Lock()
        self._counters = {
            "requests": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "errors": 0,
            "degraded": 0,
        }
        self._latency_total_s = 0.0
        self._latency_count = 0
        # Resilience: one circuit breaker per precision (each precision is
        # its own failure domain), and an event bus carrying the
        # resilience event stream (fault_injected, breaker_*, request_*,
        # drain_*) into /stats and any subscribed run log.
        self.breaker_config = (
            breaker_config if breaker_config is not None else BreakerConfig()
        )
        self._breakers: dict[str, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        self.bus = EventBus(reporters)
        self._event_counter = _EventCounter()
        self.bus.subscribe(self._event_counter)
        # Durability wiring (last-wins, like FaultPlan.on_inject): cache
        # corruption detections and degraded writes from any owner in
        # this process land on the service bus and therefore in /stats.
        forward_to_bus(self.bus)
        # Online learning (docs/learning.md): needs the persistent cache
        # dir for the trace log and model registry.
        self.learn = None
        if learn_config is not None:
            if cache_dir is None:
                raise ValueError(
                    "learning requires a cache_dir (trace log + model store)"
                )
            from ..learn import LearnRuntime

            self.learn = LearnRuntime(
                cache_dir,
                machine=self.machine,
                bus=self.bus,
                config=learn_config,
                drift_breaker_config=drift_breaker_config,
            )
        plan = current_plan()
        if plan is not None:
            plan.on_inject = lambda ev: self.bus.emit("fault_injected", **ev)

    # ---------------------------- resilience ---------------------------- #
    def _breaker(self, precision: Precision) -> CircuitBreaker:
        key = precision.value
        with self._breaker_lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(self.breaker_config)
                self._breakers[key] = breaker
            return breaker

    # ----------------------------- profiling --------------------------- #
    def _profile_and_token(self, precision: Precision):
        """The calibrated profile and its cache token (thread-safe)."""
        fault_point("serve.service.profile")
        with self._profile_lock:
            profile = self.profile_cache.get(self.machine, precision)
            token = self._tokens.get(precision)
            if token is None:
                token = profile_token(profile)
                self._tokens[precision] = token
        return profile, token

    # ------------------------------ warmup ------------------------------ #
    def warmup(self, precisions: Sequence[Precision | str] = ("dp",)) -> None:
        """Calibrate (or disk-load) the profile for each precision now.

        The service reports not-ready (``warmed_up`` False, ``/readyz``
        503) until the pass completes, so a fleet balancer never routes to
        a worker that would stall its first requests on the multi-second
        calibration.
        """
        self._warmup_done.clear()
        try:
            for precision in precisions:
                self._profile_and_token(Precision.coerce(precision))
        finally:
            self._warmup_done.set()

    def start_warmup(
        self, precisions: Sequence[Precision | str] = ("dp",)
    ) -> threading.Thread:
        """Run :meth:`warmup` on a background thread (returns it)."""
        self._warmup_done.clear()
        thread = threading.Thread(
            target=self.warmup,
            args=(tuple(precisions),),
            name="advisor-warmup",
            daemon=True,
        )
        thread.start()
        return thread

    @property
    def warmed_up(self) -> bool:
        """True unless a requested warmup is still running."""
        return self._warmup_done.is_set()

    # ------------------------------ advise ----------------------------- #
    def advise(
        self,
        matrix: COOMatrix | str | int | Path,
        *,
        model: str = "overlap",
        precision: Precision | str = "dp",
        nthreads: int = 1,
        prune: bool = True,
        use_cache: bool = True,
        max_block_elems: int = 8,
        deadline: Deadline | None = None,
    ) -> Recommendation:
        """Recommend (format, block, implementation) tuples for ``matrix``.

        ``deadline`` bounds the request: it is checked at every phase
        boundary of the evaluation, and an expired deadline raises
        :class:`~repro.errors.DeadlineExceededError` (HTTP 504 on the
        server) instead of holding the thread for the full evaluation.
        """
        t0 = time.perf_counter()
        self._bump("requests")
        # A plan installed after service construction (API/tests) still gets
        # its injections surfaced as fault_injected events.
        plan = current_plan()
        if plan is not None and plan.on_inject is None:
            plan.on_inject = lambda ev: self.bus.emit("fault_injected", **ev)
        try:
            rec = self._advise_inner(
                matrix,
                AdviseOptions(
                    model=model,
                    precision=Precision.coerce(precision).value,
                    nthreads=nthreads,
                    prune=prune,
                    max_block_elems=max_block_elems,
                ),
                use_cache=use_cache,
                deadline=deadline,
            )
        except Exception:
            self._bump("errors")
            raise
        rec.elapsed_s = time.perf_counter() - t0
        with self._stats_lock:
            self._latency_total_s += rec.elapsed_s
            self._latency_count += 1
        if self.learn is not None and rec.learned is not None:
            # Observation is best-effort: a full disk under the trace log
            # must not fail a request whose answer is already computed.
            try:
                self.learn.finish(rec)
            except Exception as exc:  # noqa: BLE001 - never into the request
                logger.warning(
                    "learn observation failed (%s: %s); serving anyway",
                    type(exc).__name__, exc,
                )
        return rec

    def _advise_inner(
        self,
        matrix: COOMatrix | str | int | Path,
        options: AdviseOptions,
        *,
        use_cache: bool,
        deadline: Deadline | None = None,
    ) -> Recommendation:
        from .features import matrix_fingerprint

        if deadline is not None:
            deadline.check("admission")
        coo = resolve_matrix(matrix)
        precision = Precision.coerce(options.precision)
        _, token = self._profile_and_token(precision)
        fingerprint = matrix_fingerprint(coo)
        breaker = self._breaker(precision)
        if deadline is not None:
            deadline.check("profile")

        # Learn mode: decide how this request is served *before* the cache
        # lookup — a model-guided answer depends on the model version, so
        # its cache key carries it (a hot-swap can never serve stale
        # guidance), while holdout/baseline/fallback answers stay on the
        # plain key the analytic path has always used.
        decision = None
        options_key = options.cache_key()
        if self.learn is not None:
            decision = self.learn.decide(fingerprint)
            if decision.mode == "guided":
                options_key += f"|learn:{decision.model_version}"

        key = None
        if self.store is not None and use_cache:
            key = AdvisorStore.key(fingerprint, options_key, token)
            payload = self.store.load(key, token=token)
            if payload is not None:
                self._bump("cache_hits")
                rec = Recommendation.from_payload(payload, cache_hit=True)
                if decision is not None:
                    rec.learned = decision.to_payload()
                # Degraded mode: with the breaker open the cold path is
                # refusing work, but a cached answer is still a correct
                # answer — serve it, flagged.
                if breaker.state == CircuitBreaker.OPEN:
                    rec.degraded = True
                    self._bump("degraded")
                return rec
        if not breaker.allow():
            raise ServiceUnavailableError(
                f"advisor circuit breaker is open for precision "
                f"{precision} (after {breaker.consecutive_failures} "
                "consecutive cold-advise failures) and no cached "
                "recommendation exists for this matrix; retry later"
            )
        self._bump("cache_misses")

        # Everything from here to the end of the ranking is the breaker's
        # protected window: consecutive failures open it, a half-open
        # probe's outcome closes or re-opens it.
        try:
            fault_point("serve.service.advise")
            candidates = candidate_space(
                max_block_elems=options.max_block_elems, include_vbl=False
            )
            n_structures_total = len({(c.kind, c.block) for c in candidates})
            # The feature probes and the planner share one set of coarse
            # products; it dies with this request.
            coarsening = Coarsening(coo)
            features: MatrixFeatures | None = None
            pruning: PruneDecision | None = None
            pool = candidates
            if options.prune:
                features = extract_features(
                    coo, fingerprint=fingerprint, coarsening=coarsening
                )
                pruning = prune_candidates(
                    features, candidates, precision=precision
                )
                pool = pruning.kept
            if self.learn is not None and features is None:
                # Learning needs the feature bundle even on --no-prune
                # requests: the trace logs the derived vector and the
                # shadow comparison predicts from it.
                features = extract_features(
                    coo, fingerprint=fingerprint, coarsening=coarsening
                )
            predicted_kind = None
            if (
                decision is not None
                and decision.mode == "guided"
                and features is not None
            ):
                predicted_kind = decision.tree.predict(
                    feature_vector(features, self.machine, precision)
                )
                guided = [c for c in pool if c.kind == predicted_kind]
                if guided:
                    pool = guided
            if deadline is not None:
                deadline.check("prune")

            model = MODELS[options.model]
            timings: dict[str, float] = {}
            program = MatrixProgram(
                coo,
                self.machine,
                pool,
                profile_cache=self.profile_cache,
                timings=timings,
                clock=time.perf_counter,
                coarsening=coarsening,
            )
            results = program.predict(
                precision, options.nthreads, pool, models=(model.name,)
            )
            if deadline is not None:
                deadline.check("evaluate")
            ranking = [
                RankedCandidate(
                    kind=r.candidate.kind,
                    block=r.candidate.block,
                    impl=r.candidate.impl.value,
                    predicted_s=r.predictions[model.name],
                )
                for r in rank_with_model(results, model.name)
            ]
        except Exception:
            if breaker.record_failure() == "open":
                self.bus.emit(
                    "breaker_open",
                    precision=precision.value,
                    failures=breaker.consecutive_failures,
                )
            raise
        if breaker.record_success() == "close":
            self.bus.emit("breaker_close", precision=precision.value)
        rec = Recommendation(
            fingerprint=fingerprint,
            nrows=coo.nrows,
            ncols=coo.ncols,
            nnz=coo.nnz,
            options=options,
            ranking=ranking,
            n_candidates_evaluated=len(pool),
            n_candidates_total=len(candidates),
            n_structures_evaluated=len({(c.kind, c.block) for c in pool}),
            n_structures_total=n_structures_total,
            elapsed_s=0.0,
            features=features.to_payload() if features is not None else None,
            pruned_structures=dict(pruning.dropped) if pruning else {},
            phase_timings={k: round(v, 6) for k, v in timings.items()},
        )
        if decision is not None:
            rec.learned = decision.to_payload()
            if predicted_kind is not None:
                rec.learned["predicted_kind"] = predicted_kind
        if self.store is not None and use_cache and key is not None:
            # Best-effort: a failed cache save (full disk, injected store
            # fault) must not fail a request whose answer is already
            # computed — the atomic writer guarantees no partial entry is
            # left behind, and the next request simply recomputes.
            # (CacheWriteError never reaches here: the store maps it to a
            # cache_write_failed event itself; this catch is for injected
            # faults and anything else unexpected.)
            try:
                self.store.save(
                    key, rec.to_payload(), fingerprint=fingerprint, token=token
                )
            except Exception as exc:  # noqa: BLE001 - save is best-effort
                logger.warning(
                    "advisor cache save failed (%s: %s); serving uncached",
                    type(exc).__name__, exc,
                )
        return rec

    # ------------------------------ stats ------------------------------ #
    def _bump(self, counter: str) -> None:
        with self._stats_lock:
            self._counters[counter] += 1

    def stats(self) -> dict:
        """A snapshot of the service counters (for ``GET /stats``)."""
        with self._stats_lock:
            snap = dict(self._counters)
            total = self._latency_count
            snap["mean_latency_s"] = (
                self._latency_total_s / total if total else 0.0
            )
        snap["machine"] = self.machine.name
        snap["worker_id"] = self.worker_id
        snap["cache_entries"] = (
            self.store.entry_count() if self.store is not None else 0
        )
        snap["persistent_cache"] = self.store is not None
        with self._breaker_lock:
            breakers = dict(self._breakers)
        snap["resilience"] = {
            "events": self._event_counter.snapshot(),
            "breakers": {
                precision: breaker.snapshot()
                for precision, breaker in sorted(breakers.items())
            },
        }
        snap["learn"] = (
            self.learn.snapshot()
            if self.learn is not None
            else {"enabled": False}
        )
        return snap
