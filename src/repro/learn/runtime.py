"""The learn runtime: per-request decisions, shadow eval, trace logging.

:class:`LearnRuntime` is what an :class:`~repro.serve.service.AdvisorService`
holds when learning is enabled.  Per request it makes one **serving-mode
decision** (:meth:`decide`) before the cache lookup and one
**observation pass** (:meth:`finish`) after the answer is ready:

``baseline``
    No published model yet (or no features): pure analytic selection,
    logged for training.
``holdout``
    The matrix is in the deterministic held-out split
    (:func:`~repro.learn.shadow.is_holdout`): always served by the
    analytic model, shadow-compared, and the only mode that drives the
    drift breaker.
``guided``
    A published model restricts the candidate pool to its predicted
    format kind before evaluation; the answer is cached under a
    model-version-suffixed key so hot-swaps never serve stale guidance.
``fallback``
    The drift breaker is open: guided serving is suspended and requests
    are served exactly like ``baseline`` until the holdout gap recovers.

Feature consistency: the 10-entry vector is
:func:`repro.core.learned.feature_vector` of the serve layer's cheap
:class:`~repro.serve.features.MatrixFeatures` bundle — the same bundle
the pruner computes and the cache persists, and the same function the
offline :class:`~repro.core.learned.LearnedSelector` classifies with — so
training (which reads the logged vectors) and serving see identical
features by construction, and cache hits never pay a re-extraction.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from ..core.learned import FEATURE_NAMES, DecisionTree, feature_vector
from ..engine.events import EventBus
from ..machine.machine import MachineModel
from ..resilience.guard import BreakerConfig
from ..serve.features import MatrixFeatures
from .registry import ModelRegistry
from .shadow import ShadowEvaluator, is_holdout
from .tracelog import TraceLog
from .trainer import Trainer

__all__ = [
    "FEATURE_NAMES",
    "MODES",
    "LearnConfig",
    "LearnDecision",
    "LearnRuntime",
    "feature_vector",
]

MODES = ("baseline", "holdout", "guided", "fallback")


@dataclass(frozen=True)
class LearnConfig:
    """Knobs of the online-learning loop (CLI: ``serve --learn ...``)."""

    #: 1-in-N matrix fingerprints are held out (<=1 holds out everything).
    holdout_mod: int = 8
    #: Rolling holdout gap above this trips the drift breaker.
    drift_threshold: float = 0.5
    #: Rolling-window length (holdout observations).
    drift_window: int = 32
    #: Observations required before the gap is considered meaningful.
    drift_min_window: int = 8
    #: Trace segment rollover size and retained-segment cap.
    max_segment_bytes: int = 1_000_000
    max_segments: int = 4
    #: Trace appends buffered between disk flushes.  Larger batches keep
    #: the amortized flush out of latency percentiles at the price of a
    #: longer buffered tail on a hard crash (this is a training log; the
    #: tail is expendable).
    trace_flush_records: int = 128
    #: In-process trainer period (``None``: train via ``repro train`` only).
    train_interval_s: float | None = None
    #: Minimum eligible trace records before a refit publishes.
    min_train_samples: int = 8
    #: Poll the registry pointer every Nth request (cross-process publishes
    #: only — the in-process trainer hot-swaps immediately on publish).  A
    #: ``stat`` per request is measurable on the cache-hit path; 1 keeps
    #: the old always-poll behaviour.
    reload_poll_every: int = 64


@dataclass(frozen=True)
class LearnDecision:
    """One request's serving-mode decision (made before the cache lookup)."""

    mode: str
    model_version: str | None
    holdout: bool
    tree: DecisionTree | None

    def to_payload(self) -> dict:
        return {
            "mode": self.mode,
            "model_version": self.model_version,
            "holdout": self.holdout,
        }


class LearnRuntime:
    """Everything learn-related one advisor service owns (thread-safe)."""

    def __init__(
        self,
        cache_dir: str | Path,
        *,
        machine: MachineModel,
        bus: EventBus,
        config: LearnConfig | None = None,
        drift_breaker_config: BreakerConfig | None = None,
    ) -> None:
        self.config = config if config is not None else LearnConfig()
        self.machine = machine
        self.bus = bus
        self.tracelog = TraceLog(
            cache_dir,
            max_segment_bytes=self.config.max_segment_bytes,
            max_segments=self.config.max_segments,
            flush_records=self.config.trace_flush_records,
        )
        self.registry = ModelRegistry(cache_dir)
        self.shadow = ShadowEvaluator(
            threshold=self.config.drift_threshold,
            window=self.config.drift_window,
            min_window=self.config.drift_min_window,
            breaker_config=drift_breaker_config,
        )
        self.trainer: Trainer | None = None
        self._lock = threading.Lock()
        self._mode_counts = {mode: 0 for mode in MODES}
        self._model_swaps = 0
        self._decide_counter = 0
        # Derived-vector memo, ``(vector, rounded)`` per (fingerprint,
        # precision): cache hits re-observe the same matrix, and the
        # vector is a pure function of (fingerprint, precision) under one
        # profile — re-deriving (and re-rounding) it per request would
        # dominate the learn overhead on the hot path.
        self._vector_cache: OrderedDict[
            tuple[str, str], tuple[list[float], list[float]]
        ] = OrderedDict()
        self._vector_cache_max = 512
        # Adopt a model a previous run (or another worker sharing the
        # cache partition) already published.
        self.maybe_reload()

    # --------------------------- model swap ----------------------------- #
    def maybe_reload(self) -> bool:
        """Poll the registry pointer; emit ``model_swap`` on a hot-swap."""
        swap = self.registry.reload()
        if swap is None:
            return False
        old, new = swap
        with self._lock:
            self._model_swaps += 1
        self.bus.emit("model_swap", old_version=old, new_version=new)
        return True

    def start_trainer(self) -> Trainer:
        """Spawn the periodic in-process trainer (``--train-interval``)."""
        if self.config.train_interval_s is None:
            raise ValueError("LearnConfig.train_interval_s is not set")
        if self.trainer is not None:
            raise RuntimeError("trainer already started")
        self.trainer = Trainer(
            self.tracelog,
            self.registry,
            interval_s=self.config.train_interval_s,
            min_samples=self.config.min_train_samples,
            bus=self.bus,
            on_publish=self.maybe_reload,
        )
        self.trainer.start()
        return self.trainer

    def stop(self) -> None:
        if self.trainer is not None:
            self.trainer.stop()
        self.tracelog.flush()

    # ---------------------------- decisions ----------------------------- #
    def decide(self, fingerprint: str) -> LearnDecision:
        """The serving mode for this request (see the module docstring)."""
        # The pointer stat behind maybe_reload() costs ~10us; amortize it.
        # The very first request polls (counter 0), so a model published
        # before traffic starts is adopted immediately.
        with self._lock:
            poll = self._decide_counter % self.config.reload_poll_every == 0
            self._decide_counter += 1
        if poll:
            self.maybe_reload()
        tree, version = self.registry.current()
        holdout = is_holdout(fingerprint, self.config.holdout_mod)
        if holdout:
            mode = "holdout"
        elif tree is None:
            mode = "baseline"
        elif not self.shadow.active:
            mode = "fallback"
        else:
            mode = "guided"
        return LearnDecision(
            mode=mode, model_version=version, holdout=holdout, tree=tree
        )

    # --------------------------- observation ---------------------------- #
    def finish(self, rec) -> None:
        """Shadow-compare and trace-log one answered request.

        ``rec`` is the :class:`~repro.serve.service.Recommendation` with
        ``rec.learned`` stamped by the service; this runs after the
        response is fully built, so it must never raise into the request
        path (callers wrap it best-effort).
        """
        learned = rec.learned
        mode = learned["mode"]
        cache_key = (rec.fingerprint, rec.options.precision)
        with self._lock:
            self._mode_counts[mode] += 1
            cached = self._vector_cache.get(cache_key)
            if cached is not None:
                self._vector_cache.move_to_end(cache_key)
        if cached is None and rec.features is not None:
            vector = feature_vector(
                MatrixFeatures.from_payload(rec.features),
                self.machine,
                rec.options.precision,
            )
            cached = (vector, [round(v, 12) for v in vector])
            with self._lock:
                self._vector_cache[cache_key] = cached
                while len(self._vector_cache) > self._vector_cache_max:
                    self._vector_cache.popitem(last=False)
        vector, rounded = cached if cached is not None else (None, None)
        # Shadow: only meaningful where the answer is a pure analytic
        # choice (guided answers agree with the model by construction).
        if mode != "guided" and vector is not None:
            tree, _version = self.registry.current()
            if tree is not None:
                shadow_kind = tree.predict(vector)
                agree = shadow_kind == rec.best.kind
                transition, gap = self.shadow.observe(
                    agree, holdout=learned["holdout"]
                )
                learned["shadow"] = {
                    "learned_kind": shadow_kind,
                    "chosen_kind": rec.best.kind,
                    "agree": agree,
                }
                if transition == "open":
                    self.bus.emit(
                        "drift_alarm",
                        state="tripped",
                        gap=gap,
                        threshold=self.shadow.threshold,
                        window=self.shadow.window,
                    )
                elif transition == "close":
                    self.bus.emit(
                        "drift_alarm",
                        state="cleared",
                        gap=gap,
                        threshold=self.shadow.threshold,
                        window=self.shadow.window,
                    )
        record = {
            "fingerprint": rec.fingerprint,
            "mode": mode,
            "holdout": learned["holdout"],
            "model_version": learned["model_version"],
            "features": rounded,
            "options": rec.options.to_payload(),
            "chosen": rec.best.to_payload(),
            "cache_hit": rec.cache_hit,
            "shadow": learned.get("shadow"),
            "elapsed_s": rec.elapsed_s,
        }
        self.tracelog.append(record)
        self.bus.emit(
            "trace_logged",
            fingerprint=rec.fingerprint,
            mode=mode,
            holdout=learned["holdout"],
        )

    # ------------------------------ stats ------------------------------- #
    def snapshot(self) -> dict:
        """The ``learn`` block of ``GET /stats``."""
        _tree, version = self.registry.current()
        with self._lock:
            modes = dict(self._mode_counts)
            swaps = self._model_swaps
        snap = {
            "enabled": True,
            "model_version": version,
            "holdout_mod": self.config.holdout_mod,
            "trace_records": self.tracelog.records_logged,
            "trace_segments": len(self.tracelog.segments()),
            "model_swaps": swaps,
            "modes": modes,
            "shadow": self.shadow.snapshot(),
            "drift_breaker": self.shadow.breaker.snapshot(),
        }
        if self.trainer is not None:
            snap["trainer"] = self.trainer.snapshot()
        return snap
