"""The sweep execution engine: worker pool, retries, resume, assembly.

:class:`SweepEngine` turns a :class:`~repro.bench.harness.SweepConfig` into
a complete (or explicitly partial) :class:`~repro.bench.harness.SweepResult`:

1. **Plan** — decompose the config into per-matrix shard tasks.
2. **Resume** — serve every shard already persisted by an earlier run
   straight from the :class:`~repro.engine.shards.ShardStore`.
3. **Execute** — run the remaining shards on a ``ProcessPoolExecutor``
   (``jobs`` workers; ``jobs=1`` runs inline in-process, which is also the
   hook tests use to inject faulty task functions with local state).
4. **Retry / quarantine** — a failed shard is retried with bounded
   exponential backoff; after ``max_retries`` retries it is quarantined
   and reported in ``SweepResult.missing`` instead of crashing the sweep.
   A worker that dies (SIGKILL, the OOM killer) breaks the whole pool:
   every shard in flight is charged one attempt, and those that may retry
   run again on a fresh pool.
5. **Assemble** — completed shards are stitched together in suite order,
   so the result is record-for-record identical to the serial
   :func:`~repro.bench.harness.run_sweep` regardless of worker count.

Every step is emitted on an :class:`~repro.engine.events.EventBus`.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import resource
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Callable

from ..bench.harness import (
    DEFAULT_CACHE_DIR,
    MatrixSweep,
    SweepConfig,
    SweepResult,
)
from ..core.profiling import BlockProfile, ProfileStore
from ..durability.report import forward_to_bus
from ..machine.presets import get_preset
from ..resilience.faults import current_plan, fault_point
from .events import EventBus, Reporter
from .shards import ShardStore
from .tasks import ShardTask, plan_shards, run_shard_task

logger = logging.getLogger(__name__)

__all__ = ["SweepEngine"]

TaskFn = Callable[[ShardTask], MatrixSweep]


def _timed_task(
    task_fn: TaskFn, task: ShardTask
) -> tuple[MatrixSweep, float, float]:
    """Run one shard in the worker: ``(matrix, busy seconds, peak RSS)``.

    The peak is the worker process's largest resident set so far, in MiB
    (``ru_maxrss`` counts KiB on Linux), read after the shard finishes.
    """
    t0 = time.perf_counter()
    fault_point("engine.pool.task")
    matrix = task_fn(task)
    busy = time.perf_counter() - t0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return matrix, busy, peak_kib / 1024


class SweepEngine:
    """Parallel, resumable, fault-tolerant executor for one sweep config."""

    def __init__(
        self,
        config: SweepConfig = SweepConfig(),
        *,
        cache_dir: str | Path = DEFAULT_CACHE_DIR,
        jobs: int | None = 1,
        resume: bool = True,
        max_retries: int = 2,
        backoff_base_s: float = 0.1,
        backoff_cap_s: float = 2.0,
        task_fn: TaskFn = run_shard_task,
        reporters: tuple[Reporter, ...] | list = (),
    ) -> None:
        self.config = config
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.resume = resume
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.task_fn = task_fn
        self.cache_dir = Path(cache_dir)
        self.store = ShardStore(cache_dir, config)
        self.bus = EventBus(reporters)
        # Chaos wiring: injections from an installed FaultPlan surface as
        # fault_injected events in the run log.  Worker *processes* record
        # injections in their own plan copy; only inline (jobs=1) faults
        # and parent-side sites reach this bus.
        plan = current_plan()
        if plan is not None:
            plan.on_inject = lambda ev: self.bus.emit("fault_injected", **ev)
        # Durability wiring (same last-wins convention): corrupt-cache
        # detections and degraded writes surface on this bus too.
        forward_to_bus(self.bus)
        # Warm-starting only makes sense for the real task function — the
        # fault-injection stubs the tests substitute never calibrate, and
        # paying for calibration up front would only slow them down.
        self.warm_profiles = task_fn is run_shard_task

    # ------------------------------------------------------------------ #
    def run(self) -> SweepResult:
        t_start = time.perf_counter()
        tasks = plan_shards(self.config)
        if not self.resume:
            self.store.clear()

        completed: dict[int, MatrixSweep] = {}
        if self.resume:
            for task in tasks:
                matrix = self.store.load(task.shard_id)
                if matrix is not None:
                    completed[task.shard_id] = matrix
        n_cached = len(completed)

        self.bus.emit(
            "sweep_start",
            fingerprint=self.store.fingerprint,
            n_shards=len(tasks),
            jobs=self.jobs,
            cached=n_cached,
            resume=self.resume,
        )
        for task in tasks:
            if task.shard_id in completed:
                self.bus.emit(
                    "shard_cached", shard=task.shard_id, matrix=task.name
                )

        pending = [t for t in tasks if t.shard_id not in completed]
        failed: dict[int, str] = {}
        if pending and self.warm_profiles:
            # Only when there is real work: a fully cache-served sweep must
            # not pay the calibration cost.
            profiles = self._load_profiles()
            if profiles:
                pending = [
                    dataclasses.replace(t, profiles=profiles) for t in pending
                ]
        if pending:
            if self.jobs == 1:
                busy_s = self._run_inline(pending, completed, failed)
            else:
                busy_s = self._run_pool(pending, completed, failed)
        else:
            busy_s = 0.0

        elapsed_s = time.perf_counter() - t_start
        matrices = [
            completed[t.shard_id] for t in tasks if t.shard_id in completed
        ]
        n_records = sum(len(m.records) for m in matrices)
        self.bus.emit(
            "sweep_finish",
            fingerprint=self.store.fingerprint,
            elapsed_s=elapsed_s,
            completed=len(completed) - n_cached,
            cached=n_cached,
            quarantined=len(failed),
            records=n_records,
            shards_per_s=len(matrices) / elapsed_s if elapsed_s else 0.0,
            records_per_s=n_records / elapsed_s if elapsed_s else 0.0,
            worker_utilization=(
                busy_s / (self.jobs * elapsed_s) if elapsed_s else 0.0
            ),
            jobs=self.jobs,
        )
        return SweepResult(
            config=self.config,
            matrices=matrices,
            elapsed_s=elapsed_s,
            missing=sorted(failed),
        )

    # --------------------------- internals ---------------------------- #
    def _load_profiles(self) -> tuple[BlockProfile, ...]:
        """Calibrated profiles to warm-start the workers with.

        Served from the on-disk :class:`ProfileStore` when an earlier run
        already calibrated this machine, calibrated once here otherwise —
        either way every worker skips its own per-process calibration.
        Failures fall back to the lazy in-worker path rather than failing
        the sweep.
        """
        try:
            store = ProfileStore(self.cache_dir)
            machine = get_preset(self.config.machine_name)
            profiles = []
            for precision in self.config.precisions:
                t0 = time.perf_counter()
                profile, source = store.get_with_source(machine, precision)
                profiles.append(profile)
                self.bus.emit(
                    "profile_ready",
                    machine=self.config.machine_name,
                    precision=str(precision),
                    source=source,
                    elapsed_s=time.perf_counter() - t0,
                )
            return tuple(profiles)
        except Exception as exc:  # noqa: BLE001 - warm start is best-effort
            logger.warning(
                "profile warm start failed (%s: %s); workers will calibrate "
                "lazily", type(exc).__name__, exc,
            )
            return ()

    def _backoff(self, attempt: int) -> float:
        """Bounded exponential backoff before retry ``attempt``."""
        return min(
            self.backoff_cap_s, self.backoff_base_s * 2 ** (attempt - 2)
        )

    def _record_success(
        self,
        task: ShardTask,
        matrix: MatrixSweep,
        busy: float,
        peak_rss_mb: float,
        attempt: int,
        completed: dict[int, MatrixSweep],
    ) -> None:
        # A failed save already degraded inside the store (the event is on
        # this bus); the in-memory result below is what the sweep returns.
        self.store.save(task.shard_id, matrix, elapsed_s=busy)
        self.store.clear_quarantine(task.shard_id)
        completed[task.shard_id] = matrix
        # The worker attaches its phase breakdown as a non-field attribute;
        # it survives the pickle back from the pool but not the shard cache.
        phases = getattr(matrix, "_phase_timings", None)
        self.bus.emit(
            "shard_finish",
            shard=task.shard_id,
            matrix=task.name,
            attempt=attempt,
            elapsed_s=busy,
            records=len(matrix.records),
            phases={k: round(v, 6) for k, v in phases.items()}
            if phases
            else None,
            peak_rss_mb=round(peak_rss_mb, 1),
        )

    def _record_failure(
        self,
        task: ShardTask,
        exc: Exception,
        attempt: int,
        failed: dict[int, str],
    ) -> bool:
        """Handle one failed attempt; return True if the shard may retry.

        The exception's class name and message travel separately through
        the event bus and the quarantine marker, so a quarantined shard is
        diagnosable from the JSONL run log alone (``error_type`` +
        ``error``), without re-running the shard under a debugger.
        """
        error_type = type(exc).__name__
        error = str(exc)
        if attempt <= self.max_retries:
            backoff = self._backoff(attempt + 1)
            self.bus.emit(
                "shard_retry",
                shard=task.shard_id,
                matrix=task.name,
                attempt=attempt + 1,
                backoff_s=backoff,
                error=error,
                error_type=error_type,
            )
            time.sleep(backoff)
            return True
        self.store.quarantine(
            task.shard_id,
            error=error,
            error_type=error_type,
            attempts=attempt,
        )
        failed[task.shard_id] = f"{error_type}: {error}"
        self.bus.emit(
            "shard_quarantined",
            shard=task.shard_id,
            matrix=task.name,
            attempts=attempt,
            error=error,
            error_type=error_type,
        )
        return False

    def _run_inline(
        self,
        pending: list[ShardTask],
        completed: dict[int, MatrixSweep],
        failed: dict[int, str],
    ) -> float:
        busy_s = 0.0
        for task in pending:
            attempt = 1
            while True:
                self.bus.emit(
                    "shard_start",
                    shard=task.shard_id,
                    matrix=task.name,
                    attempt=attempt,
                )
                try:
                    matrix, busy, peak = _timed_task(self.task_fn, task)
                except Exception as exc:  # noqa: BLE001 - shard faults are data
                    if self._record_failure(task, exc, attempt, failed):
                        attempt += 1
                        continue
                    break
                busy_s += busy
                self._record_success(
                    task, matrix, busy, peak, attempt, completed
                )
                break
        return busy_s

    def _run_pool(
        self,
        pending: list[ShardTask],
        completed: dict[int, MatrixSweep],
        failed: dict[int, str],
    ) -> float:
        busy_s = 0.0
        attempts = {t.shard_id: 1 for t in pending}
        while pending:
            # A dead worker breaks the whole pool: every future in flight
            # fails with BrokenProcessPool and is charged an attempt, and
            # retries wait for a fresh pool, as this one refuses submits.
            rerun: list[ShardTask] = []
            with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                def submit(task: ShardTask) -> None:
                    try:
                        future = pool.submit(_timed_task, self.task_fn, task)
                    except BrokenProcessPool:
                        rerun.append(task)
                        return
                    futures[future] = task
                    self.bus.emit(
                        "shard_start",
                        shard=task.shard_id,
                        matrix=task.name,
                        attempt=attempts[task.shard_id],
                    )

                futures: dict[Future, ShardTask] = {}
                for task in pending:
                    submit(task)
                while futures:
                    done, _ = wait(futures, return_when=FIRST_COMPLETED)
                    for future in done:
                        task = futures.pop(future)
                        attempt = attempts[task.shard_id]
                        try:
                            matrix, busy, peak = future.result()
                        except Exception as exc:  # noqa: BLE001
                            if self._record_failure(
                                task, exc, attempt, failed
                            ):
                                attempts[task.shard_id] = attempt + 1
                                submit(task)
                            continue
                        busy_s += busy
                        self._record_success(
                            task, matrix, busy, peak, attempt, completed
                        )
            pending = rerun
        return busy_s
