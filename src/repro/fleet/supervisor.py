"""Fleet supervision: spawn, crash-restart, warm handoff, drain.

The :class:`FleetSupervisor` owns N worker slots.  Each slot holds the
*current* :class:`~repro.fleet.worker.WorkerProcess` for one shard; the
balancer routes through the slot, so swapping the process behind a slot
(restart, warm handoff) is invisible to clients beyond a transient retry.

Guarantees:

* **crash-restart with backoff** — a monitor thread notices a dead worker
  and respawns it after a seeded, decorrelated-jitter backoff (growing
  from 0.5 s, capped at 5 s; see :meth:`FleetSupervisor._next_backoff`),
  emitting ``worker_restart``; the slot routes as *down* meanwhile, so
  the balancer retries its shard on the next worker.  Jitter keeps N
  workers felled by one cause (a shared-dependency hiccup, an OOM sweep)
  from respawning in lockstep and stampeding the machine; seeding it
  (``FleetConfig.restart_seed``) keeps chaos drills reproducible;
* **warm-replica handoff** — :meth:`FleetSupervisor.replace_worker` spawns
  the replacement first, waits for its ``/readyz`` 200, atomically swaps
  it into the slot, and only then SIGTERMs the predecessor (which finishes
  its in-flight requests under PR 5's drain machinery).  At no point is
  the shard unowned;
* **graceful fleet shutdown** — :meth:`FleetSupervisor.shutdown` stops the
  monitor and waits out every restart in flight (once it begins no worker
  is mounted: a restart that loses the race stops its own worker), then
  SIGTERMs every mounted worker concurrently, waits out their drains and
  escalates to SIGKILL only past the deadline
  (``fleet_drain_begin`` / ``fleet_drain_end`` events).  A worker that
  had already crashed has nothing to drain and does not make it unclean.

Every lifecycle step is emitted on the supervisor's
:class:`~repro.engine.events.EventBus` (``worker_spawn``, ``worker_ready``,
``worker_restart``, ``fleet_drain_begin/end``), so a fleet run's exact
history lands in the same JSONL run logs the sweep engine uses.
"""

from __future__ import annotations

import logging
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..engine.events import EventBus
from .worker import DEFAULT_READY_TIMEOUT_S, WorkerProcess

__all__ = ["FleetConfig", "WorkerSlot", "FleetSupervisor"]

logger = logging.getLogger(__name__)

#: Restart backoff floor (also the first attempt's lower bound).
RESTART_BACKOFF_S = 0.5
#: Ceiling on the restart backoff.
MAX_BACKOFF_S = 5.0
#: Monitor poll interval.
MONITOR_POLL_S = 0.2


@dataclass(frozen=True)
class FleetConfig:
    """Everything a fleet spawn needs (one object, CLI-mappable)."""

    workers: int = 2
    cache_dir: str | Path = ".repro_cache"
    host: str = "127.0.0.1"
    #: Per-worker admission bound (None = the server default of 8).
    max_inflight: int | None = None
    #: Per-request deadline forwarded to every worker.
    request_timeout_s: float | None = None
    #: Per-worker SIGTERM drain budget.
    drain_timeout_s: float | None = None
    #: Chaos plan spec (inline JSON or path) forwarded to every worker.
    fault_plan: str | None = None
    #: How long one worker may take from spawn to ready.
    ready_timeout_s: float = DEFAULT_READY_TIMEOUT_S
    #: Whole-fleet drain budget on shutdown.
    fleet_drain_timeout_s: float = 30.0
    #: Seed for the per-slot restart-backoff jitter: equal seeds replay
    #: the exact same backoff sequence (reproducible chaos drills).
    restart_seed: int = 0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass
class WorkerSlot:
    """One shard's mount point: the current process plus routing state."""

    index: int
    worker: WorkerProcess | None = None
    ready: bool = False
    restarts: int = 0
    #: Guards ``worker``/``ready``/``restarts`` — the balancer reads them
    #: from request threads while the monitor swaps processes.
    lock: threading.Lock = field(default_factory=threading.Lock)

    def snapshot(self) -> dict:
        with self.lock:
            worker = self.worker
            return {
                "worker_id": self.index,
                "ready": self.ready,
                "restarts": self.restarts,
                "pid": worker.pid if worker is not None else None,
                "port": worker.port if worker is not None else None,
            }

    def route_target(self) -> str | None:
        """The worker's base URL if the slot is routable, else ``None``."""
        with self.lock:
            if self.ready and self.worker is not None:
                return self.worker.base_url
            return None

    def mark_down(self) -> None:
        """Balancer feedback: a proxied request hit a dead socket."""
        with self.lock:
            self.ready = False


class FleetSupervisor:
    """Owns the worker slots; keeps every shard served."""

    def __init__(
        self, config: FleetConfig, *, bus: EventBus | None = None
    ) -> None:
        self.config = config
        self.bus = bus if bus is not None else EventBus()
        self.slots = tuple(
            WorkerSlot(index=i) for i in range(config.workers)
        )
        self._stop = threading.Event()
        self._monitor: threading.Thread | None = None
        # Slots currently being restarted/replaced, so the monitor never
        # doubles up on one slot (guarded by _restart_lock).
        self._restart_lock = threading.Lock()
        self._restarting: set[int] = set()
        # Crash-restart threads, which shutdown waits out (same lock).
        self._restart_threads: list[threading.Thread] = []
        # Per-slot seeded RNGs for the backoff jitter: distinct streams
        # per slot (so co-crashing workers draw *different* delays) that
        # replay identically for a given FleetConfig.restart_seed.
        self._backoff_rng = {
            i: random.Random(f"{config.restart_seed}:{i}")
            for i in range(config.workers)
        }
        self._prev_backoff: dict[int, float] = {}

    # ------------------------------ spawn -------------------------------- #
    def _new_worker(self, index: int) -> WorkerProcess:
        cfg = self.config
        return WorkerProcess(
            index,
            cache_dir=cfg.cache_dir,
            profile_dir=Path(cfg.cache_dir),
            host=cfg.host,
            max_inflight=cfg.max_inflight,
            request_timeout_s=cfg.request_timeout_s,
            drain_timeout_s=cfg.drain_timeout_s,
            fault_plan=cfg.fault_plan,
        )

    def _mount(
        self, slot: WorkerSlot, worker: WorkerProcess
    ) -> tuple[bool, WorkerProcess | None]:
        """Swap a ready ``worker`` into ``slot``: ``(True, predecessor)``.

        Once :meth:`shutdown` has begun nothing is mounted and this
        returns ``(False, None)``; the caller stops ``worker`` itself.
        The check and the swap share the slot lock that shutdown takes to
        collect the slot, so a worker is either collected or never mounted.
        """
        with slot.lock:
            if self._stop.is_set():
                return False, None
            old, slot.worker, slot.ready = slot.worker, worker, True
        return True, old

    def _spawn_into_slot(self, slot: WorkerSlot) -> None:
        """Spawn a fresh worker, wait for readiness, mount it (or, once
        shutdown has begun, stop it again)."""
        t0 = time.monotonic()
        worker = self._new_worker(slot.index)
        port = worker.spawn()
        self.bus.emit(
            "worker_spawn",
            worker_id=slot.index,
            pid=worker.pid,
            port=port,
        )
        ready = worker.wait_ready(
            self.config.ready_timeout_s, cancel=self._stop
        )
        if not (ready and self._mount(slot, worker)[0]):
            worker.stop(timeout_s=2.0)
            if self._stop.is_set():
                return
            raise RuntimeError(
                f"worker {slot.index} failed to report ready within "
                f"{self.config.ready_timeout_s:.0f}s"
            )
        self.bus.emit(
            "worker_ready",
            worker_id=slot.index,
            port=port,
            elapsed_s=round(time.monotonic() - t0, 3),
        )

    def start(self) -> None:
        """Spawn every worker (concurrently), then start the monitor."""
        errors: list[BaseException] = []

        def spawn_one(slot: WorkerSlot) -> None:
            try:
                self._spawn_into_slot(slot)
            except BaseException as exc:  # noqa: BLE001 - collected below
                errors.append(exc)

        threads = [
            threading.Thread(target=spawn_one, args=(slot,), daemon=True)
            for slot in self.slots
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            self.shutdown()
            raise RuntimeError(
                f"fleet startup failed: {errors[0]}"
            ) from errors[0]
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="fleet-monitor", daemon=True
        )
        self._monitor.start()

    # ------------------------------ monitor ------------------------------ #
    def _monitor_loop(self) -> None:
        while not self._stop.wait(MONITOR_POLL_S):
            for slot in self.slots:
                with slot.lock:
                    worker = slot.worker
                crashed = worker is not None and worker.poll() is not None
                if crashed and not self._stop.is_set():
                    self._begin_restart(slot, worker)

    def _begin_restart(
        self, slot: WorkerSlot, dead: WorkerProcess
    ) -> None:
        with self._restart_lock:
            if slot.index in self._restarting:
                return
            self._restarting.add(slot.index)
        with slot.lock:
            if slot.worker is not dead:  # already swapped by a handoff
                with self._restart_lock:
                    self._restarting.discard(slot.index)
                return
            slot.ready = False
            slot.restarts += 1
            restarts = slot.restarts
        rc = dead.poll()
        dead.close()
        backoff = self._next_backoff(slot.index)
        self.bus.emit(
            "worker_restart",
            worker_id=slot.index,
            restarts=restarts,
            backoff_s=round(backoff, 3),
            reason=f"exit status {rc}",
        )
        thread = threading.Thread(
            target=self._restart_after,
            args=(slot, backoff),
            name=f"fleet-restart-{slot.index}",
            daemon=True,
        )
        with self._restart_lock:
            self._restart_threads = [
                t for t in self._restart_threads if t.is_alive()
            ]
            self._restart_threads.append(thread)
            thread.start()

    def _next_backoff(self, index: int) -> float:
        """The slot's next restart delay: decorrelated jitter.

        ``min(cap, uniform(base, prev * 3))`` — the delay *distribution*
        grows with consecutive failures like exponential backoff, but two
        slots killed by the same cause draw from their own seeded streams
        and come back spread out instead of in a thundering herd.  A
        successful spawn resets the slot's growth to the base.
        """
        prev = self._prev_backoff.get(index, RESTART_BACKOFF_S)
        rng = self._backoff_rng[index]
        backoff = min(
            MAX_BACKOFF_S,
            rng.uniform(RESTART_BACKOFF_S, max(prev * 3.0, RESTART_BACKOFF_S)),
        )
        self._prev_backoff[index] = backoff
        return backoff

    def _restart_after(self, slot: WorkerSlot, backoff_s: float) -> None:
        try:
            if self._stop.wait(backoff_s):
                return
            try:
                self._spawn_into_slot(slot)
                # The slot recovered: the next (unrelated) crash starts
                # its jittered backoff from the base again.
                self._prev_backoff[slot.index] = RESTART_BACKOFF_S
            except Exception as exc:  # noqa: BLE001 - retried by monitor
                # Leave the slot down; the next monitor pass sees the dead
                # (or never-mounted) worker and schedules another attempt
                # with a longer backoff.
                logger.warning(
                    "restart of worker %d failed (%s: %s); will retry",
                    slot.index, type(exc).__name__, exc,
                )
        finally:
            with self._restart_lock:
                self._restarting.discard(slot.index)

    # --------------------------- warm handoff ---------------------------- #
    def replace_worker(self, index: int) -> None:
        """Warm-replica handoff: ready replacement first, then drain.

        The shard keeps a live owner throughout: the predecessor serves
        until the replacement's ``/readyz`` reports 200 and the slot swap
        has happened; only then does it get SIGTERM and drain.
        """
        slot = self.slots[index]
        with self._restart_lock:
            if index in self._restarting:
                raise RuntimeError(
                    f"worker {index} is already being restarted"
                )
            self._restarting.add(index)
        try:
            replacement = self._new_worker(index)
            port = replacement.spawn()
            self.bus.emit(
                "worker_spawn",
                worker_id=index,
                pid=replacement.pid,
                port=port,
            )
            t0 = time.monotonic()
            ready = replacement.wait_ready(
                self.config.ready_timeout_s, cancel=self._stop
            )
            mounted, old = (
                self._mount(slot, replacement) if ready else (False, None)
            )
            if not mounted:
                replacement.stop(timeout_s=2.0)
                if self._stop.is_set():
                    return
                raise RuntimeError(
                    f"replacement for worker {index} never became ready"
                )
            self.bus.emit(
                "worker_ready",
                worker_id=index,
                port=port,
                elapsed_s=round(time.monotonic() - t0, 3),
            )
            if old is not None:
                old.stop(
                    timeout_s=self.config.fleet_drain_timeout_s
                )
        finally:
            with self._restart_lock:
                self._restarting.discard(index)

    # ------------------------------ chaos -------------------------------- #
    def kill_worker(self, index: int) -> int | None:
        """SIGKILL one worker (chaos drills); the monitor restarts it."""
        slot = self.slots[index]
        with slot.lock:
            worker = slot.worker
        if worker is None:
            return None
        worker.kill()
        return worker.wait(5.0)

    # ----------------------------- shutdown ------------------------------ #
    def shutdown(self) -> bool:
        """Drain and stop the whole fleet; True when every worker that was
        still running drained cleanly.

        From here on no worker is mounted: the monitor stops, and every
        restart in flight is waited out (within the fleet drain budget),
        stopping any worker it spawned, so none outlives the fleet.
        """
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        self.bus.emit("fleet_drain_begin", workers=len(self.slots))
        t0 = time.monotonic()
        deadline = t0 + self.config.fleet_drain_timeout_s
        with self._restart_lock:
            restarts, self._restart_threads = self._restart_threads, []
        for thread in restarts:
            thread.join(max(0.0, deadline - time.monotonic()))
        workers: list[WorkerProcess] = []
        for slot in self.slots:
            with slot.lock:
                slot.ready = False
                worker, slot.worker = slot.worker, None
            if worker is not None:
                workers.append(worker)
        # A worker that exited before the SIGTERM crashed earlier (its
        # restart was still pending): there is no drain left to judge.
        draining = [w for w in workers if w.poll() is None]
        for worker in draining:
            worker.terminate()
        clean = True
        for worker in draining:
            rc = worker.wait(max(0.0, deadline - time.monotonic()))
            if rc is None:
                worker.kill()
                worker.wait(5.0)
                clean = False
            elif rc != 0:
                clean = False
        for worker in workers:
            worker.close()
        self.bus.emit(
            "fleet_drain_end",
            workers=len(workers),
            clean=clean,
            elapsed_s=round(time.monotonic() - t0, 3),
        )
        return clean

    # ------------------------------ status ------------------------------- #
    def snapshot(self) -> list[dict]:
        return [slot.snapshot() for slot in self.slots]

    def all_ready(self) -> bool:
        return all(
            slot.route_target() is not None for slot in self.slots
        )
