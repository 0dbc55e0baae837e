"""Power-loss torture harness: kill cache writers mid-write, prove safety.

The harness drives every durable cache owner — sweep shards, advisor
recommendation entries, calibrated profiles, the request-trace log and
the versioned model registry — through seeded crash-at-write-site cycles.
Each cycle forks a child process, installs a :class:`FaultPlan` whose
``kill`` rule SIGKILLs the child at one of the write-path fault sites
(the serialized-data window, the tmp-to-target rename window, or the
JSONL append), runs one real owner write, and then — in the surviving
parent — loads the artifact back through the owner's own API.

The invariant under test (pinned by ``tests/test_durability.py``):

    A crash at ANY write site never yields a corrupt or wrong load.
    The reader sees the previous payload, the new payload, or nothing
    (missing / quarantined) — never a mix, never garbage parsed as data.

A fraction of cycles swaps the SIGKILL for a ``corrupt`` rule (the
serialized bytes are mangled but the write completes), which proves the
envelope *detects* damage rather than trusting whatever parses — the
owner quarantines the artifact and reports ``None``.

After the crash loop, ``fsck_tree(..., repair=True)`` must heal the tree
(quarantining what the loop corrupted, sweeping stale tmp files the
rename-window kills left behind) and a second, read-only fsck must come
back clean.

Runnable standalone (CI's ``durability`` job does)::

    python -m repro.durability.torture --cycles 40 --seed 7 [--json]

Same seed, same cycle count => the same owner/site/action schedule and
the same verdict — a failure reproduces exactly.
"""

from __future__ import annotations

import os
import random
import signal
import sys
from pathlib import Path

from ..resilience.faults import FaultPlan, FaultRule, install_plan
from .fsck import fsck_tree

__all__ = [
    "OWNERS",
    "TortureFailure",
    "run_torture",
]

#: Write-path fault sites, with how many times one owner write hits each.
_DATA_SITE = "ioutils.atomic_write_json.data"
_REPLACE_SITE = "ioutils.atomic_write_json.replace"
_APPEND_SITE = "ioutils.append_jsonl.write"


class TortureFailure(AssertionError):
    """The durability invariant was violated (a corrupt or wrong load)."""


# ------------------------------------------------------------------------- #
# Owner adapters: one real write + one real load per cache owner
# ------------------------------------------------------------------------- #

class _ShardOwner:
    """Sweep shards (:class:`repro.engine.shards.ShardStore`)."""

    name = "shards"
    #: (site, hits per write): one shard save is one atomic write.
    sites = ((_DATA_SITE, 1), (_REPLACE_SITE, 1))
    corrupt_site = _DATA_SITE

    @staticmethod
    def _matrix(cycle: int):
        from ..bench.harness import MatrixSweep, SweepRecord

        return MatrixSweep(
            idx=1, name="torture", domain="synthetic", geometry=False,
            special=False, nrows=4, ncols=4, nnz=8,
            records=[SweepRecord(
                kind="csr", block=None, impl="scalar", precision="dp",
                nthreads=1, t_real=float(cycle), t_mem=0.0, t_comp=0.0,
                t_latency=0.0, ws_bytes=0, padding_ratio=1.0, n_blocks=1,
                predictions={},
            )],
        )

    def write(self, cache_dir: Path, cycle: int) -> None:
        from ..engine.shards import ShardStore

        ShardStore(cache_dir).save(1, self._matrix(cycle))

    def observe(self, cache_dir: Path) -> int | None:
        from ..engine.shards import ShardStore

        matrix = ShardStore(cache_dir).load(1)
        if matrix is None:
            return None
        return int(matrix.records[0].t_real)


class _AdvisorOwner:
    """Recommendation entries (:class:`repro.serve.store.AdvisorStore`)."""

    name = "advisor"
    sites = ((_DATA_SITE, 1), (_REPLACE_SITE, 1))
    corrupt_site = _DATA_SITE

    _FP, _TOKEN = "torture-fp", "torture-token"

    def _key(self) -> str:
        from ..serve.store import AdvisorStore

        return AdvisorStore.key(self._FP, "opts", self._TOKEN)

    def write(self, cache_dir: Path, cycle: int) -> None:
        from ..serve.store import AdvisorStore

        AdvisorStore(cache_dir).save(
            self._key(), {"cycle": cycle},
            fingerprint=self._FP, token=self._TOKEN,
        )

    def observe(self, cache_dir: Path) -> int | None:
        from ..serve.store import AdvisorStore

        payload = AdvisorStore(cache_dir).load(
            self._key(), token=self._TOKEN
        )
        if payload is None:
            return None
        return int(payload["cycle"])


class _ProfileOwner:
    """Calibrated profiles (:class:`repro.core.profiling.ProfileStore`).

    Uses a synthetic :class:`BlockProfile` (the cycle number rides in
    ``latency_cost_s``) so no real calibration runs; the disk path
    is exactly the production one.
    """

    name = "profiles"
    sites = ((_DATA_SITE, 1), (_REPLACE_SITE, 1))
    corrupt_site = _DATA_SITE

    @staticmethod
    def _machine():
        from ..machine import get_preset

        return get_preset("core2-xeon-2.66")

    def write(self, cache_dir: Path, cycle: int) -> None:
        from ..core.profiling import BlockProfile, ProfileStore
        from ..types import Impl, Precision

        profile = BlockProfile(
            machine_name="core2-xeon-2.66",
            precision=Precision.DP,
            t_b={(("csr", None), Impl.SCALAR): 1e-9},
            nof={(("csr", None), Impl.SCALAR): 1.0},
            latency_cost_s=float(cycle),
        )
        ProfileStore(cache_dir).store_profile(self._machine(), "dp", profile)

    def observe(self, cache_dir: Path) -> int | None:
        from ..core.profiling import ProfileStore

        profile = ProfileStore(cache_dir).load_cached(self._machine(), "dp")
        if profile is None or profile.latency_cost_s is None:
            return None
        return int(profile.latency_cost_s)


class _TraceOwner:
    """The JSONL request trace (:class:`repro.learn.tracelog.TraceLog`).

    A log, not a single-slot store: :meth:`observe` returns the set of
    cycle ids on disk, and the invariant is that every record read back
    was genuinely written — a torn append is skipped, never misread.
    """

    name = "learn-trace"
    sites = ((_APPEND_SITE, 1),)
    corrupt_site = _APPEND_SITE

    def write(self, cache_dir: Path, cycle: int) -> None:
        from ..learn.tracelog import TraceLog

        # flush_records=1: the append hits the disk (and the fault site)
        # immediately instead of sitting in the buffer.
        TraceLog(cache_dir, flush_records=1).append({"cycle": cycle})

    def observe(self, cache_dir: Path) -> set[int]:
        from ..learn.tracelog import TraceLog

        return {
            int(record["cycle"])
            for record in TraceLog(cache_dir).records()
            if "cycle" in record
        }


class _ModelOwner:
    """The versioned model registry (artifact + ``current`` pointer).

    One publish is two atomic writes, so the kill schedule also lands in
    the window *between* them — the crash that must leave a valid orphan
    artifact, never a dangling or torn pointer.
    """

    name = "models"
    sites = ((_DATA_SITE, 2), (_REPLACE_SITE, 2))
    corrupt_site = _DATA_SITE

    @staticmethod
    def _tree_payload(cycle: int) -> dict:
        return {
            "max_depth": 1,
            "min_samples_leaf": 1,
            "classes": [f"k{cycle}"],
            "root": {"label": f"k{cycle}"},
        }

    def write(self, cache_dir: Path, cycle: int) -> None:
        from ..learn.registry import ModelRegistry

        ModelRegistry(cache_dir).publish(self._tree_payload(cycle))

    def observe(self, cache_dir: Path) -> int | None:
        from ..learn.registry import ModelRegistry

        registry = ModelRegistry(cache_dir)
        registry.reload()
        tree, _version = registry.current()
        if tree is None:
            return None
        label = tree.to_payload()["root"]["label"]
        if not label.startswith("k"):
            raise TortureFailure(f"model label {label!r} is not ours")
        return int(label[1:])


OWNERS = (
    _ShardOwner(), _AdvisorOwner(), _ProfileOwner(), _TraceOwner(),
    _ModelOwner(),
)


# ------------------------------------------------------------------------- #
# The crash loop
# ------------------------------------------------------------------------- #

def _write_in_child(owner, cache_dir: Path, cycle: int, plan: FaultPlan) -> int:
    """Fork, install ``plan``, run one owner write; returns wait status.

    ``os._exit`` keeps the child from running the parent's atexit hooks
    or flushing its inherited stdio twice; a ``kill`` rule firing means
    even that never runs — exactly the power-loss model.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            install_plan(plan)
            owner.write(cache_dir, cycle)
            status = 0
        except BaseException:
            status = 1
        finally:
            os._exit(status)
    _, wstatus = os.waitpid(pid, 0)
    return wstatus


def run_torture(
    cache_dir: str | Path, *, cycles: int = 40, seed: int = 0
) -> dict:
    """Run ``cycles`` seeded crash-at-write-site cycles; returns a summary.

    Owners rotate round-robin (every owner is exercised whenever
    ``cycles >= 5``); the site, the hit index within the write, and the
    action (SIGKILL, with a ~1-in-4 corrupt mix) come from the seeded
    RNG.  The summary's ``ok`` is ``True`` iff no cycle observed a wrong
    or corrupt payload AND the post-loop fsck repair left a clean tree.
    """
    cache_dir = Path(cache_dir)
    rng = random.Random(seed)
    violations: list[str] = []
    kills = 0
    corruptions = 0
    per_owner: dict[str, dict] = {
        owner.name: {"writes": 0, "prev": 0, "new": 0, "none": 0}
        for owner in OWNERS
    }
    # Last value each single-slot owner was observed holding (None until
    # a write survives); the trace owner tracks the set of attempted ids.
    last_seen: dict[str, int | None] = {owner.name: None for owner in OWNERS}
    trace_written: set[int] = set()

    for cycle in range(1, cycles + 1):
        owner = OWNERS[(cycle - 1) % len(OWNERS)]
        action = "corrupt" if rng.random() < 0.25 else "kill"
        if action == "corrupt":
            site, nth = owner.corrupt_site, 1
        else:
            site, max_nth = rng.choice(owner.sites)
            nth = rng.randint(1, max_nth)
        plan = FaultPlan(
            [FaultRule(site=site, action=action, nth=nth)], seed=seed
        )
        if owner.name == "learn-trace":
            trace_written.add(cycle)
        wstatus = _write_in_child(owner, cache_dir, cycle, plan)
        if action == "kill":
            kills += 1
            if not (
                os.WIFSIGNALED(wstatus)
                and os.WTERMSIG(wstatus) == signal.SIGKILL
            ):
                violations.append(
                    f"cycle {cycle}: {owner.name} child survived a kill "
                    f"rule at {site} (status {wstatus})"
                )
                continue
        else:
            corruptions += 1

        stats = per_owner[owner.name]
        stats["writes"] += 1
        try:
            observed = owner.observe(cache_dir)
        except TortureFailure as exc:
            violations.append(f"cycle {cycle}: {exc}")
            continue
        except Exception as exc:  # a load must never raise, whatever broke
            violations.append(
                f"cycle {cycle}: {owner.name} load raised "
                f"{type(exc).__name__}: {exc} (after {action} at {site})"
            )
            continue
        if owner.name == "learn-trace":
            bogus = observed - trace_written
            if bogus:
                violations.append(
                    f"cycle {cycle}: trace read back records never "
                    f"written: {sorted(bogus)}"
                )
            stats["new" if cycle in observed else "none"] += 1
        else:
            allowed = {cycle, last_seen[owner.name], None}
            if observed not in allowed:
                violations.append(
                    f"cycle {cycle}: {owner.name} loaded {observed!r}, "
                    f"expected one of {allowed} (after {action} at "
                    f"{site} nth={nth})"
                )
                continue
            if observed == cycle:
                stats["new"] += 1
            elif observed is None:
                stats["none"] += 1
            else:
                stats["prev"] += 1
            last_seen[owner.name] = observed

    repair_report = fsck_tree(cache_dir, repair=True)
    final_report = fsck_tree(cache_dir)
    return {
        "cycles": cycles,
        "seed": seed,
        "kills": kills,
        "corruptions": corruptions,
        "per_owner": per_owner,
        "violations": violations,
        "fsck_repaired": len(
            [f for f in repair_report.findings if f.repaired]
        ),
        "fsck_findings": repair_report.counts(),
        "clean_after_repair": final_report.clean,
        "ok": not violations and final_report.clean,
    }


def main(argv=None) -> int:
    import argparse
    import json as _json
    import tempfile

    parser = argparse.ArgumentParser(
        prog="python -m repro.durability.torture",
        description=(
            "Seeded power-loss torture for the cache layer: SIGKILL "
            "writers mid-write, assert no crash ever yields a corrupt "
            "load, then prove 'repro fsck --repair' heals the tree."
        ),
    )
    parser.add_argument(
        "--cycles", type=int, default=40, metavar="N",
        help="crash cycles to run (default: 40)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="schedule seed; equal seeds give identical runs (default: 0)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache root to torture (default: a fresh temp dir)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the full summary as JSON",
    )
    args = parser.parse_args(argv)
    if args.cycles < 1:
        print(f"error: --cycles must be >= 1, got {args.cycles}",
              file=sys.stderr)
        return 2
    cache_dir = (
        Path(args.cache_dir) if args.cache_dir is not None
        else Path(tempfile.mkdtemp(prefix="repro-torture-"))
    )
    summary = run_torture(cache_dir, cycles=args.cycles, seed=args.seed)
    if args.json:
        print(_json.dumps(summary, indent=2))
    else:
        print(
            f"torture: {summary['cycles']} cycles (seed {summary['seed']}) "
            f"— {summary['kills']} kills, {summary['corruptions']} "
            f"corruptions, {summary['fsck_repaired']} fsck repair(s), "
            f"clean after repair: {summary['clean_after_repair']}"
        )
        for line in summary["violations"]:
            print(f"  VIOLATION: {line}")
    if not summary["ok"]:
        print("torture: FAILED — the durability invariant was violated",
              file=sys.stderr)
        return 1
    print("torture: OK — no crash produced a corrupt load")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
