"""Deterministic traffic-replay plans for the fleet load harness.

A :class:`ReplayPlan` is a *pure function* of ``(mix, seed, n_requests,
matrices)`` — no wall clock, no process state.  Two runs with the same
arguments produce byte-identical request sequences (checkable via
:meth:`ReplayPlan.sequence_sha`), which is what makes fleet benchmarks
comparable across commits and lets CI assert the harness itself is
deterministic even though the latencies it measures are not.

Four mixes model the traffic shapes the advisor's caches care about:

``steady``
    Uniform draws over the matrix set — the baseline throughput shape.
``skew``
    Hot-key traffic: Zipf-ish weights ``1/(rank+1)**1.5`` over a
    seed-shuffled ranking, so one shard takes most of the load (the worst
    case for content sharding, the best case for cache hits).
``flood``
    Cold-start flood: repeated seeded shuffles of the *full* matrix set,
    maximising distinct-matrix turnover per window (the worst case for
    the recommendation cache).
``chaos``
    The ``skew`` arrival sequence plus a fault plan for every worker
    (PR 5's injection sites) and a scripted mid-run worker kill, so the
    balancer's shard failover and the supervisor's crash-restart path
    take real traffic.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from hashlib import sha256

from ..matrices.suite import get_entry

__all__ = [
    "MIXES",
    "DEFAULT_MATRICES",
    "CHAOS_FAULT_PLAN",
    "RequestSpec",
    "ReplayPlan",
    "build_plan",
]

#: Supported traffic mixes (CLI ``loadtest --mix`` choices).
MIXES = ("steady", "skew", "flood", "chaos")

#: Cheapest suite matrices on a small container; CI's chaos job
#: (``repro loadtest --single --mix chaos``) replays over them too.
DEFAULT_MATRICES = ("dense", "pwtk", "stomach")

#: Zipf-ish skew exponent for the ``skew`` and ``chaos`` mixes.
SKEW_EXPONENT = 1.5

#: Fraction of the way through a chaos run at which a worker is killed.
CHAOS_KILL_AT = 0.5

#: Fault plan every worker runs under during the ``chaos`` mix: store
#: faults only (cache-save faults, payload corruption, load delays), which
#: request handling must survive because saves are best-effort and a
#: corrupt or missing entry is recomputed.
CHAOS_FAULT_PLAN = {
    "seed": 1337,
    "rules": [
        {"site": "serve.store.save", "action": "raise", "probability": 0.3},
        {
            "site": "ioutils.atomic_write_json.data",
            "action": "corrupt",
            "probability": 0.2,
        },
        {"site": "serve.store.load", "action": "delay", "probability": 0.2,
         "delay_s": 0.02},
    ],
}


def _plan_rng(mix: str, seed: int) -> random.Random:
    """A ``random.Random`` derived stably from the (mix, seed) pair.

    The derivation goes through SHA-256 so ``("steady", 1)`` and
    ``("skew", 1)`` draw unrelated streams, and the stream is identical
    across processes and Python hash seeds.
    """
    digest = sha256(f"repro.fleet.replay|{mix}|{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass(frozen=True)
class RequestSpec:
    """One replayed ``POST /advise`` request."""

    suite: str
    top: int = 1

    def to_body(self) -> dict:
        return {"suite": self.suite, "top": self.top}


@dataclass(frozen=True)
class ReplayPlan:
    """A fully materialised request sequence plus its chaos script."""

    mix: str
    seed: int
    matrices: tuple[str, ...]
    requests: tuple[RequestSpec, ...]
    #: Fault plan forwarded to every worker (chaos mix only).
    fault_plan: dict | None = None
    #: Kill one worker this fraction of the way through (chaos mix only).
    kill_worker_at: float | None = None

    def canonical_json(self) -> str:
        """The plan as canonical JSON — the determinism contract."""
        payload = {
            "mix": self.mix,
            "seed": self.seed,
            "matrices": list(self.matrices),
            "requests": [
                {"suite": r.suite, "top": r.top} for r in self.requests
            ],
            "fault_plan": self.fault_plan,
            "kill_worker_at": self.kill_worker_at,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def sequence_sha(self) -> str:
        """SHA-256 of the canonical plan; equal seeds ⇒ equal digests."""
        return sha256(self.canonical_json().encode()).hexdigest()

    @property
    def status_budget(self) -> tuple[int, ...]:
        """The statuses a replay of this plan may answer.

        Under a fault plan, shed (503) and deadline (504) answers are
        within contract; anything else, connection resets included, is a
        violation.  Without one, every request must answer 200.
        """
        return (200,) if self.fault_plan is None else (200, 503, 504)


def _steady(rng: random.Random, n: int, matrices: tuple[str, ...]):
    return [rng.choice(matrices) for _ in range(n)]


def _skew(rng: random.Random, n: int, matrices: tuple[str, ...]):
    ranked = list(matrices)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** SKEW_EXPONENT for rank in
               range(len(ranked))]
    return rng.choices(ranked, weights=weights, k=n)


def _flood(rng: random.Random, n: int, matrices: tuple[str, ...]):
    names: list[str] = []
    while len(names) < n:
        cycle = list(matrices)
        rng.shuffle(cycle)
        names.extend(cycle)
    return names[:n]


def build_plan(
    mix: str,
    seed: int,
    n_requests: int,
    matrices: tuple[str, ...] | None = None,
) -> ReplayPlan:
    """Materialise the deterministic request sequence for one run."""
    if mix not in MIXES:
        raise ValueError(f"unknown mix {mix!r}; expected one of {MIXES}")
    if n_requests < 1:
        raise ValueError(f"n_requests must be >= 1, got {n_requests}")
    chosen = tuple(matrices) if matrices else DEFAULT_MATRICES
    for name in chosen:  # fail fast on typos, before any worker spawns
        get_entry(name)
    rng = _plan_rng(mix, seed)
    if mix == "steady":
        names = _steady(rng, n_requests, chosen)
    elif mix == "flood":
        names = _flood(rng, n_requests, chosen)
    else:  # skew and chaos share the hot-key arrival sequence
        names = _skew(rng, n_requests, chosen)
    requests = tuple(RequestSpec(suite=name) for name in names)
    if mix == "chaos":
        return ReplayPlan(
            mix=mix,
            seed=seed,
            matrices=chosen,
            requests=requests,
            fault_plan=CHAOS_FAULT_PLAN,
            kill_worker_at=CHAOS_KILL_AT,
        )
    return ReplayPlan(mix=mix, seed=seed, matrices=chosen, requests=requests)
