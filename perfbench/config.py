"""Pinned constants of the benchmark (inputs, rates, expected digests).

Everything here is fixed across commits so that two commits are measured
on identical inputs.  Change a value only in a change that redefines the
benchmark, never in one that claims a gain.
"""

from __future__ import annotations

#: Machine preset every workload advises / sweeps for.
MACHINE = "core2-xeon-2.66"

# ------------------------------ advise-cold ------------------------------ #
#: Structural classes of the uploaded patterns, one per request of a round.
COLD_CLASSES = (
    "fem", "stencil", "ragged", "circuit",
    "powerlaw", "random", "lp", "dense_rows",
)
#: Target nonzero counts span this range on a geometric ladder with one
#: rung per upload of the run, dealt to (round, class) by a fixed Latin
#: square: every round holds one upload per class and one rung from each
#: eighth of the ladder, and the run's median falls between two close rungs.
COLD_MIN_NNZ = 50_000
COLD_MAX_NNZ = 500_000
#: Request options drawn from the seed, balanced within each round.
COLD_PRECISIONS = ("sp", "dp")
COLD_THREADS = (1, 2, 4)
#: Upper bound on one upload body (the server's default limit is 8 MiB).
COLD_MAX_BODY_BYTES = 8 * 1024 * 1024 - 64 * 1024
#: Nominal seconds one round takes on the reference host; a run sends
#: round(seconds / COLD_ROUND_S) rounds, so both commits of a comparison
#: receive identical uploads.
COLD_ROUND_S = 4.5

# ------------------------------- advise-hot ------------------------------ #
#: Suite matrices in fixed Zipf popularity order (rank 1 first).  Their
#: hit costs span 0.02 s (dense) to 0.3 s (degme, the one heavy key).
#: The order puts the median inside pwtk's cost cluster (21 of every 40
#: requests), so it does not sit on a gap between clusters.  Heavier keys
#: (random, ASIC_680k, nd24k: 0.4-1 s in the fleet) are left out: over two
#: connections each such hit stalls the requests due behind it, and with
#: six of them in 80 that convoy moved the tail by 1.5-2x between seeds.
HOT_MATRICES = (
    "pwtk", "stomach", "dense", "bone010",
    "fdiff", "F1", "inline_1", "degme",
)
HOT_ZIPF_S = 1.5
#: Requests per stratified block: each block holds the Zipf mix exactly
#: (largest-remainder rounding), shuffled by the seed.
HOT_BLOCK = 40
HOT_PRECISION = "dp"
HOT_NTHREADS = 1
#: Fixed open-loop offered rate (requests/s): about a fifth of the
#: ~10 req/s saturation throughput measured on the commit that introduced
#: the benchmark (2 vCPUs shared by the load generator, the balancer and
#: both workers).  At 4 req/s, queueing behind two connections turned the
#: host's own speed drift into a 25% run-to-run spread of p50 and tail.
HOT_OFFERED_RPS = 2.0
#: The open loop offers ``seconds * HOT_OFFERED_RPS`` requests; the
#: closed-loop saturation phase sends ``seconds * HOT_SATURATION_SHARE *
#: HOT_NOMINAL_RPS``.  Both round to whole Zipf blocks.
HOT_SATURATION_SHARE = 0.4
#: Nominal saturation throughput on the reference host; sizes the
#: saturation phase's fixed request count.
HOT_NOMINAL_RPS = 12.0
#: Clients / connections (at most nproc on the reference host).
HOT_CLIENTS = 2
FLEET_WORKERS = 2

# --------------------------------- sweep --------------------------------- #
#: Fixed paper subset; fdiff (#23) is the x-miss-estimator-bound long pole
#: and is always submitted first, the seed orders the other eight.
SWEEP_LONG_POLE = 23
SWEEP_REST = (1, 4, 5, 6, 14, 19, 27, 30)
SWEEP_JOBS = 2
#: sha256 (first 16 hex digits) of the suite-ordered
#: ``SweepResult.canonical_json()`` of the subset in the paper config.
SWEEP_SHA = "26b17b4d0f90c66c"
#: Nominal seconds of one engine pass on the reference host; a run makes
#: ceil(seconds / SWEEP_PASS_S) passes.
SWEEP_PASS_S = 10.5
#: Setups (fresh-store calibrations) per run; setup_s is their median.
SWEEP_MIN_SETUPS = 2
