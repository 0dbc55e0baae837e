"""Seeded workload inputs: a pure function of (workload, seed).

Nothing here imports the program under test.  The patterns are built with
numpy alone so that two commits always receive byte-identical inputs, and
:func:`digest` summarises a workload's inputs in one hex string that the
run prints (same seed, same digest).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from hashlib import sha256

import numpy as np

import config

_WORKLOAD_IDS = {"advise-cold": 1, "advise-hot": 2, "sweep": 3}


def rng_for(workload: str, seed: int, *stream: int) -> np.random.Generator:
    """An independent generator per (workload, seed, stream...)."""
    return np.random.default_rng([_WORKLOAD_IDS[workload], seed, *stream])


# ------------------------------------------------------------------------- #
# Pattern generators (rows, cols are 0-based int64; duplicates allowed —
# the program canonicalises them, and so does the reference check).
# ``variant`` (the round number) fixes each class's structural parameters,
# so a (class, size, variant) costs the same on every seed; the seed only
# moves the random positions.
# ------------------------------------------------------------------------- #
def _fem(rng, target, variant):
    """Node-block FEM mesh: k x k dof blocks on a 2-D 9-point node graph."""
    k = (2, 3)[variant % 2]
    side = max(8, int(np.sqrt(target / (9 * k * k))))
    ii, jj = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    node = (ii * side + jj).ravel()
    src, dst = [], []
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            ok = ((ii + di >= 0) & (ii + di < side)
                  & (jj + dj >= 0) & (jj + dj < side)).ravel()
            src.append(node[ok])
            dst.append(node[ok] + di * side + dj)
    src, dst = np.concatenate(src), np.concatenate(dst)
    keep = (src == dst) | (rng.random(src.size) > 0.06)
    src, dst = src[keep], dst[keep]
    bi, bj = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    rows = (src[:, None] * k + bi.ravel()[None, :]).ravel()
    cols = (dst[:, None] * k + bj.ravel()[None, :]).ravel()
    n = side * side * k
    return n, n, rows, cols


def _stencil(rng, target, variant):
    """2-D 5-point or 3-D 7-point finite-difference stencil."""
    if variant % 2 == 0:
        side = max(8, int(np.sqrt(target / 5)))
        offsets = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))
        shape = (side, side)
    else:
        side = max(6, int(round((target / 7) ** (1 / 3))))
        offsets = ((0, 0, 0), (-1, 0, 0), (1, 0, 0), (0, -1, 0),
                   (0, 1, 0), (0, 0, -1), (0, 0, 1))
        shape = (side, side, side)
    grid = np.indices(shape).reshape(len(shape), -1)
    n = grid.shape[1]
    strides = np.array([int(np.prod(shape[d + 1:])) for d in range(len(shape))])
    node = strides @ grid
    rows, cols = [], []
    for off in offsets:
        off = np.array(off)[:, None]
        nb = grid + off
        ok = np.all((nb >= 0) & (nb < side), axis=0)
        rows.append(node[ok])
        cols.append((strides @ nb)[ok])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    # Drop a few couplings so the pattern is the seed's, not only the size's.
    keep = (rows == cols) | (rng.random(rows.size) > 0.03)
    return n, n, rows[keep], cols[keep]


def _ragged(rng, target, variant):
    """A few diagonals, each present only in random runs (ragged bands)."""
    d = 5 + variant % 5
    n = max(64, int(target / (0.7 * d)))
    offsets = np.unique(np.concatenate(
        [[0], rng.integers(-n // 20, n // 20, d - 1)]
    ))
    rows, cols = [], []
    for off in offsets:
        i = np.arange(max(0, -off), min(n, n - off))
        run = np.cumsum(rng.random(i.size) < 1 / 48)
        present = rng.random(run[-1] + 1) < 0.7
        i = i[present[run]]
        rows.append(i)
        cols.append(i + off)
    return n, n, np.concatenate(rows), np.concatenate(cols)


def _circuit(rng, target, variant):
    """Diagonal, local couplings, a few far ones, and dense supply rails."""
    n = max(64, int(target / 4.6))
    base = np.arange(n)
    local = rng.integers(1, 4, n)
    src = np.repeat(base, local)
    dst = np.clip(src + rng.integers(-40, 41, src.size), 0, n - 1)
    far_src = rng.integers(0, n, n // 5)
    far_dst = rng.integers(0, n, n // 5)
    rails = rng.choice(n, 4, replace=False)
    rail_len = n // 40
    rail_rows = rng.integers(0, n, 4 * rail_len)
    rail_cols = np.repeat(rails, rail_len)
    rows = np.concatenate([base, src, far_src, rail_rows, rail_cols])
    cols = np.concatenate([base, dst, far_dst, rail_cols, rail_rows])
    return n, n, rows, cols


def _powerlaw(rng, target, variant):
    """Power-law row degrees, columns skewed toward hub vertices."""
    n = max(64, int(target / 6))
    deg = np.minimum((rng.pareto(1.3, n) * 2 + 1).astype(np.int64), n // 4)
    deg = np.maximum(1, (deg * (target / max(1, deg.sum()))).astype(np.int64))
    rows = np.repeat(np.arange(n), deg)
    hub = (n * rng.random(rows.size) ** 2.5).astype(np.int64)
    perm = rng.permutation(n)
    return n, n, rows, perm[np.minimum(hub, n - 1)]


def _random(rng, target, variant):
    """Uniformly random positions, a fixed count per row."""
    per_row = 5 + (3 * variant) % 8
    n = max(64, target // per_row)
    rows = np.repeat(np.arange(n), per_row)
    return n, n, rows, rng.integers(0, n, rows.size)


def _lp(rng, target, variant):
    """Wide LP constraint matrix: short rows of consecutive-column runs."""
    per_row = 40 + (17 * variant) % 60
    m = max(16, target // per_row)
    n = 20 * m
    runs = per_row // 4
    starts = rng.integers(0, n - 8, m * runs)
    lengths = rng.integers(2, 7, m * runs)
    run_rows = np.repeat(np.arange(m), runs)
    rows = np.repeat(run_rows, lengths)
    offs = np.arange(lengths.sum()) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )
    cols = np.repeat(starts, lengths) + offs
    return m, n, rows, cols


def _dense_rows(rng, target, variant):
    """Sparse local background plus clusters of rows dense over a window."""
    n = max(256, int(target / 5))
    bg_rows = np.repeat(np.arange(n), 3)
    bg_cols = np.clip(bg_rows + rng.integers(-200, 201, bg_rows.size), 0, n - 1)
    cluster_nnz = int(target * 0.4)
    width = min(n, 400 + (300 * variant) % 1200)
    height = max(1, cluster_nnz // width)
    starts = rng.integers(0, n - height, 4)
    heights = np.full(4, height // 4 + 1)
    c_rows = np.concatenate([s + np.arange(h) for s, h in zip(starts, heights)])
    c0 = rng.integers(0, n - width, c_rows.size)
    rows = np.concatenate([bg_rows, np.repeat(c_rows, width)])
    cols = np.concatenate(
        [bg_cols, (c0[:, None] + np.arange(width)[None, :]).ravel()]
    )
    return n, n, rows, cols


GENERATORS = {
    "fem": _fem,
    "stencil": _stencil,
    "ragged": _ragged,
    "circuit": _circuit,
    "powerlaw": _powerlaw,
    "random": _random,
    "lp": _lp,
    "dense_rows": _dense_rows,
}


def canonical_pattern(nrows, ncols, rows, cols):
    """Sorted, de-duplicated (rows, cols) — the pattern the server sees."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    key = np.unique(rows * ncols + cols)
    return key // ncols, key % ncols


def matrix_market_text(nrows, ncols, rows, cols) -> str:
    """A ``pattern general`` coordinate Matrix Market file (1-based)."""
    body = "\n".join(
        map("%d %d".__mod__, zip((rows + 1).tolist(), (cols + 1).tolist()))
    )
    return (
        "%%MatrixMarket matrix coordinate pattern general\n"
        f"{nrows} {ncols} {rows.size}\n{body}\n"
    )


# ------------------------------------------------------------------------- #
# advise-cold
# ------------------------------------------------------------------------- #
@dataclass
class ColdRequest:
    index: int
    nrows: int
    ncols: int
    rows: np.ndarray
    cols: np.ndarray
    precision: str
    nthreads: int
    body: bytes


def cold_sizes(rounds: int) -> np.ndarray:
    """The run's size ladder: one target nnz per upload, ascending."""
    n = rounds * len(config.COLD_CLASSES)
    return np.geomspace(config.COLD_MIN_NNZ, config.COLD_MAX_NNZ, n).astype(int)


def cold_round_plan(
    seed: int, rnd: int, rounds: int
) -> list[tuple[str, int, str, int]]:
    """(class, target nnz, precision, nthreads) for each request of a round.

    The (class, size) pairing is a fixed Latin square over the ladder, so
    every run of the same length sees the same size and class mix whatever
    the seed; the seed sets the order within the round, the options and
    the pattern details.
    """
    rng = rng_for("advise-cold", seed, rnd, 0)
    k = len(config.COLD_CLASSES)
    ladder = cold_sizes(rounds)
    pairs = [
        (config.COLD_CLASSES[i], int(ladder[((i + rnd) % k) * rounds + rnd]))
        for i in range(k)
    ]
    precisions = np.array(config.COLD_PRECISIONS * (k // 2))
    rng.shuffle(precisions)
    threads = np.resize(np.array(config.COLD_THREADS), k)
    rng.shuffle(threads)
    order = rng.permutation(k)
    return [
        (pairs[j][0], pairs[j][1], str(precisions[n]), int(threads[n]))
        for n, j in enumerate(order)
    ]


def cold_requests(seed: int, rounds: int) -> list[ColdRequest]:
    """Every upload of ``rounds`` rounds, in send order."""
    out: list[ColdRequest] = []
    for rnd in range(rounds):
        for slot, (cls, target, precision, nthreads) in enumerate(
            cold_round_plan(seed, rnd, rounds)
        ):
            rng = rng_for("advise-cold", seed, rnd, slot + 1)
            nrows, ncols, rows, cols = GENERATORS[cls](rng, target, rnd)
            rows, cols = canonical_pattern(nrows, ncols, rows, cols)
            # Shuffle the upload's line order: a real file is not
            # necessarily sorted, and the parser must not depend on it.
            perm = rng.permutation(rows.size)
            text = matrix_market_text(nrows, ncols, rows[perm], cols[perm])
            body = json.dumps({
                "matrix_market": text,
                "precision": precision,
                "nthreads": nthreads,
                "top": 1,
            }).encode()
            if len(body) > config.COLD_MAX_BODY_BYTES:
                raise ValueError(
                    f"{cls} upload of {rows.size} nnz is {len(body)} bytes"
                )
            out.append(ColdRequest(
                index=len(out), nrows=nrows, ncols=ncols, rows=rows, cols=cols,
                precision=precision, nthreads=nthreads, body=body,
            ))
    return out


def cold_setup_bodies() -> list[bytes]:
    """One small untimed upload per precision (pays lazy calibration)."""
    rng = rng_for("advise-cold", 0, 10_000)
    nrows, ncols, rows, cols = _stencil(rng, 2_000, 0)
    rows, cols = canonical_pattern(nrows, ncols, rows, cols)
    text = matrix_market_text(nrows, ncols, rows, cols)
    return [
        json.dumps({"matrix_market": text, "precision": p, "top": 1}).encode()
        for p in config.COLD_PRECISIONS
    ]


# ------------------------------------------------------------------------- #
# advise-hot
# ------------------------------------------------------------------------- #
def zipf_block_counts() -> list[int]:
    """Requests per matrix in one stratified block (largest remainder)."""
    w = 1.0 / np.arange(1, len(config.HOT_MATRICES) + 1) ** config.HOT_ZIPF_S
    exact = w / w.sum() * config.HOT_BLOCK
    counts = np.floor(exact).astype(int)
    short = config.HOT_BLOCK - counts.sum()
    counts[np.argsort(-(exact - counts), kind="stable")[:short]] += 1
    return counts.tolist()


def hot_body(name: str) -> bytes:
    return json.dumps({
        "suite": name,
        "precision": config.HOT_PRECISION,
        "nthreads": config.HOT_NTHREADS,
        "top": 3,
    }).encode()


def hot_sequence(seed: int, phase: int, n: int) -> list[str]:
    """``n`` matrix names: whole shuffled Zipf blocks, truncated."""
    counts = zipf_block_counts()
    block = [m for m, c in zip(config.HOT_MATRICES, counts) for _ in range(c)]
    out: list[str] = []
    b = 0
    while len(out) < n:
        rng = rng_for("advise-hot", seed, phase, b)
        out.extend(block[i] for i in rng.permutation(len(block)))
        b += 1
    return out[:n]


def poisson_due_times(seed: int, rate: float, n: int) -> list[float]:
    """Offsets (s) of ``n`` Poisson arrivals at ``rate``, stratified: the
    gaps are the ``n`` exponential quantiles, in seed-shuffled order, so
    every seed offers the same gap distribution and total duration."""
    q = (np.arange(n) + 0.5) / n
    gaps = -np.log1p(-q) / rate
    rng = rng_for("advise-hot", seed, 99)
    return np.cumsum(gaps[rng.permutation(n)]).tolist()


# ------------------------------------------------------------------------- #
# sweep
# ------------------------------------------------------------------------- #
def sweep_order(seed: int, npass: int) -> tuple[int, ...]:
    """Submission order of one engine pass: the long pole, then the rest."""
    rng = rng_for("sweep", seed, npass)
    rest = [config.SWEEP_REST[i] for i in rng.permutation(len(config.SWEEP_REST))]
    return (config.SWEEP_LONG_POLE, *rest)


# ------------------------------------------------------------------------- #
def digest(parts) -> str:
    """sha256 over a sequence of bytes/str parts (first 16 hex digits)."""
    h = sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]
