"""The three workloads, each in an end-to-end and a traced form.

End-to-end runs drive the real entry points (``repro serve``, ``repro
fleet``, ``SweepEngine``) from this single load-generating process and
never time anything inside the program.  Traced runs (``--trace 1``) use
the same seeded inputs: a short live run gives the HTTP / balancer costs
by differencing, then the inputs are replayed in-process through each
layer's public function in the order the service and the sweep call them,
with every call timed from outside.

Every workload returns an :class:`Outcome`; ``run.py`` prints it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import betainc

import config
import inputs
from harness import (
    SRC,
    BenchError,
    Client,
    Metrics,
    Program,
    child_env,
    descendants,
    get_json,
    kill_tree,
    median,
    peak_rss_mb,
    percentile,
    reset_peak_rss,
    rss_mb,
)


@dataclass
class Outcome:
    metrics: Metrics = field(default_factory=Metrics)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    #: Percentile / alias lines for the human-readable table.
    notes: list[str] = field(default_factory=list)
    record: dict = field(default_factory=dict)
    #: Set when the run measured something other than it claims to.
    invalid: str | None = None


def _import_program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _answer(payload: dict) -> tuple:
    """The parts of an advise response that must repeat exactly."""
    best = payload["best"]
    block = best["block"]
    return (
        payload["fingerprint"],
        best["kind"], tuple(block) if isinstance(block, list) else block,
        best["impl"],
        json.dumps(payload.get("ranking"), sort_keys=True),
    )


def _top1(payload: dict) -> tuple:
    best = payload["best"]
    block = best["block"]
    return (
        best["kind"], tuple(block) if isinstance(block, list) else block,
        best["impl"],
    )


def _events(stats: dict) -> dict:
    return (stats or {}).get("resilience", {}).get("events", {})


def _tree_rss_mb(pid: int) -> tuple[float, float]:
    """(peak RSS of ``pid``, summed peak RSS of its descendants)."""
    return peak_rss_mb(pid), sum(peak_rss_mb(p) for p in descendants(pid))


# ========================================================================= #
# advise-cold
# ========================================================================= #
def cold_rounds(seconds: int) -> int:
    return max(1, round(seconds / config.COLD_ROUND_S))


def _start_serve(workdir: Path, name: str) -> tuple[Program, float]:
    """Spawn ``repro serve --warmup`` on an empty cache; returns set-up s."""
    cache = workdir / f"{name}-cache"
    t0 = time.perf_counter()
    prog = Program(
        ["serve", "--port", "0", "--cache-dir", str(cache), "--warmup"],
        workdir, name,
    )
    try:
        prog.wait_announce()
        prog.wait_ready()
        client = Client(prog.base_url)
        for body in inputs.cold_setup_bodies():
            status, _ = client.post("/advise", body)
            if status != 200:
                raise BenchError(f"set-up upload answered {status}")
        client.close()
    except BaseException:
        prog.stop()
        raise
    return prog, time.perf_counter() - t0


def advise_cold(seed: int, seconds: int, trace: bool, workdir: Path) -> Outcome:
    out = Outcome()
    reqs = inputs.cold_requests(seed, cold_rounds(seconds))
    out.record["input_digest"] = inputs.digest(r.body for r in reqs)
    out.record["requests"] = len(reqs)
    out.record["rounds"] = cold_rounds(seconds)

    prog, setup_s = _start_serve(workdir, "serve")
    setups = [setup_s]
    latencies, results, round_rss = [], [], []
    try:
        stats0 = get_json(prog.base_url, "/stats")[1]
        client = Client(prog.base_url)
        for req in reqs:
            if req.index % len(config.COLD_CLASSES) == 0:
                reset_peak_rss(prog.pid)
            t0 = time.perf_counter()
            status, payload = client.post("/advise", req.body)
            latencies.append(time.perf_counter() - t0)
            results.append((status, payload))
            if (req.index + 1) % len(config.COLD_CLASSES) == 0:
                round_rss.append(peak_rss_mb(prog.pid))
        client.close()
        stats1 = get_json(prog.base_url, "/stats")[1]
    finally:
        prog.stop()
    # Each round holds one upload from every eighth of the size ladder, so
    # its peak is comparable across rounds; the median over rounds keeps
    # one round's allocator fragmentation from deciding the figure.
    serve_rss = median(round_rss)
    cache = workdir / "serve-cache"
    if not trace:
        prog2, setup_s = _start_serve(workdir, "serve-setup2")
        prog2.stop()
        setups.append(setup_s)

    ok = answered(results)
    score_cold(out, results, _reference_cold(reqs, ok, cache))

    ok_lat = [latencies[i] for i in ok] or latencies
    m = out.metrics
    if not trace:
        t_val, t_q = tail(ok_lat)
        m.time("setup_s", setups)
        m.time("p50_s", ok_lat)
        m.put("tail_s", t_val, "s", len(ok_lat))
        m.put("rate_per_s", len(ok_lat) / sum(ok_lat), "1/s", len(ok_lat))
        out.notes += [
            f"cold_p50_s = {median(ok_lat):.6f} s (n={len(ok_lat)})",
            f"cold_p90_s = {percentile(ok_lat, 90.0):.6f} s (n={len(ok_lat)})",
            f"tail_s is cold p{t_q:.1f} = {t_val:.6f} s "
            f"(n={len(ok_lat)}, 10 samples beyond)",
            f"peak RSS of repro serve = {serve_rss:.1f} MiB "
            f"(median over {len(round_rss)} rounds)",
        ]
        return out

    _trace_cold(out, reqs, results, ok, latencies, stats0, stats1, cache)
    m.put("rss.serve_mb", serve_rss, "MiB", len(round_rss))
    return out


def _shares(unit: str, total: float, parts: dict) -> str:
    """One line: each layer's share of the summed end-to-end time."""
    body = ", ".join(f"{k} {sum(v) / total:.3f}" for k, v in parts.items())
    return f"time shares of {unit} (sum of layer / sum of end-to-end): {body}"


def tail(values, beyond: int = 10) -> tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it:
    (value, percentile).  With too few samples, the maximum.

    The value is the Harrell-Davis estimate of that quantile, a
    beta-weighted mean of the order statistics around it: a single order
    statistic this deep in a mixed-cost tail jumps between cost clusters
    from run to run.
    """
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    if n <= beyond:
        return float(xs[-1]), 100.0
    q = (n - beyond) / n
    weights = np.diff(betainc(q * (n + 1), (1 - q) * (n + 1),
                              np.arange(n + 1) / n))
    return float(weights @ xs), 100.0 * q


def answered(results) -> list[int]:
    """Indices of the (status, payload) results that are 200s with a body."""
    return [i for i, (s, p) in enumerate(results) if s == 200 and p]


def score_cold(out: Outcome, results, expected: dict) -> None:
    """Failures, wrong top-1s and validity of the cold uploads.

    ``expected`` maps each answered index to the reference top-1.  A run
    in which any upload was a cache hit, or two uploads share a
    fingerprint, did not measure first touches and is invalid.
    """
    ok = answered(results)
    out.attempted += len(results)
    out.failed += len(results) - len(ok)
    hits = sum(1 for i in ok if results[i][1].get("cache_hit"))
    if hits:
        out.invalid = (
            f"advise-cold store.hit_ratio is {hits / len(ok):.3f}, not 0: "
            "uploads were served from cache"
        )
    fps = [results[i][1]["fingerprint"] for i in ok]
    if len(set(fps)) != len(fps):
        out.invalid = "advise-cold uploads are not pairwise distinct"
    for i in ok:
        if _top1(results[i][1]) != expected[i]:
            out.wrong += 1
            out.failed += 1


def _reference_cold(reqs, ok, cache: Path) -> dict:
    """Top-1 of every upload from the in-process exhaustive batched select."""
    _import_program()
    from repro.core.profiling import ProfileCache, ProfileStore
    from repro.core.selection import AutoTuner
    from repro.formats.coo import COOMatrix
    from repro.machine.presets import get_preset

    profiles = ProfileStore(cache) if cache.is_dir() else ProfileCache()
    tuner = AutoTuner(get_preset(config.MACHINE), profile_cache=profiles)
    expected = {}
    for i in ok:
        req = reqs[i]
        coo = COOMatrix(req.nrows, req.ncols, req.rows, req.cols, None)
        cand = tuner.select(
            coo, precision=req.precision, nthreads=req.nthreads, batch=True
        ).candidate
        expected[i] = (cand.kind, cand.block, cand.impl.value)
    return expected


def _trace_cold(out, reqs, results, ok, latencies, stats0, stats1, cache):
    _import_program()
    from repro.core.candidates import candidate_space
    from repro.core.profiling import ProfileStore
    from repro.core.selection import evaluate_candidates
    from repro.machine.presets import get_preset
    from repro.matrices.mmio import read_matrix_market_text
    from repro.serve.features import extract_features, matrix_fingerprint
    from repro.serve.pruning import PruneConfig, prune_candidates
    from repro.serve.service import AdviseOptions, AdvisorService
    from repro.serve.store import AdvisorStore, profile_token

    machine = get_preset(config.MACHINE)
    scratch = cache.parent / "trace-store"
    calib, disk = _trace_profiles(machine, scratch)
    profiles = ProfileStore(scratch)
    store = AdvisorStore(scratch)
    untraced_svc = AdvisorService(
        cache_dir=cache.parent / "untraced-store", profile_cache=profiles
    )
    space = candidate_space(max_block_elems=8, include_vbl=False)
    cols = {k: [] for k in (
        "decode", "parse", "fingerprint", "load", "extract", "prune", "kept",
        "evaluate", "convert", "stats", "models", "candidates", "save",
        "elapsed", "overhead", "other", "other_share", "trace_over",
    )}
    for i in ok:
        req, payload = reqs[i], results[i][1]
        c = {}
        if i % 2:
            untraced = _untraced_cold(untraced_svc, req)
        td = time.perf_counter()
        text = json.loads(req.body)["matrix_market"]
        t0 = time.perf_counter()
        c["decode"] = t0 - td
        coo = read_matrix_market_text(text, source="<request>").pattern_only()
        t1 = time.perf_counter()
        c["parse"] = t1 - t0
        fp = matrix_fingerprint(coo)
        t2 = time.perf_counter()
        c["fingerprint"] = t2 - t1
        profile = profiles.get(machine, req.precision)
        token = profile_token(profile)
        opts = AdviseOptions(precision=req.precision, nthreads=req.nthreads)
        key = AdvisorStore.key(fp, opts.cache_key(), token)
        t3 = time.perf_counter()
        store.load(key, token=token)
        t4 = time.perf_counter()
        features = extract_features(coo)
        t5 = time.perf_counter()
        decision = prune_candidates(
            features, space, PruneConfig(), precision=req.precision
        )
        t6 = time.perf_counter()
        timings: dict = {}
        evaluate_candidates(
            coo, machine, req.precision, candidates=decision.kept,
            models=("overlap",), profile=profile, run_simulation=False,
            nthreads=req.nthreads, timings=timings,
        )
        t7 = time.perf_counter()
        store.save(key, payload, fingerprint=fp, token=token)
        t8 = time.perf_counter()
        c.update(
            load=t4 - t3, extract=t5 - t4, prune=t6 - t5, evaluate=t7 - t6,
            save=t8 - t7, kept=len(decision.kept) / len(space),
            candidates=len(decision.kept),
            convert=timings.get("convert", 0.0),
            stats=timings.get("stats", 0.0),
            models=timings.get("models", 0.0),
        )
        if not i % 2:
            untraced = _untraced_cold(untraced_svc, req)
        elapsed = payload["elapsed_s"]
        traced = (t8 - t3) + c["fingerprint"] + c["parse"] + c["decode"]
        c["elapsed"] = elapsed
        c["overhead"] = (latencies[i] - elapsed) * 1e3
        c["other"] = latencies[i] - traced
        c["other_share"] = c["other"] / latencies[i]
        c["trace_over"] = traced - untraced
        for k, v in c.items():
            cols[k].append(v)
        c.clear()

    m = out.metrics
    m.time("server.decode_s", cols["decode"])
    m.time("mmio.parse_s", cols["parse"])
    m.time("features.fingerprint_s", cols["fingerprint"])
    m.time("features.extract_s", cols["extract"])
    m.time("pruning.prune_s", cols["prune"])
    m.put("pruning.kept_ratio", median(cols["kept"]), "fraction",
          len(cols["kept"]))
    m.time("selection.convert_s", cols["convert"])
    m.time("selection.stats_s", cols["stats"])
    m.time("selection.models_s", cols["models"])
    m.put("selection.candidates", median(cols["candidates"]), "count",
          len(cols["candidates"]))
    m.time("store.load_s", cols["load"])
    m.time("store.save_s", cols["save"])
    m.put("store.hit_ratio", 0.0, "fraction", len(ok))
    m.time("service.elapsed_s", cols["elapsed"])
    m.time("service.other_s", [
        e - (f + lo + x + p + ev + s) for e, f, lo, x, p, ev, s in zip(
            cols["elapsed"], cols["fingerprint"], cols["load"],
            cols["extract"], cols["prune"], cols["evaluate"], cols["save"],
        )
    ])
    m.time("server.overhead_ms", cols["overhead"], unit="ms")
    _server_counters(m, stats0, stats1, len(ok))
    m.time("profiling.calibrate_s", calib)
    m.time("profiling.disk_load_s", disk)
    m.time("trace.other_s", cols["other"])
    m.put("trace.other_share", median(cols["other_share"]), "fraction",
          len(ok))
    m.time("trace.overhead_s", cols["trace_over"])
    out.notes.append(_shares(
        f"{len(ok)} uploads' client latency", sum(latencies[i] for i in ok),
        {k: cols[k] for k in (
            "decode", "parse", "fingerprint", "load", "extract", "prune",
            "evaluate", "save", "other")},
    ))


def _untraced_cold(service, req) -> float:
    """The same upload decoded, parsed and advised as one untimed block."""
    from repro.matrices.mmio import read_matrix_market_text

    t0 = time.perf_counter()
    text = json.loads(req.body)["matrix_market"]
    coo = read_matrix_market_text(text, source="<request>").pattern_only()
    service.advise(coo, precision=req.precision, nthreads=req.nthreads)
    return time.perf_counter() - t0


def _trace_profiles(machine, scratch: Path) -> tuple[list, list]:
    """Calibrate into an empty ProfileStore, then load it back from disk."""
    from repro.core.profiling import ProfileStore

    calib, disk = [], []
    store = ProfileStore(scratch)
    for precision in ("sp", "dp"):
        t0 = time.perf_counter()
        store.get(machine, precision)
        calib.append(time.perf_counter() - t0)
    fresh = ProfileStore(scratch)
    for precision in ("sp", "dp"):
        t0 = time.perf_counter()
        fresh.get(machine, precision)
        disk.append(time.perf_counter() - t0)
    return calib, disk


def _server_counters(m: Metrics, stats0: dict, stats1: dict, n: int) -> None:
    e0, e1 = _events(stats0), _events(stats1)
    shed = e1.get("request_shed", 0) - e0.get("request_shed", 0)
    timeouts = (
        e1.get("request_deadline_exceeded", 0)
        - e0.get("request_deadline_exceeded", 0)
    )
    m.put("server.shed", shed, "count", n)
    m.put("server.timeouts", timeouts, "count", n)


# ========================================================================= #
# advise-hot
# ========================================================================= #
def _blocks(requests: float) -> int:
    """``requests`` rounded to whole Zipf blocks (at least one)."""
    return config.HOT_BLOCK * max(1, round(requests / config.HOT_BLOCK))


def _start_fleet(workdir: Path) -> tuple[Program, dict, float]:
    """Spawn the fleet, warm every key; returns (fleet, answers, set-up s)."""
    t0 = time.perf_counter()
    prog = Program(
        ["fleet", "--workers", str(config.FLEET_WORKERS), "--port", "0",
         "--cache-dir", str(workdir / "fleet-cache")],
        workdir, "fleet",
    )
    try:
        prog.wait_announce()
        prog.wait_ready()
        client = Client(prog.base_url)
        answers = {}
        for name in config.HOT_MATRICES:
            status, payload = client.post("/advise", inputs.hot_body(name))
            if status != 200 or not payload:
                raise BenchError(f"warming {name} answered {status}")
            answers[name] = _answer(payload)
        client.close()
    except BaseException:
        prog.stop()
        raise
    return prog, answers, time.perf_counter() - t0


class _Tally:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latency: list[float] = []
        self.lateness: list[float] = []
        self.results: list[tuple[str, int, dict | None]] = []


def _drive(url: str, names: list[str], clients: int,
           due: list[float] | None = None) -> tuple[_Tally, float]:
    """Send ``names`` in order over ``clients`` keep-alive connections.

    Closed loop when ``due`` is None: a client sends its next request when
    the previous one completes.  Open loop otherwise: request ``i`` is due
    ``due[i]`` seconds after the start and its latency counts from then,
    so a stall also charges the requests queued behind it.  Returns the
    tally and the wall time.
    """
    tally = _Tally()
    cursor = iter(range(len(names)))
    start = time.perf_counter()

    def worker():
        client = Client(url)
        while True:
            with tally.lock:
                i = next(cursor, None)
            if i is None:
                break
            t_send = time.perf_counter()
            t_due = t_send if due is None else start + due[i]
            if t_due > t_send:
                time.sleep(t_due - t_send)
                t_send = time.perf_counter()
            status, payload = client.post("/advise", inputs.hot_body(names[i]))
            t_done = time.perf_counter()
            with tally.lock:
                tally.latency.append(t_done - t_due)
                tally.lateness.append(t_send - t_due)
                tally.results.append((names[i], status, payload))
        client.close()

    threads = [
        threading.Thread(target=worker, daemon=True) for _ in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return tally, time.perf_counter() - start


def score_hot(out: Outcome, results, answers: dict) -> float:
    """Failures and wrong answers of (name, status, payload) hot results.

    Every hit must repeat the answer the warming pass got for its key; a
    run in which any answered request missed the cache is invalid.
    Returns the store hit ratio of the answered requests.
    """
    hits = ok = 0
    for name, status, payload in results:
        out.attempted += 1
        if status != 200 or not payload:
            out.failed += 1
            continue
        ok += 1
        hits += bool(payload.get("cache_hit"))
        if _answer(payload) != answers[name]:
            out.wrong += 1
            out.failed += 1
    ratio = hits / ok if ok else 0.0
    if hits != ok:
        out.invalid = (
            f"advise-hot store.hit_ratio is {ratio:.3f}, not 1: "
            "some requests missed the warmed cache"
        )
    return ratio


def advise_hot(seed: int, seconds: int, trace: bool, workdir: Path) -> Outcome:
    out = Outcome()
    n_open = _blocks(seconds * config.HOT_OFFERED_RPS)
    n_sat = _blocks(
        seconds * config.HOT_SATURATION_SHARE * config.HOT_NOMINAL_RPS
    )
    due = inputs.poisson_due_times(seed, config.HOT_OFFERED_RPS, n_open)
    open_names = inputs.hot_sequence(seed, 1, n_open)
    sat_names = inputs.hot_sequence(seed, 2, n_sat)
    out.record["input_digest"] = inputs.digest(
        [*open_names, *(f"{d:.9f}" for d in due), *sat_names]
    )
    out.record["offered_rps"] = config.HOT_OFFERED_RPS
    out.record["open_requests"] = len(due)
    out.record["saturation_requests"] = n_sat

    prog, answers, setup_s = _start_fleet(workdir)
    try:
        if trace:
            _trace_hot(out, prog, answers, open_names[:config.HOT_BLOCK],
                       workdir)
            return out
        opened, _ = _drive(prog.base_url, open_names, config.HOT_CLIENTS, due)
        sat, sat_wall = _drive(prog.base_url, sat_names, config.HOT_CLIENTS)
        fleet_rss, workers_rss = _tree_rss_mb(prog.pid)
    finally:
        prog.stop()

    score_hot(out, opened.results + sat.results, answers)
    # The bounded latencies come from the closed-loop phase: on a 2-vCPU
    # host whose own speed drifts, the open loop's due-time latencies
    # (printed below) spread 25-40% between seeds, the closed loop's ~10%.
    m = out.metrics
    lat, due_lat = sat.latency, opened.latency
    m.put("setup_s", setup_s, "s", 1)
    t_val, t_q = tail(lat)
    m.time("p50_s", lat)
    m.put("tail_s", t_val, "s", len(lat))
    m.put("rate_per_s", len(lat) / sat_wall, "1/s", len(lat))
    lateness = percentile(opened.lateness, 95.0)
    out.record["generator_lateness_p95_s"] = lateness
    out.notes += [
        f"hot_p50_ms = {median(due_lat) * 1e3:.3f} ms "
        f"(n={len(due_lat)}, from due time)",
        f"hot_p95_ms = {percentile(due_lat, 95.0) * 1e3:.3f} ms "
        f"(n={len(due_lat)}, from due time)",
        f"p50_s / tail_s are the closed loop's p50 and p{t_q:.1f} "
        f"(n={len(lat)}, 10 samples beyond)",
        f"hot_max_rps = {len(lat) / sat_wall:.3f} req/s "
        f"(n={len(lat)}, closed loop, {config.HOT_CLIENTS} clients)",
        f"offered rate {config.HOT_OFFERED_RPS} req/s, generator lateness "
        f"p95 {lateness * 1e3:.3f} ms (n={len(opened.lateness)})",
        f"peak RSS of the fleet = {fleet_rss + workers_rss:.1f} MiB "
        f"(balancer + {config.FLEET_WORKERS} workers)",
    ]
    return out


def _untraced_hot(service, name: str) -> float:
    """The same hit through an in-process service, as one untimed block."""
    t0 = time.perf_counter()
    rec = service.advise(
        name, precision=config.HOT_PRECISION, nthreads=config.HOT_NTHREADS
    )
    dt = time.perf_counter() - t0
    if not rec.cache_hit:
        raise BenchError(f"in-process replay of {name} missed the cache")
    return dt


def _owner_urls(base_url: str) -> dict[str, str]:
    """Which worker owns each hot key, learnt from /stats deltas."""
    owners = {}
    client = Client(base_url)
    for name in config.HOT_MATRICES:
        before = _per_worker(get_json(base_url, "/stats")[1])
        client.post("/advise", inputs.hot_body(name))
        stats = get_json(base_url, "/stats")[1]
        after = _per_worker(stats)
        ports = {s["worker_id"]: s["port"] for s in stats["fleet"]["slots"]}
        for wid, n in after.items():
            if n > before.get(wid, 0):
                owners[name] = f"http://127.0.0.1:{ports[wid]}"
    client.close()
    return owners


def _per_worker(stats: dict) -> dict[int, int]:
    return {w["worker_id"]: w.get("requests", 0) for w in stats["workers"]}


def _trace_hot(out, prog, answers, names, workdir):
    _import_program()
    from repro.core.profiling import ProfileStore
    from repro.machine.presets import get_preset
    from repro.matrices.suite import get_entry
    from repro.serve.features import matrix_fingerprint
    from repro.serve.service import AdviseOptions, AdvisorService
    from repro.serve.store import AdvisorStore, profile_token

    owners = _owner_urls(prog.base_url)
    stats0 = get_json(prog.base_url, "/stats")[1]
    via, direct = Client(prog.base_url), {}
    live = []
    for k, name in enumerate(names):
        body = inputs.hot_body(name)
        dc = direct.setdefault(name, Client(owners[name]))
        pair = {}
        for route in (("via", "direct") if k % 2 else ("direct", "via")):
            client = via if route == "via" else dc
            t0 = time.perf_counter()
            status, payload = client.post("/advise", body)
            pair[route] = (time.perf_counter() - t0, status, payload)
        live.append((name, pair))
    via.close()
    for c in direct.values():
        c.close()
    stats1 = get_json(prog.base_url, "/stats")[1]
    fleet_rss, workers_rss = _tree_rss_mb(prog.pid)

    results = [
        (name, pair[r][1], pair[r][2]) for name, pair in live for r in pair
    ]
    hit_ratio = score_hot(out, results, answers)

    machine = get_preset(config.MACHINE)
    shared = workdir / "fleet-cache"
    profiles = ProfileStore(shared)
    t0 = time.perf_counter()
    profile = profiles.get(machine, config.HOT_PRECISION)
    disk = [time.perf_counter() - t0]
    token = profile_token(profile)
    opts = AdviseOptions(
        precision=config.HOT_PRECISION, nthreads=config.HOT_NTHREADS
    )
    store = AdvisorStore(workdir / "trace-store")
    untraced_svc = AdvisorService(
        cache_dir=workdir / "trace-store", profile_cache=profiles
    )
    cols = {k: [] for k in (
        "build", "fingerprint", "load", "save", "elapsed", "overhead", "hop",
        "other", "other_s", "other_share", "trace_over", "via",
    )}
    # Seed the scratch store with each key's served payload, so the
    # in-process replays below are hits exactly like the live requests.
    first = {}
    for name, pair in live:
        first.setdefault(name, pair["direct"][2])
    for name, payload in first.items():
        fp = matrix_fingerprint(get_entry(name).build())
        ts = time.perf_counter()
        store.save(AdvisorStore.key(fp, opts.cache_key(), token), payload,
                   fingerprint=fp, token=token)
        cols["save"].append(time.perf_counter() - ts)
    for k, (name, pair) in enumerate(live):
        lat_via = pair["via"][0]
        lat_dir, _, p_dir = pair["direct"]
        if k % 2:
            untraced = _untraced_hot(untraced_svc, name)
        t0 = time.perf_counter()
        coo = get_entry(name).build()
        t1 = time.perf_counter()
        fp = matrix_fingerprint(coo)
        t2 = time.perf_counter()
        key = AdvisorStore.key(fp, opts.cache_key(), token)
        t3 = time.perf_counter()
        store.load(key, token=token)
        t4 = time.perf_counter()
        if not k % 2:
            untraced = _untraced_hot(untraced_svc, name)
        elapsed = p_dir["elapsed_s"]
        traced = (t1 - t0) + (t2 - t1) + (t4 - t3)
        cols["build"].append(t1 - t0)
        cols["fingerprint"].append(t2 - t1)
        cols["load"].append(t4 - t3)
        cols["elapsed"].append(elapsed)
        cols["overhead"].append((lat_dir - elapsed) * 1e3)
        cols["hop"].append((lat_via - lat_dir) * 1e3)
        cols["other_s"].append(elapsed - traced)
        cols["other"].append(lat_via - traced)
        cols["other_share"].append((lat_via - traced) / lat_via)
        cols["trace_over"].append(traced - untraced)
        cols["via"].append(lat_via)

    m = out.metrics
    m.time("suite.build_s", cols["build"])
    m.time("features.fingerprint_s", cols["fingerprint"])
    m.time("store.load_s", cols["load"])
    m.time("store.save_s", cols["save"])
    m.put("store.hit_ratio", hit_ratio, "fraction", len(results))
    m.time("service.elapsed_s", cols["elapsed"])
    m.time("service.other_s", cols["other_s"])
    m.time("server.overhead_ms", cols["overhead"], unit="ms")
    m.time("fleet.hop_ms", cols["hop"], unit="ms")
    _server_counters(m, stats0, stats1, len(live))
    before, after = _per_worker(stats0), _per_worker(stats1)
    served = {w: after[w] - before.get(w, 0) for w in after}
    busiest = max(served.values()) / max(1, sum(served.values()))
    m.put("fleet.busiest_share", busiest, "fraction", len(live))
    routing = stats1["fleet"]["routing"]
    m.put("fleet.retries", routing.get("retried", 0), "count", len(live))
    m.put("fleet.restarts",
          sum(s.get("restarts", 0) for s in stats1["fleet"]["slots"]),
          "count", config.FLEET_WORKERS)
    m.time("profiling.disk_load_s", disk)
    m.put("rss.fleet_mb", fleet_rss, "MiB", 1)
    m.put("rss.fleet_workers_mb", workers_rss, "MiB", config.FLEET_WORKERS)
    m.time("trace.other_s", cols["other"])
    m.put("trace.other_share", median(cols["other_share"]), "fraction",
          len(live))
    m.time("trace.overhead_s", cols["trace_over"])
    hop = [h / 1e3 for h in cols["hop"]]
    out.notes.append(_shares(
        f"{len(live)} hits' latency via the balancer", sum(cols["via"]),
        {"build": cols["build"], "fingerprint": cols["fingerprint"],
         "load": cols["load"], "hop": hop, "other": cols["other"]},
    ))


# ========================================================================= #
# sweep
# ========================================================================= #
def sweep_passes(seconds: int) -> int:
    return max(1, math.ceil(seconds / config.SWEEP_PASS_S))


def _run_sweep_child(seed: int, npass: int, min_setups: int,
                     workdir: Path) -> tuple[dict, float]:
    """Run the engine child; returns (its result, peak RSS of its pool)."""
    spec = {
        "src": str(SRC),
        "machine": config.MACHINE,
        "workdir": str(workdir / "sweep"),
        "result": str(workdir / "sweep-result.json"),
        "orders": [inputs.sweep_order(seed, k) for k in range(npass)],
        "min_setups": min_setups,
        "jobs": config.SWEEP_JOBS,
    }
    child = Path(__file__).resolve().parent / "sweep_child.py"
    err = open(workdir / "sweep.stderr", "w")
    proc = subprocess.Popen(
        [sys.executable, str(child), json.dumps(spec)],
        env=child_env(), stdout=err, stderr=err, stdin=subprocess.DEVNULL,
    )
    pool_rss = together = 0.0
    try:
        while proc.poll() is None:
            kids = descendants(proc.pid)
            pool_rss = max(pool_rss, sum(peak_rss_mb(p) for p in kids))
            together = max(
                together, rss_mb(proc.pid) + sum(rss_mb(p) for p in kids)
            )
            time.sleep(0.05)
    finally:
        if proc.poll() is None:
            kill_tree(proc.pid)
        proc.wait()
        err.close()
    if proc.returncode != 0:
        raise BenchError(
            f"sweep engine process exited {proc.returncode}: "
            + (workdir / "sweep.stderr").read_text()[-800:]
        )
    result = json.loads(Path(spec["result"]).read_text())
    result["together_mb"] = together
    return result, pool_rss


def sweep(seed: int, seconds: int, trace: bool, workdir: Path) -> Outcome:
    out = Outcome()
    npass = 1 if trace else sweep_passes(seconds)
    orders = [inputs.sweep_order(seed, k) for k in range(npass)]
    out.record["input_digest"] = inputs.digest(json.dumps(orders))
    out.record["passes"] = npass
    result, pool_rss = _run_sweep_child(
        seed, npass, 1 if trace else config.SWEEP_MIN_SETUPS, workdir
    )
    score_sweep(out, result["passes"])
    walls = [p["wall_s"] for p in result["passes"]]
    records = sum(p["records"] for p in result["passes"])
    out.record["sweep_sha"] = sorted({p["sha"] for p in result["passes"]})
    m = out.metrics
    if not trace:
        m.time("setup_s", result["setups_s"])
        m.time("p50_s", walls)
        m.put("tail_s", tail(walls)[0], "s", len(walls))
        m.put("rate_per_s", records / sum(walls), "1/s", len(walls))
        out.notes += [
            f"sweep_cells_per_s = {records / sum(walls):.3f} records/s "
            f"(n={len(walls)} engine passes, {records} records)",
            f"peak RSS of the engine = {result['together_mb']:.1f} MiB "
            "(largest simultaneous sum over its processes)",
        ]
        return out
    _trace_sweep(out, result["passes"][0], workdir)
    m.put("rss.engine_mb", result["rss_mb"], "MiB", 1)
    m.put("rss.engine_workers_mb", pool_rss, "MiB", config.SWEEP_JOBS)
    return out


def score_sweep(out: Outcome, passes: list[dict]) -> None:
    """Each pass's shards count as attempted; a quarantined shard fails,
    and a pass whose suite-ordered canonical sha is not the pinned one
    fails all of its shards."""
    n_shards = 1 + len(config.SWEEP_REST)
    for p in passes:
        out.attempted += n_shards
        out.failed += len(p["missing"])
        if p["sha"] != config.SWEEP_SHA:
            out.wrong += 1
            out.failed += n_shards - len(p["missing"])


def _run_log(path: str) -> dict:
    events = [json.loads(line) for line in Path(path).read_text().splitlines()]
    start = {e["shard"]: e["ts"] for e in events if e["event"] == "shard_start"}
    busy, wait = {}, []
    for e in events:
        if e["event"] == "shard_finish":
            busy[e["shard"]] = e["elapsed_s"]
            wait.append(e["ts"] - start[e["shard"]] - e["elapsed_s"])
    finish = [e for e in events if e["event"] == "sweep_finish"]
    return {
        "busy": busy,
        "wait": wait,
        "utilization": finish[-1]["worker_utilization"] if finish else 0.0,
        "retries": sum(1 for e in events if e["event"] == "shard_retry"),
    }


def _trace_sweep(out: Outcome, live: dict, workdir: Path) -> None:
    _import_program()
    from repro.bench.harness import MODEL_NAMES, SweepConfig
    from repro.core.candidates import candidate_space
    from repro.engine import ShardStore
    from repro.machine.batch import MatrixProgram
    from repro.machine.presets import get_preset
    from repro.matrices.suite import get_entry

    log = _run_log(live["run_log"])
    machine = get_preset(config.MACHINE)
    calib, disk = _trace_profiles(machine, workdir / "trace-profiles")
    from repro.core.profiling import ProfileStore

    profiles = ProfileStore(workdir / "trace-profiles")
    cfg = SweepConfig(
        machine_name=config.MACHINE, precisions=("sp", "dp"),
        thread_counts=(1, 2, 4), max_block_elems=8,
        suite_indices=tuple(live["order"]),
    )
    live_store = ShardStore(Path(live["run_log"]).parent, cfg)
    scratch_store = ShardStore(workdir / "trace-shards", cfg)
    cands = candidate_space(max_block_elems=8)
    mt_cands = tuple(c for c in cands if c.kind != "vbl")
    cols = {k: [] for k in (
        "build", "plan", "simulate", "models", "save", "other",
        "other_share", "trace_over",
    )}
    x_miss = 0
    fdiff_shape = None
    for idx in live["order"]:
        entry = get_entry(idx)
        t0 = time.perf_counter()
        coo = entry.build()
        t1 = time.perf_counter()
        timings: dict = {}
        program = MatrixProgram(
            coo, machine, cands, profile_cache=profiles,
            timings=timings, clock=time.perf_counter,
        )
        t2 = time.perf_counter()
        evaluate = 0.0
        for precision in cfg.precisions:
            for nthreads in cfg.thread_counts:
                single = nthreads == 1
                te = time.perf_counter()
                cells = program.evaluate(
                    precision, nthreads, cands if single else mt_cands,
                    models=MODEL_NAMES if single else (),
                )
                evaluate += time.perf_counter() - te
                x_miss += sum(1 for c in cells if c.sim.x_misses > 0)
        t3 = time.perf_counter()
        matrix = live_store.load(idx)
        if matrix is not None:
            ts = time.perf_counter()
            scratch_store.save(idx, matrix, elapsed_s=log["busy"].get(idx, 0.0))
            cols["save"].append(time.perf_counter() - ts)
        traced = (t1 - t0) + (t2 - t1) + evaluate
        busy = log["busy"].get(idx, traced)
        cols["build"].append(t1 - t0)
        cols["plan"].append(t2 - t1)
        cols["simulate"].append(timings.get("simulate", 0.0))
        cols["models"].append(timings.get("models", 0.0))
        cols["other"].append(busy - traced)
        cols["other_share"].append((busy - traced) / busy)
        cols["trace_over"].append((t3 - t0) - busy)
        if idx == config.SWEEP_LONG_POLE:
            fdiff_shape = {
                "build": t1 - t0, "plan": t2 - t1,
                "simulate": timings.get("simulate", 0.0),
                "models": timings.get("models", 0.0),
                "busy": busy,
            }

    m = out.metrics
    n = len(live["order"])
    m.time("suite.build_s", cols["build"])
    m.time("batch.plan_s", cols["plan"])
    m.time("batch.simulate_s", cols["simulate"])
    m.time("batch.models_s", cols["models"])
    m.put("batch.x_miss_cells", x_miss, "count", n)
    m.time("engine.shard_busy_s", log["busy"].values())
    m.time("engine.queue_wait_s", log["wait"])
    m.put("engine.utilization", log["utilization"], "fraction", 1)
    m.put("engine.retries", log["retries"], "count", n)
    m.time("shards.save_s", cols["save"])
    m.time("profiling.calibrate_s", calib)
    m.time("profiling.disk_load_s", disk)
    m.time("trace.other_s", cols["other"])
    m.put("trace.other_share", median(cols["other_share"]), "fraction", n)
    m.time("trace.overhead_s", cols["trace_over"])
    if fdiff_shape:
        busy = fdiff_shape.pop("busy")
        parts = ", ".join(
            f"{k} {v:.3f} s ({v / busy:.0%})" for k, v in fdiff_shape.items()
        )
        out.notes.append(f"shape: fdiff shard {busy:.3f} s busy: {parts}")


WORKLOADS = {
    "advise-cold": advise_cold,
    "advise-hot": advise_hot,
    "sweep": sweep,
}


def cleanup(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
