"""Command-line interface: regenerate any table or figure of the paper.

Usage::

    python -m repro table1
    python -m repro sweep --progress              # full sweep, all cores
    python -m repro sweep --jobs 2 --run-log run.jsonl
    python -m repro sweep --matrices 1,27,30 --precisions dp --threads 1
    python -m repro sweep --fresh                 # recompute every shard
    python -m repro table2 table3 fig2 fig3 fig4 table4 colind
    python -m repro all                           # everything, paper order
    python -m repro advise pwtk --top 3           # format advisor, one matrix
    python -m repro advise path/to/matrix.mtx --no-prune
    python -m repro serve --port 8077             # advisor HTTP service
    python -m repro serve --port 0 --request-timeout 30 --max-inflight 4
    python -m repro serve --fault-plan plan.json  # chaos drill (docs/resilience.md)
    python -m repro serve --learn --train-interval 30  # online learning (docs/learning.md)
    python -m repro train                         # offline refit from the trace
    python -m repro fleet --workers 4 --port 8077 # sharded fleet (docs/serving.md)
    python -m repro loadtest --mix chaos --seed 7 # deterministic load harness
    python -m repro lint                          # invariant linter (see docs/lint.md)
    python -m repro lint --rule determinism --format json
    python -m repro fsck                          # verify the cache tree (docs/durability.md)
    python -m repro fsck --repair --gc --max-bytes 50000000

Sweeps run on the :mod:`repro.engine` worker pool: ``--jobs N`` picks the
number of worker processes (default: all cores), completed per-matrix
shards persist under ``<cache-dir>/shards/`` — the sweep's only cache — so
an interrupted sweep resumes where it stopped and a completed one is
served from them (``--resume``, the default; ``--fresh`` discards them
and recomputes every shard), and ``--run-log PATH`` appends
machine-readable JSONL events (shard start/finish/retry/quarantine,
throughput, worker utilization).
``--matrices/--precisions/--threads`` restrict the sweep for quick runs;
each restriction is a separately-cached configuration.
"""

from __future__ import annotations

import argparse
import errno
import sys
from pathlib import Path
from typing import Sequence

from .bench import experiments
from .bench.harness import SweepConfig, load_or_run_sweep

__all__ = ["main"]

_EXPERIMENTS = (
    "table1",
    "table2",
    "table3",
    "fig2",
    "fig3",
    "fig4",
    "table4",
    "colind",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-spmv",
        description=(
            "Reproduction of 'Performance Models for Blocked Sparse "
            "Matrix-Vector Multiplication Kernels' (ICPP 2009)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=_EXPERIMENTS + ("sweep", "all"),
        help="which tables/figures to regenerate",
    )
    parser.add_argument(
        "--cache-dir",
        default=".repro_cache",
        help="directory for the cached sweep results",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-shard progress while sweeping",
    )
    engine = parser.add_argument_group("sweep engine")
    engine.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the sweep (default: all cores)",
    )
    resume = engine.add_mutually_exclusive_group()
    resume.add_argument(
        "--resume",
        dest="resume",
        action="store_true",
        default=True,
        help="reuse shards from an interrupted sweep (default)",
    )
    resume.add_argument(
        "--fresh",
        dest="resume",
        action="store_false",
        help="discard this config's shards and recompute every one",
    )
    engine.add_argument(
        "--run-log",
        default=None,
        metavar="PATH",
        help="append machine-readable JSONL engine events to PATH",
    )
    _add_fault_plan_flag(engine)
    engine.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print the per-shard phase-timing breakdown "
            "(convert/stats/simulate/models seconds)"
        ),
    )
    subset = parser.add_argument_group(
        "sweep subsetting (each combination caches separately)"
    )
    subset.add_argument(
        "--matrices",
        default=None,
        metavar="I,J,...",
        help="restrict the sweep to these 1-based suite indices",
    )
    subset.add_argument(
        "--precisions",
        default=None,
        metavar="P,...",
        help="restrict to these precisions (from: sp,dp)",
    )
    subset.add_argument(
        "--threads",
        default=None,
        metavar="T,...",
        help="restrict to these thread counts (from: 1,2,4)",
    )
    return parser


def _add_fault_plan_flag(parser) -> None:
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="SPEC",
        help=(
            "install a chaos fault-injection plan: inline JSON or a path "
            "to a JSON file (see docs/resilience.md); default: the "
            "REPRO_FAULT_PLAN environment variable, if set"
        ),
    )


def _apply_fault_plan(spec: str | None) -> str | None:
    """Install the requested fault plan; returns an error message or None.

    ``--fault-plan`` wins over ``REPRO_FAULT_PLAN``; with neither set this
    is a no-op.  The env plan is re-read *strictly* here: the tolerant
    import-time hook only warns on a malformed plan, but an operator who
    reached the CLI intending chaos should get a hard error instead of a
    silently fault-free run.
    """
    from .resilience.faults import (
        install_plan,
        install_plan_from_env,
        load_plan_spec,
    )

    try:
        if spec is not None:
            install_plan(load_plan_spec(spec))
        else:
            install_plan_from_env()
    except (ValueError, OSError) as exc:
        return f"invalid fault plan: {exc}"
    return None


def _config_from_args(args: argparse.Namespace) -> SweepConfig:
    kwargs: dict = {}
    if args.matrices is not None:
        kwargs["suite_indices"] = tuple(
            int(s) for s in args.matrices.split(",") if s
        )
    if args.precisions is not None:
        kwargs["precisions"] = tuple(
            s for s in args.precisions.split(",") if s
        )
    if args.threads is not None:
        kwargs["thread_counts"] = tuple(
            int(s) for s in args.threads.split(",") if s
        )
    return SweepConfig(**kwargs)


def _validate_sweep_args(args: argparse.Namespace) -> str | None:
    """A human-readable problem with the sweep flags, or ``None``."""
    if args.jobs is not None and args.jobs < 1:
        return f"--jobs must be >= 1, got {args.jobs}"
    config = _config_from_args(args)
    if not config.precisions:
        return "--precisions selected nothing"
    if not config.thread_counts:
        return "--threads selected nothing"
    if config.suite_indices is not None and not config.suite_indices:
        return "--matrices selected no suite entries"
    try:
        config.entries()
    except KeyError as exc:
        return str(exc.args[0])
    return None


def _run_one(name: str, sweep) -> str:
    if name == "table1":
        return experiments.table1().render()
    if name == "table2":
        return experiments.table2(sweep).render()
    if name == "table3":
        return experiments.table3(sweep).render()
    if name == "fig2":
        return experiments.figure2(sweep).render()
    if name == "fig3":
        return "\n\n".join(
            experiments.figure3(sweep, p).render() for p in ("sp", "dp")
        )
    if name == "fig4":
        return "\n\n".join(
            experiments.figure4(sweep, p).render() for p in ("sp", "dp")
        )
    if name == "table4":
        return experiments.table4(sweep).render()
    if name == "colind":
        return experiments.colind_zero().render()
    raise ValueError(name)  # pragma: no cover - argparse restricts choices


def _build_advise_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-spmv advise",
        description=(
            "Recommend the fastest (format, block, implementation) for a "
            "matrix — a suite entry name/index or a Matrix Market file."
        ),
    )
    parser.add_argument(
        "matrix",
        help="suite entry name, 1-based suite index, or path to a .mtx file",
    )
    parser.add_argument(
        "--model",
        default="overlap",
        choices=("mem", "memcomp", "overlap"),
        help="performance model used for the ranking (default: overlap)",
    )
    parser.add_argument(
        "--precision", default="dp", choices=("sp", "dp"),
        help="value precision (default: dp)",
    )
    parser.add_argument(
        "--top", type=int, default=3, metavar="N",
        help="how many ranked candidates to print (default: 3)",
    )
    parser.add_argument(
        "--no-prune",
        dest="prune",
        action="store_false",
        help="evaluate the exhaustive candidate space (no feature pruning)",
    )
    parser.add_argument(
        "--no-cache",
        dest="use_cache",
        action="store_false",
        help="skip the recommendation cache (always recompute)",
    )
    parser.add_argument(
        "--cache-dir",
        default=".repro_cache",
        help="directory for the recommendation cache",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the full recommendation as JSON instead of a table",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the evaluation's phase-timing breakdown",
    )
    _add_fault_plan_flag(parser)
    return parser


def _build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-spmv serve",
        description=(
            "Run the advisor HTTP service (POST /advise, GET /healthz, "
            "GET /stats)."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8077,
        help="port to listen on; 0 picks a free one (printed on startup)",
    )
    parser.add_argument(
        "--cache-dir",
        default=".repro_cache",
        help="directory for the recommendation cache",
    )
    fleet = parser.add_argument_group("fleet")
    fleet.add_argument(
        "--profile-dir",
        default=None,
        metavar="DIR",
        help=(
            "directory for the calibrated-profile store (default: the "
            "cache dir); fleet workers point this at a shared dir so only "
            "the first worker pays calibration"
        ),
    )
    fleet.add_argument(
        "--worker-id", type=int, default=None, metavar="N",
        help="stamp this id into /stats (set by the fleet supervisor)",
    )
    fleet.add_argument(
        "--warmup",
        action="store_true",
        help=(
            "calibrate in the background on startup; /readyz answers 503 "
            "until the profile is ready"
        ),
    )
    hardening = parser.add_argument_group("hardening")
    hardening.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help=(
            "concurrent /advise requests admitted before shedding with a "
            "503 (default: 8)"
        ),
    )
    hardening.add_argument(
        "--request-timeout", type=float, default=None, metavar="SECONDS",
        help=(
            "per-request deadline; an over-budget advise answers 504 "
            "(default: unbounded)"
        ),
    )
    hardening.add_argument(
        "--max-body-bytes", type=int, default=None, metavar="BYTES",
        help="request-body ceiling; bigger bodies answer 413 (default: 8 MiB)",
    )
    hardening.add_argument(
        "--drain-timeout", type=float, default=None, metavar="SECONDS",
        help=(
            "how long a SIGTERM drain waits for in-flight requests "
            "(default: 10)"
        ),
    )
    learn = parser.add_argument_group("online learning (docs/learning.md)")
    learn.add_argument(
        "--learn",
        action="store_true",
        help=(
            "enable the online training loop: trace-log every request, "
            "shadow-evaluate the learned selector, serve model-guided "
            "answers when a model is published"
        ),
    )
    learn.add_argument(
        "--train-interval", type=float, default=None, metavar="SECONDS",
        help=(
            "refit and hot-swap the model in-process every SECONDS "
            "(default: no in-process trainer; run 'repro train' offline)"
        ),
    )
    learn.add_argument(
        "--holdout-mod", type=int, default=8, metavar="N",
        help=(
            "hold out 1-in-N matrix fingerprints for shadow evaluation; "
            "they are always served by the analytic model (default: 8)"
        ),
    )
    learn.add_argument(
        "--drift-threshold", type=float, default=0.5, metavar="GAP",
        help=(
            "rolling holdout-disagreement gap that trips the drift "
            "alarm into model-based fallback (default: 0.5)"
        ),
    )
    learn.add_argument(
        "--drift-window", type=int, default=32, metavar="N",
        help="rolling-window length for the shadow gap (default: 32)",
    )
    _add_fault_plan_flag(parser)
    return parser


def _advise_main(argv: Sequence[str]) -> int:
    import json as _json

    from .serve.service import AdvisorService

    args = _build_advise_parser().parse_args(argv)
    if args.top < 1:
        print(f"error: --top must be >= 1, got {args.top}", file=sys.stderr)
        return 2
    error = _apply_fault_plan(args.fault_plan)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    service = AdvisorService(cache_dir=args.cache_dir)
    try:
        rec = service.advise(
            args.matrix,
            model=args.model,
            precision=args.precision,
            prune=args.prune,
            use_cache=args.use_cache,
        )
    except Exception as exc:  # surface as a CLI error, not a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        payload = rec.to_payload()
        payload["cache_hit"] = rec.cache_hit
        payload["elapsed_s"] = rec.elapsed_s
        print(_json.dumps(payload, indent=2))
        return 0
    source = "cache" if rec.cache_hit else "evaluated"
    print(
        f"{args.matrix}: {rec.nrows} x {rec.ncols}, {rec.nnz} nonzeros"
        f"  [{source} {rec.n_candidates_evaluated}/{rec.n_candidates_total}"
        f" candidates, {rec.elapsed_s:.2f}s]"
    )
    width = max(len(r.label) for r in rec.top(args.top))
    for rank, r in enumerate(rec.top(args.top), start=1):
        print(
            f"  {rank}. {r.label:<{width}}  "
            f"predicted {r.predicted_s * 1e3:.3f} ms/spmv"
        )
    if args.profile:
        if rec.phase_timings:
            breakdown = " ".join(
                f"{k}={v:.3f}s" for k, v in sorted(rec.phase_timings.items())
            )
            print(f"  phases: {breakdown}")
        else:
            print("  phases: n/a (served from a cache entry without timings)")
    return 0


def _build_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-spmv lint",
        description=(
            "AST-based invariant linter: determinism, atomic-write, lock "
            "and event-schema discipline (see docs/lint.md)."
        ),
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="ID",
        help="run only this rule (repeatable; default: all rules)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text; sarif = SARIF 2.1.0 for "
             "GitHub code scanning)",
    )
    parser.add_argument(
        "--explain",
        default=None,
        metavar="ID",
        help="print what a rule checks and why, then exit",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline with every current finding and exit 0",
    )
    parser.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help=(
            "project root containing pyproject.toml (default: nearest "
            "ancestor of the working directory)"
        ),
    )
    return parser


def _lint_main(argv: Sequence[str]) -> int:
    import json as _json

    from .analysis import (
        apply_baseline,
        find_project_root,
        load_baseline,
        load_config,
        run_lint,
        save_baseline,
    )

    args = _build_lint_parser().parse_args(argv)
    if args.explain is not None:
        from .analysis import RULE_REGISTRY

        cls = RULE_REGISTRY.get(args.explain)
        if cls is None:
            known = ", ".join(sorted(RULE_REGISTRY))
            print(
                f"error: unknown rule id {args.explain!r}; known: {known}",
                file=sys.stderr,
            )
            return 2
        print(cls.explain())
        return 0
    root = args.root if args.root is not None else find_project_root()
    config = load_config(root)
    only = tuple(args.rule) if args.rule else None
    try:
        result = run_lint(config, only=only)
        baseline = load_baseline(config.baseline_path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.update_baseline:
        save_baseline(config.baseline_path, result.findings)
        print(
            f"baseline updated: {len(result.findings)} finding(s) recorded "
            f"in {config.baseline_path}"
        )
        return 0

    new, baselined = apply_baseline(result.findings, baseline)
    if args.format == "sarif":
        from .analysis import sarif_json

        print(sarif_json(new))
        return 1 if new else 0
    if args.format == "json":
        print(_json.dumps({
            "findings": [f.to_payload() for f in new],
            "files_checked": result.files_checked,
            "suppressed": result.suppressed,
            "baselined": baselined,
            "clean": not new,
        }, indent=2))
    else:
        for finding in new:
            print(finding.render())
        summary = (
            f"checked {result.files_checked} file(s): "
            f"{len(new)} finding(s), {result.suppressed} suppressed, "
            f"{baselined} baselined"
        )
        print(summary if not new else f"\n{summary}")
    return 1 if new else 0


def _port_in_use(command: str, host: str, port: int) -> str:
    """The one-line error ``repro serve`` and ``repro fleet`` print when
    their port is taken."""
    return (
        f"error: port {port} on {host} is already in use "
        f"— a stale 'repro {command}' process may still be listening; "
        "stop it or pass a different --port (0 picks a free one)"
    )


def _serve_main(argv: Sequence[str]) -> int:
    from .durability.fsck import fsck_tree
    from .serve import server as server_mod
    from .serve.service import AdvisorService

    args = _build_serve_parser().parse_args(argv)
    error = _apply_fault_plan(args.fault_plan)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.train_interval is not None and not args.learn:
        print("error: --train-interval requires --learn", file=sys.stderr)
        return 2
    # Heal the cache partition before any store opens it (and before the
    # server answers /readyz): corrupt artifacts quarantine, torn trace
    # segments are rewritten, orphaned tmp files go — a worker restarted
    # after a hard crash starts from a verified tree.
    fsck_report = fsck_tree(args.cache_dir, repair=True)
    if fsck_report.findings:
        print(
            f"fsck: repaired cache {args.cache_dir} — "
            + ", ".join(
                f"{kind}: {n}" for kind, n in sorted(
                    fsck_report.counts().items()
                )
            ),
            file=sys.stderr,
            flush=True,
        )
    service_kwargs: dict = {"worker_id": args.worker_id}
    if args.profile_dir is not None:
        from .core.profiling import ProfileStore

        service_kwargs["profile_cache"] = ProfileStore(args.profile_dir)
    if args.learn:
        from .learn import LearnConfig

        if args.holdout_mod < 1:
            print(
                f"error: --holdout-mod must be >= 1, got {args.holdout_mod}",
                file=sys.stderr,
            )
            return 2
        service_kwargs["learn_config"] = LearnConfig(
            holdout_mod=args.holdout_mod,
            drift_threshold=args.drift_threshold,
            drift_window=args.drift_window,
            train_interval_s=args.train_interval,
        )
    service = AdvisorService(cache_dir=args.cache_dir, **service_kwargs)
    if service.learn is not None and args.train_interval is not None:
        service.learn.start_trainer()
    if args.warmup:
        service.start_warmup()
    kwargs: dict = {}
    if args.max_inflight is not None:
        kwargs["max_inflight"] = args.max_inflight
    if args.request_timeout is not None:
        kwargs["request_timeout_s"] = args.request_timeout
    if args.max_body_bytes is not None:
        kwargs["max_body_bytes"] = args.max_body_bytes
    if args.drain_timeout is not None:
        kwargs["drain_timeout_s"] = args.drain_timeout
    try:
        server = server_mod.create_server(
            service, host=args.host, port=args.port, **kwargs
        )
    except OSError as exc:
        if exc.errno == errno.EADDRINUSE:
            print(_port_in_use("serve", args.host, args.port), file=sys.stderr)
            return 1
        raise
    host, port = server.server_address[0], server.server_address[1]
    print(
        f"advisor listening on http://{host}:{port}"
        "  (POST /advise, GET /healthz, /readyz, /stats)",
        flush=True,
    )
    clean = server_mod.run_server(server)
    if service.learn is not None:
        service.learn.stop()
    return 0 if clean else 1


def _build_train_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-spmv train",
        description=(
            "Refit the learned selector from the request trace a "
            "learn-enabled advisor logged, and publish the model as a "
            "versioned artifact (docs/learning.md).  A running 'serve "
            "--learn' on the same cache dir hot-swaps it without restart."
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=".repro_cache",
        help="cache root holding the trace log and the model store",
    )
    parser.add_argument(
        "--min-samples", type=int, default=8, metavar="N",
        help="eligible trace records required to publish (default: 8)",
    )
    parser.add_argument(
        "--max-depth", type=int, default=4, metavar="N",
        help="decision-tree depth limit (default: 4)",
    )
    parser.add_argument(
        "--min-samples-leaf", type=int, default=2, metavar="N",
        help="minimum samples per tree leaf (default: 2)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the training summary as JSON",
    )
    return parser


def _train_main(argv: Sequence[str]) -> int:
    import json as _json

    from .learn import ModelRegistry, TraceLog, train_once

    args = _build_train_parser().parse_args(argv)
    tracelog = TraceLog(args.cache_dir)
    registry = ModelRegistry(args.cache_dir)
    summary = train_once(
        tracelog,
        registry,
        trigger="cli",
        min_samples=args.min_samples,
        max_depth=args.max_depth,
        min_samples_leaf=args.min_samples_leaf,
    )
    if args.json:
        print(_json.dumps(summary, indent=2))
    elif summary["published"]:
        print(
            f"published model {summary['version']} "
            f"({summary['samples']} samples from {summary['records']} "
            f"trace records, {summary['elapsed_s']:.2f}s)"
        )
    else:
        print(
            f"not published: {summary['records']} trace record(s), "
            f"{summary['samples']} eligible — need --min-samples "
            f"{args.min_samples} model-made records with features "
            "(run traffic through 'repro serve --learn' first)"
        )
    return 0 if summary["published"] else 1


def _build_fleet_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-spmv fleet",
        description=(
            "Run a multi-process advisor fleet: N supervised 'repro serve' "
            "workers behind a content-sharded balancer (docs/serving.md)."
        ),
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker processes to supervise (default: 2)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8077,
        help=(
            "balancer port; 0 picks a free one (printed on startup); "
            "workers always bind ephemeral ports"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=".repro_cache",
        help=(
            "cache root; each worker owns <cache-dir>/fleet/worker-<id>/ "
            "and all share the profile store at <cache-dir>"
        ),
    )
    parser.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="per-worker admission bound (default: the server default of 8)",
    )
    parser.add_argument(
        "--request-timeout", type=float, default=None, metavar="SECONDS",
        help="per-request deadline forwarded to every worker",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=None, metavar="SECONDS",
        help="per-worker SIGTERM drain budget",
    )
    _add_fault_plan_flag(parser)
    return parser


def _fleet_main(argv: Sequence[str]) -> int:
    from .fleet import FleetConfig, FleetSupervisor, serve_fleet
    from .serve.server import stop_signals

    args = _build_fleet_parser().parse_args(argv)
    try:
        config = FleetConfig(
            workers=args.workers,
            cache_dir=args.cache_dir,
            host=args.host,
            max_inflight=args.max_inflight,
            request_timeout_s=args.request_timeout,
            drain_timeout_s=args.drain_timeout,
            # Workers re-parse the spec themselves; validate it up front so
            # a typo fails here, not N times in worker stderr logs.
            fault_plan=args.fault_plan,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.fault_plan is not None:
        error = _apply_fault_plan(args.fault_plan)
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
            return 2
    supervisor = FleetSupervisor(config)
    print(
        f"starting {args.workers} worker(s) "
        f"(cache root {args.cache_dir})...",
        flush=True,
    )
    try:
        with stop_signals() as stop, serve_fleet(
            supervisor, args.host, args.port
        ) as balancer:
            host, port = balancer.server_address[:2]
            print(
                f"fleet balancer listening on http://{host}:{port}"
                f"  ({args.workers} workers; POST /advise, GET /healthz, "
                "/readyz, /stats)",
                flush=True,
            )
            stop.wait()
    except OSError as exc:
        if exc.errno == errno.EADDRINUSE:
            print(_port_in_use("fleet", args.host, args.port), file=sys.stderr)
            return 1
        raise
    except RuntimeError as exc:  # a worker never became ready
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if balancer.drained_clean else 1


def _build_loadtest_parser() -> argparse.ArgumentParser:
    from .fleet.replay import DEFAULT_MATRICES, MIXES

    parser = argparse.ArgumentParser(
        prog="repro-spmv loadtest",
        description=(
            "Replay a deterministic traffic mix against a freshly spawned "
            "fleet (or one worker) and print the benchmark table.  Exit 1 "
            "when a status falls outside the mix's budget, no request "
            "answers 200, or a worker does not drain cleanly "
            "(docs/serving.md)."
        ),
    )
    parser.add_argument(
        "--mix", choices=MIXES, default="steady",
        help="traffic shape (default: steady)",
    )
    parser.add_argument(
        "--seed", type=int, default=1337,
        help="replay seed; equal seeds give byte-identical request "
        "sequences (default: 1337)",
    )
    parser.add_argument(
        "--requests", type=int, default=60, metavar="N",
        help="requests to replay (default: 60)",
    )
    parser.add_argument(
        "--clients", type=int, default=4, metavar="N",
        help="concurrent closed-loop clients (default: 4)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="fleet size (default: 2)",
    )
    parser.add_argument(
        "--matrices", default=",".join(DEFAULT_MATRICES), metavar="NAMES",
        help=(
            "comma-separated suite entry names to draw requests from "
            f"(default: {','.join(DEFAULT_MATRICES)})"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=".repro_cache",
        help="cache root for the spawned fleet",
    )
    parser.add_argument(
        "--single",
        action="store_true",
        help=(
            "drive one worker directly instead of a balanced fleet "
            "(the single-process baseline; ignores --workers)"
        ),
    )
    parser.add_argument(
        "--no-warm",
        action="store_true",
        help="skip the serial cache-warming pass before the measured run",
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the table as JSON to this path",
    )
    return parser


def _loadtest_main(argv: Sequence[str]) -> int:
    import json as _json

    from .fleet import build_plan, drive

    args = _build_loadtest_parser().parse_args(argv)
    for flag, value in (
        ("--workers", args.workers), ("--clients", args.clients)
    ):
        if value < 1:
            print(f"error: {flag} must be >= 1, got {value}", file=sys.stderr)
            return 2
    matrices = tuple(s for s in args.matrices.split(",") if s)
    try:
        plan = build_plan(args.mix, args.seed, args.requests, matrices)
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    try:
        table = drive(
            plan,
            args.cache_dir,
            workers=args.workers,
            single=args.single,
            clients=args.clients,
            warm=not args.no_warm,
        )
    except RuntimeError as exc:  # a worker never became ready
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_json.dumps(table, indent=2))
    if args.output is not None:
        Path(args.output).write_text(
            _json.dumps(table, indent=2) + "\n", encoding="utf-8"
        )
    violations = table["violations"]
    if violations:
        print(
            f"error: {len(violations)} violation(s) (status budget "
            f"{sorted(plan.status_budget)}); first: {violations[0]}",
            file=sys.stderr,
        )
    if not table["clean_drain"]:
        print(
            "error: a worker did not drain cleanly after SIGTERM",
            file=sys.stderr,
        )
    return 1 if violations or not table["clean_drain"] else 0


def _build_fsck_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-spmv fsck",
        description=(
            "Verify every cache artifact's checksummed envelope across "
            "the cache root and all fleet worker partitions; optionally "
            "repair (quarantine corrupt artifacts, rewrite torn trace "
            "segments, sweep orphaned tmp files) and garbage-collect "
            "(docs/durability.md).  Exit 0 when the tree is clean, 1 "
            "when unrepaired problems remain."
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=".repro_cache",
        help="cache root to verify (default: .repro_cache)",
    )
    parser.add_argument(
        "--repair",
        action="store_true",
        help=(
            "heal what verification finds: quarantine corrupt artifacts, "
            "rewrite torn trace segments, remove stale tmp files"
        ),
    )
    parser.add_argument(
        "--gc",
        action="store_true",
        help=(
            "after verification, delete rebuildable artifacts oldest-"
            "first until the tree fits --max-bytes (profiles, the model "
            "pointer and the model it references are never collected)"
        ),
    )
    parser.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="size bound for --gc",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    return parser


def _fsck_main(argv: Sequence[str]) -> int:
    import json as _json

    from .durability.fsck import fsck_tree

    args = _build_fsck_parser().parse_args(argv)
    if args.gc and args.max_bytes is None:
        print("error: --gc requires --max-bytes", file=sys.stderr)
        return 2
    if args.max_bytes is not None and not args.gc:
        print("error: --max-bytes requires --gc", file=sys.stderr)
        return 2
    if args.max_bytes is not None and args.max_bytes < 0:
        print(
            f"error: --max-bytes must be >= 0, got {args.max_bytes}",
            file=sys.stderr,
        )
        return 2
    report = fsck_tree(
        args.cache_dir,
        repair=args.repair,
        gc_max_bytes=args.max_bytes if args.gc else None,
    )
    if args.format == "json":
        print(_json.dumps(report.to_payload(), indent=2))
    else:
        print(report.render())
    return 0 if report.clean else 1


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "advise":
        return _advise_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "train":
        return _train_main(argv[1:])
    if argv and argv[0] == "fleet":
        return _fleet_main(argv[1:])
    if argv and argv[0] == "loadtest":
        return _loadtest_main(argv[1:])
    if argv and argv[0] == "fsck":
        return _fsck_main(argv[1:])
    if argv and argv[0] == "lint":
        try:
            return _lint_main(argv[1:])
        except BrokenPipeError:
            # stdout piped into a pager/head that exited early; not an
            # error — mirror the conventional SIGPIPE exit status.
            sys.stderr.close()
            return 141
    args = _build_parser().parse_args(argv)
    wanted = list(args.experiments)
    if "all" in wanted:
        wanted = list(_EXPERIMENTS)

    needs_sweep = any(
        e in ("table2", "table3", "fig2", "fig3", "fig4", "table4", "sweep")
        for e in wanted
    )
    sweep = None
    if needs_sweep:
        error = _validate_sweep_args(args) or _apply_fault_plan(
            args.fault_plan
        )
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
            return 2
        sweep = load_or_run_sweep(
            _config_from_args(args),
            cache_dir=args.cache_dir,
            progress=args.progress,
            jobs=args.jobs,  # None = os.cpu_count(), resolved by the engine
            resume=args.resume,
            run_log=args.run_log,
            profile=args.profile,
        )
        if sweep.missing:
            print(
                "warning: sweep is partial — quarantined matrices: "
                + ", ".join(str(i) for i in sweep.missing),
                file=sys.stderr,
            )
        if "sweep" in wanted:
            print(
                f"sweep ready: {len(sweep.matrices)} matrices, "
                f"{sum(len(m.records) for m in sweep.matrices)} records "
                f"({sweep.elapsed_s:.0f}s)"
            )
            wanted = [e for e in wanted if e != "sweep"]

    for name in wanted:
        print(_run_one(name, sweep))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
