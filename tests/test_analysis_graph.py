"""Whole-program analysis tests: graph construction, fixpoints, v2 rules.

Covers the :mod:`repro.analysis.project` call-graph edge cases (aliased
imports, ``self`` dispatch, decorated functions), fixpoint termination on
recursive call cycles, positive + negative fixtures for every v2 rule
family (numeric-safety, lock-order, stats-contract, interprocedural
lock-discipline, unused-suppression), and three seeded-injection
tests: an int32-narrowing edit in the real ``formats/coarsen.py`` (the
planner's coarsening maps), an inverted lock order mirroring
``fleet/supervisor.py``, and a renamed stats key in the real fleet
fan-in — each must produce exactly the expected finding.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import (
    FileContext,
    LintConfig,
    LockDisciplineRule,
    LockOrderRule,
    NumericSafetyRule,
    StatsContractRule,
    build_project,
    entry_locks,
    fixpoint,
    load_config,
    module_name,
    narrow_returns,
    run_lint,
    transitive_acquires,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_project(files: dict[str, str]):
    """Build a Project from ``{rel_path: source}`` without touching disk."""
    contexts = {
        rel: FileContext(Path(rel), rel, textwrap.dedent(src))
        for rel, src in files.items()
    }
    return build_project(contexts)


def repo_project(rel_paths: list[str], overrides: dict[str, str] | None = None):
    """Build a Project over real repo files, optionally patching sources."""
    overrides = overrides or {}
    contexts = {}
    for rel in rel_paths:
        src = (REPO_ROOT / rel).read_text()
        for old, new in overrides.get(rel, {}).items() if isinstance(
            overrides.get(rel), dict
        ) else []:
            src = src.replace(old, new)
        contexts[rel] = FileContext(REPO_ROOT / rel, rel, src)
    return build_project(contexts)


# --------------------------------------------------------------------------- #
# module / call graph construction
# --------------------------------------------------------------------------- #


class TestModuleGraph:
    def test_module_name_mapping(self):
        assert module_name("src/repro/machine/batch.py") == "repro.machine.batch"
        assert module_name("src/repro/learn/__init__.py") == "repro.learn"
        assert module_name("benchmarks/bench_sweep.py") == "benchmarks.bench_sweep"

    def test_bare_call_resolves_in_module(self):
        p = make_project({"src/repro/a.py": """\
            def helper():
                return 1
            def caller():
                return helper()
            """})
        assert p.callees("repro.a:caller") == ["repro.a:helper"]

    def test_aliased_module_import(self):
        p = make_project({
            "src/repro/m/util.py": "def f():\n    return 1\n",
            "src/repro/m/use.py": """\
                import repro.m.util as u
                def g():
                    return u.f()
                """,
        })
        assert p.callees("repro.m.use:g") == ["repro.m.util:f"]

    def test_aliased_from_import(self):
        p = make_project({
            "src/repro/m/util.py": "def f():\n    return 1\n",
            "src/repro/m/use.py": """\
                from repro.m.util import f as renamed
                def g():
                    return renamed()
                """,
        })
        assert p.callees("repro.m.use:g") == ["repro.m.util:f"]

    def test_relative_import(self):
        p = make_project({
            "src/repro/m/util.py": "def f():\n    return 1\n",
            "src/repro/m/use.py": """\
                from .util import f
                def g():
                    return f()
                """,
        })
        assert p.callees("repro.m.use:g") == ["repro.m.util:f"]

    def test_self_method_dispatch_and_inheritance(self):
        p = make_project({"src/repro/a.py": """\
            class Base:
                def shared(self):
                    return 1
            class Child(Base):
                def caller(self):
                    return self.shared() + self.own()
                def own(self):
                    return 2
            """})
        assert p.callees("repro.a:Child.caller") == [
            "repro.a:Base.shared", "repro.a:Child.own",
        ]

    def test_decorated_function_still_in_graph(self):
        p = make_project({"src/repro/a.py": """\
            import functools
            def deco(fn):
                return fn
            @deco
            @functools.lru_cache(maxsize=None)
            def helper():
                return 1
            def caller():
                return helper()
            """})
        assert "repro.a:helper" in p.functions
        assert p.callees("repro.a:caller") == ["repro.a:helper"]

    def test_annotated_param_receiver(self):
        p = make_project({"src/repro/a.py": """\
            class Widget:
                def ping(self):
                    return 1
            def use(w: Widget):
                return w.ping()
            """})
        assert p.callees("repro.a:use") == ["repro.a:Widget.ping"]

    def test_constructor_typed_local_receiver(self):
        p = make_project({"src/repro/a.py": """\
            class Widget:
                def ping(self):
                    return 1
            def use():
                w = Widget()
                return w.ping()
            """})
        assert p.callees("repro.a:use") == [
            "repro.a:Widget.__init__", "repro.a:Widget.ping",
        ] or p.callees("repro.a:use") == ["repro.a:Widget.ping"]

    def test_element_type_through_container_attr(self):
        # Mirrors FleetSupervisor.slots: tuple(WorkerSlot(...) for ...).
        p = make_project({"src/repro/a.py": """\
            class Slot:
                def probe(self):
                    return 1
            class Owner:
                def __init__(self, n):
                    self.slots = tuple(Slot() for _ in range(n))
                def scan(self):
                    for slot in self.slots:
                        slot.probe()
            """})
        assert "repro.a:Slot.probe" in p.callees("repro.a:Owner.scan")

    def test_callers_index_inverts_callees(self):
        p = make_project({"src/repro/a.py": """\
            def helper():
                return 1
            def caller():
                return helper()
            """})
        callers = [q for q, _ in p.callers["repro.a:helper"]]
        assert callers == ["repro.a:caller"]


# --------------------------------------------------------------------------- #
# fixpoint engine
# --------------------------------------------------------------------------- #


class TestFixpoint:
    def test_generic_fixpoint_reaches_closure(self):
        graph = {"a": ["b"], "b": ["c"], "c": []}
        facts = fixpoint(
            graph,
            lambda n: frozenset({n}),
            lambda n, get: frozenset().union(
                {n}, *(get(s) for s in graph[n])
            ),
            lambda n: [k for k, succs in graph.items() if n in succs],
        )
        assert facts["a"] == frozenset({"a", "b", "c"})

    def test_transitive_acquires_terminates_on_recursion(self):
        p = make_project({"src/repro/a.py": """\
            import threading
            class C:
                def __init__(self):
                    self.a_lock = threading.Lock()
                    self.b_lock = threading.Lock()
                def f(self):
                    with self.a_lock:
                        pass
                    self.g()
                def g(self):
                    with self.b_lock:
                        pass
                    self.f()
            """})
        acq = transitive_acquires(p)
        both = frozenset({"repro.a:C.a_lock", "repro.a:C.b_lock"})
        assert acq["repro.a:C.f"] == both
        assert acq["repro.a:C.g"] == both

    def test_narrow_returns_terminates_on_mutual_recursion(self):
        p = make_project({"src/repro/machine/a.py": """\
            import numpy as np
            def f(n):
                return g(n)
            def g(n):
                return f(n)
            def seeded(n):
                return np.int32(n)
            def wrapper(n):
                return seeded(n)
            """})
        nr = narrow_returns(p)
        assert nr["repro.machine.a:f"] is False
        assert nr["repro.machine.a:g"] is False
        assert nr["repro.machine.a:seeded"] is True
        assert nr["repro.machine.a:wrapper"] is True

    def test_entry_locks_meet_over_call_sites(self):
        p = make_project({"src/repro/a.py": """\
            import threading
            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                def always_locked(self):
                    with self._lock:
                        self.helper()
                def sometimes(self):
                    with self._lock:
                        self.shared()
                def never(self):
                    self.shared()
                def helper(self):
                    pass
                def shared(self):
                    pass
            """})
        ent = entry_locks(p)
        assert ent["repro.a:C.helper"] == frozenset({"repro.a:C._lock"})
        # One unlocked call site kills the guarantee (meet = intersection).
        assert ent["repro.a:C.shared"] == frozenset()
        # No resolved callers at all: unconstrained, reported as empty.
        assert ent["repro.a:C.always_locked"] == frozenset()


# --------------------------------------------------------------------------- #
# numeric-safety
# --------------------------------------------------------------------------- #


def ns_rule():
    return NumericSafetyRule({"model-paths": ["src/repro/machine"]})


class TestNumericSafety:
    def check(self, src):
        p = make_project({"src/repro/machine/x.py": src})
        return ns_rule().check_project(p)

    def test_narrow_mult_fires(self):
        findings = self.check("""\
            import numpy as np
            def f(n, h):
                a = np.arange(n, dtype=np.int32)
                return a * h
            """)
        assert [f.rule for f in findings] == ["numeric-safety"]
        assert "overflow" in findings[0].message

    def test_narrow_through_helper_return_fires(self):
        findings = self.check("""\
            import numpy as np
            def idx(n):
                return np.arange(n, dtype=np.int32)
            def f(n, h):
                return idx(n) * h
            """)
        assert len(findings) == 1
        assert "int32-narrowed" in findings[0].message

    def test_astype_narrowing_of_product_is_fine(self):
        # The repo idiom: arithmetic at int64, narrowed only at the edge.
        findings = self.check("""\
            import numpy as np
            def f(n, h):
                return (np.arange(n, dtype=np.int64) * h).astype(np.int32)
            """)
        assert findings == []

    def test_floordiv_mod_sub_on_narrow_are_fine(self):
        findings = self.check("""\
            import numpy as np
            def f(n, c):
                a = np.arange(n, dtype=np.int32)
                return a // c, a % c, a - c
            """)
        assert findings == []

    def test_float32_accumulator_fires(self):
        findings = self.check("""\
            import numpy as np
            def f(x):
                return np.sum(x, dtype=np.float32)
            """)
        assert len(findings) == 1
        assert "float64" in findings[0].message

    def test_narrow_int_accumulator_fires(self):
        findings = self.check("""\
            import numpy as np
            def f(x):
                return x.sum(dtype="int32")
            """)
        assert len(findings) == 1
        assert "narrow int accumulator" in findings[0].message

    def test_default_sum_is_fine(self):
        findings = self.check("""\
            import numpy as np
            def f(x):
                return np.sum(x) + x.sum(axis=0).sum()
            """)
        assert findings == []

    def test_fsum_fires(self):
        findings = self.check("""\
            import math
            def f(xs):
                return math.fsum(xs)
            """)
        assert len(findings) == 1
        assert "fsum" in findings[0].message

    def test_builtin_sum_over_numpy_array_fires(self):
        findings = self.check("""\
            import numpy as np
            def f(n):
                x = np.linspace(0.0, 1.0, n)
                return sum(x)
            """)
        assert len(findings) == 1
        assert "builtin sum()" in findings[0].message

    def test_builtin_sum_over_list_is_fine(self):
        findings = self.check("""\
            def f(xs):
                rows = [len(x) for x in xs]
                return sum(rows)
            """)
        assert findings == []

    def test_matmul_on_narrow_fires(self):
        findings = self.check("""\
            import numpy as np
            def f(a, n):
                b = np.ones(n, dtype=np.int16)
                return a @ b
            """)
        assert len(findings) == 1
        assert "'@'" in findings[0].message

    def test_out_of_scope_path_is_ignored(self):
        p = make_project({"src/repro/serve/x.py": textwrap.dedent("""\
            import numpy as np
            def f(n, h):
                return np.arange(n, dtype=np.int32) * h
            """)})
        assert ns_rule().check_project(p) == []


# --------------------------------------------------------------------------- #
# lock-order
# --------------------------------------------------------------------------- #


def lo_rule():
    return LockOrderRule({"paths": ["src/repro"]})


class TestLockOrder:
    def test_inverted_order_across_methods_fires(self):
        p = make_project({"src/repro/fleet/y.py": """\
            import threading
            class S:
                def __init__(self):
                    self.a_lock = threading.Lock()
                    self.b_lock = threading.Lock()
                def one(self):
                    with self.a_lock:
                        with self.b_lock:
                            pass
                def two(self):
                    with self.b_lock:
                        self.helper()
                def helper(self):
                    with self.a_lock:
                        pass
            """})
        findings = lo_rule().check_project(p)
        assert len(findings) == 1
        assert "lock-order cycle" in findings[0].message
        assert "a_lock" in findings[0].message
        assert "b_lock" in findings[0].message

    def test_consistent_order_is_fine(self):
        p = make_project({"src/repro/fleet/y.py": """\
            import threading
            class S:
                def __init__(self):
                    self.a_lock = threading.Lock()
                    self.b_lock = threading.Lock()
                def one(self):
                    with self.a_lock:
                        with self.b_lock:
                            pass
                def two(self):
                    with self.a_lock:
                        self.helper()
                def helper(self):
                    with self.b_lock:
                        pass
            """})
        assert lo_rule().check_project(p) == []

    def test_sequential_acquisition_is_fine(self):
        p = make_project({"src/repro/fleet/y.py": """\
            import threading
            class S:
                def __init__(self):
                    self.a_lock = threading.Lock()
                    self.b_lock = threading.Lock()
                def one(self):
                    with self.a_lock:
                        pass
                    with self.b_lock:
                        pass
                def two(self):
                    with self.b_lock:
                        pass
                    with self.a_lock:
                        pass
            """})
        assert lo_rule().check_project(p) == []

    def test_self_reacquisition_through_helper_fires(self):
        p = make_project({"src/repro/fleet/y.py": """\
            import threading
            class S:
                def __init__(self):
                    self._lock = threading.Lock()
                def outer(self):
                    with self._lock:
                        self.inner()
                def inner(self):
                    with self._lock:
                        pass
            """})
        findings = lo_rule().check_project(p)
        assert len(findings) == 1
        assert "re-acquired" in findings[0].message


# --------------------------------------------------------------------------- #
# stats-contract
# --------------------------------------------------------------------------- #


class TestStatsContract:
    CONSUMER = """\
        KEYS = ("requests", "errors")
        def merge(worker_stats):
            out = {{key: 0 for key in KEYS}}
            for stats in worker_stats:
                for key in KEYS:
                    out[key] += stats.get(key, 0)
                out["lat"] = stats.get("{latency_key}", 0.0)
                sub = stats.get("nested", {{}}).get("inner")
            return out
        """
    PRODUCER = """\
        class Svc:
            def stats(self):
                return {
                    "requests": 1, "errors": 0, "mean_latency_s": 0.0,
                    "nested": {"inner": 1},
                }
        """

    def project(self, latency_key):
        return make_project({
            "src/repro/fleet/b.py": self.CONSUMER.format(
                latency_key=latency_key
            ),
            "src/repro/serve/s.py": self.PRODUCER,
        })

    def rule(self):
        return StatsContractRule({
            "consumers": ["repro.fleet.b:merge"],
            "producers": ["repro.serve.s:Svc.stats"],
        })

    def test_all_keys_produced_is_clean(self):
        assert self.rule().check_project(self.project("mean_latency_s")) == []

    def test_unproduced_key_fires(self):
        findings = self.rule().check_project(self.project("mean_latency"))
        assert len(findings) == 1
        assert "'mean_latency'" in findings[0].message
        assert "no configured producer" in findings[0].message

    def test_assume_produced_escape_hatch(self):
        rule = StatsContractRule({
            "consumers": ["repro.fleet.b:merge"],
            "producers": ["repro.serve.s:Svc.stats"],
            "assume-produced": ["mean_latency"],
        })
        assert rule.check_project(self.project("mean_latency")) == []

    REGISTRY = """\
        EVENT_SCHEMAS = {
            "ping": frozenset({"a", "b"}),
            "quiet": frozenset({"x"}),
        }
        """

    def test_unemitted_kind_fires(self):
        p = make_project({
            "src/repro/engine/reg.py": self.REGISTRY,
            "src/repro/engine/emit.py": """\
                def go(bus):
                    bus.emit("ping", a=1, b=2)
                """,
        })
        rule = StatsContractRule({"registry-module": "repro.engine.reg"})
        findings = rule.check_project(p)
        assert len(findings) == 1
        assert "'quiet'" in findings[0].message
        assert "never emitted" in findings[0].message
        assert findings[0].path == "src/repro/engine/reg.py"

    def test_unproduced_field_fires(self):
        p = make_project({
            "src/repro/engine/reg.py": self.REGISTRY,
            "src/repro/engine/emit.py": """\
                def go(bus):
                    bus.emit("ping", a=1)
                    bus.emit("quiet", x=1)
                """,
        })
        rule = StatsContractRule({"registry-module": "repro.engine.reg"})
        findings = rule.check_project(p)
        assert len(findings) == 1
        assert "field 'b'" in findings[0].message

    def test_splat_emit_covers_all_fields(self):
        p = make_project({
            "src/repro/engine/reg.py": self.REGISTRY,
            "src/repro/engine/emit.py": """\
                def go(bus, ev):
                    bus.emit("ping", **ev)
                    bus.emit("quiet", x=1)
                """,
        })
        rule = StatsContractRule({"registry-module": "repro.engine.reg"})
        assert rule.check_project(p) == []

    REPORTER = """\
        EVENT_SCHEMAS = {{
            "ping": frozenset({{"a", "b"}}),
            "pong": frozenset({{"c"}}),
        }}
        def report(event):
            kind = event.get("event")
            if kind == "ping":
                print(event["a"], event.get("{field}"))
            if kind == "ping" and event.get("b"):
                print(event["ts"])
        def emit_all(bus):
            bus.emit("ping", a=1, b=2)
            bus.emit("pong", c=3)
        """

    def reporter_project(self, field):
        return make_project({
            "src/repro/engine/reg.py": self.REPORTER.format(field=field),
        })

    def reporter_rule(self):
        return StatsContractRule({
            "registry-module": "repro.engine.reg",
            "reporter-paths": ["src/repro/engine/reg.py"],
        })

    def test_reporter_within_schema_is_clean(self):
        p = self.reporter_project("b")
        assert self.reporter_rule().check_project(p) == []

    def test_reporter_field_outside_kind_schema_fires(self):
        # "c" belongs to pong, read under the ping branch.
        p = self.reporter_project("c")
        findings = self.reporter_rule().check_project(p)
        assert len(findings) == 1
        assert "'c'" in findings[0].message
        assert "ping" in findings[0].message

    def test_ungoverned_read_checked_against_union(self):
        p = make_project({"src/repro/engine/reg.py": """\
            EVENT_SCHEMAS = {
                "ping": frozenset({"a"}),
            }
            def report(event):
                print(event.get("zzz"))
            def emit_all(bus):
                bus.emit("ping", a=1)
            """})
        findings = self.reporter_rule().check_project(p)
        assert len(findings) == 1
        assert "'zzz'" in findings[0].message
        assert "any kind" in findings[0].message


# --------------------------------------------------------------------------- #
# interprocedural lock-discipline
# --------------------------------------------------------------------------- #


class TestLockDisciplineInterprocedural:
    SRC = """\
        import threading
        class C:
            def __init__(self):
                self._lock = threading.Lock()
                self._stats = {{}}
            def bump(self, k):
                with self._lock:
                    self._apply(k)
            def _apply(self, k):
                self._stats[k] = self._stats.get(k, 0) + 1
            def reset(self):
                {reset_body}
        """

    def project(self, reset_body):
        return make_project({
            "src/repro/serve/c.py": self.SRC.format(reset_body=reset_body)
        })

    def rule(self):
        return LockDisciplineRule({"paths": ["src/repro/serve"]})

    def test_entry_locked_helper_is_not_flagged(self):
        p = self.project("pass")
        assert self.rule().check_project(p) == []

    def test_unlocked_path_to_helper_protected_attr_fires(self):
        p = self.project("self._stats = {}")
        findings = self.rule().check_project(p)
        assert len(findings) == 1
        assert "_stats" in findings[0].message
        assert findings[0].rule == "lock-discipline"

    def test_locked_reset_is_clean(self):
        p = self.project(
            "with self._lock:\n                    self._stats = {}"
        )
        assert self.rule().check_project(p) == []


# --------------------------------------------------------------------------- #
# unused-suppression (runner-level, full runs only)
# --------------------------------------------------------------------------- #


class TestUnusedSuppression:
    def setup_project(self, tmp_path, source):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text(textwrap.dedent(source))
        return LintConfig(
            root=tmp_path, paths=("pkg",),
            rules={"float-equality": {"paths": []}},
        )

    def test_stale_suppression_reported_on_full_run(self, tmp_path):
        config = self.setup_project(tmp_path, """\
            def f(x):
                return x + 1  # repro: noqa[float-equality] nothing here anymore
            """)
        result = run_lint(config)
        assert [f.rule for f in result.findings] == ["unused-suppression"]
        assert "stale" in result.findings[0].message

    def test_live_suppression_not_reported(self, tmp_path):
        config = self.setup_project(tmp_path, """\
            def f(x):
                return x == 1.5  # repro: noqa[float-equality] fixture sentinel
            """)
        result = run_lint(config)
        assert result.findings == []
        assert result.suppressed == 1

    def test_rule_subset_skips_staleness(self, tmp_path):
        config = self.setup_project(tmp_path, """\
            def f(x):
                return x + 1  # repro: noqa[float-equality] nothing here anymore
            """)
        result = run_lint(config, only=("float-equality",))
        assert result.findings == []

    def test_malformed_still_reported_once(self, tmp_path):
        config = self.setup_project(tmp_path, """\
            def f(x):
                return x + 1  # repro: noqa[float-equality]
            """)
        result = run_lint(config)
        # No reason given: malformed, not double-reported as stale.
        assert [f.rule for f in result.findings] == ["suppression"]


# --------------------------------------------------------------------------- #
# seeded injections against the real tree
# --------------------------------------------------------------------------- #


class TestSeededInjections:
    def test_int32_narrowing_edit_in_coarsen_is_caught(self):
        rel = "src/repro/formats/coarsen.py"
        pristine = (REPO_ROOT / rel).read_text()
        seeded = pristine.replace(
            "np.arange(n_h + 1, dtype=np.int64) * h",
            "np.arange(n_h + 1, dtype=np.int32) * h",
        )
        assert seeded != pristine, "injection site moved; update the test"
        rule = NumericSafetyRule({"model-paths": ["src/repro/formats"]})

        clean = rule.check_project(build_project({
            rel: FileContext(REPO_ROOT / rel, rel, pristine)
        }))
        assert clean == []

        findings = rule.check_project(build_project({
            rel: FileContext(REPO_ROOT / rel, rel, seeded)
        }))
        assert len(findings) == 1
        assert findings[0].rule == "numeric-safety"
        assert "'*'" in findings[0].message
        assert "np.arange(n_h + 1, dtype=np.int32) * h" in findings[0].snippet

    SUPERVISOR_MIRROR = """\
        import threading
        from dataclasses import dataclass, field

        @dataclass
        class WorkerSlot:
            index: int
            ready: bool = False
            lock: threading.Lock = field(default_factory=threading.Lock)

        class FleetSupervisor:
            def __init__(self, n):
                self._restart_lock = threading.Lock()
                self._restarting = set()
                self.slots = tuple(WorkerSlot(index=i) for i in range(n))

            def _begin_restart(self, slot: WorkerSlot):
                # Inverted vs replace_worker: slot.lock then _restart_lock.
                with slot.lock:
                    with self._restart_lock:
                        self._restarting.add(slot.index)
                    slot.ready = False

            def replace_worker(self, index):
                slot = self.slots[index]
                with self._restart_lock:
                    self._mark(slot)

            def _mark(self, slot: WorkerSlot):
                with slot.lock:
                    slot.ready = True
        """

    def test_inverted_lock_order_mirroring_supervisor_is_caught(self):
        p = make_project({
            "src/repro/fleet/mirror.py": self.SUPERVISOR_MIRROR
        })
        findings = LockOrderRule(
            {"paths": ["src/repro/fleet"]}
        ).check_project(p)
        assert len(findings) == 1
        assert "lock-order cycle" in findings[0].message
        assert "WorkerSlot.lock" in findings[0].message
        assert "FleetSupervisor._restart_lock" in findings[0].message

    def test_real_supervisor_lock_order_is_clean(self):
        p = repo_project([
            "src/repro/fleet/supervisor.py",
            "src/repro/fleet/balancer.py",
        ])
        rule = LockOrderRule({"paths": ["src/repro/fleet"]})
        assert rule.check_project(p) == []

    FANIN_FILES = [
        "src/repro/fleet/balancer.py",
        "src/repro/serve/service.py",
        "src/repro/learn/runtime.py",
        "src/repro/learn/shadow.py",
        "src/repro/resilience/guard.py",
    ]

    def stats_rule(self):
        settings = load_config(REPO_ROOT).rules.get("stats-contract", {})
        # Drop the registry/reporter checks: this project subset only
        # contains the fan-in files.
        settings = dict(settings)
        settings["registry-module"] = "absent.module"
        settings["reporter-paths"] = []
        return StatsContractRule(settings)

    def test_renamed_stats_key_in_fanin_is_caught(self):
        overrides = {
            "src/repro/fleet/balancer.py": {
                '"cache_hits"': '"cache_hitz"',
            },
        }
        p = repo_project(self.FANIN_FILES, overrides)
        findings = self.stats_rule().check_project(p)
        assert len(findings) == 1
        assert findings[0].rule == "stats-contract"
        assert "'cache_hitz'" in findings[0].message
        assert findings[0].path == "src/repro/fleet/balancer.py"

    def test_real_fanin_contract_is_clean(self):
        p = repo_project(self.FANIN_FILES)
        assert self.stats_rule().check_project(p) == []
