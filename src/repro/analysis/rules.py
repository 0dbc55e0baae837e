"""The rule set: project invariants as AST checks.

Each rule is a :class:`Rule` subclass registered with :func:`register`; the
runner instantiates every registered rule with its ``[tool.reprolint.rules.*]``
settings table and calls :meth:`Rule.check` once per applicable file.  Rules
share the parsed :class:`~repro.analysis.context.FileContext` — they never
re-parse, and path scoping (which files a rule applies to) lives in
configuration, not in the rule logic.

Shipped rules:

``determinism``
    No wall-clock reads, unseeded RNGs, or legacy global-state RNG calls in
    the model/simulator paths (``model-paths``), and no unsorted
    ``Path.glob`` / ``os.listdir``-style directory iteration anywhere:
    byte-determinism of the sweep is the repo's headline guarantee.
``atomic-write``
    Modules that own ``.repro_cache`` state must write through
    :func:`repro.ioutils.atomic_write_json` — never raw ``open(..., "w")``,
    ``json.dump`` or ``write_text`` — so readers can never observe a
    truncated cache file.
``lock-discipline``
    An attribute ever assigned under ``with self._lock:`` in a class is
    lock-protected: any later mutation outside a lock block (except in
    ``__init__``, before the object is shared) is a data race.
``event-schema``
    ``bus.emit(kind, ...)`` call sites must use a kind declared in
    :data:`repro.engine.events.EVENT_SCHEMAS` and pass exactly its declared
    fields; reporter modules may only compare ``kind`` against declared
    kinds.  Catches typo'd event names at lint time instead of as silently
    dropped progress lines.
``float-equality``
    No ``==`` / ``!=`` against non-zero float literals in model/simulator
    code (comparisons with literal ``0.0`` — exact-zero guards such as
    skipping a stored padding zero — are permitted).
``fault-site``
    Every ``fault_point("site")`` hook must name a site registered in
    :data:`repro.resilience.faults.SITE_CATALOG` — the one catalog fault
    plans are validated against — so a typo'd hook can't silently become
    un-injectable.
``envelope-io``
    Modules that own ``.repro_cache`` state must *read* through
    :func:`repro.ioutils.read_envelope` / ``read_envelope_lines`` — never
    raw ``json.loads`` / ``json.load`` / ``Path.read_text`` /
    ``read_bytes`` — so every cache load verifies the artifact's CRC32
    envelope and corruption is detected instead of parsed (the read-side
    twin of ``atomic-write``; see docs/durability.md).
"""

from __future__ import annotations

import ast
import inspect
from typing import TYPE_CHECKING, Iterable, Mapping

from .context import FileContext, dotted_name
from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover
    from .project import Project

__all__ = [
    "Rule",
    "register",
    "RULE_REGISTRY",
    "DeterminismRule",
    "AtomicWriteRule",
    "EnvelopeIoRule",
    "LockDisciplineRule",
    "EventSchemaRule",
    "FloatEqualityRule",
    "FaultSiteRule",
    "SUPPRESSION_RULE_ID",
    "UNUSED_SUPPRESSION_RULE_ID",
]

#: Pseudo rule id used by the runner for malformed ``# repro: noqa`` comments.
SUPPRESSION_RULE_ID = "suppression"

#: Pseudo rule id used by the runner for ``# repro: noqa`` comments that no
#: longer suppress any finding (full runs only — a ``--rule`` subset can't
#: tell stale from out-of-scope).
UNUSED_SUPPRESSION_RULE_ID = "unused-suppression"

RULE_REGISTRY: dict[str, type["Rule"]] = {}


def register(cls: type["Rule"]) -> type["Rule"]:
    RULE_REGISTRY[cls.id] = cls
    return cls


def _matches(rel_path: str, prefixes: Iterable[str]) -> bool:
    for prefix in prefixes:
        prefix = prefix.rstrip("/")
        if rel_path == prefix or rel_path.startswith(prefix + "/"):
            return True
    return False


class Rule:
    """Base class: path scoping plus a ``check(ctx)`` hook."""

    id: str = "?"
    title: str = ""
    #: Default path prefixes (relative to the lint root, posix) the rule
    #: applies to; empty means every linted file.  Overridden by the
    #: ``paths`` / ``exclude`` keys of the rule's settings table.
    default_paths: tuple[str, ...] = ()
    default_exclude: tuple[str, ...] = ()

    def __init__(self, settings: Mapping | None = None) -> None:
        settings = dict(settings or {})
        self.paths = tuple(settings.get("paths", self.default_paths))
        self.exclude = tuple(settings.get("exclude", self.default_exclude))
        self.settings = settings

    def applies_to(self, rel_path: str) -> bool:
        if self.exclude and _matches(rel_path, self.exclude):
            return False
        return not self.paths or _matches(rel_path, self.paths)

    def check(self, ctx: FileContext) -> list[Finding]:  # pragma: no cover
        raise NotImplementedError

    def check_project(self, project: "Project") -> list[Finding]:
        """Whole-program hook: runs once per lint over the full project.

        Rules that override this are *project rules*: the runner calls
        ``check_project`` after every file is parsed and skips their
        per-file :meth:`check` (which remains available for the legacy
        single-file :func:`~repro.analysis.runner.lint_file` API).
        """
        return []

    @classmethod
    def is_project_rule(cls) -> bool:
        return cls.check_project is not Rule.check_project

    @classmethod
    def explain(cls) -> str:
        """Human-readable rationale for ``lint --explain <rule-id>``."""
        doc = inspect.cleandoc(cls.__doc__ or "").strip()
        header = f"{cls.id} — {cls.title}" if cls.title else cls.id
        return f"{header}\n\n{doc}" if doc else header

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=ctx.rel_path,
            line=getattr(node, "lineno", 0),
            message=message,
            snippet=ctx.line_text(node),
        )


# --------------------------------------------------------------------------- #
# determinism
# --------------------------------------------------------------------------- #

_TIME_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.now", "datetime.utcnow",
    "datetime.datetime.now", "datetime.datetime.utcnow",
})

_RNG_FACTORIES = frozenset({
    "np.random.default_rng", "numpy.random.default_rng",
})

_DIR_ITER_ATTRS = frozenset({"glob", "rglob", "iterdir"})
_DIR_ITER_CALLS = frozenset({"os.listdir", "os.scandir"})


@register
class DeterminismRule(Rule):
    """Wall clocks, unseeded RNGs and directory-order dependence.

    The wall-clock and RNG checks are scoped to the ``model-paths`` setting
    (the simulator/model code whose outputs must be byte-deterministic);
    timing/calibration modules are opted out via ``model-exclude``.  The
    unsorted-directory-iteration check applies to every linted file: resume
    and stats behavior must never depend on readdir order.
    """

    id = "determinism"
    title = "byte-determinism of model outputs"
    default_model_paths = (
        "src/repro/machine", "src/repro/formats", "src/repro/core",
    )
    #: Timing/calibration modules: they measure the wall clock by design.
    default_model_exclude = (
        "src/repro/core/selection.py",
        "src/repro/engine/pool.py",
        "src/repro/serve/service.py",
    )

    def __init__(self, settings: Mapping | None = None) -> None:
        super().__init__(settings)
        self.model_paths = tuple(
            self.settings.get("model-paths", self.default_model_paths)
        )
        self.model_exclude = tuple(
            self.settings.get("model-exclude", self.default_model_exclude)
        )

    def _in_model_paths(self, rel_path: str) -> bool:
        if self.model_exclude and _matches(rel_path, self.model_exclude):
            return False
        return _matches(rel_path, self.model_paths)

    def check(self, ctx: FileContext) -> list[Finding]:
        findings = []
        model_scope = self._in_model_paths(ctx.rel_path)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if model_scope and name in _TIME_CALLS:
                findings.append(self.finding(
                    ctx, node,
                    f"wall-clock read {name}() in a model path; model "
                    "outputs must not depend on timing",
                ))
            elif model_scope and name in _RNG_FACTORIES:
                if not node.args and not node.keywords:
                    findings.append(self.finding(
                        ctx, node,
                        f"unseeded {name}() in a model path; pass an "
                        "explicit seed",
                    ))
            elif model_scope and name is not None and (
                name.startswith(("random.", "np.random.", "numpy.random."))
                and name not in _RNG_FACTORIES
            ):
                findings.append(self.finding(
                    ctx, node,
                    f"global-state RNG call {name}() in a model path; use "
                    "a seeded np.random.default_rng(seed)",
                ))
            elif self._is_unsorted_dir_iteration(ctx, node, name):
                findings.append(self.finding(
                    ctx, node,
                    "directory iteration without sorted(); readdir order "
                    "is filesystem-dependent",
                ))
        return findings

    @staticmethod
    def _is_unsorted_dir_iteration(
        ctx: FileContext, node: ast.Call, name: str | None
    ) -> bool:
        is_dir_iter = name in _DIR_ITER_CALLS or (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _DIR_ITER_ATTRS
        )
        if not is_dir_iter:
            return False
        for anc in ctx.ancestors(node):
            if (isinstance(anc, ast.Call)
                    and isinstance(anc.func, ast.Name)
                    and anc.func.id == "sorted"):
                return False
        return True


# --------------------------------------------------------------------------- #
# atomic-write
# --------------------------------------------------------------------------- #

_WRITE_MODES = frozenset("wxa+")


@register
class AtomicWriteRule(Rule):
    """Cache owners must write through ``atomic_write_json``.

    Scoped (via ``paths``) to the modules that own ``.repro_cache`` state;
    :mod:`repro.ioutils` itself — the one place the tmp-file + ``os.replace``
    dance is implemented — is simply not listed.
    """

    id = "atomic-write"
    title = "crash-safe cache writes"
    default_paths = (
        "src/repro/engine/shards.py",
        "src/repro/serve/store.py",
        "src/repro/core/profiling.py",
        "src/repro/bench/harness.py",
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            attr = (
                node.func.attr
                if isinstance(node.func, ast.Attribute)
                else None
            )
            if name == "json.dump":
                findings.append(self.finding(
                    ctx, node,
                    "raw json.dump in a cache-owning module; route through "
                    "repro.ioutils.atomic_write_json",
                ))
            elif attr in ("write_text", "write_bytes"):
                findings.append(self.finding(
                    ctx, node,
                    f"raw Path.{attr} in a cache-owning module; route "
                    "through repro.ioutils.atomic_write_json",
                ))
            elif (name == "open" or attr == "open") and self._writes(node):
                findings.append(self.finding(
                    ctx, node,
                    "open() for writing in a cache-owning module; route "
                    "through repro.ioutils.atomic_write_json",
                ))
        return findings

    @staticmethod
    def _writes(node: ast.Call) -> bool:
        mode = None
        args = node.args
        # Path.open(mode) has mode first; builtin open(file, mode) second.
        is_method = isinstance(node.func, ast.Attribute)
        idx = 0 if is_method else 1
        if len(args) > idx:
            mode = args[idx]
        for kw in node.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if not isinstance(mode, ast.Constant) or not isinstance(mode.value, str):
            return False  # default mode is read-only; dynamic modes skipped
        return any(c in _WRITE_MODES for c in mode.value)


# --------------------------------------------------------------------------- #
# envelope-io
# --------------------------------------------------------------------------- #


@register
class EnvelopeIoRule(Rule):
    """Cache owners must read through the verifying envelope helpers.

    The read-side twin of :class:`AtomicWriteRule`: a cache artifact
    parsed with raw ``json.loads`` / ``json.load`` (or slurped with
    ``Path.read_text`` / ``read_bytes`` first) skips the CRC32 envelope
    check, so a torn or bit-flipped file is *trusted* instead of
    quarantined.  Scoped to the modules that own ``.repro_cache`` state;
    :mod:`repro.ioutils` and :mod:`repro.durability` — where the
    verification itself lives — are simply not listed.  ``json.dumps`` is
    fine (serialization feeds the envelope writers); it is the decode
    direction that must verify.
    """

    id = "envelope-io"
    title = "verifying cache reads"
    default_paths = (
        "src/repro/engine/shards.py",
        "src/repro/serve/store.py",
        "src/repro/core/profiling.py",
        "src/repro/bench/harness.py",
        "src/repro/learn/registry.py",
        "src/repro/learn/tracelog.py",
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            attr = (
                node.func.attr
                if isinstance(node.func, ast.Attribute)
                else None
            )
            if name in ("json.loads", "json.load"):
                findings.append(self.finding(
                    ctx, node,
                    f"raw {name} in a cache-owning module; route through "
                    "repro.ioutils.read_envelope so corruption is "
                    "detected, not parsed",
                ))
            elif attr in ("read_text", "read_bytes"):
                findings.append(self.finding(
                    ctx, node,
                    f"raw Path.{attr} in a cache-owning module; route "
                    "through repro.ioutils.read_envelope / "
                    "read_envelope_lines",
                ))
        return findings


# --------------------------------------------------------------------------- #
# lock-discipline
# --------------------------------------------------------------------------- #


@register
class LockDisciplineRule(Rule):
    """Attributes written under a lock are written *only* under a lock.

    For each class: any ``self.X`` (or ``self.X[...]``) assigned inside a
    ``with self.<...lock...>:`` block is considered lock-protected.  A
    later assignment or augmented assignment to the same attribute outside
    a lock block — anywhere but ``__init__``, which runs before the object
    is shared — is reported.  Reads are not checked (snapshotting a counter
    racily is a judgement call; torn writes never are).

    On full runs the check is *interprocedural*: a write inside a helper
    counts as locked when the caller-side entry-lock analysis proves some
    lock is held at every resolved call into that helper — so factoring
    ``with self._lock: self._stats[...] = v`` into an unlocked helper is
    neither a false positive (the caller holds the lock) nor a missed race
    (a helper reachable without the lock is still flagged).
    """

    id = "lock-discipline"
    title = "lock-protected attribute mutation"
    default_paths = ("src/repro/serve", "src/repro/engine")

    def check_project(self, project: "Project") -> list[Finding]:
        from .dataflow import entry_locks

        entry = entry_locks(project)
        # Gather writes per class across every function in scope.
        per_class: dict[str, list[tuple]] = {}
        for qname, fn in project.functions.items():
            if fn.cls is None or not self.applies_to(fn.rel_path):
                continue
            # A helper is effectively locked when every resolved call
            # into it provably holds some lock.
            fn_entry_locked = bool(entry.get(qname))
            for write in fn.self_writes:
                effective = write.locked or fn_entry_locked
                per_class.setdefault(fn.cls, []).append(
                    (fn, write, effective)
                )
        findings = []
        for cls_qname in sorted(per_class):
            writes = per_class[cls_qname]
            protected = {
                w.attr for _, w, effective in writes
                # Entry-lock-only writes count: an attribute mutated only
                # in helpers that every caller enters under a lock is
                # still lock-protected, so a new unlocked path is flagged.
                if effective
            }
            cls_name = cls_qname.split(":", 1)[1]
            for fn, write, effective in writes:
                if effective or write.attr not in protected:
                    continue
                if fn.name == "__init__":
                    continue
                findings.append(self.finding(
                    fn.ctx, write.node,
                    f"self.{write.attr} is assigned under a lock elsewhere "
                    f"in {cls_name} but mutated here without one (no lock "
                    "held at any resolved call site either)",
                ))
        return findings

    def check(self, ctx: FileContext) -> list[Finding]:
        findings = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(ctx, node))
        return findings

    def _check_class(
        self, ctx: FileContext, cls: ast.ClassDef
    ) -> list[Finding]:
        protected: set[str] = set()
        writes: list[tuple[ast.stmt, str, bool]] = []  # (node, attr, locked)
        for node in ast.walk(cls):
            if not isinstance(node, (ast.Assign, ast.AugAssign)):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                attr = self._self_attr(target)
                if attr is None:
                    continue
                locked = self._under_lock(ctx, node, cls)
                if locked:
                    protected.add(attr)
                writes.append((node, attr, locked))
        findings = []
        for node, attr, locked in writes:
            if locked or attr not in protected:
                continue
            fn = ctx.enclosing_function(node)
            if fn is not None and fn.name == "__init__":
                continue
            findings.append(self.finding(
                ctx, node,
                f"self.{attr} is assigned under a lock elsewhere in "
                f"{cls.name} but mutated here without one",
            ))
        return findings

    @staticmethod
    def _self_attr(target: ast.AST) -> str | None:
        """The ``X`` of a ``self.X = ...`` or ``self.X[...] = ...`` target."""
        if isinstance(target, ast.Subscript):
            target = target.value
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            return target.attr
        return None

    @staticmethod
    def _under_lock(
        ctx: FileContext, node: ast.AST, cls: ast.ClassDef
    ) -> bool:
        for anc in ctx.ancestors(node):
            if anc is cls:
                return False
            if isinstance(anc, ast.With):
                for item in anc.items:
                    name = dotted_name(item.context_expr)
                    if name is not None and (
                        name.startswith("self.") and "lock" in name.lower()
                    ):
                        return True
        return False


# --------------------------------------------------------------------------- #
# event-schema
# --------------------------------------------------------------------------- #


@register
class EventSchemaRule(Rule):
    """Emit sites and reporters stay in sync with the event registry.

    Checks every ``<...bus...>.emit(kind, field=...)`` call with a literal
    kind: the kind must exist in the registry and the keyword fields must
    match its declared field set exactly (a ``**splat`` downgrades the
    check to kind membership only).  Inside the modules listed in
    ``reporter-paths``, comparisons of a bare ``kind`` variable against a
    string literal are also checked against the registry.
    """

    id = "event-schema"
    title = "registered engine event kinds and fields"
    default_reporter_paths = ("src/repro/engine/events.py",)

    def __init__(self, settings: Mapping | None = None) -> None:
        super().__init__(settings)
        self.reporter_paths = tuple(
            self.settings.get("reporter-paths", self.default_reporter_paths)
        )
        self._registry: Mapping[str, frozenset[str]] | None = None

    @property
    def registry(self) -> Mapping[str, frozenset[str]]:
        if self._registry is None:
            from ..engine.events import EVENT_SCHEMAS

            self._registry = EVENT_SCHEMAS
        return self._registry

    @registry.setter
    def registry(self, value: Mapping[str, frozenset[str]]) -> None:
        self._registry = value

    def check(self, ctx: FileContext) -> list[Finding]:
        findings = []
        reporter_scope = _matches(ctx.rel_path, self.reporter_paths)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                findings.extend(self._check_emit(ctx, node))
            elif reporter_scope and isinstance(node, ast.Compare):
                findings.extend(self._check_kind_compare(ctx, node))
        return findings

    def _check_emit(self, ctx: FileContext, node: ast.Call) -> list[Finding]:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "emit"):
            return []
        target = dotted_name(func.value)
        if target is None or "bus" not in target.lower():
            return []
        if not node.args or not (
            isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            return []  # dynamic kind: out of static reach
        kind = node.args[0].value
        if kind not in self.registry:
            return [self.finding(
                ctx, node,
                f"emit of unregistered event kind {kind!r}; declare it in "
                "repro.engine.events.EVENT_SCHEMAS",
            )]
        if any(kw.arg is None for kw in node.keywords):
            return []  # **fields splat: fields not statically known
        given = {kw.arg for kw in node.keywords}
        declared = self.registry[kind]
        findings = []
        missing = declared - given
        extra = given - declared
        if missing:
            findings.append(self.finding(
                ctx, node,
                f"emit({kind!r}) is missing declared field(s) "
                f"{sorted(missing)}",
            ))
        if extra:
            findings.append(self.finding(
                ctx, node,
                f"emit({kind!r}) passes undeclared field(s) "
                f"{sorted(extra)}; extend EVENT_SCHEMAS if intentional",
            ))
        return findings

    def _check_kind_compare(
        self, ctx: FileContext, node: ast.Compare
    ) -> list[Finding]:
        if not all(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return []
        operands = [node.left, *node.comparators]
        names = {dotted_name(o) for o in operands}
        if "kind" not in names and not any(
            isinstance(o, ast.Subscript)
            and isinstance(o.slice, ast.Constant)
            and o.slice.value == "event"
            for o in operands
        ):
            return []
        findings = []
        for operand in operands:
            if (isinstance(operand, ast.Constant)
                    and isinstance(operand.value, str)
                    and operand.value not in self.registry):
                findings.append(self.finding(
                    ctx, node,
                    f"comparison against unregistered event kind "
                    f"{operand.value!r}",
                ))
        return findings


# --------------------------------------------------------------------------- #
# fault-site
# --------------------------------------------------------------------------- #


@register
class FaultSiteRule(Rule):
    """``fault_point`` hooks name sites registered in the catalog.

    Fault plans are validated against
    :data:`repro.resilience.faults.SITE_CATALOG` at construction, so a
    hook whose literal site string is missing from the catalog can never
    be triggered by any plan — it is dead chaos surface, usually a typo.
    Calls with a dynamic (non-literal) site are out of static reach and
    skipped; calls with no site argument are reported.
    """

    id = "fault-site"
    title = "registered fault-injection sites"

    def __init__(self, settings: Mapping | None = None) -> None:
        super().__init__(settings)
        self._catalog: frozenset[str] | None = None

    @property
    def catalog(self) -> frozenset[str]:
        if self._catalog is None:
            from ..resilience.faults import SITE_CATALOG

            self._catalog = frozenset(SITE_CATALOG)
        return self._catalog

    @catalog.setter
    def catalog(self, value) -> None:
        self._catalog = frozenset(value)

    def check(self, ctx: FileContext) -> list[Finding]:
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None
            )
            if callee != "fault_point":
                continue
            if not node.args:
                findings.append(self.finding(
                    ctx, node,
                    "fault_point() call without a site argument",
                ))
                continue
            site = node.args[0]
            if not (isinstance(site, ast.Constant)
                    and isinstance(site.value, str)):
                continue  # dynamic site: out of static reach
            if site.value not in self.catalog:
                findings.append(self.finding(
                    ctx, node,
                    f"fault_point site {site.value!r} is not registered in "
                    "repro.resilience.faults.SITE_CATALOG; no plan can "
                    "ever trigger it",
                ))
        return findings


# --------------------------------------------------------------------------- #
# float-equality
# --------------------------------------------------------------------------- #


@register
class FloatEqualityRule(Rule):
    """No exact equality against non-zero float literals in model code.

    Comparisons with literal ``0.0`` are permitted: exact-zero guards
    (``if v != 0.0``, skipping a stored padding zero) are well-defined in
    IEEE 754.
    """

    id = "float-equality"
    title = "exact float comparison"
    default_paths = (
        "src/repro/machine",
        "src/repro/core",
        "src/repro/formats",
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            for operand in [node.left, *node.comparators]:
                if (isinstance(operand, ast.Constant)
                        and isinstance(operand.value, float)
                        and operand.value != 0.0):
                    findings.append(self.finding(
                        ctx, node,
                        f"exact comparison against float literal "
                        f"{operand.value!r}; use a tolerance "
                        "(math.isclose / abs diff)",
                    ))
                    break
        return findings
