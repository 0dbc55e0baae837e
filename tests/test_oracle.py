"""The reference oracle stays out of production code.

:mod:`repro.oracle` holds the executable specifications the tests and
``benchmarks/bench_sweep.py`` pin the fast paths to.  If a production
module imported it, a slow reference path could quietly become a
production one, and the oracle would no longer be independent of what it
checks.

The per-candidate reference loop, ``evaluate_candidates``, is held to the
same rule: outside tests, only its defining module and the oracle name
it, so every package, bench and example caller evaluates through
:class:`repro.machine.batch.MatrixProgram`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLE = "repro.oracle"
REFERENCE_LOOP = "evaluate_candidates"
#: The only program files that may name the reference loop.
REFERENCE_LOOP_HOMES = {"src/repro/core/selection.py", "src/repro/oracle.py"}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def imported_modules(source: str, module: str, is_package: bool) -> set[str]:
    """Every module ``source`` (the text of ``module``) imports, with
    relative imports resolved; ``from pkg import name`` also yields
    ``pkg.name``, since the name may be a submodule."""
    package = module if is_package else module.rpartition(".")[0]
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[: len(base) - (node.level - 1)]
                target = ".".join(base + ([node.module] if node.module else []))
            else:
                target = node.module
            found.add(target)
            found.update(f"{target}.{alias.name}" for alias in node.names)
    return found


def _imports_oracle(modules: set[str]) -> bool:
    return any(m == ORACLE or m.startswith(ORACLE + ".") for m in modules)


def test_no_production_module_imports_the_oracle():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = _module_name(path)
        if module == ORACLE:
            continue
        found = imported_modules(
            path.read_text(), module, path.name == "__init__.py"
        )
        if _imports_oracle(found):
            offenders.append(module)
    assert offenders == []


@pytest.mark.parametrize(
    "source,module,is_package",
    [
        ("from ..oracle import simulate_reference", "repro.machine.batch", False),
        ("from .. import oracle", "repro.core.selection", False),
        ("from . import oracle", "repro", True),
        ("from .oracle import LRUCache", "repro.cli", False),
        ("import repro.oracle", "repro.serve.service", False),
        ("from repro import oracle", "repro.engine.pool", False),
    ],
)
def test_scan_sees_every_import_form(source, module, is_package):
    assert _imports_oracle(imported_modules(source, module, is_package))


def test_scan_ignores_lookalikes():
    source = "from .oracles import x\nfrom ..machine import oracle_best\n"
    assert not _imports_oracle(
        imported_modules(source, "repro.core.selection", False)
    )


def identifiers(source: str) -> set[str]:
    """Every identifier ``source`` imports, defines, reads or looks up as
    an attribute; string contents (docstrings included) are not code."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            found.update(node.name.split("."))
            if node.asname:
                found.add(node.asname)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            found.add(node.name)
    return found


def reference_loop_callers(root: Path) -> list[str]:
    """Program files under ``root`` outside the loop's two homes that name
    the reference loop."""
    found = []
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((root / top).rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            if rel in REFERENCE_LOOP_HOMES:
                continue
            if REFERENCE_LOOP in identifiers(path.read_text()):
                found.append(rel)
    return found


def test_only_the_oracle_and_its_home_name_the_reference_loop():
    assert reference_loop_callers(ROOT) == []


@pytest.mark.parametrize(
    "source",
    [
        "from repro.core.selection import evaluate_candidates",
        "from .selection import evaluate_candidates as loop",
        "from repro import core\ncore.evaluate_candidates(coo, m, 'dp')",
        "import repro.core.selection as s\nf = s.evaluate_candidates",
        "def main():\n    return evaluate_candidates",
    ],
    ids=["import", "relative-alias", "attribute-call", "module-alias",
         "bare-name"],
)
def test_loop_scan_sees_every_use(source):
    assert REFERENCE_LOOP in identifiers(source)


def test_loop_scan_ignores_strings():
    source = (
        '"""Pinned to ``evaluate_candidates(..., run_simulation=False)``."""\n'
        "# evaluate_candidates in a comment\n"
        "__all__ = ['evaluate_candidates']\n"
        "evaluate_candidates_fast = 1\n"
    )
    assert REFERENCE_LOOP not in identifiers(source)
