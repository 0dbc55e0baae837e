"""The reference oracle stays out of production code.

:mod:`repro.oracle` holds the executable specifications the tests and
``benchmarks/bench_sweep.py`` pin the fast paths to.  If a production
module imported it, a slow reference path could quietly become a
production one, and the oracle would no longer be independent of what it
checks.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
ORACLE = "repro.oracle"


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
