"""Every script under ``examples/`` and ``benchmarks/`` imports only names
the package provides.

Neither directory is collected by the tier-1 run, so a module deleted from
``repro`` would otherwise leave a script behind that fails only when
someone runs it.  The scripts are parsed, never executed.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted([*ROOT.glob("examples/*.py"), *ROOT.glob("benchmarks/*.py")])


def repro_imports(tree: ast.AST) -> list[tuple[str, str | None]]:
    """``(module, name)`` for every absolute import of ``repro`` in ``tree``,
    at any depth; ``name`` is ``None`` for a plain ``import``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [
                (alias.name, None) for alias in node.names
                if alias.name.split(".")[0] == "repro"
            ]
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "repro"):
            found += [(node.module, alias.name) for alias in node.names]
    return found


def unresolved(module: str, name: str | None) -> str | None:
    """The dotted name that does not resolve, or ``None`` when ``module``
    imports and ``name`` is one of its attributes or submodules."""
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return module
    if name is None or name == "*" or hasattr(mod, name):
        return None
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return f"{module}.{name}"
    return None


def missing_names(source: str) -> list[str]:
    tree = ast.parse(source)
    return sorted({
        miss for miss in (unresolved(m, n) for m, n in repro_imports(tree))
        if miss
    })


def test_both_directories_scanned():
    dirs = {script.parent.name for script in SCRIPTS}
    assert dirs == {"examples", "benchmarks"}


@pytest.mark.parametrize(
    "script", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_repro_imports_resolve(script):
    assert missing_names(script.read_text()) == []


def test_every_import_form_is_checked():
    source = (
        "import repro.gone\n"
        "from repro.formats import NoSuchFormat\n"
        "from repro import gone_too, formats\n"
        "def main():\n"
        "    from repro.formats.coo import COOMatrix, NoSuchName\n"
    )
    assert missing_names(source) == [
        "repro.formats.NoSuchFormat",
        "repro.formats.coo.NoSuchName",
        "repro.gone",
        "repro.gone_too",
    ]
