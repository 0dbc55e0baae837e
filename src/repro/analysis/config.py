"""Lint configuration: the ``[tool.reprolint]`` table of ``pyproject.toml``.

Path whitelists live with the project, not the code::

    [tool.reprolint]
    paths = ["src/repro"]          # what to lint (files or directories)
    baseline = "lint_baseline.json"

    [tool.reprolint.rules.determinism]
    model-paths = ["src/repro/machine", ...]
    model-exclude = ["src/repro/core/selection.py", ...]

Every ``[tool.reprolint.rules.<rule-id>]`` table is handed verbatim to that
rule's constructor; the common keys are ``paths`` / ``exclude`` (which files
the rule runs on at all) plus whatever the rule documents.  All paths are
posix-style and relative to the project root (the directory holding
``pyproject.toml``).  When the table is absent the rules fall back to their
in-code defaults, which mirror the checked-in configuration.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

__all__ = ["LintConfig", "load_config", "find_project_root"]

DEFAULT_BASELINE = "lint_baseline.json"


@dataclass(frozen=True)
class LintConfig:
    """Resolved lint configuration for one project root."""

    root: Path
    paths: tuple[str, ...] = ("src/repro",)
    exclude: tuple[str, ...] = ()
    baseline: str = DEFAULT_BASELINE
    #: rule id -> that rule's settings table (handed to the constructor).
    rules: Mapping[str, Mapping] = field(default_factory=dict)

    @property
    def baseline_path(self) -> Path:
        return self.root / self.baseline


def load_config(root: str | Path) -> LintConfig:
    """The project's lint config (in-code defaults if the table is absent)."""
    root = Path(root).resolve()
    pyproject = root / "pyproject.toml"
    table: Mapping = {}
    if pyproject.is_file():
        data = tomllib.loads(pyproject.read_text())
        table = data.get("tool", {}).get("reprolint", {})
    kwargs: dict = {"root": root}
    if "paths" in table:
        kwargs["paths"] = tuple(table["paths"])
    if "exclude" in table:
        kwargs["exclude"] = tuple(table["exclude"])
    if "baseline" in table:
        kwargs["baseline"] = str(table["baseline"])
    kwargs["rules"] = {
        rule_id: dict(settings)
        for rule_id, settings in table.get("rules", {}).items()
    }
    return LintConfig(**kwargs)


def find_project_root(start: str | Path | None = None) -> Path:
    """The nearest ancestor of ``start`` (default: cwd) with a
    ``pyproject.toml``; falls back to this package's checkout root."""
    cur = Path(start) if start is not None else Path.cwd()
    cur = cur.resolve()
    for candidate in (cur, *cur.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    # src/repro/analysis/config.py -> repo root is three levels up from repro/
    return Path(__file__).resolve().parents[3]
