"""Per-file analysis context, parsed once and shared by every rule.

The walker builds one :class:`FileContext` per source file: the AST with a
child-to-parent map, helpers to walk enclosing scopes, and the file's
inline suppressions (``# repro: noqa[rule-id] reason``).  Rules receive the
context and never re-parse, so adding a rule costs one extra AST walk, not
one extra parse.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path

__all__ = ["FileContext", "Suppression", "dotted_name"]

#: The suppression marker is ``repro: noqa[rule-a, rule-b] why this is
#: fine`` inside a comment; the reason text after the closing bracket is
#: mandatory (enforced by the runner).  Only real comment tokens are
#: scanned, so the marker appearing in a docstring or string literal (such
#: as this package's own documentation) is inert.
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([^\]]*)\]\s*(.*)$")


@dataclass(frozen=True)
class Suppression:
    """One inline ``# repro: noqa[...]`` comment."""

    line: int
    rules: frozenset[str]
    reason: str

    def covers(self, rule_id: str) -> bool:
        return "*" in self.rules or rule_id in self.rules


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


class FileContext:
    """One parsed source file plus shared structural annotations."""

    def __init__(self, path: Path, rel_path: str, source: str) -> None:
        self.path = path
        self.rel_path = rel_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self._parents: dict[ast.AST, ast.AST] = {
            child: parent
            for parent in ast.walk(self.tree)
            for child in ast.iter_child_nodes(parent)
        }
        self.suppressions: dict[int, Suppression] = {}
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(token.string)
            if match is None:
                continue
            lineno = token.start[0]
            rules = frozenset(
                r.strip() for r in match.group(1).split(",") if r.strip()
            )
            self.suppressions[lineno] = Suppression(
                line=lineno, rules=rules, reason=match.group(2).strip()
            )

    # --------------------------- tree helpers --------------------------- #
    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST):
        """The node's parents, innermost first, up to the module."""
        cur = self._parents.get(node)
        while cur is not None:
            yield cur
            cur = self._parents.get(cur)

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    def line_text(self, node: ast.AST) -> str:
        lineno = getattr(node, "lineno", 0)
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""
