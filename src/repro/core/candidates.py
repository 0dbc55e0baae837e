"""Enumeration of the (format, block, implementation) candidate space.

The paper's tuning space (Section V): CSR as the degenerate 1x1 baseline;
BCSR / BCSR-DEC with every rectangular block of 2..8 elements (larger
blocks "cannot offer any speedup over standard CSR"); BCSD / BCSD-DEC with
diagonal sizes 2..8; 1D-VBL with no parameter.  The fixed-size blocked
kernels exist in scalar and SIMD flavours; CSR and 1D-VBL are scalar only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..errors import ModelError
from ..types import DEFAULT_MAX_BLOCK_ELEMS, BlockShape, Impl

__all__ = [
    "Candidate",
    "rect_shapes",
    "diag_sizes",
    "candidate_space",
    "unique_structures",
    "restrict_to_structures",
    "FIXED_BLOCK_KINDS",
]

#: Kinds with fixed-size blocks — the ones the MEMCOMP/OVERLAP models cover.
FIXED_BLOCK_KINDS = ("csr", "bcsr", "bcsr_dec", "bcsd", "bcsd_dec")

#: Presentation order for the win tables (matches the paper's Table II).
KIND_ORDER = ("csr", "bcsr", "bcsr_dec", "bcsd", "bcsd_dec", "vbl")


@dataclass(frozen=True, order=True)
class Candidate:
    """One point of the tuning space: a format kind + block + implementation."""

    kind: str
    block: tuple[int, int] | int | None
    impl: Impl

    def __post_init__(self) -> None:
        if self.kind in ("csr", "vbl"):
            if self.block is not None:
                raise ModelError(f"{self.kind} takes no block parameter")
            if self.impl is not Impl.SCALAR:
                raise ModelError(f"{self.kind} has no SIMD kernel")
        elif self.kind in ("bcsr", "bcsr_dec"):
            if not (isinstance(self.block, tuple) and len(self.block) == 2):
                raise ModelError(f"{self.kind} needs an (r, c) block")
        elif self.kind in ("bcsd", "bcsd_dec"):
            if not isinstance(self.block, int):
                raise ModelError(f"{self.kind} needs an integer diagonal size")
        else:
            raise ModelError(f"unknown candidate kind {self.kind!r}")

    @property
    def label(self) -> str:
        """Human-readable label, e.g. ``"BCSR 2x4 simd"``."""
        from ..formats.convert import display_name

        parts = [display_name(self.kind)]
        if isinstance(self.block, tuple):
            parts.append(f"{self.block[0]}x{self.block[1]}")
        elif isinstance(self.block, int):
            parts.append(str(self.block))
        if self.impl is Impl.SIMD:
            parts.append("simd")
        return " ".join(parts)


def rect_shapes(max_elems: int = DEFAULT_MAX_BLOCK_ELEMS) -> list[BlockShape]:
    """All ``r x c`` shapes with ``2 <= r*c <= max_elems`` (1x1 is CSR)."""
    shapes = [
        BlockShape(r, c)
        for e in range(2, max_elems + 1)
        for r in range(1, e + 1)
        if e % r == 0
        for c in (e // r,)
    ]
    return sorted(shapes, key=lambda s: (s.elems, s.r))


def diag_sizes(max_elems: int = DEFAULT_MAX_BLOCK_ELEMS) -> list[int]:
    """Diagonal block sizes 2..max_elems."""
    return list(range(2, max_elems + 1))


def candidate_space(
    *,
    max_block_elems: int = DEFAULT_MAX_BLOCK_ELEMS,
    include_csr: bool = True,
    include_vbl: bool = True,
    include_decomposed: bool = True,
    impls: Iterable[Impl | str] = (Impl.SCALAR, Impl.SIMD),
) -> tuple[Candidate, ...]:
    """Enumerate the paper's tuning space.

    ``impls`` restricts the fixed-size blocked kernels; CSR and 1D-VBL are
    always scalar regardless.
    """
    impls = tuple(Impl.coerce(i) for i in impls)
    out: list[Candidate] = []
    if include_csr:
        out.append(Candidate("csr", None, Impl.SCALAR))
    rect_kinds = ["bcsr"] + (["bcsr_dec"] if include_decomposed else [])
    diag_kinds = ["bcsd"] + (["bcsd_dec"] if include_decomposed else [])
    for kind in rect_kinds:
        for shape in rect_shapes(max_block_elems):
            for impl in impls:
                out.append(Candidate(kind, (shape.r, shape.c), impl))
    for kind in diag_kinds:
        for b in diag_sizes(max_block_elems):
            for impl in impls:
                out.append(Candidate(kind, b, impl))
    if include_vbl:
        out.append(Candidate("vbl", None, Impl.SCALAR))
    return tuple(out)


def unique_structures(
    candidates: Iterable[Candidate],
) -> tuple[tuple[str, tuple[int, int] | int | None], ...]:
    """The distinct ``(kind, block)`` storage structures behind a candidate
    list, in first-seen order.

    Scalar and SIMD flavours of the same blocking share one converted
    structure, so this is the unit the conversion cost — and therefore any
    structure-only pruning — operates on.
    """
    seen: dict[tuple, None] = {}
    for cand in candidates:
        seen.setdefault((cand.kind, cand.block), None)
    return tuple(seen)


def restrict_to_structures(
    candidates: Iterable[Candidate],
    structures: Iterable[tuple[str, tuple[int, int] | int | None]],
) -> tuple[Candidate, ...]:
    """Filter a candidate list down to the given ``(kind, block)`` structures,
    preserving order (the structure-level inverse of
    :func:`unique_structures`)."""
    keep = set(structures)
    return tuple(c for c in candidates if (c.kind, c.block) in keep)
