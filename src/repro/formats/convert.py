"""Conversion registry: build any storage format from a COO matrix.

The autotuning machinery in :mod:`repro.core` refers to formats by their
``kind`` string plus an optional block parameter; this module maps those
names onto the concrete converters.  ``with_values=False`` builds
structure-only instances — all the performance models and the machine
simulator need — skipping value-array materialisation entirely.
"""

from __future__ import annotations

from typing import Callable

from ..errors import ConversionError
from ..types import BlockShape
from .base import SparseFormat
from .bcsd import BCSDMatrix
from .bcsr import BCSRMatrix
from .coo import COOMatrix
from .csr import CSRMatrix
from .decomposed import decompose_bcsd, decompose_bcsr
from .vbl import VBLMatrix

__all__ = ["build_format", "FORMAT_KINDS", "display_name"]

#: All recognised format kind strings, in the paper's presentation order.
FORMAT_KINDS = (
    "csr",
    "bcsr",
    "bcsr_dec",
    "bcsd",
    "bcsd_dec",
    "vbl",
)

_DISPLAY = {
    "csr": "CSR",
    "bcsr": "BCSR",
    "bcsr_dec": "BCSR-DEC",
    "bcsd": "BCSD",
    "bcsd_dec": "BCSD-DEC",
    "vbl": "1D-VBL",
}


def display_name(kind: str) -> str:
    """The paper's name for a format kind (e.g. ``"bcsr_dec"`` → ``"BCSR-DEC"``)."""
    try:
        return _DISPLAY[kind]
    except KeyError:
        raise ConversionError(f"unknown format kind {kind!r}") from None


def build_format(
    coo: COOMatrix,
    kind: str,
    block: BlockShape | tuple[int, int] | int | None = None,
    *,
    with_values: bool = True,
) -> SparseFormat:
    """Convert ``coo`` to the format named by ``kind``.

    ``block`` is an ``(r, c)`` pair (or :class:`~repro.types.BlockShape`)
    for the rectangular formats, an ``int`` diagonal size for the BCSD
    family, and must be ``None`` for CSR / 1D-VBL.
    """
    builder = _BUILDERS.get(kind)
    if builder is None:
        raise ConversionError(f"unknown format kind {kind!r}")
    return builder(coo, block, with_values)


def _need_shape(kind: str, block) -> BlockShape:
    if block is None:
        raise ConversionError(f"{kind} requires an (r, c) block shape")
    if isinstance(block, BlockShape):
        return block
    if isinstance(block, int):
        raise ConversionError(f"{kind} requires an (r, c) pair, got a bare int")
    return BlockShape(*block)


def _need_size(kind: str, block) -> int:
    if isinstance(block, BlockShape) or isinstance(block, tuple):
        raise ConversionError(f"{kind} takes a scalar diagonal size, got {block!r}")
    if block is None:
        raise ConversionError(f"{kind} requires a diagonal block size")
    return int(block)


def _no_block(kind: str, block) -> None:
    if block is not None:
        raise ConversionError(f"{kind} takes no block parameter, got {block!r}")


_BUILDERS: dict[str, Callable[[COOMatrix, object, bool], SparseFormat]] = {
    "csr": lambda coo, blk, wv: (
        _no_block("csr", blk),
        CSRMatrix.from_coo(coo, with_values=wv),
    )[1],
    "bcsr": lambda coo, blk, wv: BCSRMatrix.from_coo(
        coo, _need_shape("bcsr", blk), with_values=wv
    ),
    "bcsr_dec": lambda coo, blk, wv: decompose_bcsr(
        coo, _need_shape("bcsr_dec", blk), with_values=wv
    ),
    "bcsd": lambda coo, blk, wv: BCSDMatrix.from_coo(
        coo, _need_size("bcsd", blk), with_values=wv
    ),
    "bcsd_dec": lambda coo, blk, wv: decompose_bcsd(
        coo, _need_size("bcsd_dec", blk), with_values=wv
    ),
    "vbl": lambda coo, blk, wv: (
        _no_block("vbl", blk),
        VBLMatrix.from_coo(coo, with_values=wv),
    )[1],
}
