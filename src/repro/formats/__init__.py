"""Sparse matrix storage formats (paper Section II), built from scratch.

Exported classes:

* :class:`COOMatrix` — canonical coordinate container, the lingua franca,
* :class:`CSRMatrix` — the baseline Compressed Sparse Row format,
* :class:`BCSRMatrix` — aligned fixed-size rectangular blocks with padding,
* :class:`BCSDMatrix` — aligned fixed-size diagonal blocks with padding,
* :class:`DecomposedMatrix` (+ :func:`decompose_bcsr`, :func:`decompose_bcsd`)
  — padding-free decompositions with a CSR remainder,
* :class:`VBLMatrix` — 1D variable-length horizontal blocks.

Use :func:`build_format` to construct any of them by kind name.
"""

from .base import SparseFormat, XAccessStream
from .bcsd import BCSDMatrix
from .bcsr import BCSRMatrix
from .blockstats import BlockStats, bcsd_block_stats, bcsr_block_stats
from .convert import FORMAT_KINDS, build_format, display_name
from .coo import COOMatrix
from .csr import CSRMatrix
from .decomposed import DecomposedMatrix, decompose_bcsd, decompose_bcsr
from .vbl import VBLMatrix

__all__ = [
    "SparseFormat",
    "XAccessStream",
    "COOMatrix",
    "CSRMatrix",
    "BCSRMatrix",
    "BCSDMatrix",
    "DecomposedMatrix",
    "decompose_bcsr",
    "decompose_bcsd",
    "VBLMatrix",
    "BlockStats",
    "bcsr_block_stats",
    "bcsd_block_stats",
    "build_format",
    "display_name",
    "FORMAT_KINDS",
]
