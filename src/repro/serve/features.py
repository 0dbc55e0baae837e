"""Cheap structural features of a sparse pattern, computed once per matrix.

Evaluating the whole tuning space plans ~53 distinct blocked structures
and runs the models on ~105 candidates.  The advisor instead extracts a
small feature bundle first and prunes the space with it, so the feature
pass must stay cheap next to the evaluation it prunes.  Three tricks get it
there:

* **Probing, not enumerating** — block occupancy ("fill") is measured only
  for 1-D row groups (``r x 1``), 1-D column runs (``1 x c``), a few square
  2-D probes and a few diagonal sizes; the fill of an arbitrary ``r x c``
  block is *estimated* from the 1-D fills via an independence model that the
  2-D probes calibrate (see :meth:`MatrixFeatures.est_rect_fill`).
* **Counting, not analysing** — a probe needs only two integers of its
  blocking: the number of blocks and the number of full ones.  Both come
  from the sparse coarsening the fused planner uses
  (:mod:`repro.formats.coarsen`): one C-level product per probe, composite
  heights built from the coarse rows of a divisor, and column runs from a
  linear pass per width.  Every feature is an integer ratio of those
  counts, so it equals the :mod:`~repro.formats.blockstats` definition bit
  for bit.  A pattern past the coarsening guard (too large for 32-bit
  indices, or with far more rows and columns than nonzeros) keeps the
  per-nonzero BlockStats probes.  An unsampled pattern's row and
  diagonal products go into the caller's
  :class:`~repro.formats.coarsen.Coarsening` when it passes one, so the
  planner of the same request reuses them.
* **Panel sampling** — on large matrices the probes run on a few
  block-aligned row panels (~240k nonzeros total) instead of the full
  pattern.  Panels start and end on rows divisible by every probed block
  height, so sampling never cuts a block in half and fills stay unbiased
  for structurally homogeneous matrices.

The bundle also carries a content *fingerprint* (SHA-256 over the pattern)
that keys the advisor's recommendation cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from hashlib import sha256

import numpy as np

from ..formats.blockstats import bcsd_block_stats, bcsr_block_stats
from ..formats.coarsen import Coarsening, column_groups, worth_coarsening
from ..formats.coo import COOMatrix
from ..matrices.stats import fill_of, full_block_fraction, run_lengths

__all__ = [
    "MatrixFeatures",
    "extract_features",
    "matrix_fingerprint",
    "FEATURES_VERSION",
]

#: Bump when the feature definitions change (invalidates cached advice).
FEATURES_VERSION = 1

#: Row-group heights / column-run widths / diagonal sizes probed exactly.
#: Non-probed sizes (5, 7) are interpolated between neighbours.
ROW_PROBES = (2, 3, 4, 6, 8)
COL_PROBES = (2, 3, 4, 6, 8)
DIAG_PROBES = (2, 4, 6, 8)

#: 2-D probes that calibrate the 1-D independence estimator.
RECT_PROBES = ((2, 2), (3, 3), (6, 6))

#: Sampling kicks in above twice this many nonzeros.
SAMPLE_TARGET_NNZ = 240_000
#: Number of row panels the sample is spread over.
SAMPLE_PANELS = 3
#: Panel boundaries are multiples of this, a common multiple of every
#: probed block height and diagonal size, so sampling preserves alignment.
SAMPLE_ALIGN = 24


def matrix_fingerprint(coo: COOMatrix) -> str:
    """Content hash of the sparsity pattern (values are irrelevant here:
    every candidate format stores positions, not values)."""
    h = sha256()
    h.update(f"{coo.nrows}x{coo.ncols}:{coo.nnz}".encode())
    h.update(coo.rows.tobytes())
    h.update(coo.cols.tobytes())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class MatrixFeatures:
    """The advisor's per-matrix feature bundle."""

    fingerprint: str
    nrows: int
    ncols: int
    nnz: int
    density: float
    row_mean: float
    row_cv: float  # coefficient of variation of row lengths
    empty_row_frac: float
    mean_run_length: float
    bandwidth: int
    bandedness: float  # fraction of nnz within the 1%-of-ncols band
    sampled: bool
    sample_nnz: int
    extract_s: float
    row_fill: dict[int, float]  # r -> fill of the (r x 1) blocking
    col_fill: dict[int, float]  # c -> fill of the (1 x c) blocking
    diag_fill: dict[int, float]  # b -> fill of the size-b diagonal blocking
    diag_full_frac: dict[int, float]  # b -> nnz fraction in full diag blocks
    rect_fill: dict[tuple[int, int], float] = field(default_factory=dict)
    rect_full_frac: dict[tuple[int, int], float] = field(default_factory=dict)

    # ------------------------- fill estimation ------------------------- #
    @staticmethod
    def _interp(table: dict[int, float], size: int) -> float:
        if size <= 1:
            return 1.0
        if size in table:
            return table[size]
        probes = sorted(table)
        lo = max((p for p in probes if p < size), default=None)
        hi = min((p for p in probes if p > size), default=None)
        if lo is None:
            return table[hi]
        if hi is None:
            return table[lo]
        w = (size - lo) / (hi - lo)
        return table[lo] * (1 - w) + table[hi] * w

    def _gamma(self) -> float:
        """Calibration of the independence estimator from the 2-D probes.

        Real structure is row/column correlated, so the product of 1-D
        fills underestimates 2-D fill; gamma is the median correction the
        probes observed (clipped — a wild ratio on a near-empty probe must
        not unprune everything).
        """
        ratios = []
        for (r, c), measured in self.rect_fill.items():
            base = self._interp(self.row_fill, r) * self._interp(self.col_fill, c)
            if base > 1e-9 and measured > 0:
                ratios.append(measured / base)
        if not ratios:
            return 1.0
        return float(np.clip(np.median(ratios), 1.0, 3.0))

    def est_rect_fill(self, r: int, c: int) -> float:
        """Estimated mean occupancy of the aligned ``r x c`` blocking."""
        if (r, c) in self.rect_fill:
            return self.rect_fill[(r, c)]
        row = self._interp(self.row_fill, r)
        col = self._interp(self.col_fill, c)
        if r == 1:
            return col
        if c == 1:
            return row
        est = row * col * self._gamma()
        return float(min(est, row, col))

    def est_diag_fill(self, b: int) -> float:
        return self._interp(self.diag_fill, b)

    def est_diag_full_frac(self, b: int) -> float:
        return self._interp(self.diag_full_frac, b)

    def est_rect_full_frac(self, r: int, c: int) -> float:
        """Estimated nnz fraction sitting in completely filled blocks.

        Full blocks need every cell present, so the probe full-fractions
        decay much faster than fill; interpolate on the probes of the same
        shape family and damp by the fill estimate otherwise.
        """
        if (r, c) in self.rect_full_frac:
            return self.rect_full_frac[(r, c)]
        fill = self.est_rect_fill(r, c)
        # A block of e cells is full with probability ~ fill^e under
        # independence; full-nnz fraction follows the same scaling.
        return float(fill ** (r * c - 1))

    # --------------------------- serialization -------------------------- #
    def to_payload(self) -> dict:
        payload = {
            k: getattr(self, k)
            for k in (
                "fingerprint", "nrows", "ncols", "nnz", "density",
                "row_mean", "row_cv", "empty_row_frac", "mean_run_length",
                "bandwidth", "bandedness", "sampled", "sample_nnz",
                "extract_s",
            )
        }
        payload["row_fill"] = {str(k): v for k, v in self.row_fill.items()}
        payload["col_fill"] = {str(k): v for k, v in self.col_fill.items()}
        payload["diag_fill"] = {str(k): v for k, v in self.diag_fill.items()}
        payload["diag_full_frac"] = {
            str(k): v for k, v in self.diag_full_frac.items()
        }
        payload["rect_fill"] = {
            f"{r}x{c}": v for (r, c), v in self.rect_fill.items()
        }
        payload["rect_full_frac"] = {
            f"{r}x{c}": v for (r, c), v in self.rect_full_frac.items()
        }
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "MatrixFeatures":
        def rect_key(s: str) -> tuple[int, int]:
            r, c = s.split("x")
            return (int(r), int(c))

        kwargs = dict(payload)
        kwargs["row_fill"] = {int(k): v for k, v in payload["row_fill"].items()}
        kwargs["col_fill"] = {int(k): v for k, v in payload["col_fill"].items()}
        kwargs["diag_fill"] = {
            int(k): v for k, v in payload["diag_fill"].items()
        }
        kwargs["diag_full_frac"] = {
            int(k): v for k, v in payload["diag_full_frac"].items()
        }
        kwargs["rect_fill"] = {
            rect_key(k): v for k, v in payload["rect_fill"].items()
        }
        kwargs["rect_full_frac"] = {
            rect_key(k): v for k, v in payload["rect_full_frac"].items()
        }
        return cls(**kwargs)


def _sample_panels(
    coo: COOMatrix,
    *,
    target_nnz: int = SAMPLE_TARGET_NNZ,
    panels: int = SAMPLE_PANELS,
    align: int = SAMPLE_ALIGN,
) -> tuple[COOMatrix, bool]:
    """A block-aligned row-panel sample of ``coo`` (or ``coo`` itself).

    Panels are chosen at spread-out *nonzero* fractions (not row fractions),
    so skewed matrices still contribute sample mass from their dense parts.
    """
    if coo.nnz <= 2 * target_nnz:
        return coo, False
    rows = coo.rows
    per_panel = max(target_nnz // panels, 1)
    intervals: list[tuple[int, int]] = []
    for frac in np.linspace(0.0, 0.9, panels):
        anchor = min(int(frac * coo.nnz), coo.nnz - 1)
        r0 = (int(rows[anchor]) // align) * align
        lo = int(np.searchsorted(rows, r0))
        hi = min(lo + per_panel, coo.nnz)
        if hi < coo.nnz:
            # Extend to the next aligned row boundary so no row group or
            # diagonal segment is truncated mid-block.
            r1 = (int(rows[hi]) // align + 1) * align
            hi = int(np.searchsorted(rows, r1))
        if hi > lo:
            intervals.append((lo, hi))
    # Merge overlaps (panels collide on small or very skewed matrices).
    intervals.sort()
    merged: list[list[int]] = []
    for lo, hi in intervals:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    idx = np.concatenate([np.arange(lo, hi) for lo, hi in merged])
    sample = COOMatrix(
        coo.nrows, coo.ncols, rows[idx], coo.cols[idx], None, canonical=True
    )
    return sample, True


def _count_probes(
    sample: COOMatrix, coarsening: Coarsening | None = None
) -> dict[str, dict]:
    """Every probe from block counts, by sparse coarsening.

    Each value is an integer ratio of counts, so it equals the BlockStats
    definition bit for bit: fill is ``n / (blocks * elems)`` and the full
    fraction ``full_blocks * elems / n``.  Row groups and diagonals count
    the entries of ``R_h @ A`` and ``R_b @ shifted``, the 2-D probes those
    of ``(R_r @ A) @ C_c``; column runs (``r = 1``) need no product, since
    in canonical order a block starts wherever the row or ``col // c``
    changes.  ``coarsening`` is ``sample``'s, when the caller shares it
    with the planner.
    """
    n = sample.nnz
    if n == 0:
        return {
            "row_fill": dict.fromkeys(ROW_PROBES, 1.0),
            "col_fill": dict.fromkeys(COL_PROBES, 1.0),
            "diag_fill": dict.fromkeys(DIAG_PROBES, 1.0),
            "diag_full_frac": dict.fromkeys(DIAG_PROBES, 0.0),
            "rect_fill": dict.fromkeys(RECT_PROBES, 1.0),
            "rect_full_frac": dict.fromkeys(RECT_PROBES, 0.0),
        }
    rows, cols = sample.rows, sample.cols
    if coarsening is None:
        coarsening = Coarsening(sample)
    by_height = coarsening.by_height(
        set(ROW_PROBES) | {r for r, _ in RECT_PROBES}
    )
    by_size = coarsening.by_size(DIAG_PROBES)
    new_row = rows[1:] != rows[:-1]

    def col_blocks(c: int) -> int:
        group = cols // c
        return 1 + int(np.count_nonzero(new_row | (group[1:] != group[:-1])))

    def full_frac(counts, elems: int) -> float:
        return int(np.count_nonzero(counts.data == elems)) * elems / n

    rect = {
        (r, c): by_height[r] @ column_groups(sample.ncols, c)
        for r, c in RECT_PROBES
    }
    return {
        "row_fill": {r: n / (by_height[r].nnz * r) for r in ROW_PROBES},
        "col_fill": {c: n / (col_blocks(c) * c) for c in COL_PROBES},
        "diag_fill": {b: n / (by_size[b].nnz * b) for b in DIAG_PROBES},
        "diag_full_frac": {b: full_frac(by_size[b], b) for b in DIAG_PROBES},
        "rect_fill": {
            (r, c): n / (m.nnz * r * c) for (r, c), m in rect.items()
        },
        "rect_full_frac": {
            (r, c): full_frac(m, r * c) for (r, c), m in rect.items()
        },
    }


def _blockstats_probes(sample: COOMatrix) -> dict[str, dict]:
    """Every probe through the per-nonzero BlockStats analysis: O(nnz),
    for patterns past the coarsening guard (int32, or far more rows and
    columns than nonzeros)."""
    diag = {b: bcsd_block_stats(sample, b) for b in DIAG_PROBES}
    rect = {(r, c): bcsr_block_stats(sample, r, c) for r, c in RECT_PROBES}
    return {
        "row_fill": {
            r: fill_of(bcsr_block_stats(sample, r, 1)) for r in ROW_PROBES
        },
        "col_fill": {
            c: fill_of(bcsr_block_stats(sample, 1, c)) for c in COL_PROBES
        },
        "diag_fill": {b: fill_of(st) for b, st in diag.items()},
        "diag_full_frac": {
            b: full_block_fraction(st) for b, st in diag.items()
        },
        "rect_fill": {rc: fill_of(st) for rc, st in rect.items()},
        "rect_full_frac": {
            rc: full_block_fraction(st) for rc, st in rect.items()
        },
    }


def extract_features(
    coo: COOMatrix,
    *,
    fingerprint: str | None = None,
    coarsening: Coarsening | None = None,
) -> MatrixFeatures:
    """Compute the advisor feature bundle for one pattern (``fingerprint``
    is ``matrix_fingerprint(coo)``, when the caller already has it).

    ``coarsening`` is ``coo``'s, when the caller plans from it too: the
    probes of an unsampled pattern then build their products into it.
    """
    t0 = time.perf_counter()
    counts = coo.row_counts()
    runs = run_lengths(coo)
    if coo.nnz:
        offsets = np.abs(coo.cols - coo.rows)
        bandwidth = int(offsets.max())
        band = max(16, coo.ncols // 100)
        bandedness = float((offsets <= band).mean())
    else:
        bandwidth = 0
        bandedness = 1.0
    row_mean = float(counts.mean()) if counts.size else 0.0
    row_cv = (
        float(counts.std() / row_mean) if counts.size and row_mean > 0 else 0.0
    )

    sample, sampled = _sample_panels(coo)
    if sample.nnz and not worth_coarsening(
        sample.nrows, sample.ncols, sample.nnz
    ):
        probes = _blockstats_probes(sample)
    else:
        probes = _count_probes(sample, None if sampled else coarsening)

    return MatrixFeatures(
        fingerprint=fingerprint or matrix_fingerprint(coo),
        nrows=coo.nrows,
        ncols=coo.ncols,
        nnz=coo.nnz,
        density=coo.nnz / (coo.nrows * coo.ncols) if coo.nrows and coo.ncols else 0.0,
        row_mean=row_mean,
        row_cv=row_cv,
        empty_row_frac=float((counts == 0).mean()) if counts.size else 0.0,
        mean_run_length=float(runs.mean()) if runs.size else 0.0,
        bandwidth=bandwidth,
        bandedness=bandedness,
        sampled=sampled,
        sample_nnz=sample.nnz,
        extract_s=time.perf_counter() - t0,
        **probes,
    )
