"""Extended performance models (the paper's future work, Section VI).

The paper closes: "we intend to extend these models to also account for
memory latencies, which in some cases consist the main performance
bottleneck of SpMV".  This module implements that extension:

* :class:`OverlapLatencyModel` (``overlap+lat``) — OVERLAP (eq. 3) plus a
  latency term ``misses(A, F) * lat_cost``:

  - ``misses(A, F)`` comes from a structural reuse analysis of the
    candidate format's input-vector access stream against the machine's
    published cache geometry (the same windowed working-set analysis the
    package uses elsewhere; a model may analyse the matrix it is asked to
    tune — it already walks the structure to build the format);
  - ``lat_cost`` — the effective seconds per unhidden miss — is
    *calibrated by profiling*, in the same spirit as eq. (4): one large
    uniformly random matrix is measured, its OVERLAP prediction and its
    structural miss estimate are computed, and the residual per miss is
    the machine's latency cost.

EXPERIMENTS.md quantifies what this buys: the latency-bound matrices that
defeat all three of the paper's models (Fig. 3: #11/#12/#15/#28-class)
are predicted within a few percent, while the regular matrices are
unchanged.
"""

from __future__ import annotations

from ..errors import ModelError
from ..formats.base import SparseFormat
from ..machine.machine import MachineModel
from ..machine.executor import x_misses
from ..types import Impl, Precision
from .models import MODELS, OverlapModel, PerformanceModel
from .profiling import BlockProfile

__all__ = ["OverlapLatencyModel", "estimate_format_misses", "register_extended_models"]


def estimate_format_misses(
    fmt: SparseFormat, machine: MachineModel, precision: Precision | str
) -> int:
    """Structural estimate of non-streaming input-vector misses.

    Uses the machine's public cache geometry only; this is the simulator's
    own x-miss term (memoised on the format's parts, so a sweep computes
    it once).
    """
    return x_misses(fmt, machine, precision)


class OverlapLatencyModel(PerformanceModel):
    """OVERLAP plus a calibrated memory-latency term."""

    name = "overlap+lat"
    requires_profile = True
    impl_aware = True

    def __init__(self) -> None:
        self._overlap = OverlapModel()

    def predict(
        self,
        fmt: SparseFormat,
        machine: MachineModel,
        precision: Precision | str,
        impl: Impl | str = Impl.SCALAR,
        profile: BlockProfile | None = None,
        nthreads: int = 1,
    ) -> float:
        precision = Precision.coerce(precision)
        base = self._overlap.predict(
            fmt, machine, precision, impl, profile, nthreads
        )
        profile = self._check_profile(profile, precision)
        if profile.latency_cost_s is None:
            raise ModelError(
                "profile lacks latency calibration; re-profile with "
                "calibrate_latency=True"
            )
        misses = estimate_format_misses(fmt, machine, precision)
        return base + misses / nthreads * profile.latency_cost_s


def register_extended_models() -> None:
    """Make the extended models available through ``get_model``/``MODELS``."""
    MODELS.setdefault("overlap+lat", OverlapLatencyModel())
