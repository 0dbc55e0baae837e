"""The paper's three performance models (Section IV).

Given a sparse matrix already converted to a candidate storage format, each
model predicts the execution time of one SpMV:

* **MEM** (Gropp et al., eq. 1) — pure streaming:
  ``t = ws / BW``.  Applicable to any format, ignorant of compute and of
  the kernel implementation.

* **MEMCOMP** (eq. 2) — memory plus compute, no overlap:
  ``t = sum_i ( ws_i / BW + nb_i * t_b_i )`` over the k submatrices of a
  decomposition (k = 1 for the padded formats, CSR is a 1x1 blocking with
  nb = nnz).  ``t_b`` comes from profiling a small in-L1 dense matrix.

* **OVERLAP** (eq. 3) — memory plus the *non-overlapped* part of compute:
  ``t = sum_i ( ws_i / BW + nof_i * nb_i * t_b_i )`` where the
  non-overlapping factor ``nof`` (eq. 4) comes from profiling a large
  out-of-cache dense matrix.

All three deliberately ignore memory latency (irregular x accesses) — the
paper calls this out as their shared blind spot, visible on the
latency-bound matrices of Fig. 3.
"""

from __future__ import annotations

import abc

from ..errors import ModelError
from ..formats.base import SparseFormat
from ..machine.machine import MachineModel
from ..types import Impl, Precision
from .profiling import BlockProfile

__all__ = [
    "PerformanceModel",
    "MemModel",
    "MemCompModel",
    "OverlapModel",
    "MODELS",
    "get_model",
]


class PerformanceModel(abc.ABC):
    """Interface shared by the MEM / MEMCOMP / OVERLAP predictors."""

    #: Machine-readable name ("mem", "memcomp", "overlap").
    name: str = "abstract"
    #: Whether :meth:`predict` needs a calibrated :class:`BlockProfile`.
    requires_profile: bool = False
    #: Whether the prediction depends on the kernel implementation.  The MEM
    #: model cannot tell scalar from SIMD apart — the paper defaults its
    #: selection to the non-SIMD kernel for this reason.
    impl_aware: bool = False

    @abc.abstractmethod
    def predict(
        self,
        fmt: SparseFormat,
        machine: MachineModel,
        precision: Precision | str,
        impl: Impl | str = Impl.SCALAR,
        profile: BlockProfile | None = None,
        nthreads: int = 1,
    ) -> float:
        """Predicted seconds for one SpMV with ``fmt`` on ``machine``."""

    def _check_profile(
        self, profile: BlockProfile | None, precision: Precision
    ) -> BlockProfile:
        if profile is None:
            raise ModelError(f"the {self.name} model requires a block profile")
        if profile.precision is not precision:
            raise ModelError(
                f"profile precision {profile.precision} does not match "
                f"requested {precision}"
            )
        return profile

    @staticmethod
    def _reject_variable_blocks(fmt: SparseFormat, name: str) -> None:
        for part in fmt.submatrices():
            if part.block_descriptor()[0] == "vbl":
                raise ModelError(
                    f"the {name} model only covers fixed-size blockings; "
                    f"got {part.block_descriptor()[0]}"
                )


class MemModel(PerformanceModel):
    """Streaming model of Gropp et al. — eq. (1)."""

    name = "mem"
    requires_profile = False
    impl_aware = False

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
        return fmt.working_set(precision) / machine.memory_bandwidth(nthreads)


class MemCompModel(PerformanceModel):
    """Memory + compute, assumed sequential — eq. (2)."""

    name = "memcomp"
    requires_profile = True
    impl_aware = True

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
        impl = Impl.coerce(impl)
        profile = self._check_profile(profile, precision)
        self._reject_variable_blocks(fmt, self.name)
        bw = machine.memory_bandwidth(nthreads)
        total = 0.0
        for part in fmt.submatrices():
            part_impl = machine.costs.effective_impl(part, impl)
            ws_i = part.working_set_matrix_only(precision) + part.vector_bytes(
                precision
            )
            total += ws_i / bw + part.n_blocks * profile.block_time(
                part, part_impl
            )
        return total


class OverlapModel(PerformanceModel):
    """Memory + non-overlapped compute — eq. (3)."""

    name = "overlap"
    requires_profile = True
    impl_aware = True

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
        impl = Impl.coerce(impl)
        profile = self._check_profile(profile, precision)
        self._reject_variable_blocks(fmt, self.name)
        bw = machine.memory_bandwidth(nthreads)
        total = 0.0
        for part in fmt.submatrices():
            part_impl = machine.costs.effective_impl(part, impl)
            ws_i = part.working_set_matrix_only(precision) + part.vector_bytes(
                precision
            )
            total += ws_i / bw + (
                profile.nof_factor(part, part_impl)
                * part.n_blocks
                * profile.block_time(part, part_impl)
            )
        return total


MODELS: dict[str, PerformanceModel] = {
    m.name: m for m in (MemModel(), MemCompModel(), OverlapModel())
}


def get_model(name: str) -> PerformanceModel:
    """Look up a model by name ("mem", "memcomp", "overlap")."""
    try:
        return MODELS[name.lower()]
    except KeyError:
        raise ModelError(
            f"unknown model {name!r}; available: {sorted(MODELS)}"
        ) from None
