"""Kernel compute-cost tables: cycles per block for every kernel variant.

This module is the *microarchitectural* side of the testbed substitution.
The paper compiled one specialised multiplication routine per (format,
block, implementation); here each routine's steady-state cost in cycles is
expressed as a small analytic formula whose terms mirror what the generated
code actually does:

* a per-block overhead (index load, address arithmetic),
* one fused multiply-add per stored element for scalar code,
* for SIMD code, one vector op per ``ceil(width / lanes)`` group, plus a
  horizontal-add to reduce a row's partial products and penalties for
  unaligned leftovers — which is why wide blocks pay off more in single
  precision (4 lanes) than in double (2 lanes), reproducing the sp/dp win
  shift of Table II,
* per-(block-)row loop overheads — which is why matrices with very short
  rows are slow in CSR (paper Section III),
* a fixed start-up cost per extra pass of a decomposed method.

The performance models never read these tables directly: they only see the
``t_b`` and ``nof`` values obtained by *profiling* the simulator on dense
matrices, exactly as the paper profiles real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ModelError
from ..formats.base import SparseFormat
from ..types import Impl, Precision

__all__ = ["KernelCostModel"]


@dataclass(frozen=True)
class KernelCostModel:
    """Cycle costs of the block-specific SpMV kernels.

    All values are in CPU cycles.  Defaults model a Core-2-class x86 with
    128-bit SIMD (2 dp / 4 sp lanes).
    """

    #: Scalar fused multiply-add (load + mul + add) per element.
    fma_cycles: dict[str, float] = field(
        default_factory=lambda: {"sp": 2.0, "dp": 2.2}
    )
    #: CSR pays an extra indirection per element (per-element column index).
    csr_elem_cycles: dict[str, float] = field(
        default_factory=lambda: {"sp": 3.0, "dp": 3.2}
    )
    #: One packed vector op (load + mul + add on a full SIMD register).
    vecop_cycles: float = 2.4
    #: Horizontal reduction of a SIMD register into one scalar lane.
    hadd_cycles: float = 2.5
    #: Vector store/accumulate into y (column-vector and diagonal blocks).
    vstore_cycles: float = 1.2
    #: Penalty when the block width is not a multiple of the SIMD width.
    align_penalty_cycles: float = 1.5
    #: Per-block overheads: index fetch + address arithmetic.
    block_overhead_scalar: float = 5.0
    block_overhead_simd: float = 6.0
    diag_overhead_scalar: float = 6.0
    diag_overhead_simd: float = 6.5
    #: 1D-VBL blocks have unknown trip counts: each block costs a dependent
    #: size-byte decode plus (typically) a branch misprediction — the
    #: "extra level of indirection" the paper blames for 1D-VBL's losses.
    vbl_block_overhead: float = 25.0
    #: Outer-loop overhead per (block-)row.
    row_overhead_cycles: float = 9.0
    #: Fixed start-up cost of each additional pass of a decomposed method.
    pass_startup_cycles: float = 2000.0
    #: SIMD register width in bytes (SSE2: 16).
    simd_bytes: int = 16

    # ------------------------------------------------------------------ #
    def lanes(self, precision: Precision | str) -> int:
        """SIMD lanes available at ``precision``."""
        return self.simd_bytes // Precision.coerce(precision).itemsize

    def rect_block_cycles(
        self, r: int, c: int, impl: Impl | str, precision: Precision | str
    ) -> float:
        """Cycles for one ``r x c`` rectangular (BCSR-family) block."""
        impl = Impl.coerce(impl)
        precision = Precision.coerce(precision)
        if impl is Impl.SCALAR:
            return self.block_overhead_scalar + r * c * self.fma_cycles[precision.value]
        w = self.lanes(precision)
        if c == 1:
            # Column-vector block: vectorize down the rows; the result is a
            # contiguous vector accumulated straight into y.
            body = -(-r // w) * self.vecop_cycles + self.vstore_cycles
            if r % w:
                body += self.align_penalty_cycles
        else:
            # Row-major block: each of the r rows reduces c products.
            per_row = -(-c // w) * self.vecop_cycles + self.hadd_cycles
            body = r * per_row
            if c % w:
                body += self.align_penalty_cycles
        return self.block_overhead_simd + body

    def diag_block_cycles(
        self, b: int, impl: Impl | str, precision: Precision | str
    ) -> float:
        """Cycles for one size-``b`` diagonal (BCSD-family) block."""
        impl = Impl.coerce(impl)
        precision = Precision.coerce(precision)
        if impl is Impl.SCALAR:
            return self.diag_overhead_scalar + b * self.fma_cycles[precision.value]
        # Diagonal blocks vectorize cleanly: x and y slices are contiguous
        # and no horizontal reduction is needed.
        w = self.lanes(precision)
        body = -(-b // w) * self.vecop_cycles + self.vstore_cycles
        if b % w:
            body += self.align_penalty_cycles
        return self.diag_overhead_simd + body

    # ------------------------------------------------------------------ #
    def block_row_cycles(
        self,
        part: SparseFormat,
        impl: Impl | str,
        precision: Precision | str,
        *,
        start: int = 0,
        stop: int | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Compute cycles of block rows ``start:stop`` of a *non-decomposed*
        part (all of them by default).

        Returns an array of length ``stop - start`` (written into ``out``
        when given); over all rows its sum is the part's total compute
        cost.  Used both for whole-matrix simulation and for load-balanced
        multicore partitioning.  Each row is its block (or element) count
        times the per-block cost, plus the row overhead; the counts are
        read off the part's row pointers.
        """
        impl = Impl.coerce(impl)
        precision = Precision.coerce(precision)
        kind = part.block_descriptor()[0]
        if stop is None:
            stop = part.n_block_rows
        if out is None:
            out = np.empty(stop - start, dtype=np.float64)

        def counts(ptr: np.ndarray, into: np.ndarray) -> np.ndarray:
            # Integer differences below 2^53 convert exactly.
            return np.subtract(
                ptr[start + 1 : stop + 1], ptr[start:stop], out=into,
                casting="unsafe",
            )

        if kind == "csr":
            if impl is not Impl.SCALAR:
                raise ModelError("CSR has no SIMD kernel in this study")
            counts(part.row_ptr, out)
            out *= self.csr_elem_cycles[precision.value]
        elif kind == "bcsr":
            r, c = part.block
            counts(part.brow_ptr, out)
            out *= self.rect_block_cycles(r, c, impl, precision)
        elif kind == "bcsd":
            counts(part.brow_ptr, out)
            out *= self.diag_block_cycles(part.b, impl, precision)
        elif kind == "vbl":
            if impl is not Impl.SCALAR:
                raise ModelError("1D-VBL has no SIMD kernel in this study")
            # Per element, 1D-VBL pays CSR-like indirect-access cost (the
            # value stream is walked through a second level of indexing).
            counts(part.block_row_ptr, out)
            out *= self.vbl_block_overhead
            elems = counts(part.row_ptr, np.empty_like(out))
            elems *= self.csr_elem_cycles[precision.value]
            out += elems
        else:
            raise ModelError(f"no cost model for format kind {kind!r}")
        out += self.row_overhead_cycles
        return out

    def compute_cycles(
        self,
        fmt: SparseFormat,
        impl: Impl | str,
        precision: Precision | str,
    ) -> float:
        """Total compute cycles for one SpMV with ``fmt``.

        For decomposed formats, CSR parts always run the scalar kernel (the
        paper only vectorizes the fixed-size blocked kernels).
        """
        parts = fmt.submatrices()
        total = self.pass_startup_cycles * max(len(parts) - 1, 0)
        for part in parts:
            part_impl = self.effective_impl(part, impl)
            total += float(self.block_row_cycles(part, part_impl, precision).sum())
        return total

    @staticmethod
    def effective_impl(part: SparseFormat, impl: Impl | str) -> Impl:
        """The implementation a part actually runs (CSR/VBL stay scalar)."""
        impl = Impl.coerce(impl)
        if part.block_descriptor()[0] in ("csr", "vbl"):
            return Impl.SCALAR
        return impl
