"""repro — reproduction of *Performance Models for Blocked Sparse
Matrix-Vector Multiplication Kernels* (Karakasis, Goumas, Koziris;
ICPP 2009).

The package implements, from scratch:

* the blocking storage formats the paper evaluates — CSR, BCSR, BCSR-DEC,
  BCSD, BCSD-DEC and 1D-VBL (:mod:`repro.formats`) — with functional NumPy
  SpMV kernels (:mod:`repro.kernels`);
* the paper's testbed as an analytic execution simulator
  (:mod:`repro.machine`) — see DESIGN.md for the substitution rationale;
* the MEM / MEMCOMP / OVERLAP performance models with profiling-based
  calibration, candidate enumeration and autotuning (:mod:`repro.core`);
* the 30-matrix synthetic evaluation suite (:mod:`repro.matrices`);
* the padding-aware row partitioning of multithreaded runs
  (:mod:`repro.parallel`) and the experiment harness regenerating every
  table and figure (:mod:`repro.bench`).

Quickstart::

    from repro import AutoTuner, CORE2_XEON
    from repro.matrices.generators import grid2d, random_values

    coo = random_values(grid2d(100, 100, 9, dof=3), seed=1)
    tuner = AutoTuner(CORE2_XEON)
    choice = tuner.select(coo, precision="dp", model="overlap")
    fmt = tuner.build(coo, choice.candidate)   # then: y = fmt.spmv(x)
"""

from .core import (
    AutoTuner,
    BlockProfile,
    Candidate,
    MemCompModel,
    MemModel,
    OverlapModel,
    candidate_space,
    oracle_best,
    profile_machine,
    select_with_model,
)
from .formats import (
    BCSDMatrix,
    BCSRMatrix,
    COOMatrix,
    CSRMatrix,
    DecomposedMatrix,
    VBLMatrix,
    build_format,
)
from .machine import CORE2_XEON, GENERIC_MODERN, MachineModel, SimResult, simulate
from .types import BlockShape, Impl, Precision

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # formats
    "COOMatrix",
    "CSRMatrix",
    "BCSRMatrix",
    "BCSDMatrix",
    "DecomposedMatrix",
    "VBLMatrix",
    "build_format",
    # core
    "AutoTuner",
    "Candidate",
    "candidate_space",
    "BlockProfile",
    "profile_machine",
    "MemModel",
    "MemCompModel",
    "OverlapModel",
    "select_with_model",
    "oracle_best",
    # machine
    "MachineModel",
    "CORE2_XEON",
    "GENERIC_MODERN",
    "simulate",
    "SimResult",
    # types
    "Precision",
    "Impl",
    "BlockShape",
]
