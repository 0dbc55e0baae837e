"""The paper's primary contribution: performance models and autotuning.

* :mod:`repro.core.models` — MEM (eq. 1), MEMCOMP (eq. 2), OVERLAP (eq. 3-4),
* :mod:`repro.core.profiling` — t_b / nof calibration via dense-matrix
  profiling, exactly as the paper prescribes,
* :mod:`repro.core.candidates` — the (format, block, implementation) space,
* :mod:`repro.core.selection` — evaluation, ranking, and the
  :class:`AutoTuner` public API.
"""

from .candidates import (
    FIXED_BLOCK_KINDS,
    Candidate,
    candidate_space,
    diag_sizes,
    rect_shapes,
)
from .models import (
    MODELS,
    MemCompModel,
    MemModel,
    OverlapModel,
    PerformanceModel,
    get_model,
)
from .learned import DecisionTree, LearnedSelector, feature_vector
from .models_ext import (
    OverlapLatencyModel,
    estimate_format_misses,
    register_extended_models,
)
from .profiling import BlockProfile, ProfileCache, dense_coo, profile_machine
from .selection import (
    AutoTuner,
    CandidateResult,
    StatsCache,
    build_candidate,
    oracle_best,
    rank_with_model,
    select_with_model,
)

__all__ = [
    "Candidate",
    "candidate_space",
    "rect_shapes",
    "diag_sizes",
    "FIXED_BLOCK_KINDS",
    "PerformanceModel",
    "MemModel",
    "MemCompModel",
    "OverlapModel",
    "MODELS",
    "get_model",
    "OverlapLatencyModel",
    "estimate_format_misses",
    "register_extended_models",
    "DecisionTree",
    "LearnedSelector",
    "feature_vector",
    "BlockProfile",
    "ProfileCache",
    "profile_machine",
    "dense_coo",
    "AutoTuner",
    "CandidateResult",
    "StatsCache",
    "build_candidate",
    "rank_with_model",
    "select_with_model",
    "oracle_best",
]
