"""repro.serve — the format-advisor service.

The paper's end product is a *decision*: given a sparse matrix, which
(format, block, implementation) tuple will run SpMV fastest?  This package
wraps that decision in a service surface:

* :mod:`repro.serve.features` — a cheap structural-feature extractor
  (fingerprint, row/column/diagonal fills, bandedness) computed once per
  matrix, sampling large patterns so feature cost stays far below one
  exhaustive model evaluation;
* :mod:`repro.serve.pruning` — feature-driven candidate pruning that cuts
  the ~53-structure tuning space to a handful before any format conversion
  happens;
* :mod:`repro.serve.store` — an atomic, fingerprint-keyed recommendation
  cache under ``.repro_cache/advisor/``, versioned by the machine-profile
  calibration so stale profiles invalidate entries;
* :mod:`repro.serve.service` — the thread-safe :class:`AdvisorService`;
* :mod:`repro.serve.server` — a stdlib ``http.server`` JSON endpoint
  (``POST /advise``, ``GET /healthz``, ``GET /readyz``, ``GET /stats``)
  whose request plumbing the fleet balancer shares.

CLI: ``python -m repro advise <matrix.mtx|suite-name>`` and
``python -m repro serve --port N``.
"""

from .features import MatrixFeatures, extract_features, matrix_fingerprint
from .pruning import PruneConfig, PruneDecision, prune_candidates
from .service import AdvisorService, Recommendation
from .store import AdvisorStore

__all__ = [
    "MatrixFeatures",
    "extract_features",
    "matrix_fingerprint",
    "PruneConfig",
    "PruneDecision",
    "prune_candidates",
    "AdvisorService",
    "Recommendation",
    "AdvisorStore",
]
