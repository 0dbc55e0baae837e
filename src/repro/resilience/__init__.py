"""repro.resilience — deterministic fault injection and serving guards.

The advisor only earns its keep in production if it stays dependable
under load and partial failure.  This package supplies both halves of
that argument:

* :mod:`repro.resilience.faults` — a seeded, reproducible
  :class:`FaultPlan` driving :func:`fault_point` hooks threaded through
  the cache writers, the advisor service, the sweep workers and the HTTP
  handler.  No plan installed ⇒ every hook is a single ``None`` check.
* :mod:`repro.resilience.guard` — :class:`Deadline` (per-request
  monotonic budgets, HTTP 504) and :class:`CircuitBreaker`
  (closed → open → half-open per precision, backing the server's
  degraded mode and 503s).

CI's chaos smoke is ``repro loadtest --single --mix chaos``
(:func:`repro.fleet.drive`): concurrent advise traffic against a real
server subprocess under injected store faults, ending in a SIGTERM
drain.  See ``docs/resilience.md`` for the plan JSON schema, the site
catalog and the chaos runbook.
"""

from .faults import (
    FAULT_PLAN_ENV,
    SITE_CATALOG,
    FaultInjectedError,
    FaultPlan,
    FaultRule,
    current_plan,
    fault_point,
    install_plan,
    install_plan_from_env,
    installed,
    load_plan_spec,
    uninstall_plan,
)
from .guard import BreakerConfig, CircuitBreaker, Deadline

__all__ = [
    "FAULT_PLAN_ENV",
    "SITE_CATALOG",
    "FaultInjectedError",
    "FaultPlan",
    "FaultRule",
    "fault_point",
    "install_plan",
    "uninstall_plan",
    "current_plan",
    "installed",
    "install_plan_from_env",
    "load_plan_spec",
    "BreakerConfig",
    "CircuitBreaker",
    "Deadline",
]
