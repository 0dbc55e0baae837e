"""The simulated testbed: machine description, cost tables, cache model,
execution simulator and STREAM calibration.

See DESIGN.md ("Substitutions") for why the paper's Core 2 Xeon testbed is
replaced by an analytic simulator and how the analytic performance models
remain honestly separated from it.
"""

from .cache import (
    estimate_stream_misses,
    estimate_x_access_misses,
    x_budget_lines,
)
from .costs import KernelCostModel
from .executor import SimResult, simulate
from .machine import CacheLevel, MachineModel
from .presets import CORE2_XEON, GENERIC_MODERN, PRESETS, get_preset
from .stream import StreamResult, simulated_stream

__all__ = [
    "CacheLevel",
    "MachineModel",
    "KernelCostModel",
    "SimResult",
    "simulate",
    "estimate_stream_misses",
    "estimate_x_access_misses",
    "x_budget_lines",
    "CORE2_XEON",
    "GENERIC_MODERN",
    "PRESETS",
    "get_preset",
    "StreamResult",
    "simulated_stream",
]
