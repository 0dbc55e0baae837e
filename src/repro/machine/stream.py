"""STREAM-style bandwidth measurement on the simulated machine.

The paper calibrates its MEM model with the STREAM benchmark (3.36 GiB/s on
the testbed).  :func:`simulated_stream` reads the machine model's bandwidth
curve back out through a triad-shaped workload, verifying the simulator is
self-consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .machine import MachineModel

__all__ = ["StreamResult", "simulated_stream"]


@dataclass(frozen=True)
class StreamResult:
    """Bandwidth of a triad ``a = b + s * c`` over arrays of ``n`` doubles."""

    bytes_moved: int
    seconds: float

    @property
    def bandwidth_bps(self) -> float:
        return self.bytes_moved / self.seconds if self.seconds > 0 else 0.0

    @property
    def bandwidth_gib(self) -> float:
        return self.bandwidth_bps / 1024**3


def simulated_stream(
    machine: MachineModel, n: int = 4_000_000, nthreads: int = 1
) -> StreamResult:
    """Triad bandwidth the machine model would report (3 arrays, 24 B/elem)."""
    bytes_moved = 3 * 8 * n
    bw = machine.stream_bandwidth(bytes_moved, nthreads)
    return StreamResult(bytes_moved=bytes_moved, seconds=bytes_moved / bw)
