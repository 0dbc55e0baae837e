"""Tests for the simulated STREAM benchmark."""

import pytest

from repro.machine import CORE2_XEON, StreamResult, simulated_stream


class TestSimulatedStream:
    def test_reports_configured_bandwidth(self):
        res = simulated_stream(CORE2_XEON, n=4_000_000)
        assert res.bandwidth_bps == pytest.approx(
            CORE2_XEON.memory_bandwidth(1)
        )
        # The paper's quoted figure: 3.36 GiB/s.
        assert res.bandwidth_gib == pytest.approx(3.36)

    def test_small_arrays_hit_cache_bandwidth(self):
        res = simulated_stream(CORE2_XEON, n=20_000)  # 480 KB: L2-resident
        assert res.bandwidth_bps == pytest.approx(CORE2_XEON.l2.bandwidth_bps)

    def test_multithreaded_bandwidth(self):
        r1 = simulated_stream(CORE2_XEON, nthreads=1)
        r4 = simulated_stream(CORE2_XEON, nthreads=4)
        assert r4.bandwidth_bps > r1.bandwidth_bps

    def test_bytes_moved(self):
        res = simulated_stream(CORE2_XEON, n=1000)
        assert res.bytes_moved == 3 * 8 * 1000

    def test_zero_seconds_guard(self):
        assert StreamResult(bytes_moved=10, seconds=0.0).bandwidth_bps == 0.0

