"""Unit tests for the disk timing model."""

import pytest

from repro.disk.clock import SimClock
from repro.disk.timing import DiskModel, DiskTimer, HP_C3010


class TestDiskModel:
    def test_rotational_latency_5400rpm(self):
        # Half a revolution at 5400 rpm = 60/5400/2 s = 5.555... ms
        assert HP_C3010.avg_rotational_us == pytest.approx(5555.5, abs=0.2)

    def test_transfer_time(self):
        model = DiskModel(transfer_rate_bps=1_000_000)
        assert model.transfer_us(500_000) == pytest.approx(500_000.0)

    def test_random_request_includes_seek(self):
        model = DiskModel(
            avg_seek_us=10_000,
            rpm=6000,
            transfer_rate_bps=1_000_000,
            controller_overhead_us=100,
        )
        random_cost = model.request_us(1_000_000, sequential=False)
        sequential_cost = model.request_us(1_000_000, sequential=True)
        assert random_cost - sequential_cost == pytest.approx(
            10_000 + model.avg_rotational_us
        )

    def test_sequential_request_has_no_seek(self):
        model = DiskModel(controller_overhead_us=50, transfer_rate_bps=2e6)
        assert model.request_us(2_000_000, sequential=True) == pytest.approx(
            50 + 1_000_000
        )


class TestDiskTimer:
    def test_first_access_is_random(self):
        clock = SimClock()
        timer = DiskTimer(clock, HP_C3010)
        timer.access(0, 4096)
        assert timer.requests == 1
        assert timer.sequential_requests == 0

    def test_back_to_back_is_sequential(self):
        clock = SimClock()
        timer = DiskTimer(clock, HP_C3010)
        timer.access(0, 4096)
        timer.access(4096, 4096)
        assert timer.sequential_requests == 1

    def test_gap_is_not_sequential(self):
        clock = SimClock()
        timer = DiskTimer(clock, HP_C3010)
        timer.access(0, 4096)
        timer.access(8192, 4096)
        assert timer.sequential_requests == 0

    def test_time_charged_to_clock(self):
        clock = SimClock()
        timer = DiskTimer(clock, HP_C3010)
        latency = timer.access(0, 512 * 1024)
        assert clock.now_us == pytest.approx(latency)
        assert latency > HP_C3010.avg_seek_us

    def test_bytes_accumulated(self):
        timer = DiskTimer(SimClock(), HP_C3010)
        timer.access(0, 100)
        timer.access(100, 200)
        assert timer.bytes_transferred == 300

    def test_bytes_split_by_direction(self):
        """A write batch streams past the gap between its ranges, and
        the gap counts on the write side; the total is the sum."""
        timer = DiskTimer(SimClock(), HP_C3010)
        timer.access_batch([(0, 4096), (8192, 4096)], is_write=True)
        assert (timer.bytes_read, timer.bytes_written) == (0, 12288)
        timer.access_batch([(0, 4096), (8192, 4096)])
        timer.access(1 << 20, 100)
        assert (timer.bytes_read, timer.bytes_written) == (12388, 12288)
        assert timer.bytes_transferred == 24676

    def test_sequential_writes_reach_near_bandwidth(self):
        """Large sequential transfers should approach the sustained
        transfer rate — the property LLD's segment writes exploit."""
        clock = SimClock()
        timer = DiskTimer(clock, HP_C3010)
        total = 0
        for index in range(64):
            timer.access(index * 512 * 1024, 512 * 1024)
            total += 512 * 1024
        seconds = clock.now_us / 1e6
        bandwidth = total / seconds
        assert bandwidth > 0.85 * HP_C3010.transfer_rate_bps
