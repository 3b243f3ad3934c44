"""Unit tests for fault injection."""

import pytest

from repro.disk.faults import (
    FaultInjector,
    FaultPlan,
    MediaFault,
    PowerCut,
    _flip_bits,
)
from repro.errors import DiskCrashedError, MediaError


class TestPowerCut:
    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            PowerCut(after_writes=-1)

    def test_zero_budget_crashes_first_write(self):
        cut = PowerCut(after_writes=0)
        injector = FaultInjector(plan=FaultPlan(power_cut=cut))
        assert injector.on_write(0, 1000) == 0
        assert injector.crashed


class TestMediaFault:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            MediaFault(0, kind="melted")


class TestTearGranularity:
    def test_rejects_unknown_granularity(self):
        with pytest.raises(ValueError):
            PowerCut(after_writes=0, torn=True, granularity="nibble")

    def test_rejects_bad_sector_size(self):
        with pytest.raises(ValueError):
            PowerCut(after_writes=0, torn=True, sector_size=0)

    def test_default_tear_is_sector_aligned(self):
        for seed in range(20):
            cut = PowerCut(after_writes=0, torn=True, seed=seed)
            injector = FaultInjector(plan=FaultPlan(power_cut=cut))
            surviving = injector.on_write(0, 64 * 1024)
            assert 0 < surviving < 64 * 1024
            assert surviving % 512 == 0

    def test_sub_sector_write_dropped_whole(self):
        # A write no larger than one sector cannot tear: real disks
        # commit sectors atomically.
        plan = FaultPlan(power_cut=PowerCut(after_writes=0, torn=True, seed=1))
        injector = FaultInjector(plan=plan)
        assert injector.on_write(0, 512) == 0
        injector = FaultInjector(plan=plan)
        assert injector.on_write(0, 8) == 0

    def test_custom_sector_size(self):
        cut = PowerCut(after_writes=0, torn=True, seed=2, sector_size=4096)
        injector = FaultInjector(plan=FaultPlan(power_cut=cut))
        surviving = injector.on_write(0, 64 * 1024)
        assert 0 < surviving < 64 * 1024
        assert surviving % 4096 == 0

    def test_byte_mode_behind_flag(self):
        # The old byte-granular model stays available for sweeps that
        # want to explore every possible tear point.
        unaligned = False
        for seed in range(20):
            cut = PowerCut(
                after_writes=0, torn=True, seed=seed, granularity="byte"
            )
            injector = FaultInjector(plan=FaultPlan(power_cut=cut))
            surviving = injector.on_write(0, 1000)
            assert 1 <= surviving < 1000
            unaligned = unaligned or surviving % 512 != 0
        assert unaligned


class TestFaultInjector:
    def test_no_faults_passthrough(self):
        injector = FaultInjector()
        assert injector.on_write(0, 100) is None
        assert injector.on_read(0, b"abc") == b"abc"

    def test_crash_after_n_writes(self):
        cut = PowerCut(after_writes=2)
        injector = FaultInjector(plan=FaultPlan(power_cut=cut))
        assert injector.on_write(0, 100) is None
        assert injector.on_write(1, 100) is None
        assert injector.on_write(2, 100) == 0  # dropped whole
        assert injector.crashed

    def test_torn_write_keeps_prefix(self):
        cut = PowerCut(after_writes=0, torn=True, seed=3)
        injector = FaultInjector(plan=FaultPlan(power_cut=cut))
        surviving = injector.on_write(0, 1000)
        assert 1 <= surviving < 1000

    def test_torn_write_deterministic(self):
        plan = FaultPlan(power_cut=PowerCut(after_writes=0, torn=True, seed=9))
        a = FaultInjector(plan=plan)
        b = FaultInjector(plan=plan)
        assert a.on_write(0, 4096) == b.on_write(0, 4096)

    def test_io_after_crash_raises(self):
        cut = PowerCut(after_writes=0)
        injector = FaultInjector(plan=FaultPlan(power_cut=cut))
        injector.on_write(0, 10)
        with pytest.raises(DiskCrashedError):
            injector.on_write(1, 10)
        with pytest.raises(DiskCrashedError):
            injector.on_read(0, b"x")

    def test_power_cycle_restores_io(self):
        cut = PowerCut(after_writes=0)
        injector = FaultInjector(plan=FaultPlan(power_cut=cut))
        injector.on_write(0, 10)
        injector.power_cycle()
        assert injector.on_read(0, b"x") == b"x"
        assert injector.on_write(1, 10) is None  # plan cleared

    def test_unreadable_media_fault(self):
        injector = FaultInjector(
            plan=FaultPlan(media_faults=[MediaFault(3, "unreadable")])
        )
        with pytest.raises(MediaError):
            injector.on_read(3, b"data")
        assert injector.on_read(4, b"data") == b"data"

    def test_corrupt_media_fault_flips_bits(self):
        injector = FaultInjector()
        injector.add_media_fault(MediaFault(1, "corrupt"))
        assert injector.on_read(1, b"\x00\xff") == b"\xff\x00"

    def test_clear_media_fault(self):
        injector = FaultInjector()
        injector.add_media_fault(MediaFault(1, "unreadable"))
        injector.clear_media_fault(1)
        assert injector.on_read(1, b"ok") == b"ok"

    def test_flip_bits_involution(self):
        data = bytes(range(256))
        assert _flip_bits(_flip_bits(data)) == data
