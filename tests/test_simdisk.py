"""Unit tests for the simulated disk."""

import pytest

from repro.disk.faults import FaultInjector, FaultPlan, PowerCut
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import CorruptionError, DiskCrashedError


@pytest.fixture
def geo():
    return DiskGeometry.small(num_segments=8)


@pytest.fixture
def disk(geo):
    return SimulatedDisk(geo)


def _image(geo, fill):
    return bytes([fill]) * geo.segment_size


class TestReadWrite:
    def test_roundtrip(self, disk, geo):
        disk.write_segment(2, _image(geo, 0xAB))
        assert disk.read_segment(2) == _image(geo, 0xAB)

    def test_unwritten_reads_zero(self, disk, geo):
        assert disk.read_segment(5) == b"\x00" * geo.segment_size

    def test_partial_read(self, disk, geo):
        disk.write_segment(1, bytes(range(256)) * (geo.segment_size // 256))
        assert disk.read(1, 0, 4) == b"\x00\x01\x02\x03"
        assert disk.read(1, 256, 2) == b"\x00\x01"

    def test_write_wrong_size_rejected(self, disk):
        with pytest.raises(ValueError):
            disk.write_segment(0, b"short")

    def test_read_out_of_bounds_rejected(self, disk, geo):
        with pytest.raises(ValueError):
            disk.read(0, geo.segment_size - 1, 2)

    def test_write_charges_time(self, disk, geo):
        before = disk.clock.now_us
        disk.write_segment(0, _image(geo, 1))
        assert disk.clock.now_us > before

    def test_counters(self, disk, geo):
        disk.write_segment(0, _image(geo, 1))
        disk.read_segment(0)
        stats = disk.stats()
        assert stats["writes"] == 1
        assert stats["reads"] == 1


class TestCrash:
    def test_dropped_write_leaves_old_content(self, geo):
        cut = PowerCut(after_writes=1)
        injector = FaultInjector(plan=FaultPlan(power_cut=cut))
        disk = SimulatedDisk(geo, injector=injector)
        disk.write_segment(0, _image(geo, 0x11))
        with pytest.raises(DiskCrashedError):
            disk.write_segment(0, _image(geo, 0x22))
        survivor = disk.power_cycle()
        assert survivor.read_segment(0) == _image(geo, 0x11)

    def test_torn_write_mixes_content(self, geo):
        cut = PowerCut(after_writes=1, torn=True, seed=5)
        disk = SimulatedDisk(
            geo,
            injector=FaultInjector(plan=FaultPlan(power_cut=cut)),
        )
        disk.write_segment(0, _image(geo, 0x11))
        with pytest.raises(DiskCrashedError):
            disk.write_segment(0, _image(geo, 0x22))
        survivor = disk.power_cycle()
        data = survivor.read_segment(0)
        assert data[0] == 0x22  # prefix of the torn write
        assert data[-1] == 0x11  # old tail preserved
        assert data != _image(geo, 0x22)

    def test_crashed_property(self, geo):
        cut = PowerCut(after_writes=0)
        injector = FaultInjector(plan=FaultPlan(power_cut=cut))
        disk = SimulatedDisk(geo, injector=injector)
        assert not disk.crashed
        with pytest.raises(DiskCrashedError):
            disk.write_segment(0, _image(geo, 1))
        assert disk.crashed

    def test_power_cycle_shares_clock(self, geo):
        cut = PowerCut(after_writes=0)
        injector = FaultInjector(plan=FaultPlan(power_cut=cut))
        disk = SimulatedDisk(geo, injector=injector)
        with pytest.raises(DiskCrashedError):
            disk.write_segment(0, _image(geo, 1))
        survivor = disk.power_cycle()
        assert survivor.clock is disk.clock

    def test_reads_fail_while_crashed(self, geo):
        cut = PowerCut(after_writes=0)
        injector = FaultInjector(plan=FaultPlan(power_cut=cut))
        disk = SimulatedDisk(geo, injector=injector)
        with pytest.raises(DiskCrashedError):
            disk.write_segment(0, _image(geo, 1))
        with pytest.raises(DiskCrashedError):
            disk.read_segment(0)


class TestRetiredHandle:
    """power_cycle() must retire the pre-crash handle for good.

    The survivor shares the old handle's platter dict; the old bug
    was that power-cycling cleared the injector's ``crashed`` flag for
    *both* handles, resurrecting the pre-crash one — writes through it
    then corrupted the survivor's platter underneath it.
    """

    def _crashed_disk(self, geo):
        cut = PowerCut(after_writes=1)
        disk = SimulatedDisk(
            geo, injector=FaultInjector(plan=FaultPlan(power_cut=cut))
        )
        disk.write_segment(0, _image(geo, 0x11))
        with pytest.raises(DiskCrashedError):
            disk.write_segment(1, _image(geo, 0x22))
        return disk

    def test_old_handle_cannot_write_survivor_platter(self, geo):
        disk = self._crashed_disk(geo)
        survivor = disk.power_cycle()
        with pytest.raises(DiskCrashedError):
            disk.write_segment(0, _image(geo, 0x99))
        with pytest.raises(DiskCrashedError):
            disk.write_at(0, 0, b"\x99")
        # The survivor's platter is untouched by the attempts.
        assert survivor.read_segment(0) == _image(geo, 0x11)

    def test_old_handle_reads_raise(self, geo):
        disk = self._crashed_disk(geo)
        disk.power_cycle()
        with pytest.raises(DiskCrashedError):
            disk.read_segment(0)
        with pytest.raises(DiskCrashedError):
            disk.read_many([(0, 0, 16)])

    def test_retired_handle_reports_crashed(self, geo):
        disk = self._crashed_disk(geo)
        survivor = disk.power_cycle()
        assert disk.crashed
        assert not survivor.crashed
        survivor.write_segment(2, _image(geo, 0x33))
        assert survivor.read_segment(2) == _image(geo, 0x33)

    def test_double_power_cycle_allowed(self, geo):
        disk = self._crashed_disk(geo)
        disk.power_cycle()
        second = disk.power_cycle()
        assert second.read_segment(0) == _image(geo, 0x11)


class TestSnapshot:
    def test_both_handles_stay_live_and_apart(self, geo):
        disk = SimulatedDisk(geo)
        disk.write_segment(0, _image(geo, 0x11))
        copy = disk.snapshot()
        assert not disk.crashed and not copy.crashed
        assert copy.clock is not disk.clock
        assert copy.read_segment(0) == _image(geo, 0x11)
        copy.write_segment(0, _image(geo, 0x22))
        disk.write_segment(1, _image(geo, 0x33))
        assert disk.read_segment(0) == _image(geo, 0x11)
        assert copy.read_segment(1) == bytes(geo.segment_size)


class TestImagePersistence:
    def test_roundtrip(self, disk, geo, tmp_path):
        disk.write_segment(3, _image(geo, 0x5A))
        path = tmp_path / "disk.img"
        assert disk.save_image(path) == 1
        loaded = SimulatedDisk.load_image(path)
        assert loaded.read_segment(3) == _image(geo, 0x5A)

    def test_truncated_segment_index_raises_corruption(
        self, disk, geo, tmp_path
    ):
        """An image cut off inside the per-segment index must raise
        CorruptionError, not leak a raw struct.error."""
        disk.write_segment(0, _image(geo, 1))
        disk.write_segment(1, _image(geo, 2))
        path = tmp_path / "disk.img"
        disk.save_image(path)
        raw = path.read_bytes()
        # Cut inside the second segment's 4-byte index entry.
        cut = len(raw) - geo.segment_size - 2
        path.write_bytes(raw[:cut])
        with pytest.raises(CorruptionError, match="truncated segment index"):
            SimulatedDisk.load_image(path)

    def test_truncated_segment_body_raises_corruption(
        self, disk, geo, tmp_path
    ):
        disk.write_segment(0, _image(geo, 1))
        path = tmp_path / "disk.img"
        disk.save_image(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(CorruptionError, match="truncated segment 0"):
            SimulatedDisk.load_image(path)
