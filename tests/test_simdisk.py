"""Unit tests for the simulated disk."""

import pytest

from repro.disk.faults import FaultInjector, FaultPlan, MediaFault, PowerCut
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import CorruptionError, DiskCrashedError

from tests.oracle import platter_bytes


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


def _cut_disk(geo, after_writes=None, **cut):
    """A disk whose power fails at write ``after_writes`` (never if None)."""
    plan = FaultPlan(
        power_cut=None
        if after_writes is None
        else PowerCut(after_writes=after_writes, **cut)
    )
    return SimulatedDisk(geo, injector=FaultInjector(plan=plan))


class TestWriteAt:
    """In-place writes: the platter keeps whole-segment writes as one
    ``bytes`` snapshot and updates a segment written in place where
    each write lands; every read hands out ``bytes``."""

    @pytest.mark.parametrize("after_writes", [None, 0])
    def test_a_bad_segment_is_rejected_before_the_injector_ticks(
        self, geo, after_writes
    ):
        """Rejected like write_segment rejects it: the fault injector
        never sees the write, so no later PowerCut index shifts and no
        torn prefix lands on a segment the disk does not have."""
        disk = _cut_disk(geo, after_writes, torn=True, seed=1)
        with pytest.raises(ValueError):
            disk.write_at(99, 0, b"x" * 512)
        assert disk.injector.writes_seen == 0
        assert not disk.crashed
        assert platter_bytes(disk) == {}
        if after_writes is None:
            disk.write_at(1, 0, b"y" * 512)
            assert disk.injector.writes_seen == disk.write_count == 1
        else:
            # The cut falls on the next valid write, as scheduled.
            with pytest.raises(DiskCrashedError):
                disk.write_at(1, 0, b"y" * 1024)
            rest = bytes(geo.segment_size - 512)
            assert platter_bytes(disk) == {1: b"y" * 512 + rest}

    def test_a_whole_segment_read_is_the_snapshot_uncopied(self, disk, geo):
        disk.write_segment(0, _image(geo, 0x11))
        assert disk.read_many([(0, 0, geo.segment_size)])[0] is disk._segments[0]
        # Written in place, it is a snapshot again for a reboot, whose
        # recovery reads it whole.
        disk.write_at(0, 0, b"\x22" * 512)
        survivor = disk.power_cycle()
        whole = survivor.read_segment(0)
        assert whole is survivor._segments[0]
        assert whole[:1024] == b"\x22" * 512 + b"\x11" * 512
        survivor.write_at(0, 512, b"\x33" * 512)
        assert whole[:1024] == b"\x22" * 512 + b"\x11" * 512
        assert survivor.read(0, 0, 1024) == b"\x22" * 512 + b"\x33" * 512

    def test_reads_are_bytes_that_later_writes_do_not_change(self, disk, geo):
        disk.write_segment(0, _image(geo, 0x11))
        disk.write_at(0, 0, b"\x22" * 512)
        disk.write_at(1, 512, b"\x33" * 512)
        disk.injector.add_media_fault(MediaFault(2, "corrupt", span=(0, 512)))
        disk.write_at(2, 512, b"\x44" * 512)
        reads = [
            disk.read_segment(0),
            disk.read(1, 0, 1024),
            disk.read(2, 0, 1024),
            *disk.read_many([(0, 0, 1024), (1, 512, 512), (2, 0, 1024)]),
        ]
        want = [
            b"\x22" * 512 + _image(geo, 0x11)[512:],
            bytes(512) + b"\x33" * 512,
            b"\xff" * 512 + b"\x44" * 512,
            b"\x22" * 512 + b"\x11" * 512,
            b"\x33" * 512,
            b"\xff" * 512 + b"\x44" * 512,
        ]
        assert [type(got) for got in reads] == [bytes] * len(want)
        assert reads == want
        for seg in range(3):
            disk.write_at(seg, 0, b"\x99" * 1024)
        assert reads == want
        assert disk.read(1, 0, 1024) == b"\x99" * 1024

    @pytest.mark.parametrize("granularity", ["sector", "byte"])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_a_torn_write_keeps_exactly_its_prefix(self, geo, granularity, seed):
        disk = _cut_disk(geo, 2, torn=True, seed=seed, granularity=granularity)
        disk.write_segment(0, _image(geo, 0x11))
        disk.write_at(0, 0, b"\x22" * 512)  # the entry is now written in place
        before = platter_bytes(disk)[0]
        data = memoryview(b"\x5a" * 4096)  # what the log writer hands over
        with pytest.raises(DiskCrashedError):
            disk.write_at(0, 1024, data)
        after = disk.power_cycle().read_segment(0)
        kept = len(after[1024:].split(b"\x11", 1)[0])
        assert 0 < kept < len(data)
        if granularity == "sector":
            assert kept % 512 == 0
        assert after == before[:1024] + b"\x5a" * kept + before[1024 + kept :]

    def test_a_torn_first_write_lands_on_zeros(self, geo):
        disk = _cut_disk(geo, 0, torn=True, seed=3)
        with pytest.raises(DiskCrashedError):
            disk.write_at(4, 1024, b"\x5a" * 4096)
        after = platter_bytes(disk)[4]
        kept = after.count(b"\x5a")
        assert 0 < kept < 4096 and kept % 512 == 0
        rest = bytes(geo.segment_size - 1024 - kept)
        assert after == bytes(1024) + b"\x5a" * kept + rest

    def test_a_snapshot_and_its_source_stay_apart(self, geo):
        disk = SimulatedDisk(geo)
        disk.write_segment(0, _image(geo, 0x11))
        disk.write_segment(1, _image(geo, 0x11))
        disk.write_at(0, 0, b"\x22" * 512)  # in place before the snapshot
        copy = disk.snapshot()
        for seg in (0, 1):  # a written-in-place entry, and a whole one
            copy.write_at(seg, 512, b"\x33" * 512)
            disk.write_at(seg, 1024, b"\x44" * 512)
        copy.write_at(2, 0, b"\x55" * 512)  # one the source never wrote
        source_first = b"\x22" * 512 + b"\x11" * 512 + b"\x44" * 512
        copy_first = b"\x22" * 512 + b"\x33" * 512 + b"\x11" * 512
        assert disk.read(0, 0, 1536) == source_first
        assert copy.read(0, 0, 1536) == copy_first
        assert disk.read(1, 0, 1536) == b"\x11" * 1024 + b"\x44" * 512
        assert copy.read(1, 0, 1536) == b"\x11" * 512 + b"\x33" * 512 + b"\x11" * 512
        assert 2 not in platter_bytes(disk)
        assert copy.read(2, 0, 512) == b"\x55" * 512

    def test_the_power_cycle_survivor_sees_every_in_place_write(self, geo):
        disk = _cut_disk(geo, 3)
        disk.write_segment(0, _image(geo, 0x11))
        disk.write_at(0, 0, b"\x22" * 512)
        disk.write_at(1, 512, b"\x33" * 512)
        with pytest.raises(DiskCrashedError):
            disk.write_at(0, 512, b"\x44" * 512)  # dropped whole
        survivor = disk.power_cycle()
        assert survivor.read(0, 0, 1024) == b"\x22" * 512 + b"\x11" * 512
        assert survivor.read(1, 0, 1024) == bytes(512) + b"\x33" * 512
        survivor.write_at(1, 0, b"\x66" * 512)
        assert survivor.read(1, 0, 1024) == b"\x66" * 512 + b"\x33" * 512


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

    def test_roundtrip_of_a_platter_written_in_place(self, disk, geo, tmp_path):
        disk.write_segment(2, _image(geo, 0x5A))
        disk.write_at(2, 512, b"\x11" * 512)
        disk.write_at(5, 1024, b"\x22" * 512)
        path = tmp_path / "disk.img"
        assert disk.save_image(path) == 2
        loaded = SimulatedDisk.load_image(path)
        assert platter_bytes(loaded) == platter_bytes(disk)
        loaded.write_at(2, 0, b"\x33" * 512)
        assert loaded.read(2, 0, 1536) == (
            b"\x33" * 512 + b"\x11" * 512 + b"\x5a" * 512
        )
        assert disk.read(2, 0, 512) == b"\x5a" * 512

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
