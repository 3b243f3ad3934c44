"""The unified ``recover`` dispatcher and shared report surface.

``repro.recover`` accepts either one disk image (single volume) or a
sequence of member images (sharded array, ``None`` for a lost member)
and returns the matching volume type, with both report shapes
exposing the same fields.
"""

import dataclasses
import warnings

import pytest

from repro import recover
from repro.disk.faults import FaultInjector, FaultPlan, PowerCut
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import RecoveryReport
from repro.shard.config import ArrayConfig
from repro.shard.recovery import ShardRecoveryReport
from repro.shard.sharded import ShardedLLD, build_sharded


def crashed_volume(rounds=6):
    cut = PowerCut(after_writes=10_000)
    injector = FaultInjector(plan=FaultPlan(power_cut=cut))
    disk = SimulatedDisk(
        DiskGeometry.small(num_segments=32), injector=injector
    )
    lld = LLD(disk, config=LLDConfig(checkpoint_slot_segments=2))
    lst = lld.new_list()
    blk = lld.new_block(lst)
    for round_no in range(rounds):
        lld.write(blk, b"round-%d" % round_no)
        lld.flush()
    return disk.power_cycle(), blk, b"round-%d" % (rounds - 1)


def crashed_array(n=3, rf=1, rounds=6):
    volume = build_sharded(
        n,
        DiskGeometry.small(num_segments=48),
        config=LLDConfig(checkpoint_slot_segments=2),
        array_config=ArrayConfig(replication_factor=rf),
    )
    lst = volume.new_list()
    blocks = [volume.new_block(lst) for _ in range(n)]
    for round_no in range(rounds):
        for blk in blocks:
            volume.write(blk, b"round-%d" % round_no)
        volume.flush()
    disks = [shard.disk.power_cycle() for shard in volume.shards]
    return disks, blocks, b"round-%d" % (rounds - 1)


class TestDispatch:
    def test_single_disk_returns_lld(self):
        disk, blk, want = crashed_volume()
        volume, report = recover(disk)
        assert isinstance(volume, LLD)
        assert isinstance(report, RecoveryReport)
        assert volume.read(blk).startswith(want)

    def test_sequence_returns_sharded(self):
        disks, blocks, want = crashed_array()
        volume, report = recover(disks)
        assert isinstance(volume, ShardedLLD)
        assert isinstance(report, ShardRecoveryReport)
        for blk in blocks:
            assert volume.read(blk).startswith(want)

    def test_sequence_with_lost_member(self):
        disks, blocks, want = crashed_array(rf=2)
        disks[1] = None
        volume, report = recover(
            disks, array_config=ArrayConfig(replication_factor=2)
        )
        assert report.dead_shards == [1]
        for blk in blocks:
            assert volume.read(blk).startswith(want)

    def test_instant_mode_dispatches_for_both_shapes(self):
        disk, blk, want = crashed_volume()
        volume, report = recover(disk, mode="instant")
        assert report.mode == "instant"
        assert volume.read(blk).startswith(want)

        disks, blocks, want = crashed_array()
        volume, report = recover(disks, mode="instant")
        assert report.mode == "instant"
        assert volume.read(blocks[0]).startswith(want)

    def test_bad_sequence_entry_is_a_type_error(self):
        with pytest.raises(TypeError):
            recover(["not", "disks"])

    def test_empty_sequence_error_names_the_public_entry_point(self):
        with pytest.raises(ValueError, match="repro.recover"):
            recover([])

    def test_array_config_rejected_for_single_disk(self):
        disk, _, _ = crashed_volume(rounds=1)
        with pytest.raises(ValueError):
            recover(disk, array_config=ArrayConfig(replication_factor=2))

    def test_default_array_config_allowed_for_single_disk(self):
        disk, blk, want = crashed_volume()
        volume, _ = recover(disk, array_config=ArrayConfig())
        assert volume.read(blk).startswith(want)


class TestSharedReportSurface:
    FIELDS = (
        "mode",
        "shards",
        "dead_shards",
        "recovery_time_us",
        "ttfr_us",
        "parallel_us",
        "serial_us",
        "wall_seconds",
    )

    def test_single_volume_report(self):
        disk, _, _ = crashed_volume()
        _, report = recover(disk)
        for name in self.FIELDS:
            assert hasattr(report, name), name
        assert report.shards == 1
        assert report.dead_shards == []
        assert report.parallel_us == report.recovery_time_us
        assert report.serial_us == report.recovery_time_us

    def test_sharded_report(self):
        disks, _, _ = crashed_array()
        _, report = recover(disks)
        for name in self.FIELDS:
            assert hasattr(report, name), name
        assert report.shards == 3
        assert report.dead_shards == []
        assert report.mode == "eager"
        assert report.recovery_time_us == report.parallel_us


class TestDeprecationShims:
    def test_unified_entry_does_not_warn(self):
        disks, _, _ = crashed_array()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            recover(disks)


class TestArrayConfigValidation:
    def test_unknown_knob_is_a_type_error_naming_valid_knobs(self):
        # Python's own TypeError now: it names the bad keyword.
        with pytest.raises(TypeError, match="replication"):
            ArrayConfig(replication=3)

    def test_bad_values_are_value_errors(self):
        with pytest.raises(ValueError):
            ArrayConfig(replication_factor=0)
        with pytest.raises(TypeError):  # option removed: ring is the rule
            ArrayConfig(placement="scatter")

    def test_frozen(self):
        config = ArrayConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.replication_factor = 2

    def test_replace_revalidates(self):
        config = ArrayConfig()
        assert config.replace(replication_factor=2).replication_factor == 2
        with pytest.raises(ValueError):
            config.replace(replication_factor=-1)
