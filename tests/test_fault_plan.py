"""The unified :class:`FaultPlan` fault surface.

One declarative, immutable object carries every fault the injector
can apply — power cuts, per-segment media faults (optionally scoped
to one shard of an array), and whole-shard losses — and
``FaultInjector(plan=...)`` is the only way to schedule one.
"""

import dataclasses

import pytest

from repro.disk.faults import (
    FaultInjector,
    FaultPlan,
    MediaFault,
    PowerCut,
    ShardLoss,
)
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import (
    DiskCrashedError,
    MediaError,
    ShardLostError,
)
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD


def make_disk(injector=None, shard_index=None, num_segments=24):
    return SimulatedDisk(
        DiskGeometry.small(num_segments=num_segments),
        injector=injector,
        shard_index=shard_index,
    )


class TestFaultPlanSurface:
    def test_plan_carries_all_three_fault_kinds(self):
        plan = FaultPlan(
            power_cut=PowerCut(after_writes=5, torn=True),
            media_faults=[MediaFault(3), MediaFault(4, "corrupt", shard=1)],
            shard_losses=[ShardLoss(shard=2, after_writes=7)],
        )
        injector = FaultInjector(plan=plan)
        assert injector.crash_plan.after_writes == 5
        assert injector.crash_plan.torn
        assert 3 in injector.media_faults
        assert (1, 4) in injector._scoped_faults

    def test_plan_rejects_duplicate_shard_losses(self):
        with pytest.raises(ValueError):
            FaultPlan(
                shard_losses=[ShardLoss(shard=1), ShardLoss(shard=1)]
            )

    def test_plans_are_immutable(self):
        """Their ``__post_init__`` checks cannot be bypassed by
        assigning afterwards."""
        with pytest.raises(dataclasses.FrozenInstanceError):
            PowerCut(after_writes=1).after_writes = -1
        with pytest.raises(dataclasses.FrozenInstanceError):
            FaultPlan().shard_losses = [ShardLoss(1), ShardLoss(1)]

    def test_media_fault_kind_validated(self):
        with pytest.raises(ValueError):
            MediaFault(0, kind="slow")

    def test_shard_loss_validates(self):
        with pytest.raises(ValueError):
            ShardLoss(shard=-1)
        with pytest.raises(ValueError):
            ShardLoss(shard=0, after_writes=-1)


class TestScopedMediaFaults:
    def test_scoped_fault_hits_only_its_shard(self):
        injector = FaultInjector(
            plan=FaultPlan(
                media_faults=[MediaFault(0, "unreadable", shard=1)]
            )
        )
        disk0 = make_disk(injector=injector, shard_index=0)
        disk1 = make_disk(injector=injector, shard_index=1)
        seg = b"y" * disk0.geometry.segment_size
        disk0.write_segment(0, seg)
        disk1.write_segment(0, seg)
        assert disk0.read(0, 0, 16) == seg[:16]
        with pytest.raises(MediaError):
            disk1.read(0, 0, 16)

    def test_unscoped_fault_hits_every_shard(self):
        injector = FaultInjector(
            plan=FaultPlan(media_faults=[MediaFault(0, "unreadable")])
        )
        for index in (0, 1):
            disk = make_disk(injector=injector, shard_index=index)
            disk.write_segment(0, b"z" * disk.geometry.segment_size)
            with pytest.raises(MediaError):
                disk.read(0, 0, 16)


class TestFaultsOfOneSegment:
    """A segment keeps every media fault it is given."""

    def written(self):
        disk = make_disk(injector=FaultInjector())
        disk.write_segment(0, bytes(range(256)) * (disk.geometry.segment_size // 256))
        return disk, disk.read(0, 0, 256)

    def test_every_corrupt_span_is_flipped(self):
        disk, clean = self.written()
        for span in ((8, 16), (64, 72)):
            disk.injector.add_media_fault(MediaFault(0, "corrupt", span=span))
        rotten = disk.read(0, 0, 256)
        flipped = [i for i in range(256) if rotten[i] != clean[i]]
        assert flipped == list(range(8, 16)) + list(range(64, 72))

    def test_overlapping_spans_flip_each_byte_once(self):
        disk, clean = self.written()
        for span in ((8, 16), (12, 20)):
            disk.injector.add_media_fault(MediaFault(0, "corrupt", span=span))
        rotten = disk.read(0, 0, 256)
        assert [i for i in range(256) if rotten[i] != clean[i]] == list(range(8, 20))

    @pytest.mark.parametrize("first", ["unreadable", "corrupt"])
    def test_unreadable_wins(self, first):
        disk, _clean = self.written()
        second = "corrupt" if first == "unreadable" else "unreadable"
        for kind in (first, second):
            disk.injector.add_media_fault(MediaFault(0, kind, span=(0, 8)))
        with pytest.raises(MediaError):
            disk.read(0, 0, 16)

    def test_clear_removes_them_all(self):
        disk, clean = self.written()
        disk.injector.add_media_fault(MediaFault(0, "corrupt", span=(0, 8)))
        disk.injector.add_media_fault(MediaFault(0, "unreadable"))
        disk.injector.clear_media_fault(0)
        assert disk.read(0, 0, 256) == clean


class TestShardLossSemantics:
    def test_immediate_loss_blocks_all_io(self):
        injector = FaultInjector(
            plan=FaultPlan(shard_losses=[ShardLoss(shard=0)])
        )
        disk = make_disk(injector=injector, shard_index=0)
        with pytest.raises(ShardLostError):
            disk.write_segment(0, b"a" * disk.geometry.segment_size)
        with pytest.raises(ShardLostError):
            disk.read(0, 0, 16)

    def test_deferred_loss_triggers_on_global_write_count(self):
        injector = FaultInjector(
            plan=FaultPlan(shard_losses=[ShardLoss(shard=1, after_writes=2)])
        )
        disk0 = make_disk(injector=injector, shard_index=0)
        disk1 = make_disk(injector=injector, shard_index=1)
        seg = b"b" * disk0.geometry.segment_size
        disk1.write_segment(0, seg)  # write 1: shard 1 still fine
        disk0.write_segment(0, seg)  # write 2: budget reached
        disk0.write_segment(1, seg)  # shard 0 unaffected
        with pytest.raises(ShardLostError):
            disk1.write_segment(1, seg)

    def test_loss_survives_power_cycle(self):
        """Power restoration does not resurrect destroyed media."""
        cut = PowerCut(after_writes=1)
        injector = FaultInjector(plan=FaultPlan(power_cut=cut))
        injector.lose_shard(1)
        disk1 = make_disk(injector=injector, shard_index=1)
        injector.power_cycle()
        with pytest.raises(ShardLostError):
            disk1.read(0, 0, 16)

    def test_replace_shard_restores_io(self):
        injector = FaultInjector()
        injector.lose_shard(0)
        disk = make_disk(injector=injector, shard_index=0)
        with pytest.raises(ShardLostError):
            disk.read(0, 0, 16)
        injector.replace_shard(0)
        disk.write_segment(0, b"c" * disk.geometry.segment_size)
        assert disk.read(0, 0, 1) == b"c"

    def test_shard_lost_error_is_not_a_media_error(self):
        """Recovery classifies MediaError segments as individually
        unreadable; whole-shard loss must not be mistaken for that."""
        assert not issubclass(ShardLostError, MediaError)

    def test_power_cycled_disk_keeps_its_shard_index(self):
        cut = PowerCut(after_writes=1)
        injector = FaultInjector(plan=FaultPlan(power_cut=cut))
        disk = make_disk(injector=injector, shard_index=2)
        seg = b"d" * disk.geometry.segment_size
        disk.write_segment(0, seg)
        with pytest.raises(DiskCrashedError):
            disk.write_segment(1, seg)
            disk.write_segment(2, seg)
        survivor = disk.power_cycle()
        assert survivor.shard_index == 2

    def test_single_disk_unaffected_by_shard_losses(self):
        """A disk with no shard identity ignores shard-scoped faults
        (there is nothing to scope to)."""
        injector = FaultInjector(
            plan=FaultPlan(shard_losses=[ShardLoss(shard=0)])
        )
        disk = make_disk(injector=injector)  # shard_index=None
        disk.write_segment(0, b"e" * disk.geometry.segment_size)
        assert disk.read(0, 0, 1) == b"e"


class TestLLDUnderFaultPlan:
    def test_lld_storm_against_full_plan(self):
        """An LLD running under a plan with a power cut sees exactly
        the legacy crash behavior."""
        injector = FaultInjector(
            plan=FaultPlan(power_cut=PowerCut(after_writes=4))
        )
        disk = make_disk(injector=injector, num_segments=32)
        lld = LLD(disk, config=LLDConfig(checkpoint_slot_segments=2))
        lst = lld.new_list()
        blk = lld.new_block(lst)
        with pytest.raises(DiskCrashedError):
            for round_no in range(100):
                lld.write(blk, b"r%d" % round_no)
                lld.flush()
