"""Crash-recovery tests: the core guarantees of the paper.

Every test crashes a system at some point, power-cycles the disk, and
recovers.  The invariant throughout: recovery is always to the most
recent persistent state — committed-and-flushed ARUs survive whole,
anything else vanishes whole (except immediately-committed
allocations, which the consistency sweep reclaims).
"""

import pytest

from repro.disk.faults import FaultInjector, FaultPlan, MediaFault, PowerCut
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import BadBlockError, BadListError, DiskCrashedError
from repro.ld.types import FIRST
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import recover


def fresh(num_segments=64, injector=None, **kwargs):
    geo = DiskGeometry.small(num_segments=num_segments)
    disk = SimulatedDisk(geo, injector=injector)
    kwargs.setdefault("checkpoint_slot_segments", 2)
    return disk, LLD(disk, config=LLDConfig(**kwargs))


def reboot(disk, **kwargs):
    kwargs.setdefault("checkpoint_slot_segments", 2)
    return recover(disk.power_cycle(), config=LLDConfig(**kwargs))


class TestBasicRecovery:
    def test_empty_disk(self):
        disk, _lld = fresh()
        lld2, report = reboot(disk)
        assert report.segments_replayed == 0
        assert lld2.new_list()  # fully operational

    def test_flushed_data_survives(self):
        disk, lld = fresh()
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.write(block, b"survivor")
        lld.flush()
        lld2, report = reboot(disk)
        assert lld2.read(block).startswith(b"survivor")
        assert lld2.list_blocks(lst) == [block]
        assert report.entries_replayed >= 4

    def test_unflushed_data_lost(self):
        disk, lld = fresh()
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.write(block, b"volatile")
        # no flush
        lld2, _report = reboot(disk)
        with pytest.raises(BadListError):
            lld2.list_blocks(lst)

    def test_list_structure_reconstructed(self):
        disk, lld = fresh()
        lst = lld.new_list()
        a = lld.new_block(lst)
        b = lld.new_block(lst, predecessor=a)
        c = lld.new_block(lst)  # at the front
        lld.delete_block(a)
        lld.flush()
        lld2, _report = reboot(disk)
        assert lld2.list_blocks(lst) == [c, b]

    def test_id_counters_advance_past_history(self):
        disk, lld = fresh()
        lst = lld.new_list()
        blocks = [lld.new_block(lst) for _ in range(5)]
        lld.flush()
        lld2, _report = reboot(disk)
        assert lld2.new_list() > lst
        assert lld2.new_block(lst) > max(blocks)

    def test_recovered_lld_fully_operational(self):
        disk, lld = fresh()
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.write(block, b"gen-1")
        lld.flush()
        lld2, _report = reboot(disk)
        # New generation of work, then another crash cycle.
        block2 = lld2.new_block(lst, predecessor=block)
        lld2.write(block2, b"gen-2")
        aru = lld2.begin_aru()
        lld2.write(block, b"gen-2-aru", aru=aru)
        lld2.end_aru(aru)
        lld2.flush()
        lld3, _report = reboot(disk)
        assert lld3.read(block).startswith(b"gen-2-aru")
        assert lld3.read(block2).startswith(b"gen-2")


class TestARUAtomicity:
    def test_committed_flushed_aru_survives(self):
        disk, lld = fresh()
        lst = lld.new_list()
        aru = lld.begin_aru()
        blocks = [lld.new_block(lst, aru=aru) for _ in range(3)]
        for index, block in enumerate(blocks):
            lld.write(block, f"part-{index}".encode(), aru=aru)
        lld.end_aru(aru)
        lld.flush()
        lld2, report = reboot(disk)
        assert report.arus_committed >= 1
        for index, block in enumerate(blocks):
            assert lld2.read(block).startswith(f"part-{index}".encode())

    def test_uncommitted_aru_fully_undone(self):
        disk, lld = fresh()
        lst = lld.new_list()
        base = lld.new_block(lst)
        lld.write(base, b"base")
        lld.flush()
        aru = lld.begin_aru()
        lld.write(base, b"overwritten-in-aru", aru=aru)
        extra = lld.new_block(lst, aru=aru)
        lld.write(extra, b"extra", aru=aru)
        lld.flush()  # flush with the ARU still open
        lld2, report = reboot(disk)
        assert lld2.read(base).startswith(b"base")
        assert lld2.list_blocks(lst) == [base]
        # The orphaned allocation was swept.
        assert int(extra) in report.orphan_blocks_freed
        with pytest.raises(BadBlockError):
            lld2.read(extra)

    def test_commit_record_not_flushed_means_undone(self):
        """Commit in memory but not on disk = not persistent."""
        disk, lld = fresh()
        lst = lld.new_list()
        base = lld.new_block(lst)
        lld.write(base, b"base")
        lld.flush()
        aru = lld.begin_aru()
        lld.write(base, b"committed-not-flushed", aru=aru)
        lld.end_aru(aru)
        # No flush: the commit record sits in the segment buffer.
        lld2, _report = reboot(disk)
        assert lld2.read(base).startswith(b"base")

    def test_one_aru_committed_one_not(self):
        disk, lld = fresh()
        lst = lld.new_list()
        a = lld.begin_aru()
        b = lld.begin_aru()
        block_a = lld.new_block(lst, aru=a)
        lld.write(block_a, b"from-a", aru=a)
        block_b = lld.new_block(lst, aru=b)
        lld.write(block_b, b"from-b", aru=b)
        lld.end_aru(a)
        lld.flush()  # b is still open
        lld2, report = reboot(disk)
        assert lld2.read(block_a).startswith(b"from-a")
        assert lld2.list_blocks(lst) == [block_a]
        assert int(block_b) in report.orphan_blocks_freed

    def test_sequential_mode_atomicity(self):
        """The old prototype's sequential ARUs are also crash-atomic:
        tagged entries without a commit record are discarded."""
        disk, lld = fresh(aru_mode="sequential")
        lst = lld.new_list()
        base = lld.new_block(lst)
        lld.write(base, b"base")
        lld.flush()
        aru = lld.begin_aru()
        lld.write(base, b"in-sequential-aru", aru=aru)
        lld.flush()  # data (tagged) hits the disk, commit record doesn't
        lld2, report = reboot(disk, aru_mode="sequential")
        assert lld2.read(base).startswith(b"base")
        assert report.arus_discarded >= 1


class TestTornWrites:
    def test_torn_final_segment_discarded(self):
        cut = PowerCut(after_writes=2, torn=True, seed=11)
        injector = FaultInjector(plan=FaultPlan(power_cut=cut))
        disk, lld = fresh(injector=injector)
        lst = lld.new_list()
        committed = []
        with pytest.raises(DiskCrashedError):
            previous = FIRST
            for index in range(500):
                block = lld.new_block(lst, predecessor=previous)
                lld.write(block, f"data-{index}".encode())
                committed.append(block)
                previous = block
                lld.flush()
        lld2, report = reboot(disk)
        assert report.segments_invalid > 0
        survivors = lld2.list_blocks(lst)
        # Whatever survived is a prefix of what was written, and all
        # of it is readable and correct.
        assert survivors == committed[: len(survivors)]
        for index, block in enumerate(survivors):
            assert lld2.read(block).startswith(f"data-{index}".encode())

    def test_media_fault_segment_skipped(self):
        disk, lld = fresh()
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.write(block, b"doomed")
        lld.flush()
        segment = lld.bmap.persistent[block].address.segment
        disk.injector.add_media_fault(MediaFault(segment, "unreadable"))
        lld2, report = reboot(disk)
        assert report.segments_unreadable == 1
        # The damaged history is gone; recovery proceeds regardless.
        with pytest.raises(BadListError):
            lld2.list_blocks(lst)

    def test_corrupt_segment_fails_checksum(self):
        disk, lld = fresh()
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.write(block, b"doomed")
        lld.flush()
        segment = lld.bmap.persistent[block].address.segment
        disk.injector.add_media_fault(MediaFault(segment, "corrupt"))
        lld2, report = reboot(disk)
        assert report.segments_invalid >= 1


class TestCheckpointRecovery:
    def test_recovery_uses_checkpoint(self):
        disk, lld = fresh()
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.write(block, b"checkpointed")
        lld.write_checkpoint()
        # Post-checkpoint work.
        block2 = lld.new_block(lst, predecessor=block)
        lld.write(block2, b"after-ckpt")
        lld.flush()
        lld2, report = reboot(disk)
        assert report.checkpoint_seq >= 1
        assert lld2.read(block).startswith(b"checkpointed")
        assert lld2.read(block2).startswith(b"after-ckpt")
        assert lld2.list_blocks(lst) == [block, block2]

    def test_checkpoint_bounds_replay(self):
        disk, lld = fresh()
        lst = lld.new_list()
        for _ in range(10):
            block = lld.new_block(lst)
            lld.write(block, b"x")
        lld.write_checkpoint()
        _lld2, report = reboot(disk)
        assert report.segments_replayed == 0  # everything under the ckpt

    def test_repeated_checkpoints_alternate_slots(self):
        disk, lld = fresh()
        lst = lld.new_list()
        for round_no in range(4):
            block = lld.new_block(lst)
            lld.write(block, f"round-{round_no}".encode())
            lld.write_checkpoint()
        lld2, report = reboot(disk)
        assert report.checkpoint_seq == 4
        assert len(lld2.list_blocks(lst)) == 4

    def test_recovery_after_recovery(self):
        disk, lld = fresh()
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.write(block, b"one")
        lld.flush()
        lld2, _ = reboot(disk)
        lld2.write(block, b"two")
        lld2.write_checkpoint()
        lld3, _ = reboot(disk)
        assert lld3.read(block).startswith(b"two")
