"""ENOSPC semantics: a full logical disk degrades, never corrupts."""

import itertools

import pytest

from repro.disk.faults import MediaFault
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import DiskCrashedError, DiskFullError
from repro.ld.types import FIRST
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import recover
from repro.lld.usage import SegmentState
from repro.lld.verify import verify_lld


def tiny(num_segments=20, **kwargs):
    geo = DiskGeometry.small(num_segments=num_segments)
    disk = SimulatedDisk(geo)
    kwargs.setdefault("checkpoint_slot_segments", 1)
    return disk, LLD(disk, config=LLDConfig(**kwargs))


def fill(lld, lst):
    blocks = []
    previous = FIRST
    with pytest.raises(DiskFullError):
        while True:
            block = lld.new_block(lst, predecessor=previous)
            lld.write(block, f"fill-{len(blocks)}".encode())
            blocks.append(block)
            previous = block
    return blocks


class TestDiskFull:
    def test_full_disk_keeps_existing_data_readable(self):
        _disk, lld = tiny()
        lst = lld.new_list()
        blocks = fill(lld, lst)
        for index in range(len(blocks) - 1):
            assert lld.read(blocks[index]).startswith(f"fill-{index}".encode())
        assert verify_lld(lld) == []

    def test_deletes_work_on_full_disk_and_free_space(self):
        """The segment reserve exists exactly for this: deletions must
        go through when ordinary writes cannot."""
        _disk, lld = tiny()
        lst = lld.new_list()
        blocks = fill(lld, lst)
        for block in blocks[: len(blocks) // 2]:
            lld.delete_block(block)
        lld.flush()
        fresh = lld.new_block(lst)
        lld.write(fresh, b"post-recovery write")
        lld.flush()
        assert lld.read(fresh).startswith(b"post-recovery write")
        assert verify_lld(lld) == []

    def test_full_disk_state_survives_crash(self):
        disk, lld = tiny()
        lst = lld.new_list()
        blocks = fill(lld, lst)
        survivors = lld.list_blocks(lst)
        lld2, _report = recover(
            disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=1),
        )
        assert lld2.list_blocks(lst) == survivors
        assert verify_lld(lld2) == []

    def test_commit_hitting_hard_full_is_fatal_not_corrupting(self):
        """When even the reserve cannot absorb a commit, the instance
        dies rather than exposing a half-merged committed state — and
        recovery returns the consistent pre-commit image."""
        disk, lld = tiny(num_segments=16)
        lst = lld.new_list()
        base = lld.new_block(lst)
        lld.write(base, b"pre-commit truth")
        lld.flush()
        blocks = fill(lld, lst)
        # A large ARU of shadow overwrites to existing blocks: nothing
        # touches the disk until EndARU, which then cannot fit.
        aru = lld.begin_aru()
        payload = b"z" * lld.geometry.block_size
        doomed = blocks[: len(blocks) - 2]
        for block in doomed:
            lld.write(block, payload, aru=aru)
        with pytest.raises(DiskFullError):
            lld.end_aru(aru)
        # The instance refuses further work ...
        with pytest.raises((DiskFullError, DiskCrashedError)):
            lld.read(base)
        # ... and the durable image is the consistent pre-commit one.
        lld2, _report = recover(
            disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=1),
        )
        assert lld2.read(base).startswith(b"pre-commit truth")
        for block in doomed:
            from repro.errors import LDError

            try:
                data = lld2.read(block)
            except LDError:
                continue
            assert not data.startswith(b"z" * 16)

    def test_rot_in_a_pending_slot_on_a_full_disk(self):
        """Rot in a slot written since the checkpoint of a full disk:
        recovery returns without reading it, the first read of the
        block serves an older copy, never the rot, and a scrub with no
        room to relocate what it salvages leaves the segment marked and
        its slots still checked."""
        disk, lld = tiny()
        lst = lld.new_list()
        kept = lld.new_block(lst)
        with pytest.raises(DiskFullError):
            for number in itertools.count():
                lld.write(lld.new_block(lst), b"fill")
                lld.write(kept, b"kept-%d" % number)
        seg, slot = lld.bmap.persistent[kept].address
        start = slot * disk.geometry.block_size
        disk.injector.add_media_fault(
            MediaFault(seg, "corrupt", span=(start, start + 64))
        )
        volume, _report = recover(
            disk.power_cycle(), config=LLDConfig(checkpoint_slot_segments=1)
        )
        assert volume.usage.state(seg) is SegmentState.DIRTY
        newest = b"kept-%d" % (number - 1)
        older = volume.read(kept)
        assert older.startswith(b"kept-") and not older.startswith(newest)
        assert (seg, slot) not in volume.cache
        assert volume._scrub_pending == {seg}
        assert verify_lld(volume) == []
        with pytest.raises(DiskFullError):
            volume.scrub()
        assert volume._scrub_pending == {seg}
        # The failed scrub quarantined nothing, so the slot is still
        # checked when read: the older copy again, the rot never cached.
        assert volume.usage.state(seg) is SegmentState.DIRTY
        assert volume.read(kept) == older
        assert (seg, slot) not in volume.cache
