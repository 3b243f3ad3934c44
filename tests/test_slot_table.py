"""The slot table: which block each data slot of a segment holds, and
with what CRC, as the volume wrote it.

``SegmentUsage`` keeps one per segment.  ``LogWriter._write_now`` copies
each chunk's WRITE entries in as it reaches the disk, recovery seeds the
segments it replays, and freeing or quarantining a segment drops its
table.  The cleaner copies a victim's live slots by it, so only a victim
no table covers — one a checkpoint attested at recovery — has its
summary stack read.  What this file pins:

1. The table's life: chunks of an in-place segment accumulate, a freed
   or quarantined segment has none, a reused one starts empty.
2. Recovery seeds the pending segments and not the attested ones, in
   both modes.
3. A cleaning pass after a recovery reads a summary only for the
   attested victim.
"""

import zlib

import pytest

from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.lld.cleaner import SegmentCleaner
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import recover
from repro.lld.summary import KIND_WRITE
from repro.lld.usage import SegmentState, SegmentUsage
from repro.lld.verify import verify_lld

from tests.test_inplace_flush import committed_write, in_place_volume
from tests.test_rollforward_scan import small_disk, volume_with_suffix

CONFIG = LLDConfig(checkpoint_slot_segments=1)


def write(block, slot, crc):
    """The field tuple of a WRITE entry."""
    return (KIND_WRITE, 0, 1, block, slot, crc)


def rows(usage, seg):
    """``[(block, CRC), ...]`` by slot, or None where no table covers."""
    table = usage.slot_table(seg)
    return None if table is None else list(zip(*table))


class TestLife:
    def test_a_rewrite_in_the_buffer_names_its_slot_once(self):
        usage = SegmentUsage(8, reserved=2)
        seg = usage.take_free()
        usage.add_slots(seg, [write(7, 0, 11), write(9, 1, 12), write(7, 0, 11)])
        usage.add_slots(seg, [(KIND_WRITE + 1, 0, 1, 3), write(5, 2, 13)])
        assert rows(usage, seg) == [(7, 11), (9, 12), (5, 13)]
        assert usage.slot_crc(seg, 1) == 12
        assert usage.slot_crc(seg, 3) is None

    @pytest.mark.parametrize("end", ["free", "quarantine"])
    def test_freeing_or_quarantining_drops_the_table(self, end):
        usage = SegmentUsage(8, reserved=2)
        seg = usage.take_free()
        usage.add_slots(seg, [write(7, 0, 11)])
        usage.mark_written(seg, 1, 1)
        getattr(usage, {"free": "free_segment", "quarantine": "quarantine"}[end])(
            seg
        )
        assert usage.slot_table(seg) is None
        assert usage.slot_crc(seg, 0) is None

    def test_a_reused_segment_starts_empty(self):
        usage = SegmentUsage(8, reserved=2)
        seg = usage.take_free()
        usage.add_slots(seg, [write(7, 0, 11), write(9, 1, 12)])
        usage.mark_written(seg, 1, 2)
        usage.free_segment(seg)
        assert usage.take_free() == seg
        assert usage.slot_table(seg) is None
        usage.add_slots(seg, [write(4, 0, 21)])
        assert rows(usage, seg) == [(4, 21)]

    def test_an_in_place_segment_accumulates_its_chunks(self):
        disk, ld = in_place_volume()
        lst = ld.new_list()
        blocks = []
        for fill in (1, 2, 3):
            blocks.append(committed_write(ld, lst, fill))
            seg = ld._buffer.segment_no
            assert ld.usage.state(seg) is SegmentState.CURRENT
            assert rows(ld.usage, seg) == [
                (int(block), zlib.crc32(bytes([number + 1]) * disk.geometry.block_size))
                for number, block in enumerate(blocks)
            ]
        assert ld.stats()["segments"]["in_place_writes"] == 3
        assert verify_lld(ld) == []

    def test_a_volume_that_wraps_keeps_one_table_per_written_segment(self):
        """Every segment the log holds is covered, each slot as its
        WRITE entry on the platter says (verify_lld's check 7), through
        cleaning passes that free segments and reuse them."""
        disk = SimulatedDisk(DiskGeometry.small(num_segments=24))
        ld = LLD(disk, config=CONFIG)
        lst = ld.new_list()
        blocks = [ld.new_block(lst) for _ in range(40)]
        for round_no in range(12):
            for block in blocks:
                ld.write(block, bytes([round_no + 1]) * disk.geometry.block_size)
            ld.flush()
        assert ld.stats()["cleaner"]["segments_freed"] > 24
        for seg, _live, _seq in ld.usage.dirty_segments():
            assert len(ld.usage.slot_table(seg)[0]) == ld.usage.total_slots(seg)
        for seg in range(ld.usage.reserved_count, ld.usage.num_segments):
            if ld.usage.state(seg) is SegmentState.FREE:
                assert ld.usage.slot_table(seg) is None
        assert ld.stats()["cleaner"]["summaries_read"] == 0
        assert verify_lld(ld) == []

    def test_verify_reports_a_table_that_disagrees_with_the_platter(self):
        disk = SimulatedDisk(DiskGeometry.small(num_segments=24))
        ld = LLD(disk, config=CONFIG)
        lst = ld.new_list()
        block = ld.new_block(lst)
        ld.write(block, b"x" * disk.geometry.block_size)
        ld.flush()
        seg = ld.bmap.persistent[block].address.segment
        ld.usage.slot_table(seg)[1][0] ^= 1
        (problem,) = verify_lld(ld)
        assert problem.startswith(f"segment {seg}: slot table holds")


class TestRecoverySeeds:
    @pytest.mark.parametrize("mode", ["eager", "instant"])
    def test_pending_segments_are_seeded_and_attested_ones_are_not(self, mode):
        disk = small_disk(64)
        ld, _blocks = volume_with_suffix(disk, config=CONFIG)
        since = ld.checkpoints.last_log_seq
        dirty = {seg: seq for seg, _live, seq in ld.usage.dirty_segments()}
        tables = {seg: rows(ld.usage, seg) for seg in dirty}
        volume, _report = recover(disk.power_cycle(), mode=mode, config=CONFIG)
        pending = sorted(seg for seg, seq in dirty.items() if seq > since)
        attested = sorted(seg for seg, seq in dirty.items() if seq <= since)
        assert pending and attested
        for seg in pending:
            assert rows(volume.usage, seg) == tables[seg]
        for seg in attested:
            assert volume.usage.slot_table(seg) is None
        assert volume._read_stream.unchecked == set(pending)
        volume.complete_restore()
        assert verify_lld(volume) == []


class TestCleanerAfterRecovery:
    def test_only_the_attested_victim_has_its_summary_read(self):
        """Two partly live segments, one under the checkpoint and one
        written after it; recovered, each is a victim of one pass,
        which reads a tail window for the first and, of each, only its
        one live slot."""
        disk = small_disk(48)
        ld = LLD(disk, config=CONFIG)
        size = disk.geometry.block_size
        lst = ld.new_list()
        blocks = [ld.new_block(lst) for _ in range(2 * disk.geometry.max_data_blocks)]
        half = len(blocks) // 2
        expected = {}

        def put(group, tag):
            for block in group:
                expected[block] = bytes([tag, int(block) % 251]) * (size // 2)
                ld.write(block, expected[block])
            ld.flush()

        put(blocks[:half], 1)
        ld.write_checkpoint()
        put(blocks[half:], 1)
        kept = [blocks[half - 1], blocks[-1]]
        put([block for block in blocks if block not in kept], 2)
        volume, _report = recover(disk.power_cycle(), config=CONFIG)
        attested, pending = [
            volume.bmap.persistent[block].address.segment for block in kept
        ]
        assert volume.usage.slot_table(attested) is None
        assert volume.usage.slot_table(pending) is not None
        assert [volume.usage.live_slots(seg) for seg in (attested, pending)] == [1, 1]
        live = {seg: count for seg, count, _seq in volume.usage.dirty_segments()}
        covered = {seg for seg in live if volume.usage.slot_table(seg) is not None}
        assert attested not in covered and pending in covered
        reads = volume.disk.stats()["reads"]
        report = SegmentCleaner(volume, policy="greedy").clean(
            target_free=volume.usage.free_count + 1
        )
        assert {attested, pending} <= set(report.victims)
        assert report.damaged == []
        # The pass also takes a fuller segment written after the
        # checkpoint, which the disk model prices cheaper read whole.
        whole = report.read_whole
        assert whole and set(whole) <= covered - {pending}
        assert report.summaries_read == 1
        slots = report.blocks_copied - sum(live[seg] for seg in whole)
        assert slots == 2
        # One tail window (the stack fits in one block), then the slots.
        assert volume.disk.stats()["reads"] == reads + len(whole) + 1 + slots
        assert report.bytes_read == (
            len(whole) * disk.geometry.segment_size + (1 + slots) * size
        )
        for block, data in expected.items():
            assert volume.read(block) == data
        assert verify_lld(volume) == []
