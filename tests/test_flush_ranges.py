"""A durability point writes only what it adds.

Every buffer reaches the disk as its new data slots and then its
sector-rounded summary chunk, never the free gap between them, and all
the ranges of one flush or write-behind drain are one scatter-gather
batch.  What this file pins:

1. A closed, partly full segment hands the disk exactly its data slots
   plus its chunk, counted through ``SimulatedDisk``'s three public
   write calls wrapped the way ``benchmarks/perf/probe.py`` wraps them,
   so a byte counted twice or not at all shows.
2. A segment reused over an older incarnation keeps that incarnation's
   bytes in its gap, and reference, eager and instant recovery still
   agree on the state it holds.
3. A power cut between a closed segment's data and its chunk: the
   data landed, the chunk did not, and the recoveries agree that the
   segment's history never happened.
"""

import pytest

from repro.disk.faults import FaultInjector, FaultPlan, PowerCut
from repro.disk.geometry import SECTOR_SIZE, TRAILER_SIZE, DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import DiskCrashedError
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.segment import decode_segment, parse_trailer

from tests.oracle import recoveries_agree

CONFIG = LLDConfig(checkpoint_slot_segments=2)


def payload(block_size, tag, index):
    return bytes([tag, index % 251]) * (block_size // 2)


@pytest.fixture
def counted(monkeypatch):
    """Bytes handed to each public write call, on every disk."""
    counts = {"write_segment": 0, "write_many": 0, "write_at": 0}
    write_segment = SimulatedDisk.write_segment
    write_many = SimulatedDisk.write_many
    write_at = SimulatedDisk.write_at

    def counted_segment(disk, segment_no, data):
        counts["write_segment"] += len(data)
        return write_segment(disk, segment_no, data)

    def counted_many(disk, writes):
        counts["write_many"] += sum(len(data) for _, data in writes)
        return write_many(disk, writes)

    def counted_at(disk, segment_no, offset, data):
        counts["write_at"] += len(data)
        return write_at(disk, segment_no, offset, data)

    monkeypatch.setattr(SimulatedDisk, "write_segment", counted_segment)
    monkeypatch.setattr(SimulatedDisk, "write_many", counted_many)
    monkeypatch.setattr(SimulatedDisk, "write_at", counted_at)
    return counts


def chunk_range(raw, data_end):
    """The sector-rounded extent ``unwritten_ranges`` gives a closed
    segment's one chunk, read back from its trailer."""
    size = len(raw)
    parsed = parse_trailer(raw[size - TRAILER_SIZE :])
    assert parsed is not None
    start = size - TRAILER_SIZE - parsed[4]
    return max(data_end, start // SECTOR_SIZE * SECTOR_SIZE), size


class TestClosedSegmentWritesDataAndChunk:
    @pytest.mark.parametrize("blocks", [1, 5, 11])
    def test_partly_full_segment(self, counted, blocks):
        disk = SimulatedDisk(DiskGeometry.small(num_segments=32))
        ld = LLD(disk, config=CONFIG)
        lst = ld.new_list()
        ids = [ld.new_block(lst) for _ in range(blocks)]
        ld.flush()
        size = disk.geometry.block_size
        for index, block in enumerate(ids):
            ld.write(block, payload(size, 7, index))
        before = dict(counted)
        batches = disk.timer.write_batches
        writes = disk.write_count
        ld.flush()  # on this disk model a flush closes the segment
        segment = ld.bmap.persistent[ids[0]].address.segment
        assert ld.stats()["segments"]["in_place_writes"] == 0
        raw = disk._segments[segment]
        start, end = chunk_range(raw, blocks * size)
        assert start - blocks * size > 0  # a gap was left unwritten
        assert counted["write_at"] - before["write_at"] == blocks * size + end - start
        assert counted["write_segment"] == before["write_segment"]
        assert counted["write_many"] == before["write_many"]
        # Two ranges, data then chunk, in one batch.
        assert disk.write_count - writes == 2
        assert disk.timer.write_batches - batches == 1
        # The gap of a segment never written before stays blank.
        assert bytes(raw[blocks * size : start]) == bytes(start - blocks * size)

    def test_a_drain_is_one_batch(self, counted):
        """Write-behind parks closed segments; the drain hands each
        one's data and chunk to the disk, all in one batch."""
        disk = SimulatedDisk(DiskGeometry.small(num_segments=32))
        ld = LLD(disk, config=CONFIG.replace(writeback_depth=8))
        lst = ld.new_list()
        size = disk.geometry.block_size
        per_segment = disk.geometry.max_data_blocks
        ids = [ld.new_block(lst) for _ in range(3 * per_segment)]
        ld.flush()
        batches = disk.timer.write_batches
        before = counted["write_at"]
        for index, block in enumerate(ids):
            ld.write(block, payload(size, 9, index))
        ld.flush()
        assert disk.timer.write_batches - batches == 1
        segments = sorted({ld.bmap.persistent[b].address.segment for b in ids})
        expected = 0
        for segment in segments:
            decoded = decode_segment(disk._segments[segment], disk.geometry, segment)
            data_end = decoded.block_count * size
            start, end = chunk_range(disk._segments[segment], data_end)
            expected += data_end + end - start
        assert counted["write_at"] - before == expected


def churned_volume(disk):
    """Full segments written, overwritten and cleaned until segments
    are reused; returns the volume and its blocks' expected bytes."""
    ld = LLD(disk, config=CONFIG)
    size = disk.geometry.block_size
    lst = ld.new_list()
    ids = [ld.new_block(lst) for _ in range(3 * disk.geometry.max_data_blocks)]
    expected = {}
    for rnd in range(12):
        for index, block in enumerate(ids):
            expected[block] = payload(size, rnd, index)
            ld.write(block, expected[block])
        ld.flush()
    return ld, ids, expected


def stale_gaps(disk, ld):
    """Segments whose free gap holds bytes an older incarnation left."""
    size = disk.geometry.block_size
    found = []
    for segment, _live, _seq in ld.usage.dirty_segments():
        raw = disk._segments[segment]
        decoded = decode_segment(raw, disk.geometry, segment)
        data_end = decoded.block_count * size
        start, _end = chunk_range(raw, data_end)
        if any(raw[data_end:start]):
            found.append(segment)
    return found


class TestStaleGap:
    def test_reused_segment_recovers_the_same_everywhere(self):
        disk = SimulatedDisk(DiskGeometry.small(num_segments=24))
        ld, ids, expected = churned_volume(disk)
        assert ld.stats()["cleaner"]["segments_freed"] > 0
        # A partly full segment on top of a full older incarnation.
        size = disk.geometry.block_size
        for index, block in enumerate(ids[:3]):
            expected[block] = payload(size, 99, index)
            ld.write(block, expected[block])
        ld.flush()
        assert stale_gaps(disk, ld)
        volume, _report = recoveries_agree(disk, CONFIG)
        for block, data in expected.items():
            assert volume.read(block) == data


class TestCutBetweenDataAndChunk:
    def flush_writes(self):
        """The write index of the last flush's data range, found on an
        uncut run, and the expected bytes before that flush."""
        injector = FaultInjector(plan=FaultPlan())
        disk = SimulatedDisk(DiskGeometry.small(num_segments=24), injector=injector)
        ld, ids, expected = churned_volume(disk)
        before = dict(expected)
        self.last_round(ld, ids, expected)
        start = injector.writes_seen
        ld.flush()
        assert injector.writes_seen - start == 2  # data, then chunk
        return start, before

    @staticmethod
    def last_round(ld, ids, expected):
        size = ld.geometry.block_size
        for index, block in enumerate(ids[:3]):
            expected[block] = payload(size, 99, index)
            ld.write(block, expected[block])

    @pytest.mark.parametrize("torn", [False, True])
    def test_data_without_its_chunk_never_happened(self, torn):
        start, before = self.flush_writes()
        for seed in range(3 if torn else 1):
            cut = PowerCut(after_writes=start + 1, torn=torn, seed=seed)
            injector = FaultInjector(plan=FaultPlan(power_cut=cut))
            disk = SimulatedDisk(
                DiskGeometry.small(num_segments=24), injector=injector
            )
            ld, ids, expected = churned_volume(disk)
            self.last_round(ld, ids, expected)
            with pytest.raises(DiskCrashedError):
                ld.flush()
            assert injector.writes_seen == start + 1  # the data landed
            volume, _report = recoveries_agree(disk, CONFIG)
            for block, data in before.items():
                assert volume.read(block) == data
