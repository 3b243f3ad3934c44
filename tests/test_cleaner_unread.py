"""The cleaner reads only what it copies.

A segment with no live slot is freed unread, every such segment under
the one checkpoint of whichever pass is running; of a victim that holds
live data the cleaner reads the live slots it copies, nothing else.
Which block each slot holds, and with what CRC, comes from the
segment's slot table; only a victim no table covers (one a checkpoint
attested at recovery) has its summary stack read.  What this file
pins:

1. The counts: reads, bytes read, checkpoints and frees of dead-only
   and mixed passes.
2. A power cut at every write of a mixed pass, torn at byte
   granularity, with and without write-behind — through the recovery
   oracle of ``tests/test_rollforward_scan.py``.
3. The cleaner asks before it flushes: with a PREPAREd tag waiting for
   its DECIDE or a sequential-mode ARU open it touches nothing.
"""

import pytest

from repro.disk.faults import FaultInjector, FaultPlan, PowerCut
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import DiskCrashedError
from repro.lld.cleaner import SegmentCleaner
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.usage import SegmentState
from repro.lld.verify import verify_lld

from tests.test_rollforward_scan import recover_twice

CONFIG = LLDConfig(checkpoint_slot_segments=1)
#: Segments `mixed_volume` leaves partly live, and blocks live in each.
PARTLY_LIVE, KEPT = 2, 1


def payload(block_size, tag, index):
    return bytes([tag, index % 251]) * (block_size // 2)


def mixed_volume(config=CONFIG, injector=None):
    """Seven segments' worth of blocks written once, then overwritten
    but for the last KEPT blocks of PARTLY_LIVE of the segments.
    Returns (disk, volume, expected bytes by block, dead segments,
    partly live segments)."""
    disk = SimulatedDisk(DiskGeometry.small(num_segments=48), injector=injector)
    ld = LLD(disk, config=config)
    size = disk.geometry.block_size
    lst = ld.new_list()
    blocks = [
        ld.new_block(lst) for _ in range(7 * disk.geometry.max_data_blocks)
    ]
    expected = {}
    for index, block in enumerate(blocks):
        expected[block] = payload(size, 1, index)
        ld.write(block, expected[block])
    ld.flush()
    by_segment = {}
    for block in blocks:
        segment = ld.bmap.persistent[block].address.segment
        by_segment.setdefault(segment, []).append(block)
    partly = sorted(by_segment)[1 : 1 + PARTLY_LIVE]
    kept = {block for seg in partly for block in by_segment[seg][-KEPT:]}
    for index, block in enumerate(blocks):
        if block not in kept:
            expected[block] = payload(size, 2, index)
            ld.write(block, expected[block])
    ld.flush()
    dead = [seg for seg, live, _seq in ld.usage.dirty_segments() if not live]
    assert len(dead) >= 5
    assert [ld.usage.live_slots(seg) for seg in partly] == [KEPT] * PARTLY_LIVE
    return disk, ld, expected, dead, partly


def checkpoints(ld):
    return ld.stats()["checkpoint"]["writes"]


class TestCounts:
    def test_dead_only_pass_reads_nothing_and_checkpoints_once(self):
        disk, ld, expected, dead, partly = mixed_volume()
        reads, written = disk.stats()["reads"], checkpoints(ld)
        free = ld.usage.free_count
        report = SegmentCleaner(ld).clean(target_free=free + 2)
        assert disk.stats()["reads"] == reads
        assert checkpoints(ld) == written + 1
        assert report.passes == 1 and report.blocks_copied == 0
        assert sorted(report.victims) == dead
        assert report.segments_freed == report.segments_freed_unread == len(dead)
        assert all(ld.usage.state(seg) is SegmentState.DIRTY for seg in partly)
        assert verify_lld(ld) == []

    def test_every_dead_segment_goes_in_one_clean(self):
        """The target asks for one segment; the pass takes all there
        is to take for nothing."""
        config = CONFIG.replace(clean_low_water=2, clean_high_water=3)
        disk, ld, expected, dead, partly = mixed_volume(config)
        assert len(dead) > ld.clean_high_water
        free = ld.usage.free_count
        report = SegmentCleaner(ld).clean(target_free=free + 1)
        assert report.segments_freed_unread == len(dead)
        assert ld.usage.free_count >= free + len(dead)
        assert all(ld.usage.state(seg) is SegmentState.FREE for seg in dead)

    @pytest.mark.parametrize("policy", ["greedy", "cost_benefit"])
    def test_mixed_pass_reads_exactly_the_live_victims(self, policy):
        disk, ld, expected, dead, partly = mixed_volume()
        reads, written = disk.stats()["reads"], checkpoints(ld)
        live = {seg: count for seg, count, _seq in ld.usage.dirty_segments()}
        free = ld.usage.free_count
        report = SegmentCleaner(ld, policy).clean(target_free=free + len(dead) + 1)
        copied_from = [seg for seg in report.victims if live[seg]]
        assert set(partly) <= set(copied_from)
        # No summary is read: each victim's slot table says which block
        # each slot holds, with what CRC.  One read per victim the disk
        # model prices cheaper whole than a positioned read per live
        # slot, as it does the last segment's slots but not the one
        # kept in each partly live one; then one request per live slot
        # of the others.
        whole = report.read_whole
        assert whole == sorted(seg for seg in copied_from if live[seg] > KEPT)
        assert len(whole) == 1
        assert report.summaries_read == 0
        slots = report.blocks_copied - sum(live[seg] for seg in whole)
        assert slots == (len(copied_from) - len(whole)) * KEPT
        assert disk.stats()["reads"] == reads + len(whole) + slots
        geometry = disk.geometry
        assert report.bytes_read == (
            len(whole) * geometry.segment_size + slots * geometry.block_size
        )
        assert checkpoints(ld) == written + 1
        assert report.passes == 1
        assert report.segments_freed == len(dead) + len(copied_from)
        assert report.segments_freed_unread == len(dead)
        assert report.blocks_copied == sum(live[seg] for seg in copied_from)
        for block, data in expected.items():
            assert ld.read(block) == data
        assert verify_lld(ld) == []

    def test_counters_and_event_carry_the_unread_count(self):
        config = CONFIG.replace(clean_high_water=40)
        disk, ld, expected, dead, partly = mixed_volume(config)
        assert ld.usage.free_count < 40
        ld.clean()
        stats = ld.stats()["cleaner"]
        assert stats["segments_freed"] > stats["segments_freed_unread"] == len(dead)
        (event,) = [
            e for e in ld.obs.recorder.events() if e["event"] == "cleaner.pass"
        ]
        assert event["unread"] == len(dead)
        assert event["segments_freed"] == stats["segments_freed"]
        # The last segment's body read whole, and of each partly live
        # one its KEPT slots, each one block, and no summary
        # (test_mixed_pass_reads_exactly_the_live_victims).
        copied_from = stats["segments_freed"] - len(dead)
        geometry = disk.geometry
        assert event["read_whole"] == 1
        assert event["summaries_read"] == stats["summaries_read"] == 0
        assert event["bytes_read"] == geometry.segment_size + (
            (copied_from - 1) * KEPT * geometry.block_size
        )


class TestCrashInsideAMixedPass:
    """The pass writes the segment of copies and the checkpoint (and,
    with write-behind, whatever the queue still held); the power fails
    at each of those writes in turn."""

    def prepared(self, config):
        injector = FaultInjector(plan=FaultPlan())
        disk, ld, expected, dead, _partly = mixed_volume(config, injector)
        # A write the pass's opening flush has to land.
        block = next(iter(expected))
        expected[block] = payload(disk.geometry.block_size, 3, 0)
        ld.write(block, expected[block])
        return injector, disk, ld, expected, dead, block

    def opening_flush_writes(self, config):
        """How many writes the pass's opening flush makes, counted on
        an uncut run: a cut before the last of them leaves the block
        it lands unflushed."""
        injector, _disk, ld, _expected, _dead, _block = self.prepared(config)
        before = injector.writes_seen
        ld.flush()
        return injector.writes_seen - before

    def run_pass(self, config, cut=None):
        injector, disk, ld, expected, dead, block = self.prepared(config)
        before = injector.writes_seen
        if cut is not None:
            after, torn, seed = cut
            injector.crash_plan = PowerCut(
                after_writes=before + after,
                torn=torn,
                seed=seed,
                granularity="byte",
            )
        target = ld.usage.free_count + len(dead) + 1
        try:
            SegmentCleaner(ld).clean(target_free=target)
        except DiskCrashedError:
            pass
        return disk, expected, block, injector.writes_seen - before

    @pytest.mark.parametrize("writeback_depth", [0, 2])
    def test_power_cut_at_every_write(self, writeback_depth):
        config = CONFIG.replace(writeback_depth=writeback_depth)
        _disk, _expected, _block, writes = self.run_pass(config)
        flush_writes = self.opening_flush_writes(config)
        # Opening flush (data, then its chunk), copies, checkpoint.
        assert writes >= flush_writes + 2
        cuts = [(after, False, 0) for after in range(writes + 1)]
        cuts += [
            (after, True, seed) for after in range(writes) for seed in range(6)
        ]
        for cut in cuts:
            disk, expected, unflushed, _writes = self.run_pass(config, cut)
            survivor, _report = recover_twice(disk, config)
            for block, data in expected.items():
                if block == unflushed and cut[0] < flush_writes:
                    continue  # cut before it was ever flushed
                assert survivor.read(block) == data, cut


class TestAsksBeforeFlushing:
    def untouched_by_clean(self, ld):
        free = ld.usage.free_count
        sealed = ld.stats()["segments"]["sealed"]
        writes = ld.disk.stats()["writes"]
        report = SegmentCleaner(ld).clean(target_free=free + 2)
        assert report.victims == [] and report.passes == 0
        assert ld.usage.free_count == free
        assert ld.stats()["segments"]["sealed"] == sealed
        assert ld.disk.stats()["writes"] == writes

    def test_prepared_tag_awaiting_its_decision(self):
        _disk, ld, expected, dead, _partly = mixed_volume()
        block = next(iter(expected))
        aru = ld.begin_aru()
        ld.write(block, b"prepared", aru=aru)
        ld.prepare_commit(aru, xid=7)
        assert ld._buffer.has_unwritten
        self.untouched_by_clean(ld)
        # The decision releases it, and cleaning works again.
        ld.flush()
        ld.finish_prepared(int(aru))
        free = ld.usage.free_count
        report = SegmentCleaner(ld).clean(target_free=free + 2)
        assert report.segments_freed_unread == len(dead)

    def test_open_sequential_aru(self):
        config = CONFIG.replace(aru_mode="sequential")
        _disk, ld, expected, dead, _partly = mixed_volume(config)
        aru = ld.begin_aru()
        ld.write(next(iter(expected)), b"inside", aru=aru)
        assert ld._buffer.has_unwritten
        self.untouched_by_clean(ld)
        ld.end_aru(aru)
        report = SegmentCleaner(ld).clean(target_free=ld.usage.free_count + 2)
        assert report.segments_freed_unread == len(dead)

    def test_parked_commit_group_is_flushed_and_cleaned(self):
        """A commit in the open group is made durable by the cleaner's
        own flush: not a state to back out of."""
        config = CONFIG.replace(group_commit=True)
        _disk, ld, expected, dead, _partly = mixed_volume(config)
        aru = ld.begin_aru()
        ld.write(next(iter(expected)), b"parked", aru=aru)
        ld.end_aru(aru)
        assert ld.stats()["group_commit"]["parked"] == 1
        report = SegmentCleaner(ld).clean(target_free=ld.usage.free_count + 2)
        assert ld.stats()["group_commit"]["parked"] == 0
        assert report.segments_freed_unread == len(dead)
