"""Recovery rolls forward from the checkpoint instead of reading the
tail of every segment on the disk.

What this file pins, against ``reference_recover`` (which still reads
every segment) wherever state is compared:

1. The two write-side rules the walk rests on — ``take_free`` hands
   out the lowest free segment, a checkpoint leaves no segment open —
   and the lost flushed write that the second one prevents.
2. Every way the walk gives way to the full scan, and the clean cases
   in which it must not; the read window the disk model picks.
3. A state machine over write / flush / checkpoint / clean / crash /
   recover: eager, instant and reference recovery agree, recovering
   twice is recovering once, ``verify_lld`` is clean, and segments are
   handed out in the order the next walk will look for them.

``python -m tests.test_rollforward_scan [examples]`` runs the state
machine with more examples than tier-1's minute allows (CI does).
"""

import random
import sys

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.disk.faults import FaultInjector, FaultPlan, MediaFault, PowerCut
from repro.disk.geometry import SECTOR_SIZE, TRAILER_SIZE, DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import DiskCrashedError, UnrecoverableBlockError
from repro.lld.cleaner import SegmentCleaner
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import recover
from repro.lld.recovery_reference import reference_recover
from repro.lld.segment import decode_segment, parse_trailer
from repro.lld.summary import KIND_WRITE
from repro.lld.usage import (
    QUARANTINE_SEQ,
    WALK_BATCH,
    SegmentState,
    SegmentUsage,
)
from repro.lld.verify import verify_lld
from repro.tools.inspect import describe_checkpoints, describe_restore

from tests.oracle import (
    platter_bytes,
    read_plan,
    recoveries_agree,
    state_fingerprint,
)
from tests.test_inplace_flush import FREE_POSITIONING

CONFIG = LLDConfig(checkpoint_slot_segments=2)
RESERVED = 4


def small_disk(num_segments=64, injector=None, model=None):
    geometry = DiskGeometry.small(num_segments=num_segments)
    if model is None:
        return SimulatedDisk(geometry, injector=injector)
    return SimulatedDisk(geometry, injector=injector, model=model)


def recover_twice(disk, config=CONFIG):
    """The recovery oracle, and recovering again is recovering once:
    a second eager recovery rebuilds the same state, reads the disk
    the same way and accounts for the partition.  Returns it."""
    first = recoveries_agree(disk, config)
    again = recover(disk.power_cycle(), config=config)
    assert state_fingerprint(*again) == state_fingerprint(*first)
    assert read_plan(again[1]) == read_plan(first[1])
    accounts_for_the_partition(*again)
    return again


def accounts_for_the_partition(volume, report):
    """scanned + attested + left unread as free + roster-quarantined =
    log segments."""
    roster = volume.checkpoints.load().segments
    retired = sum(seq == QUARANTINE_SEQ for seq, _live, _total in roster.values())
    assert retired == report.segments_quarantined - report.segments_unreadable
    log = range(volume.usage.reserved_count, volume.usage.num_segments)
    unread = [
        seg for seg in log if seg > report.scan_last_segment and seg not in roster
    ]
    assert (
        report.segments_scanned + report.segments_attested + len(unread) + retired
        == len(log)
    )
    if report.scan_plan == "walk":
        assert report.scan_fallback == ""
        assert report.segments_attested == len(roster) - retired
        # Beyond the walk's end: free, and taken on trust.
        assert all(volume.usage.state(seg) is SegmentState.FREE for seg in unread)
    else:
        assert report.scan_fallback
        assert report.segments_attested == 0 and not unread
    stats = volume.stats()["recovery"]
    assert stats["scan_plan"] == report.scan_plan
    assert stats["scan_fallback"] == report.scan_fallback
    assert stats["segments_scanned"] == report.segments_scanned
    assert stats["segments_attested"] == report.segments_attested
    assert stats["segments_invalid"] == report.segments_invalid
    (event,) = [
        e for e in volume.obs.recorder.events() if e["event"] == "recovery.scan"
    ]
    assert event["plan"] == report.scan_plan
    assert event["tails_read"] == report.segments_scanned


def newer_than_checkpoint(disk, volume):
    """Segments on the platter whose trailer is newer than the
    checkpoint ``volume`` was recovered from (sound or not)."""
    size = disk.geometry.segment_size
    since = volume.checkpoints.last_log_seq
    count = 0
    for seg, raw in disk._segments.items():
        parsed = parse_trailer(raw[size - TRAILER_SIZE :])
        if seg >= RESERVED and parsed is not None and parsed[0] > since:
            count += 1
    return count


def within_a_batch_of(scanned, written):
    """The walk's cost: the segments written since the checkpoint,
    rounded up to whole batches, and the batch that ends it."""
    return scanned == (-(-written // WALK_BATCH) + 1) * WALK_BATCH


def fill(ld, blocks, rounds, tag=0, ends=None):
    """``rounds`` segments' worth of writes: a rewrite of a block still
    in the buffer takes no new slot, so each round is flushed (on this
    disk model that closes the segment).  ``ends``, if given, collects
    the disk's write count after each flush."""
    size = ld.geometry.block_size
    for number in range(rounds):
        for block in blocks:
            ld.write(block, bytes([(tag + number) % 251]) * size)
        ld.flush()
        if ends is not None:
            ends.append(ld.disk.injector.writes_seen)


def volume_with_suffix(disk, config=CONFIG, suffix_rounds=5, ends=None):
    """A checkpoint with a few attested segments under it and a flushed
    log suffix of a few segments after it.  ``ends``, if given,
    collects the disk's write count after the checkpoint and after
    each suffix segment."""
    ld = LLD(disk, config=config)
    lst = ld.new_list()
    blocks = [ld.new_block(lst) for _ in range(12)]
    fill(ld, blocks, 4)
    ld.write_checkpoint()
    if ends is not None:
        ends.append(disk.injector.writes_seen)
    fill(ld, blocks, suffix_rounds, tag=100, ends=ends)
    ld.flush()
    return ld, blocks


# ----------------------------------------------------------------------
# 1. The write-side rules
# ----------------------------------------------------------------------


class TestLowestFirst:
    def test_take_free_is_always_the_minimum(self):
        rng = random.Random(19)
        usage = SegmentUsage(48, reserved=4)
        for step in range(2000):
            free = [
                seg for seg in range(4, 48) if usage.state(seg) is SegmentState.FREE
            ]
            assert usage.free_count == len(free)
            taken = [
                seg
                for seg in range(4, 48)
                if usage.state(seg) in (SegmentState.CURRENT, SegmentState.DIRTY)
            ]
            roll = rng.random()
            if roll < 0.45 and free:
                assert usage.take_free() == free[0]
            elif roll < 0.6 and taken:
                seg = rng.choice(taken)
                usage.mark_written(seg, step + 1, 3)
            elif roll < 0.8 and taken:
                usage.free_segment(rng.choice(taken))
            elif roll < 0.85 and free:
                usage.free_segment(rng.choice(free))  # freeing twice is harmless
            elif roll < 0.9 and free:
                usage.quarantine(rng.choice(free))
            elif roll < 0.95:
                seg = rng.randrange(4, 48)
                state = rng.choice([SegmentState.FREE, SegmentState.DIRTY])
                usage.restore(seg, state, step + 1 if state is SegmentState.DIRTY else -1, 0)

    def test_quarantined_free_segment_is_never_handed_out(self):
        usage = SegmentUsage(16, reserved=2)
        usage.quarantine(2)
        usage.quarantine(4)
        assert [usage.take_free() for _ in range(3)] == [3, 5, 6]
        assert usage.free_count == 16 - 2 - 2 - 3

    def test_running_allocator_agrees_with_the_recovered_one(self):
        """The cleaner frees segments in its own order; the next ones
        handed out are still the lowest, before and after a recovery."""
        disk = small_disk(24)
        ld = LLD(disk, config=CONFIG.replace(clean_low_water=4, clean_high_water=12))
        lst = ld.new_list()
        blocks = [ld.new_block(lst) for _ in range(10)]
        while ld.cleanings < 2:
            fill(ld, blocks, 1)
        self.next_three_are_the_lowest(ld, blocks)
        ld.flush()
        survivor, _report = recover_twice(disk, ld.config)
        self.next_three_are_the_lowest(survivor, blocks)

    def next_three_are_the_lowest(self, volume, blocks):
        free = [
            seg
            for seg in range(RESERVED, 24)
            if volume.usage.state(seg) is SegmentState.FREE
        ]
        opened = volume._buffer.segment_no
        taken = []
        while len(taken) < 3:
            fill(volume, blocks, 1)
            now = volume._buffer.segment_no
            if now != opened and now not in taken:
                taken.append(now)
        assert taken == free[:3]


class TestCheckpointLeavesNoSegmentOpen:
    CLEANING = CONFIG.replace(clean_low_water=4, clean_high_water=30)

    def crashed_after_first_cleaner_checkpoint(self, seed):
        """30 hot blocks and 3 cold ones on 64 segments; the first
        cleaner run frees ~26 victims in one pass, having opened a
        buffer for its copies *before* it freed them.  One flushed
        write later, the power fails."""
        rng = random.Random(seed)
        disk = small_disk(64)
        ld = LLD(disk, config=self.CLEANING)
        size = disk.geometry.block_size
        lst = ld.new_list()
        cold = [ld.new_block(lst) for _ in range(3)]
        hot = [ld.new_block(lst) for _ in range(30)]
        fill(ld, cold, 1)
        ld.flush()
        number = 0
        while ld.cleanings == 0:
            ld.write(rng.choice(hot), bytes([number % 251]) * size)
            number += 1
        assert ld.stats()["cleaner"]["passes"] == 1
        assert ld.stats()["checkpoint"]["writes"] == 1
        ld.write(hot[0], b"\xab" * size)
        ld.flush()
        return disk, ld, hot

    @pytest.mark.parametrize("seed", range(10))
    def test_flushed_write_after_a_single_pass_clean_survives(self, seed):
        """Without the rule the open buffer is segment 61, far above
        the freed victims: the walk stops after segments 4-11 and the
        flushed write is lost."""
        disk, ld, hot = self.crashed_after_first_cleaner_checkpoint(seed)
        survivor, report = recover_twice(disk, self.CLEANING)
        assert report.scan_plan == "walk"
        assert report.segments_replayed == 1
        assert survivor.read(hot[0]) == b"\xab" * disk.geometry.block_size

    def test_second_crash_with_no_checkpoint_in_between(self):
        """A recovery writes no checkpoint, so the second walk starts
        from the same roster and must find what both lives wrote."""
        disk, _ld, hot = self.crashed_after_first_cleaner_checkpoint(3)
        survivor, first = recover_twice(disk, self.CLEANING)
        size = disk.geometry.block_size
        checkpoints = survivor.stats()["checkpoint"]["last_seq"]
        for number in range(5 * 15):
            survivor.write(hot[number % 30], bytes([number % 199]) * size)
        survivor.flush()
        assert survivor.stats()["checkpoint"]["last_seq"] == checkpoints
        again, second = recover_twice(survivor.disk, self.CLEANING)
        assert second.scan_plan == "walk"
        assert second.checkpoint_seq == first.checkpoint_seq
        assert second.segments_replayed >= first.segments_replayed + 5
        assert again.read(hot[74 % 30]) == bytes([74 % 199]) * size

    def test_idle_checkpoint_returns_the_segment_and_its_number(self):
        """Two volumes with the same history; one takes a checkpoint
        while its open buffer is empty.  Its next segment is the one
        the other writes, under the same sequence number."""
        trailers = []
        for idle_checkpoint in (False, True):
            disk = small_disk(32)
            ld = LLD(disk, config=CONFIG)
            lst = ld.new_list()
            blocks = [ld.new_block(lst) for _ in range(4)]
            fill(ld, blocks, 1)
            ld.flush()
            assert ld._buffer is not None and ld._buffer.is_empty
            opened, free, next_seq = (
                ld._buffer.segment_no, ld.usage.free_count, ld._next_seq
            )
            if idle_checkpoint:
                ld.write_checkpoint()
                assert ld._buffer is None
                assert ld.usage.state(opened) is SegmentState.FREE
                assert ld.usage.free_count == free + 1
                assert ld._next_seq == next_seq - 1
                assert verify_lld(ld) == []
            fill(ld, blocks, 1, tag=7)
            ld.flush()
            size = disk.geometry.segment_size
            trailers.append(
                (opened, parse_trailer(disk._segments[opened][size - TRAILER_SIZE :]))
            )
        assert trailers[0] == trailers[1]
        assert trailers[0][1] is not None


# ----------------------------------------------------------------------
# 2. The walk and its fallbacks
# ----------------------------------------------------------------------


class TestWalk:
    def test_never_written_disk(self):
        _volume, report = recover_twice(small_disk(64))
        assert read_plan(report) == ("walk", "", WALK_BATCH, 0, RESERVED + 7, 8)

    def test_batch_covers_a_write_behind_drain(self):
        config = CONFIG.replace(writeback_depth=11)
        _volume, report = recover_twice(small_disk(64), config)
        assert report.segments_scanned == 12

    def test_clean_shutdown(self):
        disk = small_disk(64)
        ld, _blocks = volume_with_suffix(disk)
        ld.write_checkpoint()
        dirty = len(list(ld.usage.dirty_segments()))
        _volume, report = recover_twice(disk)
        assert report.scan_plan == "walk"
        assert report.segments_attested == dirty
        assert report.segments_scanned == WALK_BATCH
        assert report.segments_replayed == 0

    def test_log_suffix_after_a_checkpoint(self):
        disk = small_disk(64)
        volume_with_suffix(disk)
        volume, report = recover_twice(disk)
        written = newer_than_checkpoint(disk, volume)
        assert report.scan_plan == "walk"
        assert report.segments_replayed == written >= 3
        assert within_a_batch_of(report.segments_scanned, written)
        assert report.segments_scanned < 60 - report.segments_attested
        preview = describe_restore(disk, 2)
        assert "scan               : walk, " in preview
        assert f"ended after segment {report.scan_last_segment}" in preview
        assert "replay watermark   : 0 of " in preview

    @pytest.mark.parametrize("crash_after", range(5, 12))
    def test_sector_torn_tail(self, crash_after):
        """A torn write of a suffix segment, its data or its chunk,
        leaves the old tail in place — blank or stale — which correctly
        ends the log: no fallback.  ``crash_after - 5`` numbers the
        suffix segment cut (four segments under the checkpoint, then
        the checkpoint, came before it); its writes are found on an
        uncut run."""
        segment = crash_after - 5
        ends = []
        volume_with_suffix(
            small_disk(64, FaultInjector(plan=FaultPlan())),
            suffix_rounds=segment + 1,
            ends=ends,
        )
        assert ends[segment + 1] - ends[segment] == 2  # data, then chunk
        for cut_at in range(ends[segment], ends[segment + 1]):
            cut = PowerCut(after_writes=cut_at, torn=True, seed=crash_after)
            disk = small_disk(64, FaultInjector(plan=FaultPlan(power_cut=cut)))
            with pytest.raises(DiskCrashedError):
                volume_with_suffix(disk, suffix_rounds=30)
            volume, report = recover_twice(disk)
            assert report.scan_plan == "walk" and report.checkpoint_seq == 1
            written = newer_than_checkpoint(disk, volume)
            assert written == segment == report.segments_replayed
            assert within_a_batch_of(report.segments_scanned, written)

    def test_chunk_stack_as_newest_segment(self):
        """Flushes written in place: the newest segment is a stack of
        chunks with no closing one, and its first chunk classifies it."""
        disk = small_disk(32, model=FREE_POSITIONING)
        ld = LLD(disk, config=CONFIG)
        lst = ld.new_list()
        blocks = [ld.new_block(lst) for _ in range(6)]
        fill(ld, blocks, 2)
        ld.write_checkpoint()
        for number in range(4):
            ld.write(blocks[number], b"\x05" * disk.geometry.block_size)
            ld.flush()
        assert ld._buffer.in_place
        assert ld.stats()["segments"]["in_place_writes"] >= 4
        volume, report = recover_twice(disk)
        assert report.scan_plan == "walk"
        assert report.segments_replayed == 1
        assert report.segments_scanned == 2 * WALK_BATCH
        assert volume.read(blocks[3])[0] == 5


class TestFallback:
    def suffix_segments(self, disk, ld):
        since = ld.checkpoints.last_log_seq
        return sorted(
            seg for seg, _live, seq in ld.usage.dirty_segments() if seq > since
        )

    def test_unreadable_walked_tail(self):
        disk = small_disk(64)
        ld, _blocks = volume_with_suffix(disk)
        victim = self.suffix_segments(disk, ld)[1]
        disk.injector.add_media_fault(MediaFault(victim, "unreadable"))
        volume, report = recover_twice(disk)
        assert report.scan_plan == "full"
        assert report.scan_fallback == f"segment {victim} is unreadable"
        assert report.segments_scanned == 60
        assert volume.usage.state(victim) is SegmentState.QUARANTINED
        assert f"scan               : full (segment {victim} is unreadable)" in (
            describe_restore(disk, 2)
        )

    def test_rot_confined_to_a_walked_trailer(self):
        disk = small_disk(64)
        ld, _blocks = volume_with_suffix(disk)
        victim = self.suffix_segments(disk, ld)[1]
        size = disk.geometry.segment_size
        disk.injector.add_media_fault(
            MediaFault(victim, "corrupt", span=(size - TRAILER_SIZE, size))
        )
        _volume, report = recover_twice(disk)
        assert report.scan_plan == "full"
        assert report.scan_fallback == (
            f"segment {victim} ends in neither zeros nor a trailer"
        )

    @pytest.mark.parametrize("in_place", [False, True], ids=["whole", "in_place"])
    def test_rot_in_the_body_of_a_newer_segment(self, in_place):
        """Rot in the data of a segment written since the checkpoint —
        of a whole image, or of the second chunk of a stack written in
        place.  The summary CRCs hold, so the walk takes the segment
        and neither mode reads its data.  The first read of the rotten
        slot fails its CRC; the block has no older copy and is lost,
        while the segment's sound slots read as written.  The scrub
        the failed read asks for salvages those from the cache and
        quarantines the segment, the same in both modes."""
        disk = small_disk(64, model=FREE_POSITIONING if in_place else None)
        ld, blocks = volume_with_suffix(disk)
        ld.write_checkpoint()  # the victim is the one segment after it
        size = disk.geometry.block_size
        lst = ld.new_list()
        sole = []
        for fill in (201, 202):
            sole.append(ld.new_block(lst))
            for block in (sole[-1], blocks[0]):
                ld.write(block, bytes([fill]) * size)
            if in_place:
                ld.flush()
        ld.flush()
        victim, slot = ld.bmap.persistent[sole[1]].address
        if in_place:
            stack = decode_segment(disk.read_segment(victim), disk.geometry, victim)
            assert stack.chunk_count == 2 and slot == 2
        disk.injector.add_media_fault(
            MediaFault(victim, "corrupt", span=(slot * size, slot * size + 64))
        )
        crashed = disk.power_cycle()
        eager, report = recover(crashed.snapshot(), config=CONFIG)
        instant, drained = recover(crashed.snapshot(), mode="instant", config=CONFIG)
        assert report.scan_plan == "walk"
        for volume in (eager, instant):
            assert volume.usage.state(victim) is SegmentState.DIRTY
            assert volume.read(sole[0]) == bytes([201]) * size
            assert volume.read(blocks[0]) == bytes([202]) * size
            with pytest.raises(UnrecoverableBlockError):
                volume.read(sole[1])
            assert volume._scrub_pending == {victim}
            volume.scrub()
            assert volume.usage.state(victim) is SegmentState.QUARANTINED
            scrub = volume.stats()["scrub"]
            assert (scrub["blocks_lost"], scrub["blocks_salvaged"]) == (1, 2)
            assert verify_lld(volume) == []
        assert state_fingerprint(eager, report) == state_fingerprint(instant, drained)
        assert eager.stats()["scrub"] == instant.stats()["scrub"]
        again, again_report = recover_twice(eager.disk)
        assert again.usage.state(victim) is SegmentState.QUARANTINED
        assert again_report.segments_quarantined == 1
        assert again.read(sole[0]) == bytes([201]) * size
        assert again.read(blocks[0]) == bytes([202]) * size
        with pytest.raises(UnrecoverableBlockError):
            again.read(sole[1])

    def test_every_cut_inside_the_last_trailer_of_the_log(self):
        """A byte-granular tear — which no real disk produces — inside
        the trailer that ends the log, over a never-written tail: bytes
        that are no trailer, a trailer numbered 0, or one whose
        checksum fails.  A cut at either end of it is a clean tear."""
        disk = small_disk(64)
        ld, blocks = volume_with_suffix(disk)
        before = platter_bytes(disk)
        fill(ld, blocks, 1, tag=50)
        ld.flush()
        now = platter_bytes(disk)
        (seg,) = [s for s in now if now[s] != before.get(s)]
        assert seg not in before
        after = now[seg]
        end = len(after)
        for cut in range(end - TRAILER_SIZE, end + 1):
            disk._segments[seg] = after[:cut] + bytes(end - cut)
            _volume, report = recover_twice(disk)
            clean = cut in (end - TRAILER_SIZE, end)
            assert report.scan_plan == ("walk" if clean else "full"), cut
            if not clean:
                assert report.scan_fallback.startswith(f"segment {seg} "), cut

    def newest_checkpoint_is_the_second(self):
        """Checkpoint 2 supersedes 1 after the cleaner freed and the
        log rewrote segments checkpoint 1 attests."""
        disk = small_disk(24)
        ld = LLD(disk, config=CONFIG.replace(clean_low_water=4, clean_high_water=12))
        lst = ld.new_list()
        blocks = [ld.new_block(lst) for _ in range(10)]
        fill(ld, blocks, 6)
        ld.write_checkpoint()
        old_roster = ld.checkpoints.load().segments
        while ld.cleanings == 0:
            fill(ld, blocks, 1, tag=30)
        fill(ld, blocks, 8, tag=60)
        ld.flush()
        assert ld.stats()["checkpoint"]["last_seq"] == 2
        rewritten = [
            seg
            for seg, (seq, _live, _total) in old_roster.items()
            if ld.usage.seq_of(seg) > seq
        ]
        assert rewritten, "no attested segment was reused"
        return disk, ld

    def test_rotted_newest_checkpoint_slot(self):
        disk, ld = self.newest_checkpoint_is_the_second()
        # Rot the newest record's header: a delta after checkpoint 1's
        # base, or a base in the other slot.
        manager = ld.checkpoints
        slot = manager.slot
        chain = manager.read_slot(slot)
        segment, start = divmod(
            chain.end - chain.records[-1].nbytes, disk.geometry.segment_size
        )
        disk.injector.add_media_fault(
            MediaFault(
                manager.slot_segment(slot) + segment,
                "corrupt",
                span=(start, start + 16),
            )
        )
        _volume, report = recover_twice(disk, ld.config)
        assert report.checkpoint_seq == 1
        assert report.scan_plan == "full"
        assert report.scan_fallback == f"checkpoint slot {slot} is damaged"
        assert f"slot {slot}: damaged" in describe_checkpoints(
            disk.power_cycle(), 2
        )

    def test_torn_newest_checkpoint_slot(self):
        disk = small_disk(64)
        ld, _blocks = volume_with_suffix(disk)
        injector = disk.injector
        injector.crash_plan = PowerCut(after_writes=injector.writes_seen, torn=True)
        injector._tear_point = lambda nbytes: SECTOR_SIZE
        with pytest.raises(DiskCrashedError):
            ld.write_checkpoint()
        _volume, report = recover_twice(disk)
        assert report.checkpoint_seq == 1
        assert report.scan_plan == "full"
        assert report.scan_fallback == "checkpoint slot 0 is damaged"
        text = describe_checkpoints(disk.power_cycle(), 2)
        assert "slot 0: damaged" in text and "slot 1: ckpt_seq=1" in text

    def test_dropped_checkpoint_write_is_no_damage(self):
        disk = small_disk(64)
        ld, _blocks = volume_with_suffix(disk)
        injector = disk.injector
        injector.crash_plan = PowerCut(after_writes=injector.writes_seen)
        with pytest.raises(DiskCrashedError):
            ld.write_checkpoint()
        _volume, report = recover_twice(disk)
        assert report.scan_plan == "walk"
        assert "slot 0: never written" in describe_checkpoints(
            disk.power_cycle(), 2
        )

    def test_segment_quarantined_in_memory_only(self):
        """The previous recovery retired an unreadable segment and no
        checkpoint has recorded that yet: the gap it leaves in the
        allocation order is found the same way, by reading it."""
        disk = small_disk(64)
        ld, blocks = volume_with_suffix(disk)
        victim = self.suffix_segments(disk, ld)[1]
        disk.injector.add_media_fault(MediaFault(victim, "unreadable"))
        survivor, first = recover_twice(disk)
        assert first.scan_plan == "full"
        assert victim not in survivor.checkpoints.load().segments
        fill(survivor, blocks, 5, tag=200)
        survivor.flush()
        assert survivor.stats()["checkpoint"]["last_seq"] == first.checkpoint_seq
        again, second = recover_twice(survivor.disk)
        assert second.scan_plan == "full"
        assert second.scan_fallback == f"segment {victim} is unreadable"
        assert second.segments_replayed > first.segments_replayed
        assert again.read(blocks[0])[0] == 204


class TestReadWindows:
    """The disk model picks each scan read's window, the same in both
    modes: 128 KB segments on the default disk are read by a one-block
    tail, 16 KB segments stream in less than a seek and are read whole.
    No recovery reads a data slot: the first read that fetches a
    pending slot checks it against its WRITE entry's CRC."""

    SUFFIX = 24
    #: (segment KB, block size) of every geometry the modes are held
    #: to one read plan on: streamed whole, the default small disk, an
    #: in-place one, the ledger's and the TTFR bench's.
    GEOMETRIES = [(16, 1024), (64, 4096), (128, 4096), (512, 4096), (2048, 16384)]

    def long_log(self, segment_kb=128, block_size=4096):
        """A checkpoint, then ``SUFFIX`` segments that write each block
        once; the first 40 blocks have an older copy under the
        checkpoint.  Returns the disk, the volume and the blocks."""
        geometry = DiskGeometry(
            block_size=block_size,
            segment_size=segment_kb * 1024,
            num_segments=self.SUFFIX + 24,
        )
        disk = SimulatedDisk(geometry)
        ld = LLD(disk, config=CONFIG)
        lst = ld.new_list()
        slots = geometry.segment_size // block_size
        blocks = [ld.new_block(lst) for _ in range(self.SUFFIX * (slots - 1))]
        fill(ld, blocks[:40], 1)
        ld.write_checkpoint()
        for number, block in enumerate(blocks):
            ld.write(block, bytes([number % 251]) * block_size)
        ld.flush()
        return disk, ld, blocks

    def pending(self, ld):
        since = ld.checkpoints.last_log_seq
        return sorted(
            (seq, seg) for seg, _live, seq in ld.usage.dirty_segments() if seq > since
        )

    def recover_both(self, disk):
        """Eager and instant recovery of one platter, each with the
        bytes it read; the oracle holds for both, and neither writes."""
        recoveries_agree(disk, CONFIG)
        out = []
        for mode in ("eager", "instant"):
            crashed = disk.power_cycle()
            volume, report = recover(crashed, mode=mode, config=CONFIG)
            assert crashed.stats()["bytes_written"] == 0
            out.append((volume, report, crashed.stats()["bytes_read"]))
        return out

    @staticmethod
    def checkpoint_bytes(disk):
        """Bytes loading the newest checkpoint of ``disk`` reads."""
        crashed = disk.power_cycle()
        LLD(crashed, config=CONFIG, _defer_init=True).checkpoints.load()
        return crashed.stats()["bytes_read"]

    def test_eager_reads_each_segment_about_once(self):
        """Once, by its tail: an eager recovery reads the checkpoint
        and one block per segment it scans, nothing else, exactly as
        an instant restore does."""
        disk, ld, _blocks = self.long_log()
        pending = self.pending(ld)
        (eager, report, read), (_instant, tails, tails_read) = self.recover_both(disk)
        assert report.scan_plan == "walk"
        assert report.segments_replayed == len(pending) >= self.SUFFIX
        assert report.segments_read_whole == tails.segments_read_whole == 0
        block = disk.geometry.block_size
        assert read == tails_read
        assert read == self.checkpoint_bytes(disk) + report.segments_scanned * block
        (scan,) = [
            e for e in eager.obs.recorder.events() if e["event"] == "recovery.scan"
        ]
        assert scan["segments_read_whole"] == 0
        assert sorted(report.phase_us) == [
            "checkpoint", "decode", "install", "replay", "scan"
        ]
        assert sum(report.phase_us.values()) == pytest.approx(report.recovery_time_us)

    def test_two_rotten_slots_of_one_segment(self):
        """Rot in two non-adjacent slots of one pending segment, given
        as two media faults: each is caught at its first read, and
        the older copy is served, never the rot."""
        disk, ld, blocks = self.long_log()
        block_size = disk.geometry.block_size
        rotten = [ld.bmap.persistent[blocks[n]].address for n in (36, 39)]
        victim = rotten[0].segment
        assert rotten[1] == (victim, rotten[0].slot + 3)
        for address in rotten:
            start = address.slot * block_size
            disk.injector.add_media_fault(
                MediaFault(victim, "corrupt", span=(start, start + 64))
            )
        volume, _report = recover(disk.power_cycle(), config=CONFIG)
        assert victim in volume._read_stream.unchecked
        for number in (36, 39):
            assert volume.read(blocks[number]) == bytes([0]) * block_size
        for address in rotten:
            assert address not in volume.cache
        assert volume.read(blocks[37]) == bytes([37]) * block_size
        assert volume._scrub_pending == {victim}

    @pytest.mark.parametrize(
        "segment_kb, block_size", [(128, 4096), (16, 1024)], ids=["tail", "whole"]
    )
    def test_rot_in_a_data_slot(self, segment_kb, block_size):
        """Rot in two data slots of a pending segment the scan read by
        its tail, or whole: one block with an older copy under the
        checkpoint, one without.  No recovery reads either slot, so
        eager and instant agree and nothing is quarantined.  Then, in
        either mode — instant before and after its restore drains —
        each rotten slot fails its CRC at its first read, alone, in a
        batch or in a readahead window: the older copy is served or the
        read raises, the rot is never cached, and the segment waits for
        the scrubber, which retires it."""
        disk, ld, blocks = self.long_log(segment_kb, block_size)
        stale, lost = blocks[39], blocks[40]
        victim = ld.bmap.persistent[stale].address.segment
        assert victim in [seg for _seq, seg in self.pending(ld)]
        rotten = [ld.bmap.persistent[block].address for block in (stale, lost)]
        assert rotten[1] == (victim, rotten[0].slot + 1)
        start = rotten[0].slot * block_size
        disk.injector.add_media_fault(
            MediaFault(victim, "corrupt", span=(start, start + block_size + 64))
        )
        crashed = disk.power_cycle()
        eager, report = recover(crashed.snapshot(), config=CONFIG)
        instant, drained = recover(crashed.snapshot(), mode="instant", config=CONFIG)
        instant.complete_restore()
        assert state_fingerprint(eager, report) == state_fingerprint(instant, drained)
        older = bytes([0]) * block_size
        neighbours = blocks[37:39] + blocks[41:43]

        def opened(mode, drained):
            volume, _report = recover(crashed.snapshot(), mode=mode, config=CONFIG)
            if drained:
                volume.complete_restore()
            assert volume.usage.state(victim) is SegmentState.DIRTY
            assert victim in volume._read_stream.unchecked
            return volume

        def never_cached(volume):
            for address in rotten:
                assert address not in volume.cache

        for mode, drained in (("eager", True), ("instant", False), ("instant", True)):
            # Alone.
            volume = opened(mode, drained)
            assert volume.read(stale) == older
            with pytest.raises(UnrecoverableBlockError):
                volume.read(lost)
            never_cached(volume)
            assert volume._scrub_pending == {victim}
            # In a batch, with sound slots of the same segment.
            volume = opened(mode, drained)
            assert volume.read_many([stale, blocks[41]]) == [
                older, bytes([41]) * block_size
            ]
            with pytest.raises(UnrecoverableBlockError):
                volume.read_many([lost, blocks[42]])
            never_cached(volume)
            # In the readahead window two adjacent misses open.
            volume = opened(mode, drained)
            for number, block in zip((37, 38), blocks[37:39]):
                assert volume.read(block) == bytes([number]) * block_size
            assert volume.stats()["read_stream"]["windows"] == 1
            never_cached(volume)
            assert ld.bmap.persistent[blocks[41]].address in volume.cache
            assert volume.read(stale) == older
            for number, block in zip((37, 38, 41, 42), neighbours):
                assert volume.read(block) == bytes([number]) * block_size
            # The scrubber retires the segment, salvaging the cached.
            volume.scrub()
            assert volume.usage.state(victim) is SegmentState.QUARANTINED
            assert victim not in volume._read_stream.unchecked
            assert volume.read(stale) == older
            with pytest.raises(UnrecoverableBlockError):
                volume.read(lost)
            assert verify_lld(volume) == []

    def test_full_plan_reads_tails_only(self):
        disk, ld, _blocks = self.long_log()
        injector = disk.injector
        injector.crash_plan = PowerCut(after_writes=injector.writes_seen, torn=True)
        injector._tear_point = lambda nbytes: SECTOR_SIZE
        with pytest.raises(DiskCrashedError):
            ld.write_checkpoint()
        (_eager, report, read), (_instant, _tails, tails_read) = self.recover_both(
            disk
        )
        assert report.scan_plan == "full"
        assert report.scan_fallback == "checkpoint slot 0 is damaged"
        assert report.segments_read_whole == 0
        assert report.segments_replayed >= self.SUFFIX
        assert read == tails_read

    #: Simulated µs to the first request of the instant restore below
    #: when every scan read was a one-block tail.
    TAIL_TTFR_US = 311_951.3

    def test_small_segments_stream_in_both_modes(self):
        disk, _ld, _blocks = self.long_log(segment_kb=16, block_size=1024)
        (_eager, eager, read), (_instant, instant, tails_read) = self.recover_both(
            disk
        )
        for report in (eager, instant):
            assert report.segments_read_whole == report.segments_scanned
        assert read == tails_read
        assert read_plan(eager) == read_plan(instant)
        assert instant.ttfr_us < self.TAIL_TTFR_US

    @pytest.mark.parametrize(
        "segment_kb, block_size", GEOMETRIES, ids=[f"{kb}KB" for kb, _b in GEOMETRIES]
    )
    def test_modes_read_alike_on_every_geometry(self, segment_kb, block_size):
        disk, _ld, _blocks = self.long_log(segment_kb, block_size)
        (_eager, eager, read), (_instant, instant, tails_read) = self.recover_both(
            disk
        )
        assert read_plan(eager) == read_plan(instant)
        assert eager.segments_read_whole == instant.segments_read_whole
        assert read == tails_read


class TestSlotCrcs:
    """The pending slots the read stream checks: every slot of each
    segment a recovery trusted on its summary CRC alone, against the
    slot table recovery seeded from its WRITE entries, until the
    cleaner frees the segment or a scrub checks it."""

    def recovered(self, mode):
        disk = small_disk(64)
        ld, blocks = volume_with_suffix(disk)
        since = ld.checkpoints.last_log_seq
        pending = sorted(
            (seq, seg) for seg, _live, seq in ld.usage.dirty_segments() if seq > since
        )
        volume, report = recover(disk.power_cycle(), mode=mode, config=CONFIG)
        crcs = volume._read_stream.unchecked
        assert sorted(crcs) == sorted(seg for _seq, seg in pending)
        return volume, blocks, [seg for _seq, seg in pending], crcs

    @pytest.mark.parametrize("mode", ["eager", "instant"])
    def test_the_map_holds_the_write_entries_of_the_pending_segments(self, mode):
        volume, _blocks, pending, crcs = self.recovered(mode)
        disk = volume.disk
        for seg in pending:
            decoded = decode_segment(disk.read_segment(seg), disk.geometry, seg)
            blocks, slot_crcs = volume.usage.slot_table(seg)
            assert dict(enumerate(zip(blocks, slot_crcs))) == {
                fields[4]: (fields[3], fields[5])
                for fields in decoded.entry_tuples
                if fields[0] == KIND_WRITE
            }

    def test_a_scrubbed_segment_leaves_the_map(self):
        volume, _blocks, pending, crcs = self.recovered("instant")
        volume.scrub([pending[0]])
        assert pending[0] not in crcs
        assert volume.usage.state(pending[0]) is SegmentState.DIRTY
        assert sorted(crcs) == pending[1:]
        volume.scrub()
        assert crcs == set()

    def test_a_cleaned_segment_leaves_the_map(self):
        volume, blocks, pending, crcs = self.recovered("eager")
        fill(volume, blocks, 2, tag=150)
        report = SegmentCleaner(volume).clean(
            target_free=volume.usage.free_count + 3
        )
        freed = set(pending) & set(report.victims)
        assert freed
        assert not freed & set(crcs)
        for seg in freed:
            assert volume.usage.state(seg) is not SegmentState.DIRTY


# ----------------------------------------------------------------------
# 3. The state machine
# ----------------------------------------------------------------------


class RollForwardMachine(RuleBasedStateMachine):
    """write / flush / checkpoint / clean / crash / recover on a log
    small enough to wrap.  A crash is an armed power cut (dropped or
    sector-torn) that some later write trips over, or the plug pulled
    between operations."""

    BLOCKS = 12

    @initialize(depth=st.sampled_from([0, 4]))
    def format(self, depth):
        self.config = CONFIG.replace(
            writeback_depth=depth, clean_low_water=4, clean_high_water=10
        )
        self.disk = small_disk(24)
        self.ld = LLD(self.disk, config=self.config)
        lst = self.ld.new_list()
        self.blocks = [self.ld.new_block(lst) for _ in range(self.BLOCKS)]
        self.ld.flush()
        #: block -> value it held at the last durability point, and
        #: every value written since.
        self.durable = {}
        self.since = {}
        self.recoveries = 0

    def attempt(self, operation):
        try:
            operation()
        except DiskCrashedError:
            self.recover()

    def put(self, index, value):
        block = self.blocks[index]
        self.ld.write(block, bytes([value]) * self.ld.geometry.block_size)
        self.since.setdefault(block, []).append(value)

    def settle(self):
        self.ld.flush()
        for block, values in self.since.items():
            self.durable[block] = values[-1]
        self.since = {}

    @rule(index=st.integers(0, BLOCKS - 1), value=st.integers(1, 250))
    def write(self, index, value):
        self.attempt(lambda: self.put(index, value))

    @rule(value=st.integers(1, 250), segments=st.integers(1, 4))
    def burst(self, value, segments):
        def many():
            for _ in range(segments):
                for index in range(self.BLOCKS):
                    self.put(index, value)
                self.settle()

        self.attempt(many)

    @rule()
    def flush(self):
        self.attempt(self.settle)

    @rule()
    def checkpoint(self):
        def flush_and_checkpoint():
            self.settle()
            self.ld.write_checkpoint()

        self.attempt(flush_and_checkpoint)

    @rule(extra=st.integers(1, 6))
    def clean(self, extra):
        target = self.ld.usage.free_count + extra
        self.attempt(lambda: SegmentCleaner(self.ld).clean(target))

    @precondition(lambda self: self.disk.injector.crash_plan is None)
    @rule(after=st.integers(0, 5), torn=st.booleans(), seed=st.integers(0, 99))
    def arm_power_cut(self, after, torn, seed):
        injector = self.disk.injector
        injector.crash_plan = PowerCut(
            after_writes=injector.writes_seen + after, torn=torn, seed=seed
        )
        injector._rng = random.Random(seed)

    @rule()
    def pull_the_plug(self):
        self.recover()

    def recover(self):
        self.ld, report = recover_twice(self.disk, self.config)
        self.disk = self.ld.disk
        self.recoveries += 1
        size = self.ld.geometry.block_size
        for block in self.blocks:
            value = self.ld.read(block)[0]
            allowed = [self.durable.get(block, 0)] + self.since.get(block, [])
            assert value in allowed, (int(block), value, allowed)
            assert self.ld.read(block) == bytes([value]) * size
            self.durable[block] = value
        self.since = {}

    @invariant()
    def sound_and_in_allocation_order(self):
        assert verify_lld(self.ld) == []
        # The strict form of verify_lld's rule, which holds as long as
        # no recovery found damage in the middle of the log: nothing
        # free lies below a segment written since the checkpoint.
        usage = self.ld.usage
        since = self.ld.checkpoints.last_log_seq
        states = {seg: usage.state(seg) for seg in range(RESERVED, 24)}
        free = [s for s, state in states.items() if state is SegmentState.FREE]
        newer = [
            s
            for s, state in states.items()
            if state is SegmentState.CURRENT or usage.seq_of(s) > since
        ]
        assert not free or not newer or max(newer) < free[0], (free, newer)

    def teardown(self):
        if hasattr(self, "ld"):
            self.recover()


MACHINE_SETTINGS = settings(
    max_examples=12,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestRollForwardMachine(RollForwardMachine.TestCase):
    settings = MACHINE_SETTINGS


if __name__ == "__main__":
    examples = int(sys.argv[1]) if len(sys.argv) > 1 else 400
    run_state_machine_as_test(
        RollForwardMachine,
        settings=settings(MACHINE_SETTINGS, max_examples=examples),
    )
    print(f"roll-forward state machine: {examples} examples ok")
