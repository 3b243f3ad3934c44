"""Scrub & repair: media-fault salvage, quarantine, degraded reads.

The acceptance torture test exercises the whole subsystem end to end:
salvageable blocks must read back byte-identical after a scrub,
quarantined segments must never be reused by the allocator or the
cleaner, the repaired disk must pass :func:`verify_lld` and recover
cleanly, and foreground reads must raise the precise
:class:`UnrecoverableBlockError` only for genuinely lost blocks.
"""

import random

import pytest

from repro.disk.faults import FaultInjector, MediaFault
from repro.disk.geometry import TRAILER_SIZE, DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import MediaError, UnrecoverableBlockError
from repro.lld.cleaner import SegmentCleaner
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import recover
from repro.lld.scrub import find_log_copy
from repro.lld.usage import QUARANTINE_SEQ, SegmentState
from repro.lld.verify import verify_lld

from tests.oracle import platter_bytes


def make(num_segments=64, **kwargs):
    geo = DiskGeometry.small(num_segments=num_segments)
    disk = SimulatedDisk(geo)
    kwargs.setdefault("checkpoint_slot_segments", 2)
    return disk, LLD(disk, config=LLDConfig(**kwargs))


def fill(lld, count, seed=0):
    """Allocate ``count`` blocks and write each one; returns
    (blocks, expected-bytes-by-block-id)."""
    rng = random.Random(seed)
    lst = lld.new_list()
    blocks = [lld.new_block(lst) for _ in range(count)]
    expected = {}
    for block in blocks:
        data = bytes([rng.randrange(256)]) * lld.geometry.block_size
        lld.write(block, data)
        expected[int(block)] = data
    lld.flush()
    return blocks, expected


def segment_of(lld, block):
    return lld.bmap.persistent[block].address.segment


class TestScrubClean:
    def test_scrub_of_healthy_log_finds_nothing(self):
        _disk, lld = make()
        fill(lld, 30)
        report = lld.scrub()
        assert report.segments_checked > 0
        assert report.segments_damaged == 0
        assert report.segments_quarantined == 0
        assert lld.usage.quarantined_segments() == []

    def test_scrub_counts_in_stats(self):
        _disk, lld = make()
        fill(lld, 10)
        lld.scrub()
        stats = lld.stats()["scrub"]
        assert stats["scrubs"] == 1
        assert stats["quarantined_segments"] == 0

    def test_scrub_charges_simulated_time(self):
        _disk, lld = make()
        fill(lld, 10)
        before = lld.clock.now_us
        lld.scrub()
        assert lld.clock.now_us > before


class TestSalvage:
    def test_corrupt_segment_salvaged_from_cache(self):
        disk, lld = make()
        blocks, expected = fill(lld, 30)
        lld.read_many(blocks)  # warm the cache
        victim = segment_of(lld, blocks[0])
        disk.injector.add_media_fault(MediaFault(victim, "corrupt"))
        report = lld.scrub()
        assert victim in report.damaged
        assert report.damaged[victim] == "corrupt"
        assert report.blocks_salvaged > 0
        assert report.blocks_lost == 0
        for block in blocks:
            assert lld.read(block) == expected[int(block)]

    def test_salvage_from_cache_counts_no_hits(self):
        """The scrubber looks in the cache without a lookup's side
        effects: no hit is counted and nothing is promoted."""
        disk, lld = make()
        blocks, _expected = fill(lld, 30)
        lld.read_many(blocks)
        victim = segment_of(lld, blocks[0])
        disk.injector.add_media_fault(MediaFault(victim, "corrupt"))
        before = lld.stats()
        report = lld.scrub()
        assert report.blocks_salvaged > 0
        after = lld.stats()
        assert after["cache_hits"] == before["cache_hits"]
        assert after["cache_misses"] == before["cache_misses"]

    def test_unreadable_segment_classified(self):
        disk, lld = make()
        blocks, _ = fill(lld, 30)
        lld.read_many(blocks)
        victim = segment_of(lld, blocks[0])
        disk.injector.add_media_fault(MediaFault(victim, "unreadable"))
        report = lld.scrub()
        assert report.damaged[victim] == "unreadable"
        assert report.blocks_lost == 0

    def test_stale_salvage_from_older_log_copy(self):
        disk, lld = make()
        blocks, _ = fill(lld, 30, seed=1)
        old = {int(b): lld.read(b) for b in blocks}
        # Overwrite everything: the first-round segments now hold only
        # stale copies.
        for block in blocks:
            lld.write(block, b"\x77" * lld.geometry.block_size)
        lld.flush()
        lld.cache.invalidate_all()
        victim = segment_of(lld, blocks[0])
        disk.injector.add_media_fault(MediaFault(victim, "unreadable"))
        report = lld.scrub()
        assert report.blocks_salvaged_stale > 0
        # The stale survivors read back as their previous contents.
        for block in blocks:
            if segment_of(lld, block) != victim:
                data = lld.read(block)
                assert data in (b"\x77" * len(data), old[int(block)])

    def test_lost_block_raises_precise_error(self):
        disk, lld = make()
        blocks, _ = fill(lld, 30)
        lld.cache.invalidate_all()
        victim = segment_of(lld, blocks[0])
        disk.injector.add_media_fault(MediaFault(victim, "unreadable"))
        report = lld.scrub()
        assert report.blocks_lost > 0
        lost = set(report.lost_blocks)
        for block in blocks:
            if int(block) in lost:
                with pytest.raises(UnrecoverableBlockError) as exc:
                    lld.read(block)
                assert exc.value.block_id == int(block)
                assert exc.value.segment == victim
            else:
                lld.read(block)  # must not raise

    def test_uncommitted_log_copies_never_salvaged(self):
        """Salvage must not resurrect data from an ARU that never
        committed."""
        disk, lld = make()
        blocks, expected = fill(lld, 5, seed=2)
        aru = lld.begin_aru()
        lld.write(blocks[0], b"\xEE" * lld.geometry.block_size, aru=aru)
        lld.abort_aru(aru)
        found = find_log_copy(lld, blocks[0], exclude=set())
        assert found is not None
        assert found[0] == expected[int(blocks[0])]


class TestQuarantine:
    def test_usage_quarantine_state(self):
        _disk, lld = make()
        blocks, _ = fill(lld, 10)
        seg = segment_of(lld, blocks[0])
        lld.usage.quarantine(seg)
        assert lld.usage.state(seg) is SegmentState.QUARANTINED
        assert lld.usage.quarantined_segments() == [seg]
        with pytest.raises(ValueError):
            lld.usage.free_segment(seg)

    def test_quarantine_reserved_rejected(self):
        _disk, lld = make()
        with pytest.raises(ValueError):
            lld.usage.quarantine(0)  # checkpoint region

    def test_quarantined_never_reallocated(self):
        """Overwrite pressure cannot hand a quarantined segment back
        to the allocator."""
        disk, lld = make(num_segments=24)
        blocks, _ = fill(lld, 30)
        lld.read_many(blocks)
        victim = segment_of(lld, blocks[0])
        disk.injector.add_media_fault(MediaFault(victim, "corrupt"))
        lld.scrub()
        platter_before = platter_bytes(disk).get(victim)
        for _round in range(8):
            for block in blocks:
                lld.write(block, bytes([_round]) * lld.geometry.block_size)
            lld.flush()
        assert lld.usage.state(victim) is SegmentState.QUARANTINED
        # The platter bytes of the quarantined segment were never
        # rewritten by the log.
        assert platter_bytes(disk).get(victim) == platter_before
        for block in blocks:
            assert segment_of(lld, block) != victim

    def test_cleaner_skips_quarantined(self):
        disk, lld = make(num_segments=24)
        blocks, _ = fill(lld, 30)
        lld.read_many(blocks)
        victim = segment_of(lld, blocks[0])
        disk.injector.add_media_fault(MediaFault(victim, "corrupt"))
        lld.scrub()
        from repro.lld.cleaner import SegmentCleaner

        cleaner = SegmentCleaner(lld)
        report = cleaner.clean(target_free=lld.usage.free_count + 2)
        assert victim not in report.victims
        assert lld.usage.state(victim) is SegmentState.QUARANTINED


class TestDegradedReads:
    def test_foreground_read_salvages_and_marks_pending(self):
        disk, lld = make()
        blocks, expected = fill(lld, 30)
        lld.read_many(blocks)  # cache holds every block
        victim = segment_of(lld, blocks[0])
        disk.injector.add_media_fault(MediaFault(victim, "unreadable"))
        on_victim = [b for b in blocks if segment_of(lld, b) == victim]
        lld.cache.invalidate_segment(victim)
        # First read must fall back to an older copy or raise; with no
        # older copies and a cold cache these blocks are unrecoverable.
        for block in on_victim:
            with pytest.raises(UnrecoverableBlockError):
                lld.read(block)
        assert victim in lld._scrub_pending
        stats = lld.stats()["scrub"]
        assert stats["degraded_reads"] >= len(on_victim)
        assert stats["unrecoverable_reads"] == len(on_victim)

    def test_foreground_read_salvages_from_old_copy(self):
        disk, lld = make()
        blocks, _ = fill(lld, 30, seed=3)
        old = {int(b): lld.read(b) for b in blocks}
        for block in blocks:
            lld.write(block, b"\x55" * lld.geometry.block_size)
        lld.flush()
        lld.cache.invalidate_all()
        victim = segment_of(lld, blocks[0])
        disk.injector.add_media_fault(MediaFault(victim, "unreadable"))
        on_victim = [b for b in blocks if segment_of(lld, b) == victim]
        assert on_victim
        for block in on_victim:
            data = lld.read(block)  # salvaged, possibly stale
            assert data in (b"\x55" * len(data), old[int(block)])
        assert lld.stats()["scrub"]["salvaged_reads"] >= len(on_victim)

    def test_log_copy_costs_summaries_and_one_slot(self):
        """A degraded read reads each newer candidate's summary stack
        from a tail window, and of the segment holding the copy only
        its slot.  Reading every candidate whole cost 9 reads, 589,824
        bytes and 427,570 simulated µs here."""
        disk, lld = make()
        size = lld.geometry.block_size
        lst = lld.new_list()
        target = lld.new_block(lst)
        for stamp in (1, 2):
            lld.write(target, bytes([stamp]) * size)
            lld.flush()
        newest = segment_of(lld, target)
        for index in range(8 * lld.geometry.max_data_blocks):
            lld.write(lld.new_block(lst), bytes([index % 251]) * size)
        lld.flush()
        lld.cache.invalidate_all()
        disk.injector.add_media_fault(MediaFault(newest, "unreadable"))
        reads, moved = disk.stats()["reads"], disk.timer.bytes_transferred
        now = disk.clock.now_us
        assert lld.read(target) == b"\x01" * size  # the older copy
        # Nine one-block tail windows, then the copy's slot.
        assert disk.stats()["reads"] - reads == 10
        assert disk.timer.bytes_transferred - moved == 10 * size
        assert disk.clock.now_us - now < 200_000
        assert lld._scrub_pending == {newest}

    def test_log_copy_skips_a_rotten_slot(self):
        """A copy whose slot fails its CRC is not served; its segment
        goes to the scrubber and an older copy is found."""
        disk, lld = make()
        size = lld.geometry.block_size
        lst = lld.new_list()
        target = lld.new_block(lst)
        segments = []
        for stamp in (1, 2, 3):
            lld.write(target, bytes([stamp]) * size)
            lld.flush()
            segments.append(segment_of(lld, target))
        lld.cache.invalidate_all()
        disk.injector.add_media_fault(MediaFault(segments[2], "unreadable"))
        # The second copy's slot rots; its summary still reads.
        disk.injector.add_media_fault(
            MediaFault(segments[1], "corrupt", span=(0, size))
        )
        assert lld.read(target) == b"\x01" * size
        assert lld._scrub_pending == {segments[1], segments[2]}

    def test_read_many_isolates_faulted_blocks(self):
        disk, lld = make()
        blocks, expected = fill(lld, 30)
        lld.cache.invalidate_all()
        victim = segment_of(lld, blocks[0])
        disk.injector.add_media_fault(MediaFault(victim, "unreadable"))
        on_victim = {int(b) for b in blocks if segment_of(lld, b) == victim}
        healthy = [b for b in blocks if int(b) not in on_victim]
        out = lld.read_many(healthy)
        assert [bytes(x) for x in out] == [expected[int(b)] for b in healthy]


class TestScrubTorture:
    """The acceptance torture test: criteria (a)-(d) in one story."""

    def test_salvage_quarantine_verify_recover(self):
        disk, lld = make(num_segments=96)
        rng = random.Random(42)
        blocks, expected = fill(lld, 120, seed=42)
        # Overwrite a third so older copies exist in the log.
        for block in blocks[::3]:
            data = bytes([rng.randrange(256)]) * lld.geometry.block_size
            lld.write(block, data)
            expected[int(block)] = data
        lld.flush()
        lld.read_many(blocks)  # cache = salvage source

        dirty = sorted(
            (seg for seg, _l, _s in lld.usage.dirty_segments()),
            key=lambda seg: lld.usage.live_slots(seg),
            reverse=True,
        )
        victims = dirty[:4]
        for index, seg in enumerate(victims):
            kind = "corrupt" if index % 2 == 0 else "unreadable"
            disk.injector.add_media_fault(MediaFault(seg, kind))
        # Half the victims also lose their cache entries, forcing the
        # older-log-copy and lost paths.
        for seg in victims[2:]:
            lld.cache.invalidate_segment(seg)

        report = lld.scrub()
        assert sorted(report.damaged) == sorted(victims)
        assert report.segments_quarantined == len(victims)
        lost = set(report.lost_blocks)

        # (a) every salvageable block reads back; cache-salvaged ones
        # byte-identical, stale ones as an older version of themselves.
        stale_ok = 0
        for block in blocks:
            if int(block) in lost:
                continue
            data = lld.read(block)
            if data != expected[int(block)]:
                stale_ok += 1
        assert stale_ok <= report.blocks_salvaged_stale

        # (d) only genuinely lost blocks raise, and precisely.
        for block in blocks:
            if int(block) in lost:
                with pytest.raises(UnrecoverableBlockError) as exc:
                    lld.read(block)
                assert exc.value.block_id == int(block)
                assert exc.value.segment in victims

        # (b) quarantine survives heavy overwrite + cleaning pressure.
        before = platter_bytes(disk)
        for _round in range(6):
            for block in blocks:
                if int(block) in lost:
                    continue
                lld.write(block, bytes([_round]) * lld.geometry.block_size)
            lld.flush()
        after = platter_bytes(disk)
        for seg in victims:
            assert lld.usage.state(seg) is SegmentState.QUARANTINED
            assert after.get(seg) == before.get(seg)

        # (c) the repaired disk is internally sound and recovers.
        assert verify_lld(lld) == []
        survivor = disk.power_cycle()
        recovered, rec_report = recover(
            survivor,
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        assert rec_report.segments_quarantined == len(victims)
        assert sorted(recovered.usage.quarantined_segments()) == sorted(
            victims
        )
        assert verify_lld(recovered) == []
        for block in blocks:
            if int(block) not in lost:
                recovered.read(block)  # everything salvaged survived

    def test_quarantine_roster_uses_sentinel(self):
        disk, lld = make()
        blocks, _ = fill(lld, 30)
        lld.read_many(blocks)
        victim = segment_of(lld, blocks[0])
        disk.injector.add_media_fault(MediaFault(victim, "corrupt"))
        report = lld.scrub()
        assert report.checkpointed
        roster = lld.checkpoints.load().segments
        assert roster[victim][0] == QUARANTINE_SEQ

    def test_scrub_then_scrub_is_idempotent(self):
        disk, lld = make()
        blocks, _ = fill(lld, 30)
        lld.read_many(blocks)
        victim = segment_of(lld, blocks[0])
        disk.injector.add_media_fault(MediaFault(victim, "corrupt"))
        first = lld.scrub()
        second = lld.scrub()
        assert first.segments_quarantined == 1
        assert second.segments_damaged == 0
        assert second.segments_quarantined == 0
        assert lld.usage.quarantined_segments() == [victim]


class TestCleanerDamagedVictims:
    def churned(self, kept=5):
        """40 blocks, all but the last ``kept`` overwritten: two dead
        segments, and one that still holds the ``kept``."""
        disk, lld = make(num_segments=24)
        blocks, _expected = fill(lld, 40, seed=5)
        for block in blocks[:-kept]:
            lld.write(block, b"\x11" * lld.geometry.block_size)
        lld.flush()
        lld.read_many(blocks)
        dead = [seg for seg, live, _seq in lld.usage.dirty_segments() if not live]
        assert len(dead) == 2
        return disk, lld, blocks, dead

    def test_damaged_victim_routed_to_scrubber(self):
        disk, lld, blocks, dead = self.churned()
        victim = segment_of(lld, blocks[-1])
        assert lld.usage.live_slots(victim) == 5
        disk.injector.add_media_fault(MediaFault(victim, "corrupt"))
        # More than the dead segments give: the victim is copied from.
        report = SegmentCleaner(lld, policy="greedy").clean(
            target_free=lld.usage.free_count + len(dead) + 1
        )
        assert victim in report.damaged
        assert lld.usage.state(victim) is SegmentState.QUARANTINED
        # No data was harmed: every block still reads (possibly the
        # overwritten value).
        for block in blocks:
            lld.read(block)
        assert verify_lld(lld) == []

    def test_damaged_dead_victim_is_freed_unread(self):
        """Nothing to copy, nothing to salvage, and the checkpoint
        supersedes its summaries: the fault stays the scrubber's to
        find, should the segment ever hold data again."""
        disk, lld, blocks, dead = self.churned()
        disk.injector.add_media_fault(MediaFault(dead[0], "corrupt"))
        reads = disk.stats()["reads"]
        report = SegmentCleaner(lld, policy="greedy").clean(
            target_free=lld.usage.free_count + 1
        )
        assert disk.stats()["reads"] == reads
        assert report.damaged == []
        assert report.segments_freed_unread == len(dead)
        assert lld.usage.state(dead[0]) is SegmentState.FREE
        for block in blocks:
            lld.read(block)
        assert verify_lld(lld) == []


class TestCleanerReadsWhatItCopies:
    """The cleaner reads the live slots a victim's slot table names,
    each checked against the CRC the table holds; rot anywhere else in
    the victim is the scrubber's to find.  Unless the disk model prices
    the live slots above the whole body: on these 64 KB segments three
    live slots are, two are not, and a body read whole has every slot
    checked.  A victim no slot table covers — the checkpoint attested
    it at recovery — has its summary stack read from a tail window
    first, and there two live slots already tip the balance."""

    def rotten(self, span, keep=5, attested=False):
        """:meth:`TestCleanerDamagedVictims.churned`, the ``keep``
        blocks its victim keeps read into the cache, and one byte of
        that victim rotten: ``span(volume, victim, kept)`` picks the
        offset.  ``attested``: checkpointed, power-cycled and recovered
        first, so no slot table covers the victim.  Returns (disk,
        volume, blocks, the kept blocks and their bytes, victim, the
        cleaner's report)."""
        disk, lld, blocks, dead = TestCleanerDamagedVictims().churned(keep)
        if attested:
            lld.write_checkpoint()
            disk = disk.power_cycle()
            lld, _report = recover(disk, config=lld.config)
        kept = {block: lld.read(block) for block in blocks[-keep:]}
        victim = segment_of(lld, blocks[-1])
        assert (lld.usage.slot_table(victim) is None) == attested
        offset = span(lld, victim, kept)
        disk.injector.add_media_fault(
            MediaFault(victim, "corrupt", span=(offset, offset + 1))
        )
        report = SegmentCleaner(lld, policy="greedy").clean(
            target_free=lld.usage.free_count + len(dead) + 1
        )
        return disk, lld, blocks, kept, victim, report

    def test_rot_in_a_copied_slot_is_never_copied(self):
        def live_slot(lld, victim, kept):
            block = next(iter(kept))
            return lld.bmap.persistent[block].address.slot * lld.geometry.block_size

        disk, lld, blocks, kept, victim, report = self.rotten(live_slot)
        assert report.damaged == [victim]
        assert lld.usage.state(victim) is SegmentState.QUARANTINED
        # Salvaged from the cache: each moved copy on the platter is
        # the block's own bytes, none the rotten ones.
        platter = platter_bytes(disk)
        size = lld.geometry.block_size
        for block, data in kept.items():
            moved = lld.bmap.persistent[block].address
            assert moved.segment != victim
            start = moved.slot * size
            assert platter[moved.segment][start : start + size] == data
            assert lld.read(block) == data
        assert verify_lld(lld) == []

    @staticmethod
    def dead_slot(lld, victim, kept):
        live = {lld.bmap.persistent[block].address.slot for block in kept}
        slot = min(set(range(lld.usage.total_slots(victim))) - live)
        return slot * lld.geometry.block_size

    def test_rot_in_a_dead_slot_of_a_live_victim_is_not_read(self):
        disk, lld, blocks, kept, victim, report = self.rotten(
            self.dead_slot, keep=1
        )
        assert victim not in report.read_whole
        assert report.damaged == []
        assert victim in report.victims
        assert lld.usage.state(victim) is SegmentState.FREE
        for block, data in kept.items():
            assert lld.read(block) == data
        assert verify_lld(lld) == []

    def test_rot_in_a_dead_slot_of_a_victim_read_whole_is_found(self):
        disk, lld, blocks, kept, victim, report = self.rotten(self.dead_slot)
        assert victim in report.read_whole
        assert report.damaged == [victim]
        assert lld.usage.state(victim) is SegmentState.QUARANTINED
        for block, data in kept.items():
            assert segment_of(lld, block) != victim
            assert lld.read(block) == data
        assert verify_lld(lld) == []

    @staticmethod
    def last_entry_byte(lld, victim, kept):
        return lld.geometry.segment_size - TRAILER_SIZE - 1

    def test_rot_in_a_summary_byte_routes_the_victim_to_the_scrubber(self):
        disk, lld, blocks, kept, victim, report = self.rotten(
            self.last_entry_byte, attested=True
        )
        assert victim in report.read_whole
        assert report.damaged == [victim]
        assert lld.usage.state(victim) is SegmentState.QUARANTINED
        for block, data in kept.items():
            assert segment_of(lld, block) != victim
            assert lld.read(block) == data
        assert verify_lld(lld) == []

    @pytest.mark.parametrize("keep", [1, 5], ids=["slots", "whole"])
    def test_rot_in_a_summary_byte_of_a_self_written_victim_is_not_read(
        self, keep
    ):
        """Its slot table says what each slot holds: the summary is
        never read, read by its slots or whole, and every copy is the
        block's own bytes."""
        disk, lld, blocks, kept, victim, report = self.rotten(
            self.last_entry_byte, keep=keep
        )
        assert (victim in report.read_whole) == (keep == 5)
        assert report.damaged == [] and report.summaries_read == 0
        assert victim in report.victims
        assert lld.usage.state(victim) is SegmentState.FREE
        platter = platter_bytes(disk)
        size = lld.geometry.block_size
        for block, data in kept.items():
            moved = lld.bmap.persistent[block].address
            assert moved.segment != victim
            start = moved.slot * size
            assert platter[moved.segment][start : start + size] == data
            assert lld.read(block) == data
        assert verify_lld(lld) == []
