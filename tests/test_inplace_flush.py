"""Flushes written in place: summary chunks, tears, reuse, policy.

A flush that would waste most of a segment writes only its new data
slots and one summary chunk, and the segment keeps filling
(``repro.lld.segment`` has the layout).  Pinned here:

1. At every sampled crash point — dropped, sector-torn and byte-torn
   writes, inside ``mkfs`` included, on a log that wraps — the three
   recoveries (``reference_recover``, eager, instant + sweep) rebuild
   one state, that state is sound, and every synced file is intact.
   ``python -m tests.test_inplace_flush`` runs the exhaustive form
   (every write index); CI does.
2. The buffer codec: any interleaving of blocks, entries, in-place
   flushes and a close decodes to exactly what went in, a stack cut at
   any chunk boundary decodes to the corresponding prefix, and a slot
   that reached the disk is never written again.
3. A tear anywhere inside a trailer — of a whole-segment write or of
   an in-place chunk write — is judged the same by all three
   recoveries.
4. Chunks a previous incarnation of a physical segment left behind
   are ignored; a checkpoint closes a partly written segment; rot in
   the middle of a chunk stack is damage, not a short segment.
5. The policy boundary, asked of the disk model.
"""

import sys
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.disk.faults import (
    FaultInjector,
    FaultPlan,
    MediaFault,
    PowerCut,
)
from repro.disk.geometry import TRAILER_SIZE, DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.disk.timing import HP_C3010, DiskModel
from repro.errors import DiskCrashedError, UnrecoverableBlockError
from repro.fs import MinixFS, fsck
from repro.ld.types import BlockId
from repro.lld.cleaner import SegmentCleaner
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import recover
from repro.lld.segment import (
    SegmentBuffer,
    decode_segment,
    decode_segment_tail,
    slots_hold,
)
from repro.lld.summary import EntryKind, SummaryEntry
from repro.lld.usage import SegmentState
from repro.lld.verify import verify_lld
from repro.tools.inspect import describe_segments

from tests.oracle import platter_bytes, recoveries_agree

#: Coming back to a segment costs nothing on this disk, so every flush
#: is written in place — also on the small test geometry, which the
#: paper's disk always closes whole.
FREE_POSITIONING = DiskModel(
    avg_seek_us=0.0, rpm=float("inf"), controller_overhead_us=0.0
)

#: name -> (disk model, geometry for a segment count)
DISKS = {
    "free-positioning": (
        FREE_POSITIONING,
        lambda n: DiskGeometry.small(num_segments=n),
    ),
    "hp-c3010-128k": (
        HP_C3010,
        lambda n: DiskGeometry(
            block_size=4096, segment_size=128 * 1024, num_segments=n
        ),
    ),
}

TEARS = {
    "dropped": dict(torn=False),
    "sector-torn": dict(torn=True, granularity="sector"),
    "byte-torn": dict(torn=True, granularity="byte"),
}

SERIAL = LLDConfig(checkpoint_slot_segments=2)
PIPELINED = SERIAL.replace(writeback_depth=4, group_commit=True)


def make_disk(disk_name, num_segments, injector=None):
    model, geometry = DISKS[disk_name]
    return SimulatedDisk(geometry(num_segments), model=model, injector=injector)


# ----------------------------------------------------------------------
# 1. The crash sweep
# ----------------------------------------------------------------------


class Model:
    """What the workload has been told is durable."""

    def __init__(self):
        self.formatted = False
        self.synced = {}
        #: Paths the operation in flight touches: their fate is open.
        self.dirty = set()


def workload(disk, config, model):
    """Meta-data heavy with a bounded live set, so a 14-segment log
    wraps: creates, multi-block writes, renames, unlinks.  ``mkfs`` is
    part of it — a crash may land inside.

    Every operation is followed by a ``sync()``.  That is what makes
    the flushes many and small, and it keeps one hazard this sweep is
    not about out of the picture: a rewrite of a block whose slot is
    still unwritten overwrites the slot whichever ARU wrote it before,
    so a commit cut in two by a segment boundary can leave its data
    under an earlier ARU's entry (``TestKnownGaps`` below has the
    reproducer; it predates in-place flushes).  A slot that reached
    the disk is never written again, so syncing between operations
    closes that window.
    """
    ld = LLD(disk, config=config)
    fs = MinixFS.mkfs(ld, n_inodes=128)
    model.formatted = True
    live = model.synced

    def op(call, *paths):
        model.dirty = set(paths)
        call(*paths)
        fs.sync()
        model.dirty = set()

    for index in range(64):
        path = f"/f{index}"
        payload = f"payload-{index:03d}-".encode() * (1, 400, 900)[index % 3]
        op(fs.create, path)
        op(lambda p: fs.write_file(p, payload), path)
        live[path] = payload
        if index % 4 == 1:
            op(fs.rename, path, f"/r{index}")
            live[f"/r{index}"] = live.pop(path)
        old = f"/f{index - 6}"
        if old in live:
            del live[old]
            op(fs.unlink, old)
    return ld


def check_recovered(disk, config, model):
    """The recovery contract on one crashed platter."""
    survivor, _report = recoveries_agree(disk, config)
    if not model.formatted:
        return
    fs = MinixFS.mount(survivor)
    report = fsck(fs)
    assert report.clean, [str(p) for p in report.problems][:3]
    for path, payload in model.synced.items():
        if path not in model.dirty:
            assert fs.read_file(path) == payload, path


def sweep(disk_name, num_segments, tear, config, stride=1, offset=0):
    """Crash at every ``stride``-th write index; returns how many
    crash points were checked."""
    disk = make_disk(disk_name, num_segments)
    stats = workload(disk, config, Model()).stats()
    assert stats["segments"]["in_place_writes"] > 10
    if num_segments < 32:
        assert stats["cleaner"]["segments_freed"] > 0, "log never wrapped"
    checked = 0
    for crash_after in range(offset, disk.write_count, stride):
        cut = PowerCut(after_writes=crash_after, seed=crash_after, **TEARS[tear])
        disk = make_disk(
            disk_name, num_segments, FaultInjector(plan=FaultPlan(power_cut=cut))
        )
        model = Model()
        try:
            workload(disk, config, model)
        except DiskCrashedError:
            check_recovered(disk, config, model)
            checked += 1
    return checked


class TestCrashSweep:
    @pytest.mark.parametrize("num_segments", [96, 14])
    @pytest.mark.parametrize("tear", sorted(TEARS))
    @pytest.mark.parametrize("disk_name", sorted(DISKS))
    def test_sampled_crash_points(self, disk_name, tear, num_segments):
        # Different residues per configuration, so the suite as a
        # whole covers more indices than any one run.
        offset = (len(tear) + num_segments) % 61
        assert sweep(disk_name, num_segments, tear, SERIAL, 61, offset) >= 6

    @pytest.mark.parametrize("disk_name", sorted(DISKS))
    def test_sampled_crash_points_pipelined(self, disk_name):
        """Write-behind and group commit: closing chunks park behind
        whole images, flushes drain the queue first."""
        assert sweep(disk_name, 14, "byte-torn", PIPELINED, 61, 5) >= 6


# ----------------------------------------------------------------------
# 2. The buffer codec
# ----------------------------------------------------------------------

GEO = DiskGeometry.small(num_segments=8, block_size=1024)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("block"), st.integers(1, 12), st.integers(0, 255)),
        st.tuples(st.just("entry"), st.integers(0, 8), st.integers(0, 2**40)),
        st.tuples(st.just("flush"), st.just(0), st.just(0)),
    ),
    max_size=60,
)


def write_in_place(platter, buffer, image):
    for start, end in buffer.unwritten_ranges():
        platter[start:end] = image[start:end]


def tail_decode(platter, window):
    """decode_segment_tail, coming back with as much as it asks for."""
    while True:
        result = decode_segment_tail(bytes(platter[-window:]), GEO, 0)
        if not isinstance(result, int):
            return result
        assert window < result <= GEO.segment_size
        window = result


class TestChunkStackProperty:
    @settings(max_examples=80, deadline=None)
    @given(ops=_ops, stale=st.integers(0, 255), window=st.integers(40, 4096))
    def test_decodes_to_what_went_in(self, ops, stale, window):
        # The platter starts as garbage: what is never written must
        # never matter.
        platter = bytearray([stale]) * GEO.segment_size
        buffer = SegmentBuffer(GEO, seq=7, segment_no=0)
        slots = []  # expected content per slot
        entries = []
        prefixes = []  # (chunk start, entries, slots) per chunk on disk
        for kind, a, b in ops:
            if kind == "block":
                fresh = not buffer.contains_block(BlockId(a))
                data = bytes([b]) * GEO.block_size
                written = buffer.block_count - buffer.unwritten_block_count
                addr = buffer.append_write(BlockId(a), data, 0, len(entries))
                if addr is None:
                    break
                entries.append(buffer.entries[-1])
                # A slot that reached the disk is never written again.
                assert addr.slot >= written
                if addr.slot == len(slots):
                    slots.append(data)
                else:
                    assert not fresh
                    slots[addr.slot] = data
            elif kind == "entry":
                entry = SummaryEntry(EntryKind.COMMIT, a, b, len(entries))
                if not buffer.has_room(0, entry.encoded_size()):
                    break
                buffer.add_entry(entry)
                entries.append(entry)
            elif buffer.has_unwritten:
                write_in_place(platter, buffer, buffer.seal(last=False))
                prefixes.append(
                    (buffer._chunk_start, len(entries), len(slots))
                )
                buffer.publish()
        if buffer.has_unwritten or not prefixes:
            image = buffer.seal()
            if prefixes:
                write_in_place(platter, buffer, image)
            else:
                platter[:] = image
            prefixes.append((buffer._chunk_start, len(entries), len(slots)))
        # Every WRITE carries the CRC of its slot's final bytes.
        entries = [
            entry._replace(c=zlib.crc32(slots[entry.b]))
            if entry.kind is EntryKind.WRITE
            else entry
            for entry in entries
        ]

        decoded = decode_segment(bytes(platter), GEO, 0)
        assert decoded.seq == 7
        assert decoded.last_seq == 7 + len(prefixes) - 1
        assert decoded.chunk_count == len(prefixes)
        assert decoded.entries == entries
        assert decoded.block_count == len(slots)
        for slot, data in enumerate(slots):
            assert decoded.slot_data(slot) == data
        from_tail = tail_decode(platter, window)
        assert from_tail.entry_tuples == decoded.entry_tuples
        assert from_tail.entries == entries
        assert (from_tail.block_count, from_tail.last_seq) == (
            decoded.block_count,
            decoded.last_seq,
        )
        # The slot CRC rule over the tail's entries: the data matches,
        # and a rotten byte does not.
        block = GEO.block_size
        assert slots_hold(from_tail.entry_tuples, bytes(platter), block)
        if slots:
            rotten = bytes([platter[0] ^ 0xFF]) + bytes(platter[1:])
            assert not slots_hold(from_tail.entry_tuples, rotten, block)

        # Cut the stack at any chunk boundary: the prefix decodes.
        for chunks, (start, n_entries, n_slots) in enumerate(prefixes, 1):
            cut = bytearray(platter)
            data_end = n_slots * GEO.block_size
            cut[data_end:start] = bytes([stale]) * (start - data_end)
            prefix = decode_segment(bytes(cut), GEO, 0)
            assert prefix.chunk_count == chunks
            assert prefix.entries == entries[:n_entries]
            assert prefix.block_count == n_slots
            assert tail_decode(cut, window).entries == entries[:n_entries]


# ----------------------------------------------------------------------
# 3. A tear inside a trailer
# ----------------------------------------------------------------------


def in_place_volume(num_segments=32):
    disk = make_disk("free-positioning", num_segments)
    return disk, LLD(disk, config=SERIAL)


def committed_write(ld, lst, fill):
    """One ARU: a new block in ``lst`` holding ``fill``; flushed."""
    aru = ld.begin_aru()
    block = ld.new_block(lst, aru=aru)
    ld.write(block, bytes([fill]) * ld.geometry.block_size, aru=aru)
    ld.end_aru(aru)
    ld.flush()
    return block


class TestTornTrailer:
    @pytest.mark.parametrize("in_place", [False, True])
    def test_every_cut_inside_the_trailer(self, in_place):
        """The parent disagreed with itself here: a cut inside the
        trailer's last field left a summary CRC that instant restore
        accepted and a whole CRC that eager recovery rejected."""
        if in_place:
            disk, ld = in_place_volume()
        else:
            disk = SimulatedDisk(DiskGeometry.small(num_segments=32))
            ld = LLD(disk, config=SERIAL)
        lst = ld.new_list()
        committed_write(ld, lst, 1)
        before = platter_bytes(disk)
        block = committed_write(ld, lst, 2)
        assert (ld.stats()["segments"]["in_place_writes"] > 0) == in_place
        # The last write of that flush carries the newest trailer.
        now = platter_bytes(disk)
        (seg,) = [s for s in now if now[s] != before.get(s)]
        after = now[seg]
        old = before.get(seg, bytes(len(after)))
        decoded = decode_segment(after, disk.geometry, seg)
        end = decoded.summary_start + decoded._summaries[-1][1] + TRAILER_SIZE
        assert (end == len(after)) != in_place
        for cut in range(end - TRAILER_SIZE, end + 1):
            disk._segments[seg] = after[:cut] + old[cut:]
            survivor, report = recoveries_agree(disk, SERIAL)
            if cut == end:
                assert survivor.read(block)[0] == 2
                assert report.arus_committed == 2
        # What the issue measured: zero the final 6 bytes.
        disk._segments[seg] = after[: end - 6] + bytes(6) + after[end:]
        recoveries_agree(disk, SERIAL)


# ----------------------------------------------------------------------
# 4. Stale chunks, checkpoints, rot in the middle of a stack
# ----------------------------------------------------------------------


class TestSegmentLifecycle:
    def test_stale_chunks_of_an_earlier_incarnation_are_ignored(self):
        disk, ld = in_place_volume(num_segments=16)
        geometry = disk.geometry
        lst = ld.new_list()
        blocks = [ld.new_block(lst) for _ in range(3)]
        ld.flush()
        first = ld._buffer.segment_no
        for block in blocks:  # three more chunks, a sector and more each
            ld.write(block, b"\x01" * geometry.block_size)
            for _ in range(24):
                ld.new_list()
            ld.flush()
        old = decode_segment(disk.read_segment(first), geometry, first)
        assert old.chunk_count == 4
        assert f"seq {old.seq}..{old.last_seq} (4 chunks)" in describe_segments(
            disk, slot_segments=2
        )
        # Move everything out of it, clean it, and let it be reopened.
        ld.write_checkpoint()
        for block in blocks:
            ld.write(block, b"\x02" * geometry.block_size)
        ld.flush()
        while ld.usage.state(first) is not SegmentState.FREE:
            assert SegmentCleaner(ld).clean(ld.usage.free_count + 1).victims
        # The lowest free segment is handed out next.  A first chunk
        # shorter than the old one: old chunks lie untouched below it.
        ld.new_list()
        assert ld._buffer.segment_no == first
        ld.flush()
        raw = disk.read_segment(first)
        new = decode_segment(raw, geometry, first)
        assert new.chunk_count == 1 and new.seq > old.last_seq
        assert new.summary_start > old.summary_start
        below = raw[old.summary_start : new.summary_start]
        assert below.count(b"LLDS") == 2
        tail = decode_segment_tail(raw[-4096:], geometry, first)
        assert (tail.chunk_count, tail.seq) == (1, new.seq)
        assert "chain ends after chunk 1 (torn or stale below)" in (
            describe_segments(disk, slot_segments=2)
        )
        survivor, _report = recoveries_agree(disk, SERIAL)
        assert survivor.read(blocks[0])[0] == 2
        assert verify_lld(survivor) == []

    def test_stale_chunk_exactly_where_the_walk_looks_next(self):
        """Only the sequence rule can reject it: its summary CRC holds,
        and instant restore reads no data."""
        size = GEO.segment_size
        # 480 bytes of entries + the trailer: exactly one sector.
        entries = (
            [SummaryEntry(EntryKind.LINK, 0, 1, 2, 3, 4)] * 4
            + [SummaryEntry(EntryKind.ALLOC_BLOCK, 0, 1, 2, 3)] * 2
            + [SummaryEntry(EntryKind.COMMIT, 5, 1, 2)] * 10
        )
        platter = bytearray(size)
        for first_seq, chunks in ((10, 3), (20, 1)):
            buffer = SegmentBuffer(GEO, seq=first_seq, segment_no=0)
            for _ in range(chunks):
                for entry in entries:
                    buffer.add_entry(entry)
                write_in_place(platter, buffer, buffer.seal(last=False))
                assert buffer.unwritten_ranges()[-1][1] == buffer._chunk_end
                buffer.publish()
            assert buffer._chunk_end == size - 512 * chunks
        stale = decode_segment_tail(bytes(platter[-1024:-512]) + bytes(512), GEO, 0)
        assert stale is None  # (not at a segment end: just bytes)
        assert platter[size - 1024 : size - 512].count(b"LLDS") == 1
        for decoded in (
            decode_segment(bytes(platter), GEO, 0),
            tail_decode(platter, 600),
        ):
            assert (decoded.seq, decoded.last_seq) == (20, 20)
            assert decoded.chunk_count == 1 and not decoded.closed

    def test_checkpoint_closes_a_partly_written_segment(self):
        disk, ld = in_place_volume()
        lst = ld.new_list()
        first = committed_write(ld, lst, 1)
        segment = ld._buffer.segment_no
        assert ld.usage.state(segment) is SegmentState.CURRENT
        assert ld.usage.total_slots(segment) == 1
        writes = disk.write_count
        ld.write_checkpoint()
        # Closed without another log write; the roster attests it.
        assert ld.usage.state(segment) is SegmentState.DIRTY
        assert disk.write_count == writes + 1
        second = committed_write(ld, lst, 2)
        assert ld.bmap.persistent[second].address.segment != segment
        assert ld.stats()["segments"]["sealed"] == 1
        # Crash right after: both flushed writes are there.
        survivor, report = recoveries_agree(disk, SERIAL)
        assert report.checkpoint_seq == 1
        assert survivor.read(first)[0] == 1
        assert survivor.read(second)[0] == 2

    def test_rot_in_the_middle_of_a_chunk_stack_is_damage(self):
        disk, ld = in_place_volume()
        block_size = disk.geometry.block_size
        lst = ld.new_list()
        blocks = [committed_write(ld, lst, fill) for fill in (1, 2, 3)]
        segment = ld._buffer.segment_no
        ld.write_checkpoint()  # closes it: three chunks, DIRTY
        assert ld.usage.total_slots(segment) == 3
        # One block moves on, and a dead segment beside it makes a
        # cleaning pass worth its while.
        filler = [ld.new_block(lst) for _ in range(12)]
        for fill in (8, 9):
            for block in [blocks[0], *filler]:
                ld.write(block, bytes([fill]) * block_size)
            ld.flush()
        # Recovered, so the checkpoint attests the segment and no slot
        # table covers it: the cleaner walks its chunk stack.
        ld, _report = recover(disk.power_cycle(), config=ld.config)
        disk = ld.disk
        assert ld.usage.slot_table(segment) is None
        sound = decode_segment(disk.read_segment(segment), disk.geometry, segment)
        assert sound.chunk_count == 3
        offset, length = sound._summaries[1]
        disk.injector.add_media_fault(
            MediaFault(segment, "corrupt", span=(offset, offset + length))
        )
        # The walk now stops after the first chunk: a shorter, valid
        # looking segment — which the usage table knows to be damage.
        rotted = decode_segment(disk.read_segment(segment), disk.geometry, segment)
        assert (rotted.chunk_count, rotted.block_count) == (1, 1)
        # The third block survives in the cache, the second nowhere.
        ld.cache.invalidate_segment(segment)
        ld.cache.put(
            ld.bmap.persistent[blocks[2]].address, b"\x03" * block_size
        )
        report = SegmentCleaner(ld, policy="greedy").clean(
            target_free=ld.usage.free_count + 1
        )
        assert segment in report.damaged
        assert ld.usage.state(segment) is SegmentState.QUARANTINED
        assert ld.read(blocks[0])[0] == 9
        assert ld.read(blocks[2])[0] == 3
        with pytest.raises(UnrecoverableBlockError):
            ld.read(blocks[1])
        moved = ld.bmap.persistent[blocks[2]].address.segment
        assert ld.usage.state(moved) is not SegmentState.QUARANTINED
        assert verify_lld(ld) == []


# ----------------------------------------------------------------------
# 5. The policy boundary
# ----------------------------------------------------------------------


class TestPolicyBoundary:
    #: HP C3010: two positionings (seek + half a turn + controller)
    #: buy the transfer of this many bytes.
    THRESHOLD = 84_266

    @pytest.mark.parametrize(
        "rewrites,lists,in_place", [(1, 349, False), (5, 344, True)]
    )
    def test_first_flush_at_the_threshold(self, rewrites, lists, in_place):
        geometry = DiskGeometry(
            block_size=4096, segment_size=190 * 512, num_segments=16
        )
        ld = LLD(SimulatedDisk(geometry, model=HP_C3010), config=SERIAL)
        block = ld.new_block(ld.new_list())
        for _ in range(1 + rewrites):
            ld.write(block, b"\x07" * 4096)
        for _ in range(lists):
            ld.new_list()
        segment = ld._buffer.segment_no
        assert ld._buffer.bytes_free() == self.THRESHOLD + in_place
        ld.flush()
        assert ld.stats()["segments"]["in_place_writes"] == int(in_place)
        assert (ld._buffer.segment_no == segment) == in_place
        assert ld.usage.state(segment) is (
            SegmentState.CURRENT if in_place else SegmentState.DIRTY
        )

    def test_threshold_is_the_models(self):
        positioning_us = (
            HP_C3010.avg_seek_us
            + HP_C3010.avg_rotational_us
            + HP_C3010.controller_overhead_us
        )
        assert HP_C3010.transfer_us(self.THRESHOLD) <= 2 * positioning_us
        assert HP_C3010.transfer_us(self.THRESHOLD + 1) > 2 * positioning_us

    def test_small_segments_never_write_in_place(self):
        """``aru_commit``'s geometry: a whole 64 KB segment streams out
        faster than the head comes back twice."""
        ld = LLD(SimulatedDisk(DiskGeometry.small(num_segments=64)), config=SERIAL)
        lst = ld.new_list()
        ld.flush()  # a nearly empty buffer
        for fill in range(1, 40):
            committed_write(ld, lst, fill)
        stats = ld.stats()["segments"]
        assert stats["in_place_writes"] == 0
        assert stats["sealed"] == stats["flushed"] == 40


# ----------------------------------------------------------------------
# Found by the sweep, not caused by what it tests
# ----------------------------------------------------------------------


class TestKnownGaps:
    @pytest.mark.xfail(
        strict=True,
        reason="in-buffer de-duplication overwrites a slot an earlier "
        "ARU's entry names; a commit cut in two by a segment boundary "
        "then shows through that entry (also at the parent of the "
        "in-place flush change; ROADMAP item 1)",
    )
    def test_commit_cut_by_a_segment_boundary_stays_invisible(self):
        disk = SimulatedDisk(DiskGeometry.small(num_segments=32))
        ld = LLD(disk, config=SERIAL)
        block_size = disk.geometry.block_size
        lst = ld.new_list()
        blocks = [ld.new_block(lst) for _ in range(18)]
        ld.flush()
        first = ld.begin_aru()
        ld.write(blocks[0], b"\x01" * block_size, aru=first)
        ld.end_aru(first)
        # The second ARU's commit rewrites that block in its unwritten
        # slot, then fills the segment; its commit record lands in the
        # next one, which never reaches the disk.
        second = ld.begin_aru()
        for block in blocks[1:]:
            ld.write(block, b"\x02" * block_size, aru=second)
        ld.write(blocks[0], b"\x02" * block_size, aru=second)
        ld.end_aru(second)
        survivor, report = recover(disk.power_cycle(), config=SERIAL)
        assert report.discarded_aru_ids == [int(second)]
        assert survivor.read(blocks[0])[0] == 1


if __name__ == "__main__":
    # The exhaustive form: every write index, byte-granular tears.
    for name in sorted(DISKS):
        for segments in (14, 16, 96):
            for config in (SERIAL, PIPELINED):
                points = sweep(name, segments, "byte-torn", config)
                print(
                    f"{name} {segments} segments "
                    f"writeback_depth={config.writeback_depth}: "
                    f"{points} crash points ok"
                )
    sys.exit(0)
