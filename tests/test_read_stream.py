"""Every cache miss reaches the disk through one read stream.

What this file pins (``repro.lld.cache.ReadStream``, used by LLD and
JLD alike):

1. The rule on a bare disk: a miss ahead of the head in the head's
   segment is served from the head iff that costs the disk model no
   more than positioning; the limit is derived from the model here.
2. What it does to a log: a stride-2 layout streams, the window opens
   on the evidence readahead always required and continues from its
   own end, never past the data slots of a segment; gap bytes are not
   cached; anything that moves the head in between makes the next read
   positioned; a media fault degrades a streamed read like a
   positioned one.
3. A state machine over write / flush / read / read_many / clean on a
   volume and a model of its contents: the bytes written, ``verify_lld``
   clean, and no request that started at the head cost more simulated
   time than the positioned read of what it kept.

``python -m tests.test_read_stream [examples]`` runs the state machine
with more examples than tier-1's minute allows (CI does).
"""

import sys
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.disk.faults import MediaFault
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.disk.timing import HP_C3010, DiskModel
from repro.errors import UnrecoverableBlockError
from repro.jld import JLD
from repro.ld.types import PhysAddr
from repro.lld.cache import READAHEAD_BLOCKS, BlockCache, ReadStream
from repro.lld.cleaner import SegmentCleaner
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.usage import SegmentState
from repro.lld.verify import verify_lld

from tests.test_inplace_flush import FREE_POSITIONING

BLOCK = 4096

#: A disk that positions four times faster than the paper's.
FAST_SEEK = DiskModel(
    avg_seek_us=2_000.0,
    rpm=7200.0,
    transfer_rate_bps=2_400_000.0,
    controller_overhead_us=200.0,
)


class Request(NamedTuple):
    segment: int
    slot: int
    blocks: int
    at_head: bool
    cost_us: float


def log_requests(disk):
    """Every request ``disk`` serves from now on, in service order
    (writes too: tests clear the log, or start it, after theirs)."""
    log = []
    access = disk.timer.access
    size = disk.geometry.segment_size

    def logged(offset, nbytes, is_write=False):
        at_head = offset == disk.head_offset
        cost = access(offset, nbytes, is_write)
        segment, within = divmod(offset, size)
        log.append(
            Request(segment, within // BLOCK, nbytes // BLOCK, at_head, cost)
        )
        return cost

    disk.timer.access = logged
    return log


def shape(log):
    """The requests of ``log`` as (slot, blocks) pairs."""
    return [(request.slot, request.blocks) for request in log]


def gap_limit(model):
    """Most blocks a request may stream over on ``model``: one more
    and the positioned read of the target alone is cheaper."""
    blocks = 0
    while model.request_us((blocks + 2) * BLOCK, sequential=True) <= (
        model.request_us(BLOCK, sequential=False)
    ):
        blocks += 1
    return blocks


def bare_stream(model=HP_C3010, segment_kb=512):
    geometry = DiskGeometry(
        block_size=BLOCK, segment_size=segment_kb * 1024, num_segments=8
    )
    disk = SimulatedDisk(geometry, model=model)
    stream = ReadStream(disk, BlockCache(256))
    return disk, stream, log_requests(disk)


def volume(segment_kb=512, segments=12, **config):
    geometry = DiskGeometry(
        block_size=BLOCK, segment_size=segment_kb * 1024, num_segments=segments
    )
    disk = SimulatedDisk(geometry)
    config.setdefault("checkpoint_slot_segments", 1)
    return disk, LLD(disk, config=LLDConfig(**config))


def payload(index):
    return bytes([index % 251 + 1]) * BLOCK


def address(ld, block):
    return ld.bmap.persistent[block].address


def write_blocks(ld, count):
    """Write ``count`` new blocks in slot order (block ``i`` holds
    ``payload(i)``) and flush; the cache is left cold."""
    lst = ld.new_list()
    blocks = [ld.new_block(lst) for _ in range(count)]
    for index, block in enumerate(blocks):
        ld.write(block, payload(index))
    ld.flush()
    ld.cache.invalidate_all()
    return blocks


def fill(ld, count):
    """:func:`write_blocks` on a fresh volume; returns the blocks of
    the first segment, which is full and on disk, one per slot from
    slot 0."""
    blocks = write_blocks(ld, count)
    segment = address(ld, blocks[0]).segment
    first = [b for b in blocks if address(ld, b).segment == segment]
    assert len(first) < count, "the first segment must have been closed"
    assert ld.usage.state(segment) is SegmentState.DIRTY
    assert [address(ld, b).slot for b in first] == list(range(len(first)))
    assert ld.usage.total_slots(segment) == len(first)
    return first


# ----------------------------------------------------------------------
# 1. The rule, on a bare disk
# ----------------------------------------------------------------------


class TestRule:
    @pytest.mark.parametrize(
        "model",
        [HP_C3010, FAST_SEEK, FREE_POSITIONING],
        ids=["hp-c3010", "fast-seek", "free-positioning"],
    )
    def test_gap_limit_comes_from_the_model(self, model):
        limit = gap_limit(model)
        disk, stream, log = bare_stream(model)
        # The documented necessary condition holds at the limit.
        assert model.transfer_us(limit * BLOCK) <= model.request_us(
            0, sequential=False
        )
        stream.read(PhysAddr(2, 0), 127)
        target = 1 + limit
        stream.read(PhysAddr(2, target), target + 1)  # no room for a window
        assert log[-1] == Request(2, 1, limit + 1, True, log[-1].cost_us)
        assert log[-1].cost_us <= model.request_us(BLOCK, sequential=False)
        target += 1 + limit + 1  # one block more than the limit
        stream.read(PhysAddr(2, target), 127)
        assert shape(log[-1:]) == [(target, 1)]
        assert not log[-1].at_head
        assert (stream.positioned, stream.streamed) == (2, 1)
        assert stream.gap_blocks == limit

    @pytest.mark.parametrize(
        "model",
        [HP_C3010, FAST_SEEK, FREE_POSITIONING],
        ids=["hp-c3010", "fast-seek", "free-positioning"],
    )
    def test_gap_decision_matches_the_inequality_byte_for_byte(self, model):
        # The limit is solved once per stream; every integer gap up to
        # a segment must still get the decision the inequality gives.
        _disk, stream, _log = bare_stream(model, segment_kb=64)
        target = PhysAddr(2, 64 * 1024 // BLOCK - 1)
        end = target.segment * 64 * 1024 + target.slot * BLOCK
        positioned_us = model.request_us(BLOCK, sequential=False)
        for gap in range(target.slot * BLOCK + 1):
            worth = model.request_us(gap + BLOCK, sequential=True) <= positioned_us
            assert stream._gap(end - gap, target) == (gap if worth else None)

    def test_limit_on_the_papers_disk(self):
        # 10 blocks would cost 11 us more than positioning: both
        # requests pay the controller overhead.
        assert gap_limit(HP_C3010) == 9
        assert gap_limit(FREE_POSITIONING) == 0

    def test_backward_and_other_segment_are_positioned(self):
        disk, stream, log = bare_stream()
        stream.read(PhysAddr(2, 10), 127)
        stream.read(PhysAddr(2, 5), 127)  # behind the head
        stream.read(PhysAddr(3, 6), 127)  # head is in segment 2
        stream.read(PhysAddr(2, 8), 127)  # head is in segment 3
        assert shape(log) == [(10, 1), (5, 1), (6, 1), (8, 1)]
        assert not any(request.at_head for request in log)
        assert (stream.positioned, stream.streamed) == (4, 0)

    def test_one_near_miss_buys_no_window_two_do(self):
        disk, stream, log = bare_stream()
        stream.read(PhysAddr(2, 0), 127)
        stream.read(PhysAddr(2, 3), 127)
        stream.read(PhysAddr(2, 6), 127)
        assert shape(log) == [(0, 1), (1, 3), (4, 2 + READAHEAD_BLOCKS)]
        assert (stream.windows, stream.window_blocks) == (1, READAHEAD_BLOCKS)
        assert stream.gap_blocks == 4

    def test_adjacent_miss_opens_the_window_at_once(self):
        disk, stream, log = bare_stream()
        stream.read(PhysAddr(2, 7), 127)
        stream.read(PhysAddr(2, 8), 127)
        assert shape(log) == [(7, 1), (8, READAHEAD_BLOCKS)]

    def test_a_positioned_miss_ends_the_evidence(self):
        disk, stream, log = bare_stream()
        stream.read(PhysAddr(2, 0), 127)
        stream.read(PhysAddr(2, 3), 127)  # streamed
        stream.read(PhysAddr(4, 0), 127)  # positioned
        stream.read(PhysAddr(4, 3), 127)  # streamed, first of its run
        assert shape(log) == [(0, 1), (1, 3), (0, 1), (1, 3)]

    def test_window_stops_at_the_slot_limit_and_the_segment_end(self):
        disk, stream, log = bare_stream(segment_kb=128)
        last = disk.geometry.max_data_blocks - 1
        stream.read(PhysAddr(2, 3), 9)
        stream.read(PhysAddr(2, 4), 9)  # window: slots 4..8
        stream.read(PhysAddr(2, last - 1), last + 1)
        stream.read(PhysAddr(2, last), last + 1)  # window of one block
        stream.read(PhysAddr(3, 0), 0)  # a limit below the slot: one block
        stream.read(PhysAddr(3, 1), 0)
        assert shape(log) == [
            (3, 1), (4, 5), (last - 1, 1), (last, 1), (0, 1), (1, 1),
        ]

    def test_gap_bytes_are_dropped_and_the_window_cached(self):
        disk, stream, log = bare_stream()
        stream.read(PhysAddr(2, 0), 127)
        stream.read(PhysAddr(2, 2), 127)
        stream.read(PhysAddr(2, 5), 127)
        cached = [slot for slot in range(127) if PhysAddr(2, slot) in stream.cache]
        assert cached == [0, 2] + list(range(5, 5 + READAHEAD_BLOCKS))

    def test_batch_starts_at_the_head_and_counts_each_block(self):
        disk, stream, log = bare_stream()
        stream.read(PhysAddr(2, 0), 127)
        found = stream.read_many(
            [PhysAddr(2, 4), PhysAddr(2, 2), PhysAddr(2, 30), PhysAddr(3, 1)]
        )
        assert set(found) == {
            PhysAddr(2, 4), PhysAddr(2, 2), PhysAddr(2, 30), PhysAddr(3, 1),
        }
        assert all(len(data) == BLOCK for data in found.values())
        assert shape(log) == [(0, 1), (1, 4), (30, 1), (1, 1)]
        assert [request.at_head for request in log] == [False, True, False, False]
        # 2 and 4 were reached from the head, 30 and (3, 1) were not.
        assert (stream.positioned, stream.streamed) == (3, 2)
        assert stream.gap_blocks == 2
        assert stream.windows == 0
        assert len(stream.cache) == 5


# ----------------------------------------------------------------------
# 2. On a log
# ----------------------------------------------------------------------


class TestOnALog:
    def test_stride_two_layout_streams(self):
        disk, ld = volume()
        blocks = fill(ld, 160)
        log = log_requests(disk)
        for index in range(0, len(blocks), 2):
            assert ld.read(blocks[index]) == payload(index)
        # One positioning for the whole run; what follows starts at
        # the head: a near miss, then windows end to end.
        assert [request.at_head for request in log] == [False] + [True] * (
            len(log) - 1
        )
        assert shape(log[:4]) == [
            (0, 1), (1, 2), (3, 1 + READAHEAD_BLOCKS), (36, READAHEAD_BLOCKS),
        ]
        assert len(log) <= 2 + -(-len(blocks) // READAHEAD_BLOCKS)
        stats = ld.stats()["read_stream"]
        assert stats["positioned"] == 1
        assert stats["positioned"] + stats["streamed"] == len(log)

    def test_sequential_read_continues_from_the_windows_end(self):
        # Fails on the parent: it remembered the window's first slot,
        # so the miss at the window's end read one block and re-armed.
        disk, ld = volume()
        blocks = fill(ld, 160)
        total = len(blocks)
        log = log_requests(disk)
        for index, block in enumerate(blocks):
            assert ld.read(block) == payload(index)
        assert shape(log) == [(0, 1)] + [
            (start, min(READAHEAD_BLOCKS, total - start))
            for start in range(1, total, READAHEAD_BLOCKS)
        ]

    def test_batch_leaves_the_stream_where_the_head_is(self):
        # Fails on the parent: it remembered the address that came
        # last in request order (slot 1), not where the head ended.
        disk, ld = volume()
        blocks = fill(ld, 160)
        ld.read_many([blocks[2], blocks[0], blocks[1]])
        log = log_requests(disk)
        assert ld.read(blocks[3]) == payload(3)
        assert shape(log) == [(3, READAHEAD_BLOCKS)]
        assert log[0].at_head

    @pytest.mark.parametrize(
        "intervention", ["segment write", "write_at", "cleaner", "checkpoint"]
    )
    def test_a_moved_head_makes_the_next_read_positioned(self, intervention):
        disk, ld = volume(segments=24)
        on = {}
        for block in write_blocks(ld, 560):
            on.setdefault(address(ld, block).segment, []).append(block)
        first, *later = sorted(on)
        blocks = on[first]
        ld.read(blocks[10])
        if intervention == "segment write":
            write_blocks(ld, 140)
        elif intervention == "write_at":
            disk.write_at(disk.geometry.num_segments - 1, 0, b"x" * 512)
        elif intervention == "cleaner":
            # Three segments with five live blocks each: worth a pass
            # that reads the victims and writes their copies.
            for segment in later[:3]:
                for block in on[segment][5:]:
                    ld.write(block, payload(0))
            ld.flush()
            before = disk.read_count
            SegmentCleaner(ld).clean(ld.usage.free_count + 1)
            assert disk.read_count > before
        else:
            ld.write_checkpoint()
        ld.cache.invalidate_all()
        log = log_requests(disk)
        # A near miss of a stream whose head is gone: positioned.
        assert ld.read(blocks[12]) == payload(12)
        assert shape(log) == [(12, 1)] and not log[0].at_head
        # The head is back, and this is the second near miss running.
        assert ld.read(blocks[14]) == payload(14)
        assert shape(log[1:]) == [(13, 1 + READAHEAD_BLOCKS)] and log[1].at_head

    def test_sequential_reader_between_log_writes_keeps_its_window(self):
        # Figure 5's create phase at the paper's scale scans the i-node
        # table one block per ~60 creates, a segment write between any
        # two misses.  Two adjacent misses are a sequential reader
        # wherever the head has been since; only the cost is the disk's.
        disk, ld = volume(segments=24)
        blocks = fill(ld, 160)
        ld.read(blocks[10])
        write_blocks(ld, 140)
        log = log_requests(disk)
        assert ld.read(blocks[11]) == payload(11)
        assert shape(log) == [(11, READAHEAD_BLOCKS)] and not log[0].at_head
        write_blocks(ld, 140)
        del log[:]
        assert ld.read(blocks[11 + READAHEAD_BLOCKS]) == payload(11 + READAHEAD_BLOCKS)
        assert shape(log) == [(11 + READAHEAD_BLOCKS, READAHEAD_BLOCKS)]
        stats = ld.stats()["read_stream"]
        assert (stats["positioned"], stats["streamed"]) == (3, 0)
        assert stats["windows"] == 2

    def test_window_stays_below_the_chunks_of_a_segment_flushed_in_place(self):
        disk, ld = volume(segment_kb=128, segments=16)
        lst = ld.new_list()
        blocks = []
        # Small flushes stack chunks above the data slots until the
        # segment is full; then it is closed and the next one opens.
        while len({address(ld, b).segment for b in blocks}) < 2:
            for _ in range(3):
                blocks.append(ld.new_block(lst))
                ld.write(blocks[-1], payload(len(blocks) - 1))
            ld.flush()
        assert ld.stats()["segments"]["in_place_writes"] > 0
        segment = address(ld, blocks[0]).segment
        total = ld.usage.total_slots(segment)
        assert ld.usage.state(segment) is SegmentState.DIRTY
        assert READAHEAD_BLOCKS > total > 2
        ld.cache.invalidate_all()
        log = log_requests(disk)
        for index in range(total):
            assert ld.read(blocks[index]) == payload(index)
        assert shape(log) == [(0, 1), (1, total - 1)]

    def test_media_fault_degrades_a_streamed_read_like_a_positioned_one(self):
        disk, ld = volume()
        blocks = write_blocks(ld, 300)
        for index in range(10):  # old copies stay in the first segment
            ld.write(blocks[index], payload(200 + index))
        write_blocks(ld, 140)
        victim = address(ld, blocks[1]).segment
        slot = address(ld, blocks[1]).slot
        assert address(ld, blocks[299]) == PhysAddr(victim, slot - 2)
        assert ld.usage.state(victim) is SegmentState.DIRTY
        ld.read(blocks[299])  # the head is now two slots short
        disk.injector.add_media_fault(MediaFault(victim, "unreadable"))
        salvaged = ld.read(blocks[1])
        assert salvaged == payload(1)  # stale, from the first segment
        assert victim in ld._scrub_pending
        with pytest.raises(UnrecoverableBlockError):
            ld.read(blocks[298])
        scrub = ld.stats()["scrub"]
        assert scrub["degraded_reads"] == 2
        assert scrub["salvaged_reads"] == scrub["unrecoverable_reads"] == 1

    def test_quarantined_segment_is_never_streamed_through(self):
        disk, ld = volume()
        blocks = fill(ld, 160)
        victim = address(ld, blocks[0]).segment
        ld.read(blocks[0])
        ld.usage.quarantine(victim)
        log = log_requests(disk)
        with pytest.raises(UnrecoverableBlockError):
            ld.read(blocks[2])
        with pytest.raises(UnrecoverableBlockError):
            ld.read_many([blocks[3], blocks[4]])
        assert all(request.segment != victim for request in log)

    def test_counters_account_for_every_foreground_read(self):
        disk, ld = volume()
        blocks = write_blocks(ld, 300)
        before = disk.read_count
        for index in (0, 2, 4, 90, 91, 3, 150, 152):
            ld.read(blocks[index])
        ld.read_many([blocks[160], blocks[161], blocks[170]])
        assert address(ld, blocks[150]).segment == address(ld, blocks[170]).segment
        total = ld.usage.total_slots(address(ld, blocks[0]).segment)
        stats = ld.stats()["read_stream"]
        assert stats["positioned"] + stats["streamed"] == (
            disk.read_count - before
        )
        assert stats == {
            "positioned": 4,  # 0, 90, 3 (a dropped gap block), 150
            "streamed": 7,
            "windows": 2,  # at 4 and at 91
            "window_blocks": READAHEAD_BLOCKS + min(READAHEAD_BLOCKS, total - 91),
            "gap_blocks": 1 + 1 + 1 + 7 + 8,
        }

    def test_jld_reads_homes_through_the_same_stream(self):
        geometry = DiskGeometry(
            block_size=BLOCK, segment_size=512 * 1024, num_segments=16
        )
        disk = SimulatedDisk(geometry)
        jld = JLD(disk, journal_segments=4, checkpoint_slot_segments=1)
        lst = jld.new_list()
        blocks = [jld.new_block(lst) for _ in range(80)]
        for index, block in enumerate(blocks):
            jld.write(block, payload(index))
        jld.flush()
        jld.apply()
        jld.cache.invalidate_all()
        homes = [jld.homes[block] for block in blocks]
        assert homes == [PhysAddr(homes[0].segment, i) for i in range(80)]
        log = log_requests(disk)
        for index in range(0, 80, 2):
            assert jld.read(blocks[index]) == payload(index)
        assert shape(log) == [
            (0, 1), (1, 2), (3, 1 + READAHEAD_BLOCKS), (36, READAHEAD_BLOCKS),
            (68, READAHEAD_BLOCKS),
        ]
        assert isinstance(jld._read_stream, ReadStream)


# ----------------------------------------------------------------------
# 3. Against a model of the volume's contents
# ----------------------------------------------------------------------


class ReadStreamMachine(RuleBasedStateMachine):
    """One op sequence on a volume, every read checked against the
    bytes last written."""

    BLOCKS = 90

    @initialize()
    def format(self):
        self.disk, self.ld = volume(
            segment_kb=64,
            segments=32,
            cache_blocks=24,
            clean_low_water=4,
            clean_high_water=8,
        )
        lst = self.ld.new_list()
        self.blocks = [self.ld.new_block(lst) for _ in range(self.BLOCKS)]
        self.model = [b""] * self.BLOCKS
        self.watch(self.disk, self.ld._read_stream)
        self.value = 0
        self.write_run(0, self.BLOCKS, 1)

    def watch(self, disk, stream):
        """Check every request of ``stream`` that starts at the head
        against the positioned read of what it keeps."""
        model = disk.timer.model
        timer = disk.timer
        read = stream.read

        def checked(addr, slot_limit):
            head = disk.head_offset
            target = (
                disk.geometry.segment_offset(addr.segment) + addr.slot * BLOCK
            )
            before = (timer.busy_us, timer.bytes_transferred)
            sequential = timer.sequential_requests
            data = read(addr, slot_limit)
            cost = timer.busy_us - before[0]
            nbytes = timer.bytes_transferred - before[1]
            kept = nbytes
            if timer.sequential_requests > sequential:
                kept -= target - head
                assert cost <= model.request_us(kept, sequential=False) + 1e-6
            assert kept % BLOCK == 0
            assert 1 <= kept // BLOCK <= max(1, slot_limit - addr.slot)
            return data

        stream.read = checked

    def write_run(self, start, count, stride):
        self.value = self.value % 250 + 1
        data = bytes([self.value]) * BLOCK
        for index in range(start, min(self.BLOCKS, start + count * stride), stride):
            self.ld.write(self.blocks[index], data)
            self.model[index] = data

    @rule(
        start=st.integers(0, BLOCKS - 1),
        count=st.integers(1, 40),
        stride=st.integers(1, 3),
    )
    def write(self, start, count, stride):
        self.write_run(start, count, stride)

    @rule()
    def flush(self):
        self.ld.flush()

    @rule(
        start=st.integers(0, BLOCKS - 1),
        count=st.integers(1, 30),
        stride=st.integers(-2, 4).filter(bool),
    )
    def read(self, start, count, stride):
        for index in range(start, start + count * stride, stride):
            if 0 <= index < self.BLOCKS:
                assert self.ld.read(self.blocks[index]) == self.model[index]

    @rule(indexes=st.lists(st.integers(0, BLOCKS - 1), min_size=2, max_size=8))
    def read_many(self, indexes):
        got = self.ld.read_many([self.blocks[index] for index in indexes])
        assert got == [self.model[index] for index in indexes]

    @rule(extra=st.integers(1, 3))
    def clean(self, extra):
        self.ld.flush()
        SegmentCleaner(self.ld).clean(self.ld.usage.free_count + extra)

    @invariant()
    def sound(self):
        if hasattr(self, "ld"):
            assert verify_lld(self.ld) == []


MACHINE_SETTINGS = settings(
    max_examples=15,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestReadStreamMachine(ReadStreamMachine.TestCase):
    settings = MACHINE_SETTINGS


if __name__ == "__main__":
    examples = int(sys.argv[1]) if len(sys.argv) > 1 else 400
    run_state_machine_as_test(
        ReadStreamMachine,
        settings=settings(MACHINE_SETTINGS, max_examples=examples),
    )
    print(f"read stream state machine: {examples} examples ok")
