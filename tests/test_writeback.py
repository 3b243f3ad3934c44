"""The pipelined write path: write_many, write-behind, group commit.

Three layers under test:

* :meth:`~repro.disk.simdisk.SimulatedDisk.write_many` — scatter-gather
  batched segment writes with per-write fault-injection semantics.
* :class:`~repro.lld.writeback.WritebackQueue` — sealed segments park
  and drain in log order; barriers (``flush``, ``write_checkpoint``)
  make everything durable; queued segments stay readable and invisible
  to the cleaner.
* Group commit — ``end_aru`` logs its commit record as the serial
  path does and counts it into the open group, which is flushed at a
  cap, at a simulated-time budget, or at a barrier.

The crash sweeps at the bottom are the correctness proof the write
pipeline rides on: at *every* physical-write index, the write-behind
configuration leaves the platter byte-identical to the serial writer,
group commit leaves that of the serial writer flushing after every
group, and group commit preserves ARU all-or-nothing atomicity.
"""

import pytest

from repro.disk.faults import FaultInjector, FaultPlan, PowerCut
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.lld.config import LLDConfig
from repro.errors import (
    BadBlockError,
    ConcurrencyError,
    DiskCrashedError,
    SegmentOverflowError,
)
from repro.lld.lld import LLD
from repro.lld.recovery import recover
from repro.lld.summary import EntryKind
from repro.lld.usage import SegmentState
from repro.lld.verify import verify_lld

from tests.oracle import platter_bytes


def make_disk(num_segments=64, injector=None):
    return SimulatedDisk(DiskGeometry.small(num_segments=num_segments), injector=injector)


def make_lld(num_segments=64, injector=None, **kwargs):
    kwargs.setdefault("checkpoint_slot_segments", 2)
    return LLD(make_disk(num_segments, injector), config=LLDConfig(**kwargs))


def fill_blocks(ld, count, tag=b"blk"):
    """Allocate and write ``count`` blocks outside any ARU; returns
    {block_id: payload}."""
    lst = ld.new_list()
    data = {}
    for index in range(count):
        block = ld.new_block(lst)
        payload = b"%s-%05d" % (tag, index)
        ld.write(block, payload)
        data[block] = payload
    return data


def assert_payloads(ld, data):
    for block, payload in data.items():
        assert ld.read(block).startswith(payload), block


# ======================================================================
# Disk layer: write_many
# ======================================================================


class TestWriteMany:
    def test_roundtrip_matches_serial_writes(self):
        a, b = make_disk(), make_disk()
        images = [
            (seg, bytes([seg]) * a.geometry.segment_size)
            for seg in (3, 4, 5, 9)
        ]
        for seg, image in images:
            a.write_segment(seg, image)
        b.write_many(images)
        for seg, image in images:
            assert a.read_segment(seg) == image == b.read_segment(seg)
        assert a.write_count == b.write_count == len(images)

    def test_adjacent_segments_coalesce_into_one_run(self):
        disk = make_disk()
        image = b"\xaa" * disk.geometry.segment_size
        disk.write_many([(seg, image) for seg in (10, 11, 12)])
        stats = disk.stats()
        assert stats["write_batches"] == 1
        assert stats["write_batched_requests"] == 3
        assert stats["write_batched_runs"] == 1

    def test_scattered_segments_cost_a_run_each(self):
        disk = make_disk()
        image = b"\xbb" * disk.geometry.segment_size
        disk.write_many([(seg, image) for seg in (2, 20, 40)])
        assert disk.stats()["write_batched_runs"] == 3

    def test_batched_write_faster_than_serial(self):
        serial, batched = make_disk(), make_disk()
        image = b"\xcc" * serial.geometry.segment_size
        segs = list(range(8, 14))
        for seg in segs:
            serial.write_segment(seg, image)
        serial_us = serial.clock.now_us
        batched.write_many([(seg, image) for seg in segs])
        assert batched.clock.now_us < serial_us

    def test_crash_mid_batch_tears_one_write_drops_the_rest(self):
        # after_writes=2: the write that crosses the budget — the
        # third — is the crashing one.
        cut = PowerCut(after_writes=2, torn=True, seed=7)
        injector = FaultInjector(plan=FaultPlan(power_cut=cut))
        disk = make_disk(injector=injector)
        geo = disk.geometry
        images = [(seg, bytes([seg]) * geo.segment_size) for seg in (5, 6, 7, 8)]
        with pytest.raises(DiskCrashedError):
            disk.write_many(images)
        platter = disk.power_cycle()
        # Writes 1-2 survive whole, write 3 is torn (a strict prefix
        # of new data over old zeros), write 4 never happened.
        assert platter.read_segment(5) == images[0][1]
        assert platter.read_segment(6) == images[1][1]
        torn = platter.read_segment(7)
        assert torn != images[2][1]
        assert set(torn) <= {0, 7}
        assert platter.read_segment(8) == b"\x00" * geo.segment_size

    def test_crash_counts_match_serial_semantics(self):
        """after_writes=N crashes on the N-th physical write whether
        the writes arrive one at a time or in one batch."""
        geo = DiskGeometry.small(num_segments=16)
        image = b"\xdd" * geo.segment_size
        for n in (1, 2, 3):
            plan = FaultPlan(power_cut=PowerCut(after_writes=n, torn=False))
            serial = SimulatedDisk(geo, injector=FaultInjector(plan=plan))
            batched = SimulatedDisk(geo, injector=FaultInjector(plan=plan))
            with pytest.raises(DiskCrashedError):
                for seg in (1, 2, 3, 4):
                    serial.write_segment(seg, image)
            with pytest.raises(DiskCrashedError):
                batched.write_many([(seg, image) for seg in (1, 2, 3, 4)])
            assert serial._segments == batched._segments, n

    def test_validates_before_writing_anything(self):
        disk = make_disk()
        good = b"\xee" * disk.geometry.segment_size
        with pytest.raises(ValueError):
            disk.write_many([(1, good), (2, b"short")])
        assert disk.write_count == 0
        with pytest.raises(ValueError):
            disk.write_many([(1, good), (disk.geometry.num_segments, good)])
        assert disk.write_count == 0


# ======================================================================
# LLD layer: the write-behind queue
# ======================================================================


class TestWritebackQueue:
    def test_depth_zero_is_write_through(self):
        ld = make_lld(writeback_depth=0)
        before = ld.disk.write_count
        fill_blocks(ld, 40)
        assert ld.disk.write_count > before  # segments hit disk eagerly
        stats = ld.stats()["writeback"]
        assert stats["depth"] == 0
        assert stats["submitted"] == 0
        assert stats["queued"] == 0

    def test_sealed_segments_park_until_flush(self):
        ld = make_lld(writeback_depth=16)
        before = ld.disk.write_count
        data = fill_blocks(ld, 40)  # several 16-block segments
        stats = ld.stats()["writeback"]
        assert stats["queued"] >= 2
        assert ld.disk.write_count == before  # nothing durable yet
        for seg in ld._writeback.pending_segments():
            assert ld.usage.state(seg) is SegmentState.QUEUED
        ld.flush()
        assert ld.disk.write_count > before
        assert ld.stats()["writeback"]["queued"] == 0
        for seg, *_ in ld.usage.dirty_segments():
            assert ld.usage.state(seg) is SegmentState.DIRTY
        assert_payloads(ld, data)
        assert verify_lld(ld) == []

    def test_queued_blocks_readable_without_cache(self):
        ld = make_lld(writeback_depth=16)
        data = fill_blocks(ld, 40)
        queued = ld._writeback.pending_segments()
        assert queued
        for seg in queued:
            ld.cache.invalidate_segment(seg)
        # Platter has nothing for these segments; reads must come from
        # the parked images.
        assert_payloads(ld, data)
        many = ld.read_many(list(data))
        for payload, got in zip(data.values(), many):
            assert got.startswith(payload)

    def test_auto_drain_at_depth_uses_one_batch(self):
        ld = make_lld(writeback_depth=2)
        fill_blocks(ld, 40)
        wb = ld.stats()["writeback"]
        assert wb["auto_drains"] >= 1
        assert wb["max_depth_seen"] == 2
        assert ld.disk.stats()["write_batches"] >= 1
        assert ld.disk.stats()["write_batched_requests"] >= 2

    def test_drain_batch_coalesces_sequential_segments(self):
        ld = make_lld(writeback_depth=4)
        fill_blocks(ld, 80)
        ld.flush()
        stats = ld.disk.stats()
        # Consecutively allocated segments are physically adjacent, so
        # batches collapse into far fewer runs than requests.
        assert stats["write_batched_runs"] < stats["write_batched_requests"]

    def test_commit_durability_waits_for_drain(self):
        ld = make_lld(writeback_depth=16)
        aru = ld.begin_aru()
        lst = ld.new_list(aru)
        block = ld.new_block(lst, aru=aru)
        ld.write(block, b"in-aru", aru)
        ld.end_aru(aru)
        # Commit record may still sit in the open buffer or the queue.
        assert not ld.checkpoint_safe()
        ld.flush()
        assert ld.checkpoint_safe()
        assert int(aru) in ld._commit_on_disk

    def test_cleaner_never_selects_queued_segments(self):
        from repro.lld.cleaner import SegmentCleaner

        ld = make_lld(writeback_depth=16)
        fill_blocks(ld, 40)
        queued = ld._writeback.pending_segments()
        assert queued
        cleaner = SegmentCleaner(ld)
        victims = cleaner.select_victims(len(queued) + 8)
        assert not (set(victims) & queued)

    def test_write_behind_survives_power_cycle_after_flush(self):
        ld = make_lld(writeback_depth=8)
        data = fill_blocks(ld, 40)
        ld.flush()
        ld2, report = recover(
            ld.disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=2, writeback_depth=8),
        )
        assert_payloads(ld2, data)
        assert verify_lld(ld2) == []

    def test_unflushed_queue_lost_on_crash_like_serial_buffer(self):
        ld = make_lld(writeback_depth=16)
        committed = fill_blocks(ld, 40, tag=b"old")
        ld.flush()
        fill_blocks(ld, 40, tag=b"new")  # parked, never drained
        ld2, _report = recover(
            ld.disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        assert_payloads(ld2, committed)
        assert verify_lld(ld2) == []


# ======================================================================
# LLD layer: group commit
# ======================================================================


def run_aru(ld, lst, payload, aru=None):
    close = aru is None
    if aru is None:
        aru = ld.begin_aru()
    block = ld.new_block(lst, aru=aru)
    ld.write(block, payload, aru)
    if close:
        ld.end_aru(aru)
    return block


class TestGroupCommit:
    def test_cap_releases_one_group(self):
        ld = make_lld(group_commit=True, group_commit_max_parked=3,
                      group_commit_timeout_us=1e9)
        lst = ld.new_list()
        blocks = [run_aru(ld, lst, b"gc-%d" % i) for i in range(3)]
        gc = ld.stats()["group_commit"]
        assert gc["groups_flushed"] == 1
        assert gc["commits_grouped"] == 3
        assert gc["parked"] == 0
        # The cap release is a drain point: everything is durable.
        assert ld.checkpoint_safe()
        for i, block in enumerate(blocks):
            assert ld.read(block).startswith(b"gc-%d" % i)

    def test_group_shares_one_commit_segment(self):
        """N grouped commits land through one drain, not N partial
        flushes — the N-commits-one-write payoff."""
        ld = make_lld(group_commit=True, group_commit_max_parked=4,
                      group_commit_timeout_us=1e9)
        lst = ld.new_list()
        ld.flush()
        flushed_before = ld.segments_flushed
        for i in range(4):
            run_aru(ld, lst, b"shared-%d" % i)
        # All four ARUs' data and commit records fit two segments
        # (data + commits), not four commit flushes.
        assert ld.segments_flushed - flushed_before <= 2
        assert ld.checkpoint_safe()

    def test_flush_releases_partial_group(self):
        ld = make_lld(group_commit=True, group_commit_max_parked=8,
                      group_commit_timeout_us=1e9)
        lst = ld.new_list()
        block = run_aru(ld, lst, b"partial")
        gc = ld.stats()["group_commit"]
        assert gc["parked"] == 1
        assert not ld.checkpoint_safe()
        ld.flush()
        gc = ld.stats()["group_commit"]
        assert gc["parked"] == 0
        assert gc["commits_grouped"] == 1
        assert ld.checkpoint_safe()
        assert ld.read(block).startswith(b"partial")

    def test_timer_budget_releases_group(self):
        ld = make_lld(group_commit=True, group_commit_max_parked=100,
                      group_commit_timeout_us=5.0)
        lst = ld.new_list()
        run_aru(ld, lst, b"timed")
        assert ld.stats()["group_commit"]["parked"] == 1
        # Any later begin/end checks the deadline; the cost-model
        # charges of intervening operations advance simulated time
        # well past 5 us.
        aru = ld.begin_aru()
        gc = ld.stats()["group_commit"]
        assert gc["parked"] == 0
        assert gc["groups_flushed"] == 1
        ld.abort_aru(aru)

    def test_abort_against_parked_state(self):
        ld = make_lld(group_commit=True, group_commit_max_parked=8,
                      group_commit_timeout_us=1e9)
        lst = ld.new_list()
        keep = ld.begin_aru()
        drop = ld.begin_aru()
        kept_block = run_aru(ld, lst, b"kept", aru=keep)
        dropped_block = run_aru(ld, lst, b"dropped", aru=drop)
        ld.end_aru(keep)  # parks
        ld.abort_aru(drop)  # must work with a commit parked
        ld.flush()
        assert ld.read(kept_block).startswith(b"kept")
        # Allocation commits immediately; the aborted write is undone,
        # so the block reads back as never written.
        assert ld.read(dropped_block) == b"\x00" * ld.geometry.block_size
        assert verify_lld(ld) == []

    def test_checkpoint_flushes_parked_commits_first(self):
        ld = make_lld(group_commit=True, group_commit_max_parked=8,
                      group_commit_timeout_us=1e9)
        lst = ld.new_list()
        block = run_aru(ld, lst, b"ckpt")
        assert not ld.checkpoint_safe()
        ld.write_checkpoint()  # flush() inside releases the group
        ld2, report = recover(
            ld.disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        assert ld2.read(block).startswith(b"ckpt")

    def test_sequential_mode_checkpoint_guard_still_raises(self):
        ld = make_lld(aru_mode="sequential", group_commit=True,
                      group_commit_timeout_us=1e9)
        aru = ld.begin_aru()
        with pytest.raises(ConcurrencyError):
            ld.write_checkpoint()
        ld.end_aru(aru)
        ld.write_checkpoint()

    def test_parked_commits_lost_on_crash_are_not_recovered(self):
        """A crash before the group is flushed loses its commits —
        exactly the window an unflushed commit record has in the
        serial path — and recovery undoes those ARUs."""
        ld = make_lld(group_commit=True, group_commit_max_parked=100,
                      group_commit_timeout_us=1e9, writeback_depth=16)
        lst = ld.new_list()
        ld.flush()
        block = run_aru(ld, lst, b"unreleased")
        assert ld.stats()["group_commit"]["parked"] == 1
        ld2, _report = recover(
            ld.disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        from repro.errors import BadBlockError

        with pytest.raises(BadBlockError):
            ld2.read(block)
        assert verify_lld(ld2) == []

    def test_open_group_commit_rides_a_segment_write(self):
        """The commit record is in the log from ``end_aru`` on, so a
        segment written before the group is flushed carries it: the
        ARU survives a crash that comes before that flush."""
        ld = make_lld(group_commit=True, group_commit_max_parked=100,
                      group_commit_timeout_us=1e9)
        lst = ld.new_list()
        ld.flush()
        block = run_aru(ld, lst, b"rides")
        fill_blocks(ld, 40)  # rolls several segments, written through
        assert ld.stats()["group_commit"]["parked"] == 1
        ld2, _report = recover(
            ld.disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        assert ld2.read(block).startswith(b"rides")
        assert verify_lld(ld2) == []

    def test_group_commit_many_arus_storm(self):
        ld = make_lld(num_segments=128, group_commit=True,
                      group_commit_max_parked=16, group_commit_timeout_us=1e9)
        lst = ld.new_list()
        blocks = [run_aru(ld, lst, b"storm-%03d" % i) for i in range(64)]
        ld.flush()
        gc = ld.stats()["group_commit"]
        assert gc["commits_grouped"] == 64
        assert gc["groups_flushed"] >= 4
        for i, block in enumerate(blocks):
            assert ld.read(block).startswith(b"storm-%03d" % i)
        assert verify_lld(ld) == []


# ======================================================================
# Satellites: overflow guard, empty flush, fill stats
# ======================================================================


class _HugeEntry:
    """A summary entry too large for an *empty* segment."""

    kind = EntryKind.COMMIT
    aru_tag = 0
    timestamp = 1

    def __init__(self, size):
        self._size = size

    def encoded_size(self):
        return self._size


class TestEmitEntryGuard:
    def test_oversized_entry_raises_precise_error(self):
        ld = make_lld()
        capacity = ld.geometry.usable_size
        with pytest.raises(SegmentOverflowError) as excinfo:
            ld._emit_entry(_HugeEntry(capacity + 1))
        assert excinfo.value.needed == capacity + 1
        assert excinfo.value.capacity == capacity
        assert "COMMIT" in str(excinfo.value)

    def test_oversized_entry_consumes_no_segments(self):
        ld = make_lld()
        free_before = ld.usage.free_count
        flushed_before = ld.segments_flushed
        with pytest.raises(SegmentOverflowError):
            ld._emit_entry(_HugeEntry(ld.geometry.usable_size + 1))
        assert ld.usage.free_count == free_before
        assert ld.segments_flushed == flushed_before
        # The instance is still usable.
        lst = ld.new_list()
        block = ld.new_block(lst)
        ld.write(block, b"still-alive")
        assert ld.read(block).startswith(b"still-alive")

    def test_entry_that_fits_an_empty_segment_rolls_instead(self):
        ld = make_lld()
        fill_blocks(ld, 10)  # partially fill the current buffer
        flushed_before = ld.segments_flushed
        # Larger than what's left in the buffer, smaller than an empty
        # segment: this must roll, not raise.
        size = ld._buffer.bytes_free() + 1
        assert size <= ld.geometry.usable_size
        ld._emit_entry(_HugeEntry(size))
        assert ld.segments_flushed > flushed_before


class TestEmptyFlushAndCheckpoint:
    @pytest.mark.parametrize("depth", [0, 8])
    def test_empty_flush_consumes_no_segment(self, depth):
        ld = make_lld(writeback_depth=depth)
        free_before = ld.usage.free_count
        flushed_before = ld.segments_flushed
        ld.flush()
        ld.flush()
        assert ld.usage.free_count == free_before
        assert ld.segments_flushed == flushed_before
        assert ld.checkpoint_safe()
        # Must not raise, must not consume a segment; the empty open
        # buffer's segment goes back to the pool.
        ld.write_checkpoint()
        assert ld.usage.free_count >= free_before
        assert ld.segments_flushed == flushed_before

    def test_flush_after_real_work_then_empty_flush(self):
        ld = make_lld(writeback_depth=8)
        fill_blocks(ld, 5)
        ld.flush()
        flushed = ld.segments_flushed
        ld.flush()
        assert ld.segments_flushed == flushed


class TestFillStats:
    def test_fill_accounting_tracks_sealed_segments(self):
        ld = make_lld(writeback_depth=4)
        fill_blocks(ld, 40)
        ld.flush()
        seg_stats = ld.stats()["segments"]
        assert seg_stats["sealed"] >= 2
        assert seg_stats["sealed"] == seg_stats["flushed"]
        assert seg_stats["data_bytes"] > 0
        assert seg_stats["summary_bytes"] > 0
        assert 0.0 < seg_stats["avg_fill"] <= 1.0
        assert 0.0 < seg_stats["min_fill"] <= seg_stats["avg_fill"]

    def test_full_segments_fill_close_to_one(self):
        ld = make_lld()
        fill_blocks(ld, 64)  # forces several full 16-block segments
        ld.flush()
        seg_stats = ld.stats()["segments"]
        # Rolled segments are full up to summary-vs-block granularity.
        assert seg_stats["avg_fill"] > 0.5

    def test_no_segments_sealed_reports_zero(self):
        ld = make_lld()
        seg_stats = ld.stats()["segments"]
        assert seg_stats["sealed"] == 0
        assert seg_stats["avg_fill"] == 0.0
        assert seg_stats["min_fill"] is None


# ======================================================================
# The crash-sweep proof
# ======================================================================


def lld_workload(ld):
    """Deterministic mixed workload: plain writes, ARUs, aborts, with
    scattered flushes so partial segments reach the disk too."""
    lst = ld.new_list()
    for index in range(12):
        block = ld.new_block(lst)
        ld.write(block, b"plain-%02d" % index)
    for round_no in range(32):
        aru = ld.begin_aru()
        for i in range(6):
            block = ld.new_block(lst, aru=aru)
            ld.write(block, b"aru-%02d-%d" % (round_no, i), aru)
        if round_no % 3 == 2:
            ld.abort_aru(aru)
        else:
            ld.end_aru(aru)
        if round_no % 4 == 3:
            ld.flush()
    ld.flush()


def sweep_configs():
    serial = LLDConfig(
        checkpoint_slot_segments=2, writeback_depth=0, group_commit=False
    )
    return serial, serial.replace(writeback_depth=4)


def run_sweep_instance(config, crash_after, torn):
    cut = PowerCut(after_writes=crash_after, torn=torn, seed=crash_after)
    injector = FaultInjector(plan=FaultPlan(power_cut=cut))
    disk = make_disk(injector=injector)
    ld = LLD(disk, config=config)
    crashed = True
    try:
        lld_workload(ld)
        crashed = False
    except DiskCrashedError:
        pass
    return disk, crashed


class TestCrashSweepByteIdentity:
    """At every crash index the write-behind platter is byte-identical
    to the serial writer's — same writes, same content, same order —
    so recovery's reachable states are exactly the serial ones."""

    @pytest.mark.parametrize("torn", [False, True])
    def test_every_crash_point_matches_serial(self, torn):
        serial_cfg, pipelined_cfg = sweep_configs()
        # Total writes with no crash plan (identical by construction;
        # asserted below anyway).
        probe = make_disk()
        ld = LLD(probe, config=serial_cfg)
        lld_workload(ld)
        limit = probe.write_count
        probe2 = make_disk()
        ld2 = LLD(probe2, config=pipelined_cfg)
        lld_workload(ld2)
        assert probe2.write_count == limit
        assert probe._segments == probe2._segments
        assert limit > 10, "workload too small to be interesting"

        for crash_after in range(1, limit + 1):
            serial_disk, s_crashed = run_sweep_instance(
                serial_cfg, crash_after, torn
            )
            pipe_disk, p_crashed = run_sweep_instance(
                pipelined_cfg, crash_after, torn
            )
            assert s_crashed == p_crashed, (torn, crash_after)
            assert serial_disk._segments == pipe_disk._segments, (
                torn,
                crash_after,
            )
            if not s_crashed:
                continue
            # And the pipelined platter recovers cleanly.
            recovered, _report = recover(
                pipe_disk.power_cycle(),
                config=LLDConfig(checkpoint_slot_segments=2),
            )
            assert verify_lld(recovered) == [], (torn, crash_after)


def aru_sequence(ld, flush_every=0):
    """Plain writes, then ARUs with aborts; with ``flush_every`` the
    caller flushes after every that many ``end_aru``, where group
    commit would release its group."""
    lst = ld.new_list()
    for index in range(12):
        block = ld.new_block(lst)
        ld.write(block, b"plain-%02d" % index)
    commits = 0
    for round_no in range(32):
        aru = ld.begin_aru()
        for i in range(6):
            block = ld.new_block(lst, aru=aru)
            ld.write(block, b"aru-%02d-%d" % (round_no, i), aru)
        if round_no % 4 == 2:
            ld.abort_aru(aru)
            continue
        ld.end_aru(aru)
        commits += 1
        if flush_every and commits % flush_every == 0:
            ld.flush()
    ld.flush()


class TestCrashSweepGroupCommitIsSerialPlusFlushes:
    """Group commit is the serial writer plus flushes: with the timer
    out of reach, a group of three commits leaves at every crash index
    the platter and write count of the serial writer flushing after
    every third ``end_aru``."""

    @pytest.mark.parametrize("torn", [False, True])
    def test_every_crash_point_matches_flushing_serial(self, torn):
        grouped = LLDConfig(
            checkpoint_slot_segments=2,
            writeback_depth=4,
            group_commit=True,
            group_commit_max_parked=3,
            group_commit_timeout_us=1e9,
        )
        serial = grouped.replace(group_commit=False)

        def run(config, flush_every, crash_after=None):
            injector = None
            if crash_after is not None:
                cut = PowerCut(
                    after_writes=crash_after, torn=torn, seed=crash_after
                )
                injector = FaultInjector(plan=FaultPlan(power_cut=cut))
            disk = make_disk(injector=injector)
            try:
                aru_sequence(LLD(disk, config=config), flush_every)
            except DiskCrashedError:
                pass
            return disk.write_count, platter_bytes(disk)

        limit, _platter = run(serial, 3)
        assert limit > 10, "workload too small to be interesting"
        for crash_after in [None, *range(1, limit + 1)]:
            assert run(grouped, 0, crash_after) == run(
                serial, 3, crash_after
            ), (torn, crash_after)


class TestCrashSweepGroupCommitAtomicity:
    """Group commit changes *when* commit records reach the disk, never
    what an ARU's atomicity promises: at every crash index each ARU is
    all-or-nothing after recovery."""

    @pytest.mark.parametrize("torn", [False, True])
    def test_every_crash_point_is_atomic(self, torn):
        config = LLDConfig(
            checkpoint_slot_segments=2,
            writeback_depth=4,
            group_commit=True,
            group_commit_max_parked=3,
            group_commit_timeout_us=1e9,
        )

        def workload(ld):
            lst = ld.new_list()
            groups = []
            for g in range(10):
                members = []
                for i in range(4):
                    block = ld.new_block(lst)
                    ld.write(block, b"old-%d-%d" % (g, i))
                    members.append(block)
                groups.append(members)
            ld.flush()
            for g, members in enumerate(groups):
                aru = ld.begin_aru()
                for i, block in enumerate(members):
                    ld.write(block, b"new-%d-%d" % (g, i), aru)
                ld.end_aru(aru)
            ld.flush()
            return groups

        probe = make_disk(num_segments=96)
        groups = workload(LLD(probe, config=config))
        limit = probe.write_count
        assert limit > 5

        for crash_after in range(1, limit + 1):
            cut = PowerCut(
                after_writes=crash_after, torn=torn, seed=crash_after
            )
            injector = FaultInjector(plan=FaultPlan(power_cut=cut))
            disk = make_disk(num_segments=96, injector=injector)
            ld = LLD(disk, config=config)
            try:
                workload(ld)
                continue  # budget outlived the workload
            except DiskCrashedError:
                pass
            recovered, _report = recover(
                disk.power_cycle(),
                config=LLDConfig(checkpoint_slot_segments=2),
            )
            assert verify_lld(recovered) == [], (torn, crash_after)
            for g, members in enumerate(groups):
                states = set()
                for i, block in enumerate(members):
                    try:
                        got = recovered.read(block)
                    except BadBlockError:
                        # Crash before this baseline allocation became
                        # durable (or the orphan sweep freed it).
                        states.add("zero")
                        continue
                    if got.startswith(b"new-%d-%d" % (g, i)):
                        states.add("new")
                    elif got.startswith(b"old-%d-%d" % (g, i)):
                        states.add("old")
                    elif got == b"\x00" * recovered.geometry.block_size:
                        # Crash before the plain baseline write of this
                        # block became durable — the baseline phase has
                        # no atomicity promise of its own.
                        states.add("zero")
                    else:  # pragma: no cover - failure path
                        raise AssertionError(
                            f"group {g} block {block}: unexpected {got[:16]!r} "
                            f"(torn={torn} crash={crash_after})"
                        )
                # The ARU rewrite is all-or-nothing: if any member
                # carries the new version, every member must.
                assert "new" not in states or states == {"new"}, (
                    f"group {g} torn between versions {states} "
                    f"(torn={torn} crash={crash_after})"
                )
