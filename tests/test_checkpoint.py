"""Unit tests for the checkpoint format and manager."""

import struct
import zlib

import pytest

from repro import recover
from repro.disk.faults import FaultInjector, MediaFault, PowerCut
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import DiskCrashedError, DiskFullError, ShardLostError
from repro.jld import JLD
from repro.ld.types import SYSTEM_ID_BASE
from repro.lld.checkpoint import (
    CKPT_MAGIC,
    CKPT_VERSION,
    FLAG_HAS_ADDR,
    CheckpointData,
    CheckpointManager,
    default_slot_segments,
    pack_block_rows,
    pack_list_rows,
)
from repro.lld.cleaner import SegmentCleaner
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.usage import QUARANTINE_SEQ
from repro.lld.verify import verify_lld
from repro.workloads.generator import overwrite_pressure

from tests.oracle import state_fingerprint

SECTOR = 512


@pytest.fixture
def disk():
    return SimulatedDisk(DiskGeometry.small(num_segments=16))


def sample_data(seq=1, n_blocks=2):
    """``n_blocks`` block rows in wire order: (block_id, successor,
    list_id, timestamp, segment, slot, flags)."""
    blocks = [(1, 2, 3, 10, 4, 5, FLAG_HAS_ADDR), (2, 0, 3, 11, 0, 0, 0)]
    blocks += [
        (index + 1, 0, 1, index, 2, index, FLAG_HAS_ADDR)
        for index in range(2, n_blocks)
    ]
    return CheckpointData(
        ckpt_seq=seq,
        last_log_seq=42,
        next_block_id=100,
        next_list_id=50,
        next_aru_id=7,
        block_rows=pack_block_rows(blocks),
        list_rows=pack_list_rows([(3, 1, 2, 2, 12)]),
        segments={4: (9, 3, 8), 5: (10, 0, 2)},
    )


def tear_next_write(disk, surviving):
    """Cut power inside the disk's next write, keeping exactly
    ``surviving`` bytes of it (0 drops the write whole)."""
    injector = disk.injector
    injector.crash_plan = PowerCut(after_writes=injector.writes_seen, torn=True)
    injector._tear_point = lambda nbytes: surviving


class TestRoundTrip:
    def test_write_then_load(self, disk):
        mgr = CheckpointManager(disk, slot_segments=1)
        mgr.write(sample_data())
        loaded = mgr.load()
        assert loaded.ckpt_seq == 1
        assert loaded.last_log_seq == 42
        assert loaded.next_block_id == 100
        assert loaded.next_list_id == 50
        assert loaded.next_aru_id == 7
        assert len(loaded.blocks) == 2
        assert loaded.blocks[0][-1] & FLAG_HAS_ADDR
        assert not loaded.blocks[1][-1] & FLAG_HAS_ADDR
        assert loaded.lists == [(3, 1, 2, 2, 12)]
        assert loaded.segments == {4: (9, 3, 8), 5: (10, 0, 2)}

    def test_empty_disk_loads_empty(self, disk):
        mgr = CheckpointManager(disk, slot_segments=1)
        loaded = mgr.load()
        assert loaded.ckpt_seq == 0
        assert loaded.blocks == []

    def test_newest_checkpoint_wins(self, disk):
        mgr = CheckpointManager(disk, slot_segments=1)
        mgr.write(sample_data(seq=1))
        newer = sample_data(seq=2)
        newer.next_block_id = 999
        mgr.write(newer)
        assert mgr.load().next_block_id == 999

    def test_slots_alternate(self, disk):
        mgr = CheckpointManager(disk, slot_segments=1)
        assert mgr._slot_base(1) != mgr._slot_base(2)
        assert mgr._slot_base(1) == mgr._slot_base(3)

    def test_corrupt_new_slot_falls_back(self, disk):
        mgr = CheckpointManager(disk, slot_segments=1)
        mgr.write(sample_data(seq=1))
        mgr.write(sample_data(seq=2))
        # Smash the slot holding checkpoint 2.
        base = mgr._slot_base(2)
        disk.write_segment(base, b"\xff" * disk.geometry.segment_size)
        assert mgr.load().ckpt_seq == 1

    def test_oversized_checkpoint_rejected(self, disk):
        mgr = CheckpointManager(disk, slot_segments=1)
        data = sample_data()
        data.block_rows = pack_block_rows(
            (index, 0, 0, 0, 0, 0, 0) for index in range(100_000)
        )
        with pytest.raises(DiskFullError):
            mgr.write(data)

    def test_multi_segment_checkpoint(self, disk):
        mgr = CheckpointManager(disk, slot_segments=3)
        # Big enough to spill into the second chunk of the slot.
        count = disk.geometry.segment_size // 41 + 50
        mgr.write(sample_data(n_blocks=count))
        loaded = mgr.load()
        assert len(loaded.blocks) == count
        assert loaded.blocks[-1][0] == count


class TestWrittenAtRealSize:
    """A checkpoint write costs its payload, not its reservation."""

    def test_short_checkpoint_is_one_sector_rounded_write(self, disk):
        mgr = CheckpointManager(disk, slot_segments=3)
        data = sample_data()
        payload, written = mgr.write(data)
        assert payload == data.total_len == len(mgr._serialize(data))
        assert written == -(-payload // SECTOR) * SECTOR
        assert disk.write_count == 1
        assert disk.timer.bytes_transferred == written

    @pytest.mark.parametrize("whole", [1, 2])
    def test_exact_segment_multiple_and_one_byte_more(self, disk, whole):
        """``k × segment_size`` bytes is k segment writes and no tail;
        one byte more adds a one-sector tail in segment k."""
        seg_size = disk.geometry.segment_size
        header, block, decided = 96, 41, 8
        exact = sample_data()
        exact.block_rows, exact.list_rows, exact.segments = b"", b"", {}
        exact.decided_xids = list(range((whole * seg_size - header) // decided))
        longer = sample_data(seq=2)
        longer.block_rows = pack_block_rows([(1, 0, 0, 0, 0, 0, 0)])
        longer.list_rows, longer.segments = b"", {}
        # 41 = 5 * 8 + 1: one block row and five fewer xids is +1 byte.
        longer.decided_xids = exact.decided_xids[5:]
        assert exact.total_len == whole * seg_size
        assert longer.total_len == whole * seg_size + 1 == (
            header + block + decided * len(longer.decided_xids)
        )

        mgr = CheckpointManager(disk, slot_segments=3)
        assert mgr.write(exact) == (whole * seg_size, whole * seg_size)
        assert disk.write_count == whole
        assert mgr.load() == exact
        assert mgr.write(longer) == (
            whole * seg_size + 1,
            whole * seg_size + SECTOR,
        )
        assert disk.write_count == 2 * whole + 1
        assert mgr.load() == longer

    def test_short_over_long_loads_short_and_reads_no_stale_segment(self, disk):
        """Slot reuse: checkpoint 3 is shorter than checkpoint 1 whose
        slot it overwrites; the stale tail stays on the platter and is
        never read."""
        mgr = CheckpointManager(disk, slot_segments=3)
        seg_size = disk.geometry.segment_size
        long_data = sample_data(seq=1, n_blocks=2 * seg_size // 41)
        assert long_data.total_len > 2 * seg_size
        mgr.write(long_data)
        mgr.write(sample_data(seq=2))
        short = sample_data(seq=3, n_blocks=5)
        mgr.write(short)
        base = mgr._slot_base(3)
        stale = mgr._serialize(long_data)
        assert disk._segments[base + 1] == stale[seg_size : 2 * seg_size]
        assert disk._segments[base][short.total_len + SECTOR :] == (
            stale[short.total_len + SECTOR : seg_size]
        )

        reads = []
        read_segment = disk.read_segment
        disk.read_segment = lambda seg: reads.append(seg) or read_segment(seg)
        assert mgr.load() == short
        assert sorted(reads) == [mgr._slot_base(2), base]

    def test_short_over_long_torn_anywhere_keeps_previous(self):
        """A short write into a long slot torn at any sector boundary
        mixes new bytes with the old checkpoint's; the CRC rejects
        the mix and the other slot wins."""
        short = sample_data(seq=3, n_blocks=60)
        sectors = -(-short.total_len // SECTOR)
        assert sectors > 4
        for kept in range(sectors):
            disk = SimulatedDisk(DiskGeometry.small(num_segments=16))
            mgr = CheckpointManager(disk, slot_segments=3)
            mgr.write(sample_data(seq=1, n_blocks=4000))
            mgr.write(sample_data(seq=2))
            tear_next_write(disk, kept * SECTOR)
            with pytest.raises(DiskCrashedError):
                mgr.write(short)
            survivor = CheckpointManager(disk.power_cycle(), slot_segments=3)
            assert survivor.load() == sample_data(seq=2), kept


class TestLoadErrors:
    def test_media_fault_means_no_checkpoint_in_that_slot(self, disk):
        mgr = CheckpointManager(disk, slot_segments=1)
        mgr.write(sample_data(seq=1))
        mgr.write(sample_data(seq=2))
        disk.injector.add_media_fault(MediaFault(mgr._slot_base(2)))
        assert mgr.load().ckpt_seq == 1

    def test_media_fault_in_a_later_segment_of_the_slot(self, disk):
        mgr = CheckpointManager(disk, slot_segments=3)
        mgr.write(sample_data(seq=1))
        count = disk.geometry.segment_size // 41 + 50
        mgr.write(sample_data(seq=2, n_blocks=count))
        disk.injector.add_media_fault(MediaFault(mgr._slot_base(2) + 1))
        assert mgr.load().ckpt_seq == 1

    def test_retired_handle_raises_instead_of_loading_empty(self, disk):
        mgr = CheckpointManager(disk, slot_segments=1)
        mgr.write(sample_data())
        disk.power_cycle()
        with pytest.raises(DiskCrashedError):
            mgr.load()

    def test_lost_shard_raises_instead_of_loading_empty(self):
        injector = FaultInjector()
        disk = SimulatedDisk(
            DiskGeometry.small(num_segments=16), injector=injector, shard_index=1
        )
        mgr = CheckpointManager(disk, slot_segments=1)
        mgr.write(sample_data())
        injector.lose_shard(1)
        with pytest.raises(ShardLostError):
            mgr.load()

    def test_bug_in_the_read_path_is_not_swallowed(self, disk):
        mgr = CheckpointManager(disk, slot_segments=1)
        mgr.write(sample_data())

        def broken(_segment_no):
            raise RuntimeError("bug")

        disk.read_segment = broken
        with pytest.raises(RuntimeError):
            mgr.load()


# ----------------------------------------------------------------------
# Torn checkpoint writes under a live LLD
# ----------------------------------------------------------------------

TEAR_GEO = DiskGeometry.small(num_segments=96, block_size=512)
TEAR_SLOTS = 3


def checkpointed_lld(n_blocks):
    """An LLD with ``n_blocks`` blocks, checkpoint 1 on disk and a
    flushed log suffix after it: what checkpoint 2 is written over."""
    disk = SimulatedDisk(TEAR_GEO)
    ld = LLD(disk, config=LLDConfig(checkpoint_slot_segments=TEAR_SLOTS))
    lst = ld.new_list()
    blocks = [ld.new_block(lst) for _ in range(n_blocks)]
    for index, block in enumerate(blocks):
        ld.write(block, bytes([index % 251]) * 32)
    ld.write_checkpoint()
    aru = ld.begin_aru()
    extra = ld.new_block(lst, aru=aru)
    ld.write(extra, b"after checkpoint 1", aru=aru)
    ld.write(blocks[0], b"rewritten", aru=aru)
    ld.end_aru(aru)
    ld.delete_block(blocks[-1])
    ld.flush()
    return disk, ld


def recovered_fingerprints(disk):
    """``state_fingerprint`` of the platter recovered in both modes."""
    prints = []
    for mode in ("eager", "instant"):
        ld, report = recover(
            disk.power_cycle(),
            mode=mode,
            config=LLDConfig(checkpoint_slot_segments=TEAR_SLOTS),
        )
        ld.complete_restore()
        assert report.checkpoint_seq == 1
        assert verify_lld(ld) == []
        prints.append(state_fingerprint(ld, report))
    return prints


def fingerprints_from_checkpoint_1(n_blocks):
    """The reference: checkpoint 2 never started."""
    disk, _ld = checkpointed_lld(n_blocks)
    eager, instant = recovered_fingerprints(disk)
    assert eager == instant
    return eager


class TestTornCheckpointWrite:
    def test_short_checkpoint_torn_at_every_sector_boundary(self):
        n_blocks = 60
        expected = fingerprints_from_checkpoint_1(n_blocks)
        disk, ld = checkpointed_lld(n_blocks)
        total_len = ld._snapshot_checkpoint().total_len
        sectors = -(-total_len // SECTOR)
        assert 4 < sectors and total_len < TEAR_GEO.segment_size
        for kept in range(sectors):
            disk, ld = checkpointed_lld(n_blocks)
            tear_next_write(disk, kept * SECTOR)
            with pytest.raises(DiskCrashedError):
                ld.write_checkpoint()
            assert ld.checkpoints.last_written_seq == 1
            loader = CheckpointManager(disk.power_cycle(), TEAR_SLOTS)
            assert loader.load().ckpt_seq == 1, kept
            assert recovered_fingerprints(disk) == [expected, expected], kept

    def test_multi_segment_checkpoint_torn_at_every_segment_boundary(self):
        n_blocks = 450
        expected = fingerprints_from_checkpoint_1(n_blocks)
        disk, ld = checkpointed_lld(n_blocks)
        seg_size = TEAR_GEO.segment_size
        whole, tail = divmod(ld._snapshot_checkpoint().total_len, seg_size)
        assert whole == 2 and tail
        for durable in range(whole + 1):
            disk, ld = checkpointed_lld(n_blocks)
            # ``durable`` whole segments reach the platter, then the
            # next write of the checkpoint is dropped.
            injector = disk.injector
            injector.crash_plan = PowerCut(
                after_writes=injector.writes_seen + durable
            )
            with pytest.raises(DiskCrashedError):
                ld.write_checkpoint()
            assert disk.write_count == injector.writes_seen
            loader = CheckpointManager(disk.power_cycle(), TEAR_SLOTS)
            assert loader.load().ckpt_seq == 1, durable
            assert recovered_fingerprints(disk) == [expected, expected], durable

    def test_crash_inside_a_cleaner_checkpoint_is_attributed(self):
        """A power cut inside the cleaner's checkpoint marks the
        volume dead as ``disk_crashed_mid_checkpoint``, and cleaner
        checkpoints appear in the flight recorder like explicit ones."""
        disk = SimulatedDisk(DiskGeometry.small(num_segments=24))
        ld = LLD(
            disk,
            config=LLDConfig(
                checkpoint_slot_segments=1,
                clean_low_water=3,
                clean_high_water=6,
            ),
        )
        overwrite_pressure(ld, working_set_blocks=40, n_writes=300)
        assert ld.cleanings > 0
        events = [
            e for e in ld.obs.recorder.events() if e["event"] == "checkpoint"
        ]
        assert events[-1]["ckpt_seq"] == ld.stats()["checkpoint"]["last_seq"] > 0

        checkpoint_write = ld.checkpoints.write

        def cut_power(data):
            tear_next_write(disk, SECTOR)
            return checkpoint_write(data)

        ld.checkpoints.write = cut_power
        with pytest.raises(DiskCrashedError):
            overwrite_pressure(ld, working_set_blocks=40, n_writes=600, seed=3)
        dead = [e for e in ld.obs.recorder.events() if e["event"] == "lld.dead"]
        assert [e["reason"] for e in dead] == ["disk_crashed_mid_checkpoint"]


# ----------------------------------------------------------------------
# The codec against the per-record reference it replaced
# ----------------------------------------------------------------------


def reference_lld_rows(lld):
    """Persistent records -> (blocks, lists) field tuples the way the
    snapshot was taken when each record became a dataclass."""
    blocks = [
        (
            int(block_id),
            int(rec.successor) if rec.successor is not None else 0,
            int(rec.list_id) if rec.list_id is not None else 0,
            rec.timestamp,
            rec.address.segment if rec.address else 0,
            rec.address.slot if rec.address else 0,
            rec.address is not None,
        )
        for block_id, rec in sorted(lld.bmap.persistent.items())
    ]
    lists = [
        (
            int(list_id),
            int(rec.first) if rec.first is not None else 0,
            int(rec.last) if rec.last is not None else 0,
            rec.count,
            rec.timestamp,
        )
        for list_id, rec in sorted(lld.ltable.persistent.items())
    ]
    return blocks, lists


def reference_jld_rows(jld):
    blocks = [
        (
            int(block_id),
            int(block.successor) if block.successor else 0,
            int(block.list_id) if block.list_id else 0,
            block.timestamp,
            jld.homes[block_id].segment,
            jld.homes[block_id].slot,
            block.address is not None,
        )
        for block_id, block in sorted(jld.bmap.persistent.items())
    ]
    lists = [
        (
            int(list_id),
            int(lst.first) if lst.first else 0,
            int(lst.last) if lst.last else 0,
            lst.count,
            lst.timestamp,
        )
        for list_id, lst in sorted(jld.ltable.persistent.items())
    ]
    return blocks, lists


def reference_serialize(data, blocks, lists):
    """The serializer this codec replaced: one ``struct.pack`` per
    record appended to a growing bytearray.  ``blocks``/``lists`` are
    the reference rows (``has_addr`` a bool); header fields, roster
    and decided xids come from ``data``."""
    header_fmt = "<4sHHQQQQQQQQQQQ"
    body = bytearray()
    for bid, succ, lid, ts, seg, slot, has_addr in blocks:
        body += struct.pack("<QQQQIIB", bid, succ, lid, ts, seg, slot,
                            0x1 if has_addr else 0)
    for lid, first, last, count, ts in lists:
        body += struct.pack("<QQQQQ", lid, first, last, count, ts)
    for seg, (seq, live, total) in sorted(data.segments.items()):
        body += struct.pack("<IQII", seg, seq, live, total)
    for xid in sorted(data.decided_xids):
        body += struct.pack("<Q", xid)
    total_len = struct.calcsize(header_fmt) + len(body)
    header = struct.pack(
        header_fmt,
        CKPT_MAGIC,
        CKPT_VERSION,
        0,
        data.ckpt_seq,
        data.last_log_seq,
        data.next_block_id,
        data.next_list_id,
        data.next_aru_id,
        len(blocks),
        len(lists),
        len(data.segments),
        len(data.decided_xids),
        total_len,
        0,
    )
    crc = zlib.crc32(header[:-8] + bytes(body))
    return header[:-8] + struct.pack("<Q", crc) + bytes(body)


class TestCodecMatchesReference:
    def test_lld_state(self):
        disk = SimulatedDisk(DiskGeometry.small(num_segments=64))
        ld = LLD(disk, config=LLDConfig(checkpoint_slot_segments=2))
        first, second = ld.new_list(), ld.new_list()
        ld.new_list()  # stays empty
        blocks = [ld.new_block(first) for _ in range(40)]
        for index, block in enumerate(blocks[:30]):  # 10 stay address-less
            ld.write(block, bytes([index + 1]) * 100)
        # Sparse ids far beyond the dense range (replica mirrors).
        far_list = ld.new_list(list_id=SYSTEM_ID_BASE + 7)
        far = ld.new_block(far_list, block_id=SYSTEM_ID_BASE + 9)
        ld.write(far, b"far")
        ld.new_block(second, block_id=SYSTEM_ID_BASE + 11)
        ld.delete_block(blocks[3])
        ld.log_decision(77)
        ld.log_decision(5)
        ld.flush()
        dirty = [seg for seg, _live, _seq in ld.usage.dirty_segments()]
        ld.usage.quarantine(dirty[0])

        data = ld._snapshot_checkpoint()
        assert data.decided_xids == [5, 77]
        assert data.segments[dirty[0]] == (QUARANTINE_SEQ, 0, 0)
        assert any(not row[-1] for row in data.blocks)
        assert data.blocks[-1][0] == SYSTEM_ID_BASE + 11
        assert ld.checkpoints._serialize(data) == reference_serialize(
            data, *reference_lld_rows(ld)
        )

    def test_jld_state(self):
        disk = SimulatedDisk(DiskGeometry.small(num_segments=96))
        jld = JLD(disk, journal_segments=6, checkpoint_slot_segments=2)
        lst = jld.new_list()
        jld.new_list()
        blocks = [jld.new_block(lst) for _ in range(20)]
        for index, block in enumerate(blocks[:12]):  # 8 never written
            jld.write(block, bytes([index + 1]) * 100)
        jld.delete_block(blocks[5])
        jld.flush()
        data = jld._snapshot()
        assert any(not row[-1] for row in data.blocks)
        assert jld.checkpoints._serialize(data) == reference_serialize(
            data, *reference_jld_rows(jld)
        )

    def test_loaded_rows_are_the_written_rows(self, disk):
        mgr = CheckpointManager(disk, slot_segments=2)
        data = sample_data(n_blocks=300)
        data.decided_xids = [9, 3]
        mgr.write(data)
        loaded = mgr.load()
        assert loaded.decided_xids == [3, 9]
        loaded.decided_xids = data.decided_xids
        assert loaded == data


# ----------------------------------------------------------------------
# One checkpoint per cleaner run
# ----------------------------------------------------------------------


class TestCleanerRunsCheckpointOnce:
    def test_roomy_log_reaches_high_water_in_one_pass(self):
        disk = SimulatedDisk(DiskGeometry.small(num_segments=64))
        ld = LLD(disk, config=LLDConfig(checkpoint_slot_segments=1))
        blocks = overwrite_pressure(ld, working_set_blocks=100, n_writes=500)
        ld.flush()
        writes_before = ld.stats()["checkpoint"]["writes"]
        target = ld.usage.free_count + 6
        report = SegmentCleaner(ld).clean(target_free=target)
        assert report.passes == 1
        assert ld.usage.free_count >= target
        assert ld.stats()["checkpoint"]["writes"] == writes_before + 1
        assert verify_lld(ld) == []
        for index, block in enumerate(blocks):
            assert ld.read(block).startswith(f"block-{index}-".encode())

    def test_every_run_of_a_storm_on_a_roomy_log_is_one_pass(self):
        disk = SimulatedDisk(DiskGeometry.small(num_segments=64))
        ld = LLD(disk, config=LLDConfig(checkpoint_slot_segments=1))
        high_water = ld.clean_high_water
        after_run = []
        run_cleaner = ld._run_cleaner

        def observed():
            run_cleaner()
            after_run.append(ld.usage.free_count)

        ld._run_cleaner = observed
        overwrite_pressure(ld, working_set_blocks=100, n_writes=4000)
        stats = ld.stats()
        assert stats["cleaner"]["runs"] == len(after_run) > 5
        assert min(after_run) >= high_water
        assert stats["cleaner"]["passes"] == stats["cleaner"]["runs"]
        assert stats["checkpoint"]["writes"] == stats["cleaner"]["runs"]
        assert stats["checkpoint"]["last_seq"] == stats["checkpoint"]["writes"]
        assert stats["checkpoint"]["payload_bytes"] <= (
            stats["checkpoint"]["bytes_written"]
        ) < stats["checkpoint"]["payload_bytes"] + SECTOR * len(after_run)
        assert verify_lld(ld) == []

    def test_tight_disk_still_takes_bounded_passes(self):
        """Victims two-thirds live on a nearly full disk: the
        workspace budget truncates each pass, so a run needs several,
        each ending in its own checkpoint."""
        disk = SimulatedDisk(DiskGeometry.small(num_segments=24))
        ld = LLD(
            disk,
            config=LLDConfig(
                checkpoint_slot_segments=1,
                clean_low_water=3,
                clean_high_water=6,
            ),
        )
        blocks = overwrite_pressure(ld, working_set_blocks=200, n_writes=3000)
        stats = ld.stats()
        assert stats["cleaner"]["passes"] > stats["cleaner"]["runs"] > 0
        assert stats["checkpoint"]["writes"] == stats["cleaner"]["passes"]
        assert verify_lld(ld) == []
        for index, block in enumerate(blocks):
            assert ld.read(block).startswith(f"block-{index}-".encode())


class TestSizing:
    def test_default_slot_segments_scale_with_partition(self):
        small = default_slot_segments(DiskGeometry.small(num_segments=16))
        large = default_slot_segments(DiskGeometry.paper_partition())
        assert small >= 1
        assert large >= small

    def test_default_never_eats_partition(self):
        geo = DiskGeometry.small(num_segments=16)
        assert 2 * default_slot_segments(geo) < geo.num_segments


# ----------------------------------------------------------------------
# Rows repacked only where they changed
# ----------------------------------------------------------------------


def scratch_rows(lld):
    """Both table sections packed from nothing, the reference way."""
    blocks, lists = reference_lld_rows(lld)
    return (
        pack_block_rows(row[:-1] + (FLAG_HAS_ADDR if row[-1] else 0,) for row in blocks),
        pack_list_rows(lists),
    )


class TestRowsRepackedWhereChanged:
    def make(self):
        disk = SimulatedDisk(DiskGeometry.small(num_segments=64))
        ld = LLD(disk, config=LLDConfig(checkpoint_slot_segments=2))
        lists = [ld.new_list() for _ in range(3)]
        blocks = [ld.new_block(lists[index % 3]) for index in range(30)]
        for index, block in enumerate(blocks):
            ld.write(block, bytes([index]) * 64)
        far = ld.new_list(list_id=SYSTEM_ID_BASE + 3)
        ld.new_block(far, block_id=SYSTEM_ID_BASE + 4)
        ld.write_checkpoint()
        return disk, ld, lists, blocks

    def test_only_the_changed_rows_are_packed(self):
        _disk, ld, lists, blocks = self.make()
        assert ld.bmap.changed == set() and ld.ltable.changed == set()
        ld.write(blocks[4], b"again")
        ld.delete_block(blocks[7])
        extra = ld.new_block(lists[1])
        ld.flush()
        # blocks[10] precedes blocks[7] in their list: its successor moved.
        assert ld.bmap.changed == {blocks[4], blocks[7], blocks[10], extra}
        assert ld.ltable.changed == {lists[1]}
        packed = []
        for rows in (ld._block_rows, ld._list_rows):
            pack = rows.pack
            rows.pack = lambda ident, rec, pack=pack: packed.append(ident) or pack(
                ident, rec
            )
        ld.write_checkpoint()
        assert sorted(packed) == sorted([blocks[4], blocks[10], extra, lists[1]])
        assert verify_lld(ld) == []
        loaded = ld.checkpoints.load()
        assert (loaded.block_rows, loaded.list_rows) == scratch_rows(ld)

    def test_verify_finds_a_change_nobody_marked(self):
        _disk, ld, _lists, blocks = self.make()
        ld.bmap.persistent[blocks[2]].timestamp += 1
        assert verify_lld(ld) == [
            f"stale checkpoint row for block {blocks[2]}: its record "
            "changed and it is not marked changed"
        ]
        ld.bmap.mark_changed(blocks[2])
        assert verify_lld(ld) == []

    @pytest.mark.parametrize("mode", ["eager", "instant"])
    def test_first_checkpoint_after_recovery_is_packed_from_scratch(self, mode):
        disk, ld, lists, blocks = self.make()
        for block in blocks[::3]:
            ld.write(block, b"after the checkpoint")
        ld.delete_list(lists[2])
        ld.flush()
        recovered, _report = recover(
            disk.power_cycle(),
            mode=mode,
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        assert recovered.bmap.changed is None
        recovered.write(blocks[0], b"restored")
        recovered.write_checkpoint()
        assert not recovered.restore_active
        assert recovered.bmap.changed == set()
        assert verify_lld(recovered) == []
        loaded = recovered.checkpoints.load()
        assert (loaded.block_rows, loaded.list_rows) == scratch_rows(recovered)
