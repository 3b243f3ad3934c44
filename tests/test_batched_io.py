"""Batched I/O fast path: scatter-gather reads and run coalescing.

Covers the disk-level ``read_many`` API (request ordering, fault
policies, timing coalescence), the LLD-level ``read_many`` (parity
with a loop of single reads, cache interaction), the interface-level
default, and the readahead/cache regressions the cleaner relies on.
"""

import random

import pytest

from repro.disk.faults import FaultInjector, FaultPlan, MediaFault
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.disk.timing import coalesce_runs
from repro.errors import MediaError
from repro.jld import JLD
from repro.ld.types import FIRST, PhysAddr
from repro.lld.cache import BlockCache
from repro.lld.cleaner import SegmentCleaner
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.workloads.generator import overwrite_pressure


def make_disk(num_segments=16):
    return SimulatedDisk(DiskGeometry.small(num_segments=num_segments))


def small_lld(num_segments=24, **kwargs):
    geo = DiskGeometry.small(num_segments=num_segments)
    disk = SimulatedDisk(geo)
    kwargs.setdefault("checkpoint_slot_segments", 1)
    return disk, LLD(disk, config=LLDConfig(**kwargs))


class TestCoalesceRuns:
    def test_empty(self):
        assert coalesce_runs([]) == []

    def test_disjoint_preserved_sorted(self):
        assert coalesce_runs([(100, 10), (0, 10)]) == [(0, 10), (100, 10)]

    def test_adjacent_fused(self):
        assert coalesce_runs([(0, 10), (10, 10), (20, 5)]) == [(0, 25)]

    def test_overlap_fused(self):
        assert coalesce_runs([(0, 20), (10, 30)]) == [(0, 40)]

    def test_contained_range_absorbed(self):
        assert coalesce_runs([(0, 100), (10, 5)]) == [(0, 100)]

    def test_mixed(self):
        runs = coalesce_runs([(50, 10), (0, 10), (10, 10), (61, 4)])
        assert runs == [(0, 20), (50, 10), (61, 4)]


class TestDiskReadMany:
    def test_results_in_request_order(self):
        disk = make_disk()
        seg_size = disk.geometry.segment_size
        disk.write_segment(3, b"c" * seg_size)
        disk.write_segment(1, b"a" * seg_size)
        out = disk.read_many([(3, 0, 4), (1, 0, 4), (3, 8, 2)])
        assert out == [b"cccc", b"aaaa", b"cc"]

    def test_unwritten_segment_reads_zeros(self):
        disk = make_disk()
        (out,) = disk.read_many([(5, 0, 8)])
        assert out == b"\x00" * 8

    def test_bounds_checked(self):
        disk = make_disk()
        seg_size = disk.geometry.segment_size
        with pytest.raises(ValueError):
            disk.read_many([(0, seg_size - 2, 4)])
        with pytest.raises(ValueError):
            disk.read_many([(0, -1, 4)])

    def test_bad_errors_policy_rejected(self):
        disk = make_disk()
        with pytest.raises(ValueError):
            disk.read_many([(0, 0, 4)], errors="ignore")

    def test_adjacent_requests_coalesce_to_one_run(self):
        disk = make_disk()
        seg_size = disk.geometry.segment_size
        for seg in range(4, 8):
            disk.write_segment(seg, bytes([seg]) * seg_size)
        before = disk.timer.requests
        disk.read_many([(seg, 0, seg_size) for seg in range(4, 8)])
        assert disk.timer.requests - before == 1  # one fused run
        assert disk.timer.batches == 1
        assert disk.timer.batched_requests == 4
        assert disk.timer.batched_runs == 1

    def test_batch_cheaper_than_scattered_serial_reads(self):
        # Issued out of order, serial reads pay a seek per request;
        # the batch sorts and coalesces them into one sequential run.
        geo = DiskGeometry.small(num_segments=16)
        order = [7, 4, 6, 5]

        serial = SimulatedDisk(geo)
        start = serial.clock.now_us
        for seg in order:
            serial.read_segment(seg)
        serial_us = serial.clock.now_us - start

        batched = SimulatedDisk(geo)
        start = batched.clock.now_us
        batched.read_many([(seg, 0, geo.segment_size) for seg in order])
        batched_us = batched.clock.now_us - start

        assert batched.timer.batched_runs == 1
        # Both transfer the same bytes; the batch saves the three
        # redundant seek+rotation+overhead positionings.
        model = batched.timer.model
        random_cost = (
            model.avg_seek_us
            + model.avg_rotational_us
            + model.controller_overhead_us
        )
        assert serial_us - batched_us == pytest.approx(3 * random_cost)

    def test_media_fault_raises_by_default(self):
        fault = MediaFault(segment_no=5, kind="unreadable")
        injector = FaultInjector(plan=FaultPlan(media_faults=[fault]))
        disk = SimulatedDisk(
            DiskGeometry.small(num_segments=16), injector=injector
        )
        with pytest.raises(MediaError):
            disk.read_many([(4, 0, 8), (5, 0, 8)])

    def test_media_fault_none_policy_isolates_failure(self):
        fault = MediaFault(segment_no=5, kind="unreadable")
        injector = FaultInjector(plan=FaultPlan(media_faults=[fault]))
        disk = SimulatedDisk(
            DiskGeometry.small(num_segments=16), injector=injector
        )
        seg_size = disk.geometry.segment_size
        disk.write_segment(4, b"x" * seg_size)
        out = disk.read_many([(4, 0, 4), (5, 0, 4)], errors="none")
        assert out == [b"xxxx", None]

    def test_stats_expose_batch_counters(self):
        disk = make_disk()
        disk.read_many([(0, 0, 8), (1, 0, 8)])
        stats = disk.stats()
        assert stats["read_batches"] == 1
        assert stats["batched_requests"] == 2
        assert stats["batched_runs"] >= 1

    def test_stats_split_bytes_by_direction(self):
        disk = make_disk()
        disk.write_at(3, 0, b"w" * 1024)
        disk.read_many([(0, 0, 8), (1, 0, 8)])
        stats = disk.stats()
        assert (stats["bytes_read"], stats["bytes_written"]) == (16, 1024)
        assert stats["bytes_transferred"] == 1040


class TestReadManyMixedFaults:
    """``errors="none"`` under a mix of unreadable and corrupt media."""

    def _faulted_disk(self):
        injector = FaultInjector(
            plan=FaultPlan(
                media_faults=[
                    MediaFault(2, "unreadable"),
                    MediaFault(5, "corrupt"),
                    MediaFault(7, "unreadable"),
                ]
            )
        )
        disk = SimulatedDisk(
            DiskGeometry.small(num_segments=16), injector=injector
        )
        seg_size = disk.geometry.segment_size
        for seg in range(8):
            disk.write_segment(seg, bytes([seg]) * seg_size)
        return disk

    def test_holes_keep_request_order(self):
        disk = self._faulted_disk()
        out = disk.read_many(
            [(seg, 0, 4) for seg in (7, 0, 2, 5, 1)], errors="none"
        )
        # Unreadable segments are None holes at their request index;
        # corrupt segments return (flipped) bytes, not holes.
        assert out[0] is None and out[2] is None
        assert out[1] == b"\x00" * 4
        assert out[3] == b"\xfa" * 4  # ~0x05: bit-flipped, silently
        assert out[4] == b"\x01" * 4

    def test_faulted_requests_not_counted_as_reads(self):
        disk = self._faulted_disk()
        before = disk.read_count
        disk.read_many(
            [(0, 0, 4), (2, 0, 4), (7, 0, 4), (1, 0, 4)], errors="none"
        )
        stats = disk.stats()
        # Only the two successful requests transfer data: the holes
        # charge neither the read counter nor the timing batch.
        assert disk.read_count - before == 2
        assert stats["batched_requests"] == 2

    def test_all_holes_charges_no_batch(self):
        disk = self._faulted_disk()
        out = disk.read_many([(2, 0, 4), (7, 0, 4)], errors="none")
        assert out == [None, None]
        assert disk.stats()["read_batches"] == 0

    def test_corrupt_read_is_deterministic(self):
        disk = self._faulted_disk()
        a = disk.read_many([(5, 0, 16)], errors="none")
        b = disk.read_many([(5, 0, 16)], errors="none")
        assert a == b

    def test_recovery_classifier_consumes_holes(self):
        """An unreadable segment surfaces as a quarantined segment in
        the recovery report, not as an aborted scan — by the batched
        production scan and the serial reference scan alike."""
        from repro.lld.config import LLDConfig
        from repro.lld.recovery import recover
        from repro.lld.recovery_reference import reference_recover

        disk, lld = small_lld(num_segments=24)
        build_sequential_blocks(lld, 40)
        victim = next(
            seg for seg, _live, _seq in lld.usage.dirty_segments()
        )
        disk.injector.add_media_fault(MediaFault(victim, "unreadable"))
        survivor = disk.power_cycle()
        config = LLDConfig(checkpoint_slot_segments=1)
        for recover_fn in (reference_recover, recover):
            recovered, report = recover_fn(survivor, config=config)
            assert report.segments_unreadable == 1
            assert report.segments_quarantined == 1
            assert victim in recovered.usage.quarantined_segments()
            survivor = survivor.power_cycle()


def build_sequential_blocks(lld, count):
    """Allocate, chain, and write ``count`` blocks in log order."""
    lst = lld.new_list()
    blocks = []
    previous = FIRST
    for index in range(count):
        block = lld.new_block(lst, predecessor=previous)
        lld.write(block, f"payload-{index}".encode())
        blocks.append(block)
        previous = block
    lld.flush()
    return blocks


class TestLLDReadMany:
    def test_parity_with_single_reads(self):
        disk, lld = small_lld()
        blocks = build_sequential_blocks(lld, 48)
        lld.cache.invalidate_all()
        batched = lld.read_many(blocks)
        lld.cache.invalidate_all()
        single = [lld.read(block) for block in blocks]
        assert batched == single

    def test_batched_misses_are_one_disk_batch(self):
        disk, lld = small_lld()
        blocks = build_sequential_blocks(lld, 48)
        lld.cache.invalidate_all()
        before = disk.timer.batches
        lld.read_many(blocks)
        assert disk.timer.batches - before == 1

    def test_batched_read_faster_than_serial_misses(self):
        # A scattered request order costs one seek per block read
        # serially; read_many sorts the misses back into one run.
        disk, lld = small_lld()
        blocks = build_sequential_blocks(lld, 48)
        scattered = list(blocks)
        random.Random(11).shuffle(scattered)

        lld.cache.invalidate_all()
        start = disk.clock.now_us
        serial = [lld.read(block) for block in scattered]
        serial_us = disk.clock.now_us - start

        lld.cache.invalidate_all()
        start = disk.clock.now_us
        batched = lld.read_many(scattered)
        batched_us = disk.clock.now_us - start

        assert batched == serial
        assert batched_us < serial_us / 2

    def test_results_fill_the_cache(self):
        disk, lld = small_lld()
        blocks = build_sequential_blocks(lld, 16)
        lld.cache.invalidate_all()
        lld.read_many(blocks)
        reads_before = disk.read_count
        lld.read_many(blocks)  # all hits now
        assert disk.read_count == reads_before

    def test_duplicate_ids_share_one_fetch(self):
        disk, lld = small_lld()
        blocks = build_sequential_blocks(lld, 4)
        lld.cache.invalidate_all()
        reads_before = disk.read_count
        out = lld.read_many([blocks[0], blocks[0], blocks[1]])
        assert out[0] == out[1]
        assert disk.read_count - reads_before == 2

    def test_unwritten_blocks_read_zeros(self):
        _disk, lld = small_lld()
        lst = lld.new_list()
        block = lld.new_block(lst)
        (out,) = lld.read_many([block])
        assert out == b"\x00" * lld.geometry.block_size

    def test_buffered_blocks_served_from_buffer(self):
        _disk, lld = small_lld()
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.write(block, b"unflushed")
        (out,) = lld.read_many([block])
        assert out.startswith(b"unflushed")

    def test_interface_default_loops_single_reads(self):
        geo = DiskGeometry.small(num_segments=32)
        disk = SimulatedDisk(geo)
        jld = JLD(disk, journal_segments=6, checkpoint_slot_segments=2)
        lst = jld.new_list()
        blocks = []
        previous = FIRST
        for index in range(8):
            block = jld.new_block(lst, predecessor=previous)
            jld.write(block, f"jld-{index}".encode())
            blocks.append(block)
            previous = block
        jld.flush()
        out = jld.read_many(blocks)
        assert out == [jld.read(block) for block in blocks]


class TestReadaheadRegression:
    def test_sequential_reads_hit_readahead(self):
        disk, lld = small_lld()
        blocks = build_sequential_blocks(lld, 64)
        lld.cache.invalidate_all()
        lld.cache.hits = lld.cache.misses = 0
        for block in blocks:
            lld.read(block)
        # Per 16-slot segment: two leading misses arm the heuristic,
        # the span fetch serves the rest.
        assert lld.cache.hit_rate >= 0.8

    def test_random_reads_hit_less_than_sequential(self):
        disk, lld = small_lld()
        blocks = build_sequential_blocks(lld, 64)

        lld.cache.invalidate_all()
        lld.cache.hits = lld.cache.misses = 0
        for block in blocks:
            lld.read(block)
        sequential_rate = lld.cache.hit_rate

        shuffled = list(blocks)
        random.Random(7).shuffle(shuffled)
        lld.cache.invalidate_all()
        lld.cache.hits = lld.cache.misses = 0
        for block in shuffled:
            lld.read(block)
        random_rate = lld.cache.hit_rate

        assert sequential_rate > random_rate
        assert random_rate < 0.6

    def test_cache_correct_after_cleaning_invalidation(self):
        disk, lld = small_lld(clean_low_water=3, clean_high_water=6)
        blocks = overwrite_pressure(lld, working_set_blocks=40, n_writes=600)
        assert lld.cleanings > 0
        # Warm the cache, then clean again: freed victims must not be
        # served stale out of the cache afterwards.
        for block in blocks:
            lld.read(block)
        lld.flush()
        cleaner = SegmentCleaner(lld, policy="greedy")
        cleaner.clean(target_free=lld.usage.free_count + 2)
        for index, block in enumerate(blocks):
            assert lld.read(block).startswith(f"block-{index}-".encode())


class TestCacheSegmentIndex:
    def test_invalidate_segment_after_evictions(self):
        cache = BlockCache(4)
        for slot in range(8):  # evicts the first four
            cache.put(PhysAddr(1, slot), bytes([slot]))
        assert len(cache) == 4
        assert cache.invalidate_segment(1) == 4
        assert len(cache) == 0
        assert cache.invalidate_segment(1) == 0

    def test_index_tracks_puts_and_invalidates(self):
        cache = BlockCache(8)
        cache.put(PhysAddr(1, 0), b"x")
        cache.put(PhysAddr(1, 1), b"y")
        cache.put(PhysAddr(2, 0), b"z")
        assert cache.invalidate(PhysAddr(1, 0)) is True
        assert cache.invalidate(PhysAddr(1, 0)) is False
        assert cache.invalidate_segment(1) == 1
        assert cache.get(PhysAddr(2, 0)) == b"z"

    def test_put_refresh_does_not_duplicate_index(self):
        cache = BlockCache(8)
        cache.put(PhysAddr(3, 0), b"a")
        cache.put(PhysAddr(3, 0), b"b")
        assert cache.invalidate_segment(3) == 1
