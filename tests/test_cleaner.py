"""Segment-cleaner tests: space reclamation must never lose data."""

import pytest

from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import DiskFullError
from repro.ld.types import FIRST
from repro.lld.cleaner import SegmentCleaner
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import recover
from repro.workloads.generator import overwrite_pressure


def small_lld(num_segments=24, **kwargs):
    geo = DiskGeometry.small(num_segments=num_segments)
    disk = SimulatedDisk(geo)
    kwargs.setdefault("checkpoint_slot_segments", 1)
    kwargs.setdefault("clean_low_water", 3)
    kwargs.setdefault("clean_high_water", 6)
    return disk, LLD(disk, config=LLDConfig(**kwargs))


def fill_pattern(lld, lst, count, tag):
    blocks = []
    previous = FIRST
    for index in range(count):
        block = lld.new_block(lst, predecessor=previous)
        lld.write(block, f"{tag}-{index}".encode())
        blocks.append(block)
        previous = block
    return blocks


class TestCleaning:
    def test_overwrite_churn_triggers_cleaner_and_keeps_data(self):
        disk, lld = small_lld()
        blocks = overwrite_pressure(lld, working_set_blocks=40, n_writes=600)
        assert lld.cleanings > 0
        for index, block in enumerate(blocks):
            assert lld.read(block).startswith(f"block-{index}-".encode())

    def test_cleaned_data_survives_crash(self):
        disk, lld = small_lld()
        blocks = overwrite_pressure(lld, working_set_blocks=40, n_writes=600)
        assert lld.cleanings > 0
        lld.flush()
        lld2, _report = recover(
            disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=1, clean_low_water=3),
        )
        for index, block in enumerate(blocks):
            assert lld2.read(block).startswith(f"block-{index}-".encode())

    def test_explicit_clean_frees_segments(self):
        disk, lld = small_lld(num_segments=32)
        lst = lld.new_list()
        blocks = fill_pattern(lld, lst, 60, "v1")
        lld.flush()
        # Rewrite everything: the old copies become garbage.
        for index, block in enumerate(blocks):
            lld.write(block, f"v2-{index}".encode())
        lld.flush()
        free_before = lld.usage.free_count
        cleaner = SegmentCleaner(lld, policy="greedy")
        report = cleaner.clean(target_free=free_before + 3)
        assert report.segments_freed >= 1
        assert lld.usage.free_count > free_before - 1
        for index, block in enumerate(blocks):
            assert lld.read(block).startswith(f"v2-{index}".encode())

    def test_both_policies_work(self):
        for policy in ("greedy", "cost_benefit"):
            disk, lld = small_lld(cleaner_policy=policy)
            blocks = overwrite_pressure(lld, 30, 400, seed=7)
            for index, block in enumerate(blocks):
                assert lld.read(block).startswith(f"block-{index}-".encode())

    def test_unknown_policy_rejected(self):
        _disk, lld = small_lld()
        with pytest.raises(ValueError):
            SegmentCleaner(lld, policy="psychic")

    def test_cleaner_skips_fully_live_segments(self):
        disk, lld = small_lld(num_segments=24)
        lst = lld.new_list()
        fill_pattern(lld, lst, 50, "live")
        lld.flush()
        cleaner = SegmentCleaner(lld)
        victims = cleaner.select_victims(100)
        max_blocks = lld.geometry.max_data_blocks
        for seg in victims:
            assert lld.usage.live_slots(seg) < max_blocks

    def test_disk_full_of_live_data_raises(self):
        disk, lld = small_lld(num_segments=16)
        lst = lld.new_list()
        with pytest.raises(DiskFullError):
            fill_pattern(lld, lst, 16 * lld.geometry.max_data_blocks, "cram")

    def test_greedy_prefers_emptier_segment(self):
        disk, lld = small_lld(num_segments=32)
        lst = lld.new_list()
        blocks = fill_pattern(lld, lst, 45, "x")  # 3 segments
        lld.flush()
        # Kill all of the first segment's blocks, half of the second's.
        per_seg = lld.geometry.max_data_blocks
        for block in blocks[:per_seg]:
            lld.delete_block(block)
        for block in blocks[per_seg : per_seg + per_seg // 2]:
            lld.delete_block(block)
        lld.flush()
        cleaner = SegmentCleaner(lld, policy="greedy")
        victims = cleaner.select_victims(2)
        lives = [lld.usage.live_slots(seg) for seg in victims]
        assert lives == sorted(lives)

    def test_clean_noop_when_enough_free(self):
        _disk, lld = small_lld()
        cleaner = SegmentCleaner(lld)
        report = cleaner.clean(target_free=1)
        assert report.victims == []

    def test_no_segment_leaks_across_many_cleanings(self):
        """Regression: _ensure_buffer used to open a second buffer
        after the cleaner had already opened one, leaking a CURRENT
        segment per cleaning pass until the disk filled."""
        from repro.lld.verify import verify_lld

        disk, lld = small_lld(num_segments=40)
        overwrite_pressure(lld, working_set_blocks=150, n_writes=3000)
        assert lld.cleanings >= 3
        problems = [p for p in verify_lld(lld) if "leaked" in p]
        assert problems == [], problems
        # Steady state: the system keeps absorbing writes forever.
        blocks = overwrite_pressure(lld, working_set_blocks=10, n_writes=500, seed=9)
        assert lld.read(blocks[0]).startswith(b"block-0-")
