"""Unit tests for the cleaner's space-budget machinery.

The cleaner may not consume the workspace it exists to create: these
pin the bounded-victim selection, the net-positive pass guard, and
the iterative-pass progress rule added after the segment-leak and
wedge incidents (see the regression tests in test_cleaner.py for the
end-to-end versions).
"""

import pytest

from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.ld.types import FIRST
from repro.lld.cleaner import SegmentCleaner
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD


def build(num_segments=32, **kwargs):
    geo = DiskGeometry.small(num_segments=num_segments)
    disk = SimulatedDisk(geo)
    kwargs.setdefault("checkpoint_slot_segments", 1)
    kwargs.setdefault("clean_low_water", 3)
    kwargs.setdefault("clean_high_water", 8)
    return LLD(disk, config=LLDConfig(**kwargs))


def make_garbage(lld, lst, n_blocks, rewrite=True):
    """Write n blocks, then rewrite them so the originals die."""
    blocks = []
    previous = FIRST
    for index in range(n_blocks):
        block = lld.new_block(lst, predecessor=previous)
        lld.write(block, f"a{index}".encode())
        blocks.append(block)
        previous = block
    lld.flush()
    if rewrite:
        for index, block in enumerate(blocks):
            lld.write(block, f"b{index}".encode())
        lld.flush()
    return blocks


class TestBudgets:
    def test_pass_frees_garbage_segments(self):
        lld = build()
        lst = lld.new_list()
        make_garbage(lld, lst, 40)
        free_before = lld.usage.free_count
        cleaner = SegmentCleaner(lld, "greedy")
        report = cleaner.clean(target_free=free_before + 2)
        assert report.segments_freed >= 2
        assert lld.usage.free_count >= free_before + 2

    def test_no_pass_when_no_net_gain_possible(self):
        """A disk whose only victims are nearly full must not be
        churned: the net-positive guard refuses the pass."""
        lld = build(num_segments=16)
        lst = lld.new_list()
        # Fill with fully live data (no rewrites -> no garbage).
        make_garbage(lld, lst, 100, rewrite=False)
        cleaner = SegmentCleaner(lld, "greedy")
        flushed_before = lld.segments_flushed
        report = cleaner.clean(target_free=lld.usage.free_count + 4)
        assert report.segments_freed == 0
        # At most the initial flush inside clean() hit the disk; no
        # evacuation copies were written.
        assert lld.segments_flushed <= flushed_before + 1

    def test_iterative_passes_reach_target(self):
        """With plenty of garbage, the pass loop keeps going until
        the high-water target, not just one batch."""
        lld = build(num_segments=48, clean_high_water=20)
        lst = lld.new_list()
        make_garbage(lld, lst, 120)
        cleaner = SegmentCleaner(lld, "cost_benefit")
        cleaner.clean(target_free=20)
        assert lld.usage.free_count >= 20

    def test_victims_exclude_current_buffer(self):
        lld = build()
        lst = lld.new_list()
        make_garbage(lld, lst, 30)
        block = lld.new_block(lst)
        lld.write(block, b"in the open buffer")
        cleaner = SegmentCleaner(lld, "greedy")
        current = lld._buffer.segment_no
        assert current not in cleaner.select_victims(100)

    def test_data_identical_after_aggressive_cleaning(self):
        lld = build(num_segments=48, clean_high_water=24)
        lst = lld.new_list()
        blocks = make_garbage(lld, lst, 100)
        SegmentCleaner(lld, "greedy").clean(target_free=24)
        for index, block in enumerate(blocks):
            assert lld.read(block).startswith(f"b{index}".encode())
        from repro.lld.verify import verify_lld

        assert verify_lld(lld) == []
