"""Unit tests for disk geometry."""

import pytest

from repro.disk.geometry import DiskGeometry, TRAILER_SIZE


class TestDiskGeometry:
    def test_paper_partition(self):
        geo = DiskGeometry.paper_partition()
        assert geo.block_size == 4096
        assert geo.segment_size == 512 * 1024
        assert geo.num_segments == 800
        assert geo.partition_size == 400 * 1024 * 1024

    def test_usable_size_excludes_trailer(self):
        geo = DiskGeometry.small()
        assert geo.usable_size == geo.segment_size - TRAILER_SIZE

    def test_max_data_blocks(self):
        geo = DiskGeometry(block_size=4096, segment_size=512 * 1024, num_segments=4)
        # 524288 - 32 trailer = 524256 -> 127 whole blocks
        assert geo.max_data_blocks == 127

    def test_no_more_slots_than_a_write_entry_can_name(self):
        """A WRITE entry names its slot as a u16."""
        most = DiskGeometry(block_size=512, segment_size=65536 * 512, num_segments=1)
        assert most.max_data_blocks == 65535
        with pytest.raises(ValueError, match="65535"):
            DiskGeometry(block_size=512, segment_size=65537 * 512, num_segments=1)

    def test_segment_offset(self):
        geo = DiskGeometry.small(num_segments=8)
        assert geo.segment_offset(0) == 0
        assert geo.segment_offset(3) == 3 * geo.segment_size

    def test_segment_offset_bounds(self):
        geo = DiskGeometry.small(num_segments=8)
        with pytest.raises(ValueError):
            geo.segment_offset(8)
        with pytest.raises(ValueError):
            geo.segment_offset(-1)

    def test_slot_offset(self):
        geo = DiskGeometry.small()
        assert geo.slot_offset(0) == 0
        assert geo.slot_offset(2) == 2 * geo.block_size

    def test_slot_offset_bounds(self):
        geo = DiskGeometry.small()
        with pytest.raises(ValueError):
            geo.slot_offset(geo.max_data_blocks)

    def test_rejects_zero_blocks(self):
        with pytest.raises(ValueError):
            DiskGeometry(block_size=0, segment_size=1024, num_segments=4)

    def test_rejects_tiny_segment(self):
        with pytest.raises(ValueError):
            DiskGeometry(block_size=4096, segment_size=4096, num_segments=4)

    def test_rejects_zero_segments(self):
        with pytest.raises(ValueError):
            DiskGeometry(block_size=512, segment_size=8192, num_segments=0)

    def test_rejects_segment_off_the_sector_grid(self):
        with pytest.raises(ValueError):
            DiskGeometry(block_size=500, segment_size=8000, num_segments=4)
