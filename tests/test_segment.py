"""Unit tests for segment buffers and the on-disk segment codec."""

import pytest

from repro.disk.geometry import DiskGeometry
from repro.ld.types import BlockId, PhysAddr
from repro.lld.segment import SegmentBuffer, decode_segment
from repro.lld.summary import EntryKind, SummaryEntry


@pytest.fixture
def geo():
    return DiskGeometry.small(num_segments=8)


def _block(geo, fill):
    return bytes([fill]) * geo.block_size


class TestSegmentBuffer:
    def test_empty(self, geo):
        buf = SegmentBuffer(geo, seq=1, segment_no=2)
        assert buf.is_empty
        assert buf.block_count == 0

    def test_append_write_assigns_slots(self, geo):
        buf = SegmentBuffer(geo, 1, 2)
        a = buf.append_write(BlockId(10), _block(geo, 1), 0, 1)
        b = buf.append_write(BlockId(11), _block(geo, 2), 3, 2)
        assert a == PhysAddr(2, 0)
        assert b == PhysAddr(2, 1)
        assert type(a) is PhysAddr and repr(b) == "PhysAddr(seg=2, slot=1)"
        assert buf.block_count == 2
        assert buf.entries == [
            SummaryEntry(EntryKind.WRITE, 0, 1, 10, 0),
            SummaryEntry(EntryKind.WRITE, 3, 2, 11, 1),
        ]
        assert buf.summary_bytes == 2 * buf.entries[0].encoded_size()

    def test_append_write_that_does_not_fit_places_nothing(self, geo):
        """The block and its entry fit together or not at all; a
        rewrite of an unwritten slot needs room for the entry only."""
        buf = SegmentBuffer(geo, 1, 0)
        entry = SummaryEntry(EntryKind.COMMIT, 1, 1, 0)
        for index in range(geo.max_data_blocks):
            assert buf.append_write(BlockId(index + 1), _block(geo, 0), 0, 1)
        while buf.has_room(0, 2 * entry.encoded_size()):
            buf.add_entry(entry)
        before = (buf.block_count, len(buf.entries), buf.bytes_free())
        assert buf.append_write(BlockId(999), _block(geo, 1), 0, 2) is None
        assert (buf.block_count, len(buf.entries), buf.bytes_free()) == before
        assert buf.append_write(BlockId(1), _block(geo, 7), 0, 3) == PhysAddr(0, 0)
        assert buf.get_block(BlockId(1)) == _block(geo, 7)

    def test_rewrite_dedups_in_place(self, geo):
        """Rewriting a block still in the unwritten buffer overwrites
        it in place — the absorption that makes repeated meta-data
        updates cheap."""
        buf = SegmentBuffer(geo, 1, 0)
        first = buf.append_write(BlockId(10), _block(geo, 1), 0, 1)
        second = buf.append_write(BlockId(10), _block(geo, 2), 0, 2)
        assert first == second
        assert buf.block_count == 1
        assert buf.get_block(BlockId(10)) == _block(geo, 2)

    def test_wrong_block_size_rejected(self, geo):
        buf = SegmentBuffer(geo, 1, 0)
        with pytest.raises(ValueError):
            buf.append_write(BlockId(1), b"tiny", 0, 1)

    def test_room_accounting(self, geo):
        buf = SegmentBuffer(geo, 1, 0)
        assert buf.has_room(geo.max_data_blocks, 0)
        assert not buf.has_room(geo.max_data_blocks + 1, 0)
        for index in range(geo.max_data_blocks):
            buf.append_write(BlockId(index + 1), _block(geo, index % 256), 0, 1)
        assert not buf.has_room(1, 0)

    def test_data_and_summary_share_space(self, geo):
        buf = SegmentBuffer(geo, 1, 0)
        entry = SummaryEntry(EntryKind.COMMIT, 1, 1, 0)
        # Fill almost all space with data, leaving less than a block.
        for index in range(geo.max_data_blocks):
            buf.append_write(BlockId(index + 1), _block(geo, 0), 0, 1)
        free = buf.bytes_free()
        assert free < geo.block_size
        n_entries = free // entry.encoded_size()
        for _ in range(n_entries):
            buf.add_entry(entry)
        assert not buf.has_room(0, entry.encoded_size())

    def test_overflow_raises(self, geo):
        buf = SegmentBuffer(geo, 1, 0)
        entry = SummaryEntry(EntryKind.COMMIT, 1, 1, 0)
        while buf.has_room(0, entry.encoded_size()):
            buf.add_entry(entry)
        with pytest.raises(RuntimeError):
            buf.add_entry(entry)


class TestSealAndDecode:
    def test_roundtrip(self, geo):
        buf = SegmentBuffer(geo, seq=7, segment_no=3)
        buf.append_write(BlockId(42), _block(geo, 0xCD), 0, 5)
        buf.add_entry(SummaryEntry(EntryKind.COMMIT, 9, 6, 1))
        image = buf.seal()
        assert len(image) == geo.segment_size
        decoded = decode_segment(image, geo, segment_no=3)
        assert decoded is not None
        assert decoded.seq == 7
        assert decoded.block_count == 1
        assert [e.kind for e in decoded.entries] == [
            EntryKind.WRITE,
            EntryKind.COMMIT,
        ]
        assert decoded.slot_data(0) == _block(geo, 0xCD)

    def test_empty_segment_roundtrip(self, geo):
        image = SegmentBuffer(geo, seq=1, segment_no=0).seal()
        decoded = decode_segment(image, geo, 0)
        assert decoded is not None
        assert decoded.entries == []

    def test_never_written_is_invalid(self, geo):
        raw = b"\x00" * geo.segment_size
        assert decode_segment(raw, geo, 0) is None

    def test_torn_write_detected(self, geo):
        buf = SegmentBuffer(geo, 3, 0)
        buf.append_write(BlockId(1), _block(geo, 1), 0, 1)
        image = buf.seal()
        torn = image[: geo.segment_size // 2] + b"\x00" * (
            geo.segment_size - geo.segment_size // 2
        )
        assert decode_segment(torn, geo, 0) is None

    def test_single_flipped_bit_detected(self, geo):
        buf = SegmentBuffer(geo, 3, 0)
        buf.append_write(BlockId(1), _block(geo, 1), 0, 1)
        image = bytearray(buf.seal())
        image[100] ^= 0x01
        assert decode_segment(bytes(image), geo, 0) is None

    def test_wrong_length_rejected(self, geo):
        assert decode_segment(b"abc", geo, 0) is None

    def test_slot_out_of_range(self, geo):
        buf = SegmentBuffer(geo, 1, 0)
        buf.append_write(BlockId(1), _block(geo, 1), 0, 1)
        decoded = decode_segment(buf.seal(), geo, 0)
        with pytest.raises(ValueError):
            decoded.slot_data(1)
