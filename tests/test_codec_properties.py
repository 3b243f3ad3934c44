"""Property tests for the remaining on-disk codecs.

The summary-entry codec already has property coverage; these cover
the two larger formats: whole segments (buffer -> seal -> decode) and
checkpoints (data -> write -> load), under arbitrary contents.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.disk.geometry import TRAILER_SIZE, DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.ld.types import BlockId
from repro.lld.checkpoint import (
    CheckpointData,
    CheckpointManager,
    pack_block_rows,
    pack_list_rows,
)
from repro.lld.segment import SegmentBuffer, decode_segment
from repro.lld.summary import EntryKind, SummaryEntry

GEO = DiskGeometry.small(num_segments=8)

_blocks_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=500),  # block id
        st.binary(min_size=0, max_size=GEO.block_size),
    ),
    max_size=GEO.max_data_blocks,
)

#: Entries other than WRITE: a WRITE enters a segment with its data,
#: through ``append_write``, never through ``add_entry``.
_entries_strategy = st.lists(
    st.builds(
        SummaryEntry,
        kind=st.sampled_from([k for k in EntryKind if k is not EntryKind.WRITE]),
        aru_tag=st.integers(min_value=0, max_value=2**32),
        timestamp=st.integers(min_value=0, max_value=2**32),
        a=st.integers(min_value=0, max_value=2**32),
        b=st.integers(min_value=0, max_value=2**31),
        c=st.integers(min_value=0, max_value=2**32),
    ),
    max_size=40,
)


class TestSegmentCodecProperties:
    @settings(max_examples=60, deadline=None)
    @given(blocks=_blocks_strategy, entries=_entries_strategy, seq=st.integers(1, 2**40))
    def test_seal_decode_roundtrip(self, blocks, entries, seq):
        buffer = SegmentBuffer(GEO, seq=seq, segment_no=3)
        expected_data = {}
        for block_id, data in blocks:
            padded = data + b"\x00" * (GEO.block_size - len(data))
            if buffer.append_write(BlockId(block_id), padded, 0, 1) is None:
                break
            expected_data[block_id] = padded
        kept_entries = list(buffer.entries)
        for entry in entries:
            if not buffer.has_room(0, entry.encoded_size()):
                break
            buffer.add_entry(entry)
            kept_entries.append(entry)
        decoded = decode_segment(buffer.seal(), GEO, 3)
        assert decoded is not None
        assert decoded.seq == seq
        assert decoded.block_count == len(expected_data)
        assert len(decoded.entries) == len(kept_entries)
        for recorded, original in zip(decoded.entries, kept_entries):
            assert recorded.kind == original.kind
            assert recorded.aru_tag == original.aru_tag
        # Every block's payload survives at its assigned slot.
        for block_id, padded in expected_data.items():
            slot = buffer._block_slot[BlockId(block_id)]
            assert decoded.slot_data(slot) == padded

    @settings(max_examples=40, deadline=None)
    @given(
        blocks=_blocks_strategy,
        flip=st.integers(min_value=0, max_value=GEO.segment_size - 1),
    )
    def test_any_single_byte_corruption_detected(self, blocks, flip):
        """Any flipped *written* byte — a data slot or the summary
        chunk — is detected.  The free gap between them is covered by
        no checksum: after an in-place write it holds stale platter
        bytes, so there a flip must change nothing."""
        buffer = SegmentBuffer(GEO, seq=9, segment_no=0)
        for block_id, data in blocks:
            padded = data + b"\x00" * (GEO.block_size - len(data))
            if buffer.append_write(BlockId(block_id), padded, 0, 1) is None:
                break
        data_end = buffer.block_count * GEO.block_size
        chunk_start = GEO.segment_size - TRAILER_SIZE - buffer.summary_bytes
        image = bytearray(buffer.seal())
        image[flip] ^= 0x5A
        decoded = decode_segment(bytes(image), GEO, 0)
        if data_end <= flip < chunk_start:
            assert decoded is not None
            assert decoded.block_count == buffer.block_count
        else:
            assert decoded is None


#: Checkpoint rows in wire order (see repro.lld.checkpoint.BlockRow/ListRow).
_snapshot_blocks = st.lists(
    st.tuples(
        st.integers(1, 2**40),  # block_id
        st.integers(0, 2**40),  # successor
        st.integers(0, 2**40),  # list_id
        st.integers(0, 2**40),  # timestamp
        st.integers(0, 2**20),  # segment
        st.integers(0, 2**20),  # slot
        st.integers(0, 1),  # flags
    ),
    max_size=30,
)

_snapshot_lists = st.lists(
    st.tuples(
        st.integers(1, 2**40),  # list_id
        st.integers(0, 2**40),  # first
        st.integers(0, 2**40),  # last
        st.integers(0, 2**30),  # count
        st.integers(0, 2**40),  # timestamp
    ),
    max_size=30,
)


class TestCheckpointProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        blocks=_snapshot_blocks,
        lists=_snapshot_lists,
        ckpt_seq=st.integers(1, 2**30),
        segments=st.dictionaries(
            st.integers(0, 1000),
            st.tuples(
                st.integers(0, 2**40),
                st.integers(0, 2**20),
                st.integers(0, 2**20),
            ),
            max_size=20,
        ),
    )
    def test_write_load_roundtrip(self, blocks, lists, ckpt_seq, segments):
        disk = SimulatedDisk(DiskGeometry.small(num_segments=16))
        manager = CheckpointManager(disk, slot_segments=2)
        data = CheckpointData(
            ckpt_seq=ckpt_seq,
            last_log_seq=7,
            next_block_id=11,
            next_list_id=13,
            next_aru_id=17,
            block_rows=pack_block_rows(blocks),
            list_rows=pack_list_rows(lists),
            segments=segments,
        )
        manager.write(data)
        loaded = manager.load()
        assert loaded.ckpt_seq == ckpt_seq
        assert loaded.blocks == blocks
        assert loaded.lists == lists
        assert loaded.segments == segments
        assert (loaded.next_block_id, loaded.next_list_id) == (11, 13)
