"""Disk geometry: how the partition is carved into segments.

LLD writes the disk in large fixed-size segments.  The paper's
prototype uses a 400 MB partition of 4 KB blocks written in 0.5 MB
segments.  Each segment holds data blocks (filling from the front)
and a *segment summary* (filling from the back: one chunk of entries
plus a fixed-size trailer per durability point).  The two grow toward
each other; a segment is full when they would collide.  This flexible
split is what lets the
ARU-latency experiment of Section 5.3 fill whole segments with
nothing but commit records (500,000 ARUs -> 24 segments).
"""

from __future__ import annotations

import dataclasses

#: Bytes reserved at the very end of each segment for the trailer
#: (magic, sequence number, entry count, block count, summary length,
#: summary checksum).  See :mod:`repro.lld.segment` for the layout.
TRAILER_SIZE = 32

#: Most data slots one segment may hold: a WRITE summary entry names
#: its slot as an unsigned 16-bit number.
MAX_SLOTS = 0xFFFF

#: The unit a disk writes atomically and a power cut tears on.  Writes
#: smaller than a segment (checkpoint tails, in-place summary chunks)
#: are laid out on this grid, and segments are whole multiples of it.
SECTOR_SIZE = 512


@dataclasses.dataclass(frozen=True)
class DiskGeometry:
    """Fixed layout parameters of a simulated partition.

    Attributes:
        block_size: Size of a logical/physical disk block in bytes.
        segment_size: Size of a segment in bytes (data + summary +
            trailer).
        num_segments: Number of segments in the partition.
    """

    block_size: int = 4096
    segment_size: int = 512 * 1024
    num_segments: int = 800

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.segment_size < self.block_size + TRAILER_SIZE:
            raise ValueError(
                "segment_size must hold at least one block plus the trailer"
            )
        if self.max_data_blocks > MAX_SLOTS:
            raise ValueError(
                f"a segment may hold at most {MAX_SLOTS} data slots, "
                f"not {self.max_data_blocks}"
            )
        if self.segment_size % SECTOR_SIZE:
            raise ValueError(
                f"segment_size must be a multiple of the {SECTOR_SIZE}-byte "
                "sector"
            )
        if self.num_segments <= 0:
            raise ValueError("num_segments must be positive")

    @property
    def usable_size(self) -> int:
        """Bytes per segment shared by data blocks and the summary."""
        return self.segment_size - TRAILER_SIZE

    @property
    def max_data_blocks(self) -> int:
        """Upper bound on data blocks per segment (empty summary)."""
        return self.usable_size // self.block_size

    @property
    def partition_size(self) -> int:
        """Total partition size in bytes."""
        return self.segment_size * self.num_segments

    def slot_offset(self, slot: int) -> int:
        """Byte offset of data slot ``slot`` within a segment."""
        if not 0 <= slot < self.max_data_blocks:
            raise ValueError(f"slot {slot} out of range")
        return slot * self.block_size

    def segment_offset(self, segment_no: int) -> int:
        """Byte offset of ``segment_no`` from the start of the partition."""
        if not 0 <= segment_no < self.num_segments:
            raise ValueError(
                f"segment {segment_no} out of range 0..{self.num_segments - 1}"
            )
        return segment_no * self.segment_size

    @classmethod
    def paper_partition(cls) -> "DiskGeometry":
        """The partition used in Section 5.2 of the paper.

        100,000 blocks of 4 KB (400 MB) written in 0.5 MB segments.
        """
        return cls(block_size=4096, segment_size=512 * 1024, num_segments=800)

    @classmethod
    def small(cls, num_segments: int = 64, block_size: int = 4096) -> "DiskGeometry":
        """A small partition for unit tests (fast to scan and clean)."""
        return cls(
            block_size=block_size,
            segment_size=16 * block_size,
            num_segments=num_segments,
        )
