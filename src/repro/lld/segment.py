"""In-memory segment buffers and the on-disk segment codec.

A segment holds data blocks filling from the front and a summary
filling toward a fixed-size trailer at the tail; the segment is full
when the two regions would collide.  Rewriting a block that is
already in the *current, unwritten* buffer overwrites it in place —
its physical address has not been published to disk yet, so this is
not a log violation — which is how LLD absorbs repeated meta-data
updates (directory and i-node blocks) without writing a copy per
update.

Trailer layout (see :data:`TRAILER_FMT`): magic, format version,
sequence number, entry count, block count, summary length, CRC-32 of
the summary region (summary bytes plus the trailer fields up to it),
CRC-32 of the whole segment.  A torn segment write destroys the
trailer and/or a checksum, so recovery detects and skips it.  The
summary CRC lets recovery validate a segment's *summary* from a tail
window alone — the basis of instant restore's redo-on-demand scan —
while the whole-image CRC still guards data slots end to end.

Wall-clock fast path
--------------------

The buffer owns a preallocated ``bytearray`` segment image and fills
it *as blocks arrive*: :meth:`SegmentBuffer.add_block` slice-assigns
the caller's data (``bytes`` or ``memoryview``) straight into the
image, so :meth:`SegmentBuffer.seal` only has to append the summary
and trailer in place and hand the image out — no assembly copy of the
data region at seal time and no final ``bytes(image)`` copy (the disk
layer makes the single platter copy).  A sealed buffer refuses all
further mutation, which is what makes returning the internal
``bytearray`` alias-safe (``tests/test_wallclock_fastpath.py`` pins
this).  :func:`reference_seal` keeps the original copy-everything
assembly as a differential oracle: both must produce byte-identical
images.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, List, Optional, Tuple

from repro.disk.geometry import DiskGeometry, TRAILER_SIZE
from repro.ld.types import BlockId, PhysAddr
from repro.lld.summary import (
    SummaryEntry,
    decode_entries,
    decode_entry_tuples,
    encode_entries_into,
)

#: magic(4s) version(H) pad(H) seq(Q) nentries(I) nblocks(I)
#: summary_len(I) summary_crc(I) crc(Q)
TRAILER_FMT = "<4sHHQIIIIQ"
TRAILER_MAGIC = b"LLDS"
FORMAT_VERSION = 2

#: Precompiled trailer codec (hot on the seal and recovery paths).
TRAILER_STRUCT = struct.Struct(TRAILER_FMT)
_CRC_STRUCT = struct.Struct("<Q")
_SUMMARY_CRC_STRUCT = struct.Struct("<I")

assert TRAILER_STRUCT.size == TRAILER_SIZE

#: Offset (from the segment end) of the summary CRC field and the
#: whole-image CRC field.  The summary CRC covers
#: ``[summary_start, segment_size - 12)`` — the summary bytes plus
#: every trailer field before the two checksums; the whole-image CRC
#: covers ``[0, segment_size - 8)``.
_SUMMARY_CRC_END = 12
_CRC_END = 8


def parse_trailer(trailer) -> Optional[Tuple[int, int, int, int, int, int]]:
    """Parse a raw segment trailer, validating magic and version.

    ``trailer`` is the final :data:`TRAILER_SIZE` bytes of a segment
    (bytes or memoryview).  Returns ``(seq, nentries, nblocks,
    summary_len, summary_crc, crc)`` or None if this is not an LLD
    trailer.  Shared by :func:`decode_segment` and recovery's trailer
    peek so both classify segments identically.
    """
    if len(trailer) != TRAILER_SIZE:
        return None
    magic, version, _pad, seq, nentries, nblocks, summary_len, summary_crc, crc = (
        TRAILER_STRUCT.unpack(trailer)
    )
    if magic != TRAILER_MAGIC or version != FORMAT_VERSION:
        return None
    return seq, nentries, nblocks, summary_len, summary_crc, crc


class SegmentBuffer:
    """The current segment being filled in main memory.

    Args:
        geometry: Partition layout.
        seq: This segment's log sequence number (strictly increasing
            across all segments ever written).
        segment_no: The physical segment this buffer will be written
            to.
    """

    __slots__ = (
        "geometry",
        "seq",
        "segment_no",
        "_image",
        "_slot_data",
        "_slot_owner",
        "_block_slot",
        "entries",
        "_summary_bytes",
        "_sealed",
    )

    def __init__(self, geometry: DiskGeometry, seq: int, segment_no: int) -> None:
        self.geometry = geometry
        self.seq = seq
        self.segment_no = segment_no
        #: The segment image, filled in place as blocks arrive.
        self._image = bytearray(geometry.segment_size)
        #: Per-slot source object: the caller's ``bytes`` (kept so
        #: buffer reads stay zero-copy) or None when the block arrived
        #: as a borrowed buffer (e.g. a cleaner memoryview) — those
        #: reads materialize from the image on demand.
        self._slot_data: List[Optional[bytes]] = []
        self._slot_owner: List[BlockId] = []
        self._block_slot: Dict[BlockId, int] = {}
        self.entries: List[SummaryEntry] = []
        self._summary_bytes = 0
        self._sealed = False

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------

    def bytes_free(self) -> int:
        """Bytes still available for data and summary combined."""
        used = (
            len(self._slot_data) * self.geometry.block_size + self._summary_bytes
        )
        return self.geometry.usable_size - used

    def has_room(self, new_blocks: int, entry_bytes: int) -> bool:
        """True if ``new_blocks`` data blocks plus ``entry_bytes`` of
        summary fit without colliding."""
        need = new_blocks * self.geometry.block_size + entry_bytes
        return need <= self.bytes_free()

    @property
    def is_empty(self) -> bool:
        """True if nothing has been placed in this buffer."""
        return not self._slot_data and not self.entries

    @property
    def is_sealed(self) -> bool:
        """True once :meth:`seal` has run; the buffer is then frozen."""
        return self._sealed

    @property
    def block_count(self) -> int:
        """Number of distinct data blocks currently in the buffer."""
        return len(self._slot_data)

    @property
    def entry_count(self) -> int:
        """Number of summary entries currently in the buffer."""
        return len(self.entries)

    @property
    def summary_bytes(self) -> int:
        """Encoded size of the summary accumulated so far."""
        return self._summary_bytes

    @property
    def fill_ratio(self) -> float:
        """Fraction of the usable segment capacity occupied by data
        blocks plus summary bytes — the quantity eager flushes waste."""
        used = (
            len(self._slot_data) * self.geometry.block_size
            + self._summary_bytes
        )
        return used / self.geometry.usable_size if self.geometry.usable_size else 0.0

    # ------------------------------------------------------------------
    # Filling
    # ------------------------------------------------------------------

    def add_block(self, block_id: BlockId, data) -> PhysAddr:
        """Place one block of data, deduplicating within this buffer.

        ``data`` may be ``bytes`` or any buffer (``memoryview``,
        ``bytearray``): it is slice-assigned into the segment image
        immediately, so borrowed views are consumed before return and
        never retained.  The caller must have checked :meth:`has_room`
        first when the block is new to this buffer.
        """
        if self._sealed:
            raise RuntimeError("segment buffer is sealed")
        if len(data) != self.geometry.block_size:
            raise ValueError(
                f"block data must be {self.geometry.block_size} bytes, "
                f"got {len(data)}"
            )
        slot = self._block_slot.get(block_id)
        if slot is None:
            slot = len(self._slot_data)
            if not self.has_room(1, 0):
                raise RuntimeError("segment buffer overflow (missing room check)")
            self._slot_data.append(data if type(data) is bytes else None)
            self._slot_owner.append(block_id)
            self._block_slot[block_id] = slot
        else:
            self._slot_data[slot] = data if type(data) is bytes else None
        offset = slot * self.geometry.block_size
        self._image[offset : offset + self.geometry.block_size] = data
        return PhysAddr(self.segment_no, slot)

    def add_entry(self, entry: SummaryEntry) -> None:
        """Append one summary entry (room must have been checked)."""
        if self._sealed:
            raise RuntimeError("segment buffer is sealed")
        size = entry.encoded_size()
        if size > self.bytes_free():
            raise RuntimeError("segment summary overflow (missing room check)")
        self.entries.append(entry)
        self._summary_bytes += size

    def contains_block(self, block_id: BlockId) -> bool:
        """True if this buffer currently holds data for ``block_id``."""
        return block_id in self._block_slot

    def _slot_bytes(self, slot: int) -> bytes:
        """The slot's data as ``bytes``, zero-copy when the caller's
        original object is on hand, materialized from the image (and
        cached) otherwise."""
        data = self._slot_data[slot]
        if data is None:
            offset = slot * self.geometry.block_size
            data = bytes(self._image[offset : offset + self.geometry.block_size])
            self._slot_data[slot] = data
        return data

    def get_block(self, block_id: BlockId) -> bytes:
        """Read a block's data out of the unwritten buffer."""
        return self._slot_bytes(self._block_slot[block_id])

    def get_slot(self, slot: int) -> bytes:
        """Read a data slot out of the unwritten buffer."""
        return self._slot_bytes(slot)

    def live_block_ids(self) -> Tuple[BlockId, ...]:
        """The distinct block ids placed in this buffer."""
        return tuple(self._block_slot.keys())

    def iter_blocks(self):
        """Yield (block id, slot, data) for every block in the buffer."""
        for block_id, slot in self._block_slot.items():
            yield block_id, slot, self._slot_bytes(slot)

    # ------------------------------------------------------------------
    # Sealing
    # ------------------------------------------------------------------

    def seal(self) -> bytearray:
        """Finish the segment image in place and return it.

        The image is exactly ``geometry.segment_size`` bytes: data
        slots (already in place, filled by :meth:`add_block`), summary
        just before the trailer, CRC over everything.  The returned
        object is the buffer's own ``bytearray`` — no copy — which is
        safe because sealing freezes the buffer: any further
        ``add_block``/``add_entry`` raises.  The disk layer stores an
        immutable ``bytes`` snapshot of whatever it is handed.
        """
        if self._sealed:
            raise RuntimeError("segment buffer is sealed")
        geo = self.geometry
        image = self._image
        summary_len = self._summary_bytes
        summary_start = geo.segment_size - TRAILER_SIZE - summary_len
        end = encode_entries_into(self.entries, image, summary_start)
        if end != summary_start + summary_len:
            raise RuntimeError("summary size accounting is inconsistent")
        TRAILER_STRUCT.pack_into(
            image,
            geo.segment_size - TRAILER_SIZE,
            TRAILER_MAGIC,
            FORMAT_VERSION,
            0,
            self.seq,
            len(self.entries),
            len(self._slot_data),
            summary_len,
            0,  # summary crc placeholder
            0,  # crc placeholder
        )
        summary_crc = zlib.crc32(
            memoryview(image)[summary_start : geo.segment_size - _SUMMARY_CRC_END]
        )
        _SUMMARY_CRC_STRUCT.pack_into(
            image, geo.segment_size - _SUMMARY_CRC_END, summary_crc
        )
        crc = zlib.crc32(memoryview(image)[: geo.segment_size - _CRC_END])
        _CRC_STRUCT.pack_into(image, geo.segment_size - _CRC_END, crc)
        self._sealed = True
        return image


def reference_seal(buffer: SegmentBuffer) -> bytes:
    """The pre-fast-path segment assembly, kept as a differential oracle.

    Builds the image the original way — fresh ``bytearray``, one copy
    per data slot at seal time, then summary, trailer and CRC — without
    touching ``buffer``'s own image or sealed flag.  Must produce a
    byte-identical image to :meth:`SegmentBuffer.seal`;
    ``bench_wallclock.py`` gates the fast path against it and
    ``tests/test_wallclock_fastpath.py`` proves the identity.
    """
    geo = buffer.geometry
    image = bytearray(geo.segment_size)
    block_size = geo.block_size
    for slot in range(buffer.block_count):
        offset = slot * block_size
        image[offset : offset + block_size] = buffer._slot_bytes(slot)
    summary_len = buffer.summary_bytes
    summary_start = geo.segment_size - TRAILER_SIZE - summary_len
    end = encode_entries_into(buffer.entries, image, summary_start)
    if end != summary_start + summary_len:
        raise RuntimeError("summary size accounting is inconsistent")
    TRAILER_STRUCT.pack_into(
        image,
        geo.segment_size - TRAILER_SIZE,
        TRAILER_MAGIC,
        FORMAT_VERSION,
        0,
        buffer.seq,
        len(buffer.entries),
        buffer.block_count,
        summary_len,
        0,  # summary crc placeholder
        0,  # crc placeholder
    )
    summary_crc = zlib.crc32(
        memoryview(image)[summary_start : geo.segment_size - _SUMMARY_CRC_END]
    )
    _SUMMARY_CRC_STRUCT.pack_into(
        image, geo.segment_size - _SUMMARY_CRC_END, summary_crc
    )
    crc = zlib.crc32(memoryview(image)[: geo.segment_size - _CRC_END])
    _CRC_STRUCT.pack_into(image, geo.segment_size - _CRC_END, crc)
    return bytes(image)


class DecodedSegment:
    """A validated on-disk segment, ready for recovery or cleaning.

    Carries the summary as raw field tuples (``entry_tuples``, from
    :func:`repro.lld.summary.decode_entry_tuples`) — the wall-clock
    fast path replay and cleaning loops consume these directly.  The
    :attr:`entries` property lazily re-decodes the summary bytes with
    the reference codec for consumers that want
    :class:`~repro.lld.summary.SummaryEntry` objects (inspection
    tools, tests); because it starts again from the raw bytes it
    doubles as an independent differential check on the tuple decoder.
    """

    __slots__ = (
        "segment_no",
        "seq",
        "entry_tuples",
        "block_count",
        "raw",
        "geometry",
        "summary_start",
        "summary_len",
        "_entries",
    )

    def __init__(
        self,
        segment_no: int,
        seq: int,
        entry_tuples: List[Tuple[int, ...]],
        block_count: int,
        raw,
        geometry: DiskGeometry,
        summary_start: int,
        summary_len: int,
    ) -> None:
        self.segment_no = segment_no
        self.seq = seq
        self.entry_tuples = entry_tuples
        self.block_count = block_count
        self.raw = raw
        self.geometry = geometry
        self.summary_start = summary_start
        self.summary_len = summary_len
        self._entries: Optional[List[SummaryEntry]] = None

    @property
    def entries(self) -> List[SummaryEntry]:
        """The summary as :class:`SummaryEntry` objects (lazy, cached).

        Decoded from the raw summary bytes with the reference codec,
        independently of :attr:`entry_tuples`.
        """
        if self._entries is None:
            view = memoryview(self.raw)
            self._entries = list(
                decode_entries(
                    view[self.summary_start : self.summary_start + self.summary_len]
                )
            )
        return self._entries

    @property
    def entry_count(self) -> int:
        """Number of summary entries (without materializing objects)."""
        return len(self.entry_tuples)

    def slot_data(self, slot: int) -> bytes:
        """Return the data of slot ``slot`` as ``bytes`` (a copy)."""
        if not 0 <= slot < self.block_count:
            raise ValueError(f"slot {slot} out of range for decoded segment")
        offset = slot * self.geometry.block_size
        return bytes(self.raw[offset : offset + self.geometry.block_size])

    def slot_view(self, slot: int) -> memoryview:
        """Return slot ``slot`` as a zero-copy read-only view.

        For hot consumers (cleaner evacuation, salvage) that hand the
        data straight to :meth:`SegmentBuffer.add_block`, which
        consumes the view immediately; do not retain the view anywhere
        user-visible (caches and read results must hold ``bytes``).
        """
        if not 0 <= slot < self.block_count:
            raise ValueError(f"slot {slot} out of range for decoded segment")
        offset = slot * self.geometry.block_size
        return memoryview(self.raw).toreadonly()[
            offset : offset + self.geometry.block_size
        ]


def decode_segment(
    raw, geometry: DiskGeometry, segment_no: int
) -> Optional[DecodedSegment]:
    """Validate and parse a raw segment image.

    Returns None if the segment is not a valid LLD segment (never
    written, torn, or corrupted) — recovery treats such segments as
    free space.  One CRC-32 pass over the whole image (C-backed
    ``zlib.crc32``) validates everything, data slots included
    (:func:`decode_segment_tail` is the summary-CRC-only variant that
    needs no body).  The summary is then batch-decoded into field
    tuples in a single pass.
    """
    if len(raw) != geometry.segment_size:
        return None
    view = memoryview(raw)
    parsed = parse_trailer(view[geometry.segment_size - TRAILER_SIZE :])
    if parsed is None:
        return None
    seq, nentries, nblocks, summary_len, _summary_crc, crc = parsed
    summary_start = geometry.segment_size - TRAILER_SIZE - summary_len
    if summary_start < nblocks * geometry.block_size:
        return None
    if zlib.crc32(view[: geometry.segment_size - _CRC_END]) != crc:
        return None
    try:
        entry_tuples = decode_entry_tuples(
            view[summary_start : summary_start + summary_len]
        )
    except ValueError:
        return None
    if len(entry_tuples) != nentries:
        return None
    return DecodedSegment(
        segment_no=segment_no,
        seq=seq,
        entry_tuples=entry_tuples,
        block_count=nblocks,
        raw=raw,
        geometry=geometry,
        summary_start=summary_start,
        summary_len=summary_len,
    )


def decode_segment_tail(tail, geometry: DiskGeometry, segment_no: int):
    """Decode a segment's summary from a tail window alone.

    ``tail`` is the *last* ``len(tail)`` bytes of the segment image
    (at least :data:`TRAILER_SIZE`).  Returns:

    * ``None`` — not a valid LLD segment (bad magic/version, summary
      CRC mismatch, structural violation);
    * an ``int`` — the tail is valid so far but too short to hold the
      whole summary; the value is the tail length (bytes from the
      segment end) needed to decode it; or
    * a :class:`DecodedSegment` **without a body**: ``raw`` holds only
      the summary+trailer bytes and ``summary_start`` is relative to
      it (0), so ``entry_tuples``/``entries`` work but
      ``slot_data``/``slot_view`` must not be called.

    This is instant restore's scan primitive: one small tail read per
    segment replaces streaming the whole body through the CRC.
    """
    size = geometry.segment_size
    if len(tail) < TRAILER_SIZE or len(tail) > size:
        return None
    view = memoryview(tail)
    parsed = parse_trailer(view[len(tail) - TRAILER_SIZE :])
    if parsed is None:
        return None
    seq, nentries, nblocks, summary_len, summary_crc, _crc = parsed
    summary_start = size - TRAILER_SIZE - summary_len
    if summary_start < nblocks * geometry.block_size:
        return None
    needed = TRAILER_SIZE + summary_len
    if len(tail) < needed:
        return needed
    tail_summary_start = len(tail) - needed
    checked = view[tail_summary_start : len(tail) - _SUMMARY_CRC_END]
    if zlib.crc32(checked) != summary_crc:
        return None
    try:
        entry_tuples = decode_entry_tuples(
            view[tail_summary_start : tail_summary_start + summary_len]
        )
    except ValueError:
        return None
    if len(entry_tuples) != nentries:
        return None
    return DecodedSegment(
        segment_no=segment_no,
        seq=seq,
        entry_tuples=entry_tuples,
        block_count=nblocks,
        raw=bytes(view[tail_summary_start:]),
        geometry=geometry,
        summary_start=0,
        summary_len=summary_len,
    )
