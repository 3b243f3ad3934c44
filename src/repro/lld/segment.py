"""In-memory segment buffers and the on-disk segment codec.

A segment holds data blocks filling from the front and a stack of
*summary chunks* growing down from the segment end; the segment is
full when the two regions would collide::

    0                                                  segment_size
    | slot 0 | slot 1 | .. | slot n-1 |  free  | chunk 2 | chunk 1 | chunk 0 |
                                                 entries | 32-byte trailer

Every durability point adds one chunk ``[entries | trailer]`` below
the previous one, and puts on disk exactly what it adds: its new data
slots, then its one new chunk (:meth:`SegmentBuffer.unwritten_ranges`),
never the free gap.  A segment that is never flushed early has
exactly one chunk, ending at the segment end; after a flush that
writes *in place* (see :meth:`repro.lld.lld.LLD.flush`) the buffer
keeps filling behind the chunk.  The gap of a segment on disk holds
whatever an older incarnation of the physical segment left there.
Four invariants make a torn write cost exactly the chunk it was
writing:

* **Consecutive sequence numbers.**  Every chunk takes its own log
  sequence number and the chunks of one segment are numbered
  consecutively, oldest (at the segment end) first.  A walker accepts
  a chunk only if its number is its predecessor's plus one, so chunks
  a previous incarnation of the physical segment left further down —
  all numbered below the new first chunk — can never pass.
* **A trailer never straddles a sector.**  The trailer is the commit
  record of an in-place write and must reach the disk atomically
  (:func:`chunk_end_below`).
* **Data before chunk.**  A chunk is written after, and lies above,
  the data slots it describes, and its summary CRC is the *last*
  field of its trailer and covers everything before it — the WRITE
  entries, each carrying the CRC-32 of the slot it names, included: a
  valid summary CRC implies the whole chunk and its data were written,
  which is why recovery may trust a summary without reading data.
  Rot in a slot after that is caught by the slot's own CRC, by
  whoever reads the slot and checks it (:func:`slots_hold`).
* **Published slots are never overwritten.**  Rewriting a block whose
  slot is still unwritten overwrites it in the buffer — its physical
  address has not been published to disk yet, so this is not a log
  violation, and it is how LLD absorbs repeated meta-data updates
  (directory and i-node blocks) without writing a copy per update.  A
  block whose slot is already on disk takes a new slot.

Trailer layout (see :data:`TRAILER_FMT`): magic, format version, flags
(:data:`FLAG_LAST` = last chunk, segment closed), sequence number,
entry count, block count and summary length *of this chunk*, CRC-32 of
the chunk's own bytes up to this field (the summary CRC).  Each byte
has one check: a data slot its WRITE entry's CRC, computed at
:meth:`SegmentBuffer.seal` from the slot's final bytes; the entries
and the trailer the summary CRC.  No checksum covers the free
gap between data and chunks, which is never written and holds stale
platter bytes.

Wall-clock fast path
--------------------

The buffer owns a preallocated ``bytearray`` segment image and fills
it *as blocks arrive*: :meth:`SegmentBuffer.append_write` slice-assigns
the caller's data (``bytes`` or ``memoryview``) straight into the
image, so :meth:`SegmentBuffer.seal` only has to append the chunk in
place and hand the image out — no assembly copy of the data region at
seal time and no final ``bytes(image)`` copy (the disk layer makes the
single platter copy).  A closed buffer refuses all further mutation,
which is what makes returning the internal ``bytearray`` alias-safe
(``tests/test_wallclock_fastpath.py`` pins this).
:func:`reference_seal` keeps the original copy-everything assembly as
a differential oracle: both must produce byte-identical images.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.disk.geometry import SECTOR_SIZE, TRAILER_SIZE, DiskGeometry
from repro.ld.types import BlockId, PhysAddr
from repro.lld.summary import (
    KIND_WRITE,
    EntryKind,
    SummaryEntry,
    decode_entries,
    decode_entry_tuples,
    encode_entries_into,
    entry_size,
)

#: magic(4s) version(H) flags(H) seq(Q) nentries(I) nblocks(I)
#: summary_len(I) summary_crc(I)
TRAILER_FMT = "<4sHHQIIII"
TRAILER_MAGIC = b"LLDS"
FORMAT_VERSION = 4

#: Trailer flag: this is the segment's last chunk (the segment was
#: closed); a walker need not look below it.
FLAG_LAST = 0x1

#: Precompiled trailer codec (hot on the seal and recovery paths).
TRAILER_STRUCT = struct.Struct(TRAILER_FMT)
_SUMMARY_CRC_STRUCT = struct.Struct("<I")

assert TRAILER_STRUCT.size == TRAILER_SIZE

_WRITE = EntryKind.WRITE
_WRITE_ENTRY_SIZE = entry_size(EntryKind.WRITE)

#: Offset (from the chunk end) of the summary CRC field: for a chunk
#: ``[start, end)`` it covers ``[start, end - 4)``.
_SUMMARY_CRC_END = 4


def slots_hold(
    entry_tuples: Iterable[Tuple[int, ...]], data, block_size: int, first_slot: int = 0
) -> bool:
    """The slot CRC rule: True if every data slot a WRITE entry of
    ``entry_tuples`` names still has the CRC-32 the entry carries.

    ``data`` holds the segment's data slots from ``first_slot`` on.
    Each slot is checked once, however many entries name it (a block
    rewritten in the buffer before its chunk was sealed; every such
    entry carries the slot's final CRC).  Shared by the chunk walk and
    a degraded read's log copy, so both check one rule.
    """
    crcs = {fields[4]: fields[5] for fields in entry_tuples if fields[0] == KIND_WRITE}
    crc32 = zlib.crc32
    for slot, crc in crcs.items():
        offset = (slot - first_slot) * block_size
        if crc32(data[offset : offset + block_size]) != crc:
            return False
    return True


def chunk_end_below(start: int) -> int:
    """Where the chunk stacked below one starting at ``start`` ends.

    Right at ``start``, unless its trailer — the 32 bytes ending
    there — would then cross a sector boundary: a trailer must reach
    the disk atomically, so the chunk ends at that boundary instead.
    The writer and every walker apply this same function, so the pad
    is implicit in the layout.
    """
    boundary = (start - 1) // SECTOR_SIZE * SECTOR_SIZE
    return boundary if start - TRAILER_SIZE < boundary else start


def parse_trailer(trailer) -> Optional[Tuple[int, int, int, int, int, int]]:
    """Parse a raw chunk trailer, validating magic and version.

    ``trailer`` is the final :data:`TRAILER_SIZE` bytes of a chunk
    (bytes or memoryview) — for the last bytes of a segment, its
    oldest chunk, whose sequence number classifies the segment.
    Returns ``(seq, flags, nentries, nblocks, summary_len,
    summary_crc)`` or None if this is not an LLD trailer.  Shared by
    the decoders and recovery's trailer peek so all classify segments
    identically.
    """
    if len(trailer) != TRAILER_SIZE:
        return None
    magic, version, flags, seq, nentries, nblocks, summary_len, summary_crc = (
        TRAILER_STRUCT.unpack(trailer)
    )
    if magic != TRAILER_MAGIC or version != FORMAT_VERSION:
        return None
    return seq, flags, nentries, nblocks, summary_len, summary_crc


class SegmentBuffer:
    """The current segment being filled in main memory.

    Args:
        geometry: Partition layout.
        seq: The log sequence number of this segment's first chunk
            (strictly increasing across all chunks ever written);
            :meth:`publish` advances it for the next chunk.
        segment_no: The physical segment this buffer will be written
            to.
    """

    __slots__ = (
        "geometry",
        "seq",
        "segment_no",
        "_block_size",
        "_image",
        "_slot_data",
        "_block_slot",
        "entries",
        "_summary_bytes",
        "_sealed",
        "_written_slots",
        "_written_entries",
        "_written_summary",
        "_chunk_start",
        "_chunk_end",
    )

    def __init__(self, geometry: DiskGeometry, seq: int, segment_no: int) -> None:
        self.geometry = geometry
        self.seq = seq
        self.segment_no = segment_no
        self._block_size = geometry.block_size
        #: The segment image, filled in place as blocks arrive.
        self._image = bytearray(geometry.segment_size)
        #: Per-slot source object: the caller's ``bytes`` (kept so
        #: buffer reads stay zero-copy) or None when the block arrived
        #: as a borrowed buffer (e.g. a cleaner memoryview) — those
        #: reads materialize from the image on demand.
        self._slot_data: List[Optional[bytes]] = []
        self._block_slot: Dict[BlockId, int] = {}
        self.entries: List[SummaryEntry] = []
        self._summary_bytes = 0
        self._sealed = False
        #: How much of the buffer earlier chunks already put on disk.
        self._written_slots = 0
        self._written_entries = 0
        self._written_summary = 0
        #: Extent of the chunk sealed last / where the next one ends.
        self._chunk_start = geometry.segment_size
        self._chunk_end = geometry.segment_size

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------

    def bytes_free(self) -> int:
        """Bytes still available for data and summary combined (the
        next chunk's trailer is already set aside)."""
        return (
            self._chunk_end
            - TRAILER_SIZE
            - len(self._slot_data) * self.geometry.block_size
            - (self._summary_bytes - self._written_summary)
        )

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
        """True once :meth:`seal` closed the segment; the buffer is
        then frozen."""
        return self._sealed

    @property
    def in_place(self) -> bool:
        """True once a chunk of this segment is on disk: the next one
        stacks below it."""
        return self._chunk_end < self.geometry.segment_size

    @property
    def has_unwritten(self) -> bool:
        """True if blocks or entries arrived since the last published
        chunk."""
        return (
            len(self._slot_data) > self._written_slots
            or len(self.entries) > self._written_entries
        )

    @property
    def block_count(self) -> int:
        """Number of data slots currently in the buffer."""
        return len(self._slot_data)

    @property
    def unwritten_block_count(self) -> int:
        """Number of data slots no chunk has put on disk yet."""
        return len(self._slot_data) - self._written_slots

    @property
    def entry_count(self) -> int:
        """Number of summary entries currently in the buffer."""
        return len(self.entries)

    @property
    def summary_bytes(self) -> int:
        """Encoded size of the summary entries accumulated so far."""
        return self._summary_bytes

    @property
    def fill_ratio(self) -> float:
        """Fraction of the usable segment capacity occupied by data
        blocks plus summary chunks — the quantity eager flushes waste."""
        usable = self.geometry.usable_size
        return (usable - max(0, self.bytes_free())) / usable if usable else 0.0

    # ------------------------------------------------------------------
    # Filling
    # ------------------------------------------------------------------

    def append_write(
        self, block_id: BlockId, data, aru_tag: int, ts: int
    ) -> Optional[PhysAddr]:
        """Place one block of data and its WRITE summary entry.

        One room check covers both.  A block whose slot in this buffer
        is not on disk yet is overwritten in that slot; otherwise it
        takes the next slot; :meth:`seal` gives the entry its slot's
        CRC.  ``data`` is exactly one block, ``bytes``
        or any buffer (``memoryview``, ``bytearray``): it is
        slice-assigned into the segment image immediately, so borrowed
        views are consumed before return and never retained.

        Returns the block's address, or None when the block and its
        entry do not fit; nothing is placed then.
        """
        if self._sealed:
            raise RuntimeError("segment buffer is sealed")
        block_size = self._block_size
        if len(data) != block_size:
            raise ValueError(
                f"block data must be {block_size} bytes, got {len(data)}"
            )
        slot_data = self._slot_data
        slot = self._block_slot.get(block_id, -1)
        fresh = slot < self._written_slots
        if _WRITE_ENTRY_SIZE + (block_size if fresh else 0) > self.bytes_free():
            return None
        if fresh:
            # New to the buffer, or its slot is already on disk.
            slot = len(slot_data)
            slot_data.append(data if type(data) is bytes else None)
            self._block_slot[block_id] = slot
        else:
            slot_data[slot] = data if type(data) is bytes else None
        offset = slot * block_size
        self._image[offset : offset + block_size] = data
        self.entries.append(SummaryEntry(_WRITE, aru_tag, ts, int(block_id), slot))
        self._summary_bytes += _WRITE_ENTRY_SIZE
        # A slot this buffer numbered: no range check to pay.
        return tuple.__new__(PhysAddr, (self.segment_no, slot))

    def add_entry(self, entry: SummaryEntry) -> None:
        """Append one summary entry (room must have been checked).  A
        WRITE enters with its data, through :meth:`append_write`."""
        if self._sealed:
            raise RuntimeError("segment buffer is sealed")
        if entry.kind == _WRITE:
            raise ValueError("a WRITE entry is placed by append_write")
        size = entry.encoded_size()
        if size > self.bytes_free():
            raise RuntimeError("segment summary overflow (missing room check)")
        self.entries.append(entry)
        self._summary_bytes += size

    def contains_block(self, block_id: BlockId) -> bool:
        """True if this buffer holds ``block_id`` in a slot not yet on
        disk, i.e. rewriting the block needs no new slot."""
        return self._block_slot.get(block_id, -1) >= self._written_slots

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
        """Read a block's newest data out of the buffer."""
        return self._slot_bytes(self._block_slot[block_id])

    def get_slot(self, slot: int) -> bytes:
        """Read a data slot out of the buffer."""
        return self._slot_bytes(slot)

    def unwritten_slots(self) -> Iterator[Tuple[int, bytes]]:
        """Yield (slot, data) for every slot no chunk has put on disk
        yet."""
        slot_bytes = self._slot_bytes
        for slot in range(self._written_slots, len(self._slot_data)):
            yield slot, slot_bytes(slot)

    def unwritten_entries(self) -> List[SummaryEntry]:
        """The summary entries no chunk has put on disk yet."""
        if not self._written_entries:
            return self.entries
        return self.entries[self._written_entries :]

    # ------------------------------------------------------------------
    # Sealing
    # ------------------------------------------------------------------

    def seal(self, last: bool = True) -> bytearray:
        """Finish the next chunk in the image in place; return the image.

        The chunk — every entry added since the previous chunk, then
        the trailer with the summary CRC — goes right below the previous
        one (at the segment end for the first).  Each WRITE entry gets
        the CRC-32 of its slot's final bytes here, in the buffer's
        entries as well as in the image.  The image is exactly
        ``geometry.segment_size`` bytes and the returned object is the
        buffer's own ``bytearray`` — no copy.

        With ``last`` (the default) the segment is closed: the chunk
        carries :data:`FLAG_LAST` and the buffer is frozen — any further
        ``append_write``/``add_entry`` raises — which is what makes
        handing out the alias safe; the disk layer copies the ranges it
        is handed (:meth:`write_unwritten`) into its own copy of the
        segment.  Without it the caller writes the same ranges, calls
        :meth:`publish`, and the buffer keeps filling.
        """
        if self._sealed:
            raise RuntimeError("segment buffer is sealed")
        image = self._image
        view = memoryview(image)
        size = self._block_size
        crc32 = zlib.crc32
        # Every WRITE came through append_write, so ``is`` finds them;
        # tuple.__new__ skips SummaryEntry's argument parsing.
        make = tuple.__new__
        written = self._written_entries
        self.entries[written:] = [
            make(
                SummaryEntry,
                (_WRITE, entry[1], entry[2], entry[3], entry[4],
                 crc32(view[entry[4] * size : (entry[4] + 1) * size])),
            )
            if entry[0] is _WRITE
            else entry
            for entry in self.entries[written:]
        ]
        entries = self.unwritten_entries()
        summary_len = self._summary_bytes - self._written_summary
        end = self._chunk_end
        trailer = end - TRAILER_SIZE
        start = trailer - summary_len
        if encode_entries_into(entries, image, start) != trailer:
            raise RuntimeError("summary size accounting is inconsistent")
        TRAILER_STRUCT.pack_into(
            image,
            trailer,
            TRAILER_MAGIC,
            FORMAT_VERSION,
            FLAG_LAST if last else 0,
            self.seq,
            len(entries),
            len(self._slot_data) - self._written_slots,
            summary_len,
            0,  # summary crc placeholder
        )
        _SUMMARY_CRC_STRUCT.pack_into(
            image,
            end - _SUMMARY_CRC_END,
            zlib.crc32(view[start : end - _SUMMARY_CRC_END]),
        )
        self._chunk_start = start
        self._sealed = last
        return image

    def unwritten_ranges(self) -> List[Tuple[int, int]]:
        """Byte ranges ``[start, end)`` of the image that put the chunk
        sealed last on disk in place, in write order: its data slots
        first (if it has any), then the chunk itself.

        The chunk range is rounded out to the sector grid — down into
        the free gap, but never below the data end, and up into the
        previous chunk, whose bytes on disk are identical.
        """
        block_size = self.geometry.block_size
        data_start = self._written_slots * block_size
        data_end = len(self._slot_data) * block_size
        ranges = [(data_start, data_end)] if data_end > data_start else []
        ranges.append(
            (
                max(data_end, self._chunk_start // SECTOR_SIZE * SECTOR_SIZE),
                -(-self._chunk_end // SECTOR_SIZE) * SECTOR_SIZE,
            )
        )
        return ranges

    def write_unwritten(self, disk) -> None:
        """Hand ``disk`` the :meth:`unwritten_ranges` of the image, one
        :meth:`~repro.disk.simdisk.SimulatedDisk.write_at` each, data
        first: a chunk on disk vouches for its slots.  The free gap is
        never written.  Callers make the writes part of a
        :meth:`~repro.disk.simdisk.SimulatedDisk.batch`."""
        view = memoryview(self._image)
        segment_no = self.segment_no
        for start, end in self.unwritten_ranges():
            disk.write_at(segment_no, start, view[start:end])

    def publish(self) -> None:
        """The chunk sealed last is on disk: whatever arrives next forms
        the next chunk, stacked below it, under the next sequence
        number."""
        self._written_slots = len(self._slot_data)
        self._written_entries = len(self.entries)
        self._written_summary = self._summary_bytes
        self._chunk_end = chunk_end_below(self._chunk_start)
        self.seq += 1


def reference_seal(buffer: SegmentBuffer) -> bytes:
    """The pre-fast-path segment assembly, kept as a differential oracle.

    Builds the whole-segment image the original way — fresh
    ``bytearray``, one copy per data slot at seal time, each WRITE
    entry re-encoded with the CRC of that copy, then summary, trailer
    and CRC — without touching ``buffer``'s own image, entries or
    sealed flag.  Must produce a byte-identical image to
    :meth:`SegmentBuffer.seal` on a buffer no chunk of which is on
    disk; ``bench_wallclock.py`` gates the fast path against it and
    ``tests/test_wallclock_fastpath.py`` proves the identity.
    """
    geo = buffer.geometry
    image = bytearray(geo.segment_size)
    block_size = geo.block_size
    for slot in range(buffer.block_count):
        offset = slot * block_size
        image[offset : offset + block_size] = buffer._slot_bytes(slot)
    entries = [
        entry._replace(c=zlib.crc32(buffer._slot_bytes(entry.b)))
        if entry.kind is EntryKind.WRITE
        else entry
        for entry in buffer.entries
    ]
    summary_len = buffer.summary_bytes
    summary_start = geo.segment_size - TRAILER_SIZE - summary_len
    end = encode_entries_into(entries, image, summary_start)
    if end != summary_start + summary_len:
        raise RuntimeError("summary size accounting is inconsistent")
    TRAILER_STRUCT.pack_into(
        image,
        geo.segment_size - TRAILER_SIZE,
        TRAILER_MAGIC,
        FORMAT_VERSION,
        FLAG_LAST,
        buffer.seq,
        len(entries),
        buffer.block_count,
        summary_len,
        0,  # summary crc placeholder
    )
    summary_crc = zlib.crc32(
        memoryview(image)[summary_start : geo.segment_size - _SUMMARY_CRC_END]
    )
    _SUMMARY_CRC_STRUCT.pack_into(
        image, geo.segment_size - _SUMMARY_CRC_END, summary_crc
    )
    return bytes(image)


class DecodedSegment:
    """A validated on-disk segment, ready for recovery or cleaning.

    One object per segment whatever its chunk count: the entries of
    every valid chunk concatenated in log order, ``block_count`` the
    data slots those chunks describe, ``seq`` the first (oldest)
    chunk's sequence number — the one that classifies the segment —
    and ``last_seq`` the newest's.

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
        "last_seq",
        "entry_tuples",
        "block_count",
        "raw",
        "geometry",
        "summary_start",
        "closed",
        "_summaries",
        "_entries",
    )

    def __init__(
        self,
        segment_no: int,
        seq: int,
        last_seq: int,
        entry_tuples: List[Tuple[int, ...]],
        block_count: int,
        raw,
        geometry: DiskGeometry,
        summary_start: int,
        closed: bool,
        summaries: List[Tuple[int, int]],
    ) -> None:
        self.segment_no = segment_no
        self.seq = seq
        self.last_seq = last_seq
        self.entry_tuples = entry_tuples
        self.block_count = block_count
        self.raw = raw
        self.geometry = geometry
        #: Segment offset where the newest valid chunk starts.
        self.summary_start = summary_start
        #: True if the newest valid chunk carries :data:`FLAG_LAST`.
        self.closed = closed
        #: Per chunk, oldest first: (offset in ``raw``, length) of its
        #: entries.
        self._summaries = summaries
        self._entries: Optional[List[SummaryEntry]] = None

    @property
    def entries(self) -> List[SummaryEntry]:
        """The summary as :class:`SummaryEntry` objects (lazy, cached).

        Decoded from the raw summary bytes with the reference codec,
        independently of :attr:`entry_tuples`.
        """
        if self._entries is None:
            view = memoryview(self.raw)
            self._entries = [
                entry
                for offset, length in self._summaries
                for entry in decode_entries(view[offset : offset + length])
            ]
        return self._entries

    @property
    def entry_count(self) -> int:
        """Number of summary entries (without materializing objects)."""
        return len(self.entry_tuples)

    @property
    def chunk_count(self) -> int:
        """Number of valid chunks the walk found."""
        return len(self._summaries)

    @property
    def summary_len(self) -> int:
        """Encoded size of all valid chunks' entries together."""
        return sum(length for _offset, length in self._summaries)

    @property
    def stack_len(self) -> int:
        """Bytes of the valid chunks: their entries and trailers."""
        return self.summary_len + self.chunk_count * TRAILER_SIZE

    def slot_data(self, slot: int) -> bytes:
        """Return the data of slot ``slot`` as ``bytes`` (a copy)."""
        if not 0 <= slot < self.block_count:
            raise ValueError(f"slot {slot} out of range for decoded segment")
        offset = slot * self.geometry.block_size
        return bytes(self.raw[offset : offset + self.geometry.block_size])

    def slot_view(self, slot: int) -> memoryview:
        """Return slot ``slot`` as a zero-copy read-only view.

        For hot consumers (cleaner evacuation, salvage) that hand the
        data straight to :meth:`SegmentBuffer.append_write`, which
        consumes the view immediately; do not retain the view anywhere
        user-visible (caches and read results must hold ``bytes``).
        """
        if not 0 <= slot < self.block_count:
            raise ValueError(f"slot {slot} out of range for decoded segment")
        offset = slot * self.geometry.block_size
        return memoryview(self.raw).toreadonly()[
            offset : offset + self.geometry.block_size
        ]


def _walk_chunks(tail, geometry: DiskGeometry, segment_no: int, check_data: bool):
    """Walk a segment's chunk stack down from the segment end.

    ``tail`` is the last ``len(tail)`` bytes of the segment image (all
    of it when ``check_data``).  A chunk is accepted only if its
    trailer parses, its sequence number is its predecessor's plus one,
    it does not reach into the data slots counted so far, its summary
    CRC holds, its entries decode to the promised count — and, with
    ``check_data``, every slot a WRITE entry names holds its CRC
    (:func:`slots_hold`).  The walk stops at the first chunk that fails
    any of these (a torn or corrupted chunk ends its segment's history;
    so does a stale one from an earlier incarnation of the physical
    segment) or below a chunk flagged last.

    Returns a :class:`DecodedSegment` of the accepted chunks, ``None``
    if not even the first was valid, or — when the walk ran off the
    front of ``tail`` before it could stop — the tail length (an
    ``int``, bytes from the segment end) needed to continue.
    """
    size = geometry.segment_size
    block_size = geometry.block_size
    base = size - len(tail)  # segment offset of tail[0]
    view = memoryview(tail)
    end = size
    slots = 0
    first_seq = last_seq = None
    closed = False
    entry_tuples: List[Tuple[int, ...]] = []
    summaries: List[Tuple[int, int]] = []
    start = size
    while not closed:
        trailer = end - TRAILER_SIZE
        if trailer < slots * block_size:
            break
        if trailer < base:
            # A chain of unknown length runs off the window: ask for
            # at least twice as much, so the rounds stay few.
            return min(size, max(size - trailer, 2 * len(tail)))
        parsed = parse_trailer(view[trailer - base : end - base])
        if parsed is None:
            break
        seq, flags, nentries, nblocks, summary_len, summary_crc = parsed
        if last_seq is not None and seq != last_seq + 1:
            break
        chunk_start = trailer - summary_len
        if chunk_start < (slots + nblocks) * block_size:
            break
        if chunk_start < base:
            # A closed segment needs exactly this chunk and no more.
            needed = size - chunk_start
            if not flags & FLAG_LAST:
                needed = min(size, max(needed, 2 * len(tail)))
            return needed
        chunk = view[chunk_start - base : end - base]
        if zlib.crc32(chunk[: len(chunk) - _SUMMARY_CRC_END]) != summary_crc:
            break
        try:
            tuples = decode_entry_tuples(chunk[:summary_len])
        except ValueError:
            break
        if len(tuples) != nentries:
            break
        if check_data and not slots_hold(tuples, view, block_size):
            break
        entry_tuples += tuples
        summaries.append((chunk_start - base, summary_len))
        slots += nblocks
        if first_seq is None:
            first_seq = seq
        last_seq = seq
        closed = bool(flags & FLAG_LAST)
        start = chunk_start
        end = chunk_end_below(chunk_start)
    if first_seq is None:
        return None
    # Without a body, keep only the chunk stack.
    raw_base = 0 if check_data else start - base
    return DecodedSegment(
        segment_no=segment_no,
        seq=first_seq,
        last_seq=last_seq,
        entry_tuples=entry_tuples,
        block_count=slots,
        raw=tail if check_data else bytes(view[raw_base:]),
        geometry=geometry,
        summary_start=start,
        closed=closed,
        summaries=[(offset - raw_base, length) for offset, length in summaries],
    )


def decode_segment(
    raw, geometry: DiskGeometry, segment_no: int
) -> Optional[DecodedSegment]:
    """Validate and parse a raw segment image.

    Returns None if the segment is not a valid LLD segment (never
    written, or its first chunk torn or corrupted) — recovery treats
    such segments as free space.  Otherwise the result covers every
    chunk up to the first invalid one (see :func:`_walk_chunks`); each
    is validated by its summary CRC and by one CRC-32 pass (C-backed
    ``zlib.crc32``) over each data slot a WRITE entry names
    (:func:`decode_segment_tail` is the summary-CRC-only variant that
    needs no body), and its summary is batch-decoded into field tuples
    in a single pass.
    """
    if len(raw) != geometry.segment_size:
        return None
    return _walk_chunks(raw, geometry, segment_no, check_data=True)


def decode_segment_tail(tail, geometry: DiskGeometry, segment_no: int):
    """Decode a segment's summary from a tail window alone.

    ``tail`` is the *last* ``len(tail)`` bytes of the segment image
    (at least :data:`TRAILER_SIZE`).  Returns:

    * ``None`` — not a valid LLD segment (bad magic/version, summary
      CRC mismatch or structural violation in the first chunk);
    * an ``int`` — the tail is valid so far but too short to finish
      the walk; the value is the tail length (bytes from the segment
      end) to come back with; or
    * a :class:`DecodedSegment` **without a body**: ``raw`` holds only
      the chunk stack, so ``entry_tuples``/``entries`` work but
      ``slot_data``/``slot_view`` must not be called.

    This is recovery's scan primitive: one small tail read per segment
    replaces streaming the whole body through the CRC.  It is sound
    against a crash because a chunk is written after the data it
    describes and its summary CRC is the last thing written; against
    rot in the data, each slot's CRC in its WRITE entry, checked
    when the slot is read (:func:`slots_hold`).
    """
    if len(tail) < TRAILER_SIZE or len(tail) > geometry.segment_size:
        return None
    return _walk_chunks(tail, geometry, segment_no, check_data=False)


def decode_stacks(disk, tails: Dict[int, bytes]):
    """Decode the chunk stacks of several segments from tail windows.

    ``tails`` maps a segment to the last bytes of its image, read by
    the caller.  A stack longer than its window costs a follow-up
    batched read — one per round, for every still-unresolved segment
    at once — of the longer tail :func:`decode_segment_tail` asked
    for; a closed segment asks for exactly its missing bytes.  Charges
    nothing to the meter: the callers (recovery's scan, the cleaner)
    charge the CRC and decode work at their own lane counts.

    Returns ``(decoded, invalid, unreadable)``: the segments whose
    first chunk holds, as bodiless :class:`DecodedSegment` objects in
    sequence order; the segments with no valid first chunk; and those
    whose follow-up read hit a media fault.
    """
    geometry = disk.geometry
    size = geometry.segment_size
    decoded: List[DecodedSegment] = []
    invalid: List[int] = []
    unreadable: List[int] = []
    while tails:
        short: List[Tuple[int, int]] = []
        for seg, tail in tails.items():
            result = decode_segment_tail(tail, geometry, seg)
            if isinstance(result, int):
                short.append((seg, result))
            elif result is None:
                invalid.append(seg)
            else:
                decoded.append(result)
        if not short:
            break
        longer = disk.read_many(
            [(seg, size - needed, needed) for seg, needed in short],
            errors="none",
        )
        tails = {}
        for (seg, _needed), tail in zip(short, longer):
            if tail is None:
                unreadable.append(seg)
            else:
                tails[seg] = tail
    decoded.sort(key=lambda d: d.seq)
    return decoded, invalid, unreadable
