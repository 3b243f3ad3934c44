"""Segment-summary entries: LLD's on-disk operation log.

The mapping between logical and physical block identifiers, and all
list information, is contained in the segment summaries; the
in-memory tables can be reconstructed by scanning them (Section 2).
Entries produced inside an ARU carry the ARU's identifier as a tag;
recovery only applies tagged entries whose ARU has a flushed COMMIT
entry.  Simple operations are tagged ``0`` and are valid as soon as
their segment is on disk.

The COMMIT entry is deliberately compact (25 bytes): Section 5.3
reports that beginning and ending an ARU 500,000 times writes 24
segments of commit records, i.e. ~25 bytes per commit in 0.5 MB
segments.
"""

from __future__ import annotations

import enum
import struct
from typing import Iterator, List, NamedTuple, Tuple


class EntryKind(enum.IntEnum):
    """Operation kinds recorded in segment summaries."""

    #: Block data written: ``a`` = block id, ``b`` = data slot (u16),
    #: ``c`` = CRC-32 of the slot's final bytes, computed when the
    #: chunk is sealed (:meth:`repro.lld.segment.SegmentBuffer.seal`).
    WRITE = 1
    #: Block allocated (always committed immediately): ``a`` = block
    #: id, ``b`` = the list it was allocated for (informational).
    ALLOC_BLOCK = 2
    #: Block removed from its list and deallocated: ``a`` = block id,
    #: ``b`` = the list it was removed from (0 = none; informational
    #: for replay, load-bearing for instant restore's per-list index).
    DELETE_BLOCK = 3
    #: List allocated: ``a`` = list id.
    NEW_LIST = 4
    #: List deallocated along with remaining members: ``a`` = list id.
    DELETE_LIST = 5
    #: Link record, insert-block-after-predecessor: ``a`` = list id,
    #: ``b`` = block id, ``c`` = predecessor block id (0 = first).
    LINK = 6
    #: ARU commit record: the tag is the committing ARU, ``a`` = the
    #: number of operations the ARU performed (diagnostic).
    COMMIT = 7
    #: Cross-volume prepare record (first phase of a sharded commit):
    #: the tag is the preparing ARU, ``a`` = its operation count,
    #: ``b`` = the coordinator transaction id (xid).  A prepared ARU
    #: commits iff its xid has a durable DECIDE record — on this
    #: volume's own log for the coordinator shard, or supplied to
    #: recovery from the coordinator's log otherwise.
    PREPARE = 8
    #: Coordinator decision record: ``a`` = the xid now decided
    #: committed.  Always tagged 0 (the decision is not itself inside
    #: any ARU); written only on the coordinator volume (shard 0).
    DECIDE = 9


#: struct format of the fixed entry header: kind, aru tag, timestamp.
_HEADER_FMT = "<BQQ"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)

#: Per-kind payload formats (fields a, b, c as needed).
_PAYLOAD_FMT = {
    EntryKind.WRITE: "<QHI",
    EntryKind.ALLOC_BLOCK: "<QQ",
    EntryKind.DELETE_BLOCK: "<QQ",
    EntryKind.NEW_LIST: "<Q",
    EntryKind.DELETE_LIST: "<Q",
    EntryKind.LINK: "<QQQ",
    EntryKind.COMMIT: "<Q",
    EntryKind.PREPARE: "<QQ",
    EntryKind.DECIDE: "<Q",
}

_PAYLOAD_FIELDS = {
    EntryKind.WRITE: 3,
    EntryKind.ALLOC_BLOCK: 2,
    EntryKind.DELETE_BLOCK: 2,
    EntryKind.NEW_LIST: 1,
    EntryKind.DELETE_LIST: 1,
    EntryKind.LINK: 3,
    EntryKind.COMMIT: 1,
    EntryKind.PREPARE: 2,
    EntryKind.DECIDE: 1,
}

#: Precompiled whole-entry codecs (header + payload in one struct —
#: "<" formats have no padding, so the concatenation is layout
#: identical to packing header and payload separately).  Keyed by the
#: raw kind byte so the decode loop does a single dict lookup and a
#: single ``unpack_from`` per entry.
_ENTRY_STRUCTS: dict = {
    int(kind): struct.Struct(_HEADER_FMT + _PAYLOAD_FMT[kind][1:])
    for kind in EntryKind
}

_ENTRY_CODECS: dict = {
    raw_kind: (codec, EntryKind(raw_kind), _PAYLOAD_FIELDS[EntryKind(raw_kind)])
    for raw_kind, codec in _ENTRY_STRUCTS.items()
}

#: Raw kind bytes as plain ints, for consumers of the tuple decoder
#: (:func:`decode_entry_tuples`) that dispatch with ``==`` instead of
#: paying an ``EntryKind`` lookup per entry.
KIND_WRITE = int(EntryKind.WRITE)
KIND_ALLOC_BLOCK = int(EntryKind.ALLOC_BLOCK)
KIND_DELETE_BLOCK = int(EntryKind.DELETE_BLOCK)
KIND_NEW_LIST = int(EntryKind.NEW_LIST)
KIND_DELETE_LIST = int(EntryKind.DELETE_LIST)
KIND_LINK = int(EntryKind.LINK)
KIND_COMMIT = int(EntryKind.COMMIT)
KIND_PREPARE = int(EntryKind.PREPARE)
KIND_DECIDE = int(EntryKind.DECIDE)


class SummaryEntry(NamedTuple):
    """One segment-summary entry.

    The meaning of fields ``a``/``b``/``c`` depends on ``kind``; see
    :class:`EntryKind`.  ``aru_tag`` is 0 for simple operations.  An
    immutable tuple: one is built for every logged operation, and a
    tuple costs a third of a frozen dataclass to make.
    """

    kind: EntryKind
    aru_tag: int
    timestamp: int
    a: int = 0
    b: int = 0
    c: int = 0

    def encoded_size(self) -> int:
        """Size of this entry's on-disk encoding in bytes."""
        return _ENTRY_STRUCTS[self.kind].size

    def encode(self) -> bytes:
        """Serialize to the on-disk representation."""
        codec = _ENTRY_STRUCTS[self.kind]
        fields = (self.a, self.b, self.c)[: _PAYLOAD_FIELDS[self.kind]]
        return codec.pack(self.kind, self.aru_tag, self.timestamp, *fields)


def entry_size(kind: EntryKind) -> int:
    """On-disk size of an entry of ``kind``."""
    return _ENTRY_STRUCTS[int(kind)].size


#: Size of a COMMIT entry; exposed for the ARU-latency analysis.
COMMIT_ENTRY_SIZE = entry_size(EntryKind.COMMIT)


def encode_entries(entries: List[SummaryEntry]) -> bytes:
    """Serialize a summary as the concatenation of its entries."""
    return b"".join(entry.encode() for entry in entries)


def encode_entries_into(
    entries: List[SummaryEntry], buf: bytearray, offset: int
) -> int:
    """Serialize ``entries`` directly into ``buf`` starting at ``offset``.

    Uses ``pack_into`` with the precompiled codecs, so the segment
    buffer is filled in place with no intermediate per-entry byte
    objects.  Returns the offset just past the last entry written.
    """
    structs = _ENTRY_STRUCTS
    nfields = _PAYLOAD_FIELDS
    for entry in entries:
        codec = structs[entry.kind]
        fields = (entry.a, entry.b, entry.c)[: nfields[entry.kind]]
        codec.pack_into(
            buf, offset, entry.kind, entry.aru_tag, entry.timestamp, *fields
        )
        offset += codec.size
    return offset


def decode_entries(raw) -> Iterator[SummaryEntry]:
    """Parse a serialized summary back into entries, in order.

    ``raw`` may be ``bytes`` or any buffer (e.g. a ``memoryview`` into
    a segment image); decoding never copies the underlying bytes.

    This is the *reference* codec: it materializes one
    :class:`SummaryEntry` (with its :class:`EntryKind`) per entry,
    which is convenient but expensive.  Hot paths use
    :func:`decode_entry_tuples` instead; the differential tests in
    ``tests/test_wallclock_fastpath.py`` pin the two decoders to each
    other field for field.

    Raises:
        ValueError: On a malformed entry stream (callers treat the
            whole segment as invalid; the checksum normally catches
            this first).
    """
    offset = 0
    total = len(raw)
    codecs = _ENTRY_CODECS
    while offset < total:
        kind_raw = raw[offset]
        entry = codecs.get(kind_raw)
        if entry is None:
            if offset + _HEADER_SIZE > total:
                raise ValueError("truncated summary entry header")
            raise ValueError(f"unknown summary entry kind {kind_raw}")
        codec, kind, count = entry
        if offset + codec.size > total:
            if offset + _HEADER_SIZE > total:
                raise ValueError("truncated summary entry header")
            raise ValueError("truncated summary entry payload")
        fields: Tuple[int, ...] = codec.unpack_from(raw, offset)
        offset += codec.size
        padded = fields[3:] + (0,) * (3 - count)
        yield SummaryEntry(kind, fields[1], fields[2], *padded)


def decode_entry_tuples(raw) -> List[Tuple[int, ...]]:
    """Batch-decode a serialized summary into raw field tuples.

    Each tuple is exactly what the entry's precompiled struct unpacks:
    ``(kind, aru_tag, timestamp, a[, b[, c]])`` with the payload tail
    cut to the kind's field count (no zero padding).  ``kind`` is the
    raw int byte — compare against the ``KIND_*`` constants.

    This is the wall-clock fast path: one dict lookup and one
    ``unpack_from`` per entry, no :class:`SummaryEntry` or ``EntryKind``
    construction, the whole summary in a single pass.  It accepts and
    rejects byte-for-byte the same streams as :func:`decode_entries`
    (same ``ValueError`` cases), which the differential tests enforce.
    """
    offset = 0
    total = len(raw)
    codecs = _ENTRY_CODECS
    out: List[Tuple[int, ...]] = []
    append = out.append
    while offset < total:
        kind_raw = raw[offset]
        entry = codecs.get(kind_raw)
        if entry is None:
            if offset + _HEADER_SIZE > total:
                raise ValueError("truncated summary entry header")
            raise ValueError(f"unknown summary entry kind {kind_raw}")
        codec = entry[0]
        end = offset + codec.size
        if end > total:
            if offset + _HEADER_SIZE > total:
                raise ValueError("truncated summary entry header")
            raise ValueError("truncated summary entry payload")
        append(codec.unpack_from(raw, offset))
        offset = end
    return out
