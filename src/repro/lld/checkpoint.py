"""Checkpoints: bounding the recovery scan and enabling cleaning.

LLD reconstructs its tables by scanning segment summaries.  Without
checkpoints the *whole* log would have to be retained forever — the
cleaner could never reuse a segment whose summary still carried
needed history.  A checkpoint serializes the persistent state (the
block-number-map, the list-table, the segment roster and the
identifier counters) so that:

* recovery loads the newest valid checkpoint, takes the segments its
  roster lists on its word and reads only the ones written since, and
* the cleaner may free any segment whose summary entries are covered
  by a checkpoint.

Two checkpoint slots at the front of the partition are written
alternately (classic LFS style), so a torn checkpoint write always
leaves the previous checkpoint intact.  Each slot spans a fixed
number of reserved segments sized at initialization for the
worst-case table size; a write covers only the bytes the checkpoint
occupies (see :meth:`CheckpointManager.write`).

The tables travel packed, as they lie in the image: one row per
persistent record, in wire order (:data:`BlockRow`, :data:`ListRow`).
A live volume keeps each table's rows between checkpoints
(:class:`PackedRows`) and repacks only the rows whose records changed
since the last one; a load hands back the bytes it read.
"""

from __future__ import annotations

import dataclasses
import struct
import zlib
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.disk.geometry import SECTOR_SIZE, DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import DiskFullError, MediaError

CKPT_MAGIC = b"LCKP"
CKPT_VERSION = 2

#: magic(4s) version(H) pad(H) ckpt_seq(Q) last_log_seq(Q) next_block(Q)
#: next_list(Q) next_aru(Q) n_blocks(Q) n_lists(Q) n_segs(Q) n_decided(Q)
#: total_len(Q) crc(Q)
_HEADER = struct.Struct("<4sHHQQQQQQQQQQQ")
_CRC = struct.Struct("<Q")

#: one decided coordinator transaction id (cross-volume commit)
_DECIDED = struct.Struct("<Q")

#: block_id succ list_id timestamp segment slot flags
_BLOCK = struct.Struct("<QQQQIIB")
#: Bit of a block row's ``flags``: the block has a physical address.
FLAG_HAS_ADDR = 0x1

#: list_id first last count timestamp
_LIST = struct.Struct("<QQQQQ")

#: segment seq live total
_SEG = struct.Struct("<IQII")

#: One persistent block record in wire order: ``(block_id, successor,
#: list_id, timestamp, segment, slot, flags)``; 0 stands for "none".
BlockRow = Tuple[int, int, int, int, int, int, int]
#: One persistent list record in wire order: ``(list_id, first, last,
#: count, timestamp)``; 0 stands for "none".
ListRow = Tuple[int, int, int, int, int]


def pack_block_rows(rows: Iterable[BlockRow]) -> bytes:
    """Block rows packed back to back, as the image holds them."""
    pack = _BLOCK.pack
    return b"".join([pack(*row) for row in rows])


def pack_list_rows(rows: Iterable[ListRow]) -> bytes:
    """List rows packed back to back, as the image holds them."""
    pack = _LIST.pack
    return b"".join([pack(*row) for row in rows])


def pack_block_record(block_id: int, rec) -> bytes:
    """The checkpoint row of a persistent block record."""
    addr = rec.address
    if addr is None:
        return _BLOCK.pack(
            block_id, rec.successor or 0, rec.list_id or 0, rec.timestamp, 0, 0, 0
        )
    return _BLOCK.pack(
        block_id,
        rec.successor or 0,
        rec.list_id or 0,
        rec.timestamp,
        addr[0],
        addr[1],
        FLAG_HAS_ADDR,
    )


def pack_list_record(list_id: int, rec) -> bytes:
    """The checkpoint row of a persistent list record."""
    return _LIST.pack(
        list_id, rec.first or 0, rec.last or 0, rec.count, rec.timestamp
    )


class PackedRows:
    """One table's checkpoint rows, kept packed between checkpoints.

    One row per identifier with a persistent record, packed by
    ``pack(ident, record)``.  :meth:`section` repacks the identifiers
    the table marked changed since the last call — all of them when
    the table says every one changed, which makes the first build the
    same code as every later one — and returns the table's section of
    the image, identifiers ascending.  The order is sorted again only
    when the set of identifiers changed.  Nothing is packed until a
    checkpoint asks.
    """

    __slots__ = ("_table", "pack", "_rows", "_order")

    def __init__(self, table, pack: Callable[[int, object], bytes]) -> None:
        self._table = table
        self.pack = pack
        #: Identifier -> its row, for every persistent record.
        self._rows: Dict[int, bytes] = {}
        #: The identifiers of ``_rows`` ascending; None once the set of
        #: identifiers changed.
        self._order: Optional[List[int]] = None

    def section(self) -> bytes:
        """Bring the rows up to date and return them joined."""
        table = self._table
        pack = self.pack
        persistent = table.persistent
        changed = table.changed
        if changed is None:
            rows = self._rows = {
                ident: pack(ident, record) for ident, record in persistent.items()
            }
            self._order = None
        else:
            rows = self._rows
            for ident in changed:
                record = persistent.get(ident)
                if record is not None:
                    if ident not in rows:
                        self._order = None
                    rows[ident] = pack(ident, record)
                elif rows.pop(ident, None) is not None:
                    self._order = None
        table.changed = set()
        order = self._order
        if order is None:
            order = self._order = sorted(rows)
        return b"".join(map(rows.__getitem__, order))

    def rows(self) -> Dict[int, bytes]:
        """Identifier -> the row held for it (for the checker)."""
        return dict(self._rows)


@dataclasses.dataclass
class CheckpointData:
    """A checkpoint's contents: the counters, both tables as packed
    rows in wire order, the segment roster and the decided xids."""

    ckpt_seq: int
    last_log_seq: int
    next_block_id: int
    next_list_id: int
    next_aru_id: int
    #: One :data:`BlockRow` per persistent block, packed.
    block_rows: bytes
    #: One :data:`ListRow` per persistent list, packed.
    list_rows: bytes
    #: segment -> (log seq, live slots, total slots)
    segments: Dict[int, Tuple[int, int, int]]
    #: Coordinator transaction ids (cross-volume commits) decided by
    #: this volume whose DECIDE records this checkpoint supersedes.
    #: A participant volume's recovery may still need them to roll a
    #: prepared ARU forward, so they ride in the checkpoint until a
    #: global (all-shard) checkpoint proves every prepare is covered.
    #: Empty on non-coordinator and single-volume disks.
    decided_xids: List[int] = dataclasses.field(default_factory=list)

    @property
    def blocks(self) -> List[BlockRow]:
        """The block rows, unpacked."""
        return list(_BLOCK.iter_unpack(self.block_rows))

    @property
    def lists(self) -> List[ListRow]:
        """The list rows, unpacked."""
        return list(_LIST.iter_unpack(self.list_rows))

    @property
    def total_len(self) -> int:
        """Bytes the serialized checkpoint occupies, header included."""
        return (
            _HEADER.size
            + len(self.block_rows)
            + len(self.list_rows)
            + len(self.segments) * _SEG.size
            + len(self.decided_xids) * _DECIDED.size
        )

    @classmethod
    def empty(cls) -> "CheckpointData":
        """The implicit checkpoint of a virgin disk."""
        return cls(
            ckpt_seq=0,
            last_log_seq=0,
            next_block_id=1,
            next_list_id=1,
            next_aru_id=1,
            block_rows=b"",
            list_rows=b"",
            segments={},
            decided_xids=[],
        )


def default_slot_segments(geometry: DiskGeometry) -> int:
    """Segments to reserve per checkpoint slot for worst-case tables.

    Worst case: every data slot of the partition holds a distinct
    allocated block, each in its own list.
    """
    max_blocks = geometry.max_data_blocks * geometry.num_segments
    payload = (
        _HEADER.size
        + max_blocks * (_BLOCK.size + _LIST.size)
        + geometry.num_segments * _SEG.size
    )
    slots = -(-payload // geometry.segment_size)  # ceil division
    # Never let the checkpoint region eat the partition.
    return max(1, min(slots, geometry.num_segments // 4 or 1))


class CheckpointManager:
    """Writes and loads alternating checkpoints on reserved segments."""

    def __init__(self, disk: SimulatedDisk, slot_segments: int) -> None:
        self.disk = disk
        self.geometry = disk.geometry
        self.slot_segments = slot_segments
        self.last_written_seq = 0
        #: ``last_log_seq`` of that checkpoint: segments numbered above
        #: it were written since.
        self.last_log_seq = 0
        #: Slots the last :meth:`load` found written but not valid.
        self.damaged_slots: List[int] = []

    @property
    def reserved_segments(self) -> int:
        """Total segments reserved at the front of the partition."""
        return 2 * self.slot_segments

    def _slot_base(self, ckpt_seq: int) -> int:
        return (ckpt_seq % 2) * self.slot_segments

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def write(self, data: CheckpointData) -> Tuple[int, int]:
        """Serialize and write a checkpoint to the next slot.

        Only the bytes the checkpoint occupies are written: whole
        segments first, then the tail rounded up to a sector.  The
        slot is reserved for the worst case, so whatever an older,
        longer checkpoint (or a torn write) left beyond ``total_len``
        stays on the platter; the loader never reads it, and the CRC
        covers exactly ``[0, total_len)``, so a write torn anywhere
        leaves a slot that fails its CRC and the other slot wins.

        Returns:
            ``(payload bytes, bytes handed to the disk)``.

        Raises:
            DiskFullError: If the serialized checkpoint exceeds the
                reserved slot (tables larger than provisioned).
        """
        payload = self._serialize(data)
        seg_size = self.geometry.segment_size
        slot_bytes = self.slot_segments * seg_size
        if len(payload) > slot_bytes:
            raise DiskFullError(
                f"checkpoint needs {len(payload)} bytes but the slot holds "
                f"{slot_bytes}; reserve more checkpoint segments"
            )
        base = self._slot_base(data.ckpt_seq)
        whole, tail = divmod(len(payload), seg_size)
        for index in range(whole):
            self.disk.write_segment(
                base + index, payload[index * seg_size : (index + 1) * seg_size]
            )
        written = whole * seg_size
        if tail:
            padded = min(-(-tail // SECTOR_SIZE) * SECTOR_SIZE, seg_size)
            self.disk.write_at(
                base + whole, 0, payload[written:] + bytes(padded - tail)
            )
            written += padded
        self.last_written_seq = data.ckpt_seq
        self.last_log_seq = data.last_log_seq
        return len(payload), written

    def _serialize(self, data: CheckpointData) -> bytes:
        seg = _SEG.pack
        parts = [data.block_rows, data.list_rows]
        parts += [
            seg(number, *entry) for number, entry in sorted(data.segments.items())
        ]
        parts += map(_DECIDED.pack, sorted(data.decided_xids))
        body = b"".join(parts)
        head = _HEADER.pack(
            CKPT_MAGIC,
            CKPT_VERSION,
            0,
            data.ckpt_seq,
            data.last_log_seq,
            data.next_block_id,
            data.next_list_id,
            data.next_aru_id,
            len(data.block_rows) // _BLOCK.size,
            len(data.list_rows) // _LIST.size,
            len(data.segments),
            len(data.decided_xids),
            _HEADER.size + len(body),
            0,  # the CRC covers everything but itself
        )[: -_CRC.size]
        crc = zlib.crc32(body, zlib.crc32(head))
        return b"".join((head, _CRC.pack(crc), body))

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load(self) -> CheckpointData:
        """Return the newest valid checkpoint (or the empty one)."""
        # A damaged slot may have held a newer checkpoint: segments the
        # survivor's roster attests may have been freed and rewritten
        # since, so recovery reads them all when this is not empty.
        self.damaged_slots = []
        best = CheckpointData.empty()
        for slot in range(2):
            parsed = self._load_slot(slot)
            if parsed is not None and parsed.ckpt_seq > best.ckpt_seq:
                best = parsed
        self.last_written_seq = best.ckpt_seq
        self.last_log_seq = best.last_log_seq
        return best

    def _load_slot(self, slot: int) -> Optional[CheckpointData]:
        """Parse one slot; None when it holds no valid checkpoint —
        never written (a header of zeros), or damaged and then listed
        in :attr:`damaged_slots`.

        Only a media fault makes a slot "not a checkpoint"; a retired
        handle, a lost shard or a bug must not look like an empty disk.
        """
        base = slot * self.slot_segments
        seg_size = self.geometry.segment_size
        try:
            first = self.disk.read_segment(base)
        except MediaError:
            return self._damaged(slot)
        if len(first) < _HEADER.size:
            return self._damaged(slot)
        if not any(first[: _HEADER.size]):
            return None
        (
            magic,
            version,
            _pad,
            ckpt_seq,
            last_log_seq,
            next_block,
            next_list,
            next_aru,
            n_blocks,
            n_lists,
            n_segs,
            n_decided,
            total_len,
            crc,
        ) = _HEADER.unpack_from(first)
        if magic != CKPT_MAGIC or version != CKPT_VERSION:
            return self._damaged(slot)
        if not _HEADER.size <= total_len <= self.slot_segments * seg_size:
            return self._damaged(slot)
        chunks = [first]
        try:
            for index in range(1, -(-total_len // seg_size)):
                chunks.append(self.disk.read_segment(base + index))
        except MediaError:
            return self._damaged(slot)
        raw = memoryview(b"".join(chunks))[:total_len]
        body = raw[_HEADER.size :]
        if zlib.crc32(body, zlib.crc32(raw[: _HEADER.size - _CRC.size])) != crc:
            return self._damaged(slot)
        blocks_end = n_blocks * _BLOCK.size
        lists_end = blocks_end + n_lists * _LIST.size
        segs_end = lists_end + n_segs * _SEG.size
        if segs_end + n_decided * _DECIDED.size != len(body):
            return self._damaged(slot)
        return CheckpointData(
            ckpt_seq=ckpt_seq,
            last_log_seq=last_log_seq,
            next_block_id=next_block,
            next_list_id=next_list,
            next_aru_id=next_aru,
            block_rows=bytes(body[:blocks_end]),
            list_rows=bytes(body[blocks_end:lists_end]),
            segments={
                seg: (seq, live, total)
                for seg, seq, live, total in _SEG.iter_unpack(
                    body[lists_end:segs_end]
                )
            },
            decided_xids=[
                xid for (xid,) in _DECIDED.iter_unpack(body[segs_end:])
            ],
        )

    def _damaged(self, slot: int) -> None:
        self.damaged_slots.append(slot)
        return None
