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

Two checkpoint slots at the front of the partition each hold a
**base** image followed by an append-only **chain of deltas**.  A
base is the whole state; a delta carries the rows whose records
changed since the previous checkpoint, the identifiers deleted since
then, and the roster, counters and decided xids in full.  A delta is
appended after the chain and never overwrites a byte of it; a new
base goes to the other slot, so a torn write always leaves the
previous checkpoint intact.  One fixed rule picks the kind: a base
when the deltas since the current base would add up to more than the
base itself, or would not fit in the slot (so a load reads at most
about two bases' worth), a delta otherwise — and a base whenever the
caller cannot say what changed (:attr:`CheckpointData.changes`).
Each slot spans a fixed number of reserved segments sized at
initialization for the worst-case table size; a write covers only
the bytes its record occupies (see :meth:`CheckpointManager.write`).

Every record is followed on the platter by zeros, which is how the
loader knows the chain ended; anything else after a record — another
base's delta, a record out of sequence, a failed CRC, an I/O error —
makes the slot damaged, and recovery then takes its full scan plan.

The tables travel packed, as they lie in the image: one row per
persistent record, in wire order (:data:`BlockRow`, :data:`ListRow`).
A live volume keeps each table's rows between checkpoints
(:class:`PackedRows`) and repacks only the rows whose records changed
since the last one; those rows are the next delta.  A load hands back
the bytes it read, with the chain applied.
"""

from __future__ import annotations

import collections
import dataclasses
import struct
import zlib
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.disk.geometry import SECTOR_SIZE, DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import DiskCrashedError, DiskFullError, MediaError

CKPT_MAGIC = b"LCKP"
CKPT_VERSION = 2

#: magic(4s) version(H) pad(H) ckpt_seq(Q) last_log_seq(Q) next_block(Q)
#: next_list(Q) next_aru(Q) n_blocks(Q) n_lists(Q) n_segs(Q) n_decided(Q)
#: total_len(Q) crc(Q)
_HEADER = struct.Struct("<4sHHQQQQQQQQQQQ")
_BaseHead = collections.namedtuple(
    "_BaseHead",
    "magic version pad ckpt_seq last_log_seq next_block next_list next_aru "
    "n_blocks n_lists n_segs n_decided total_len crc",
)
_CRC = struct.Struct("<Q")

DELTA_MAGIC = b"LCKD"
DELTA_VERSION = 1

#: magic(4s) version(H) pad(H) base_seq(Q) base_crc(Q) ckpt_seq(Q)
#: last_log_seq(Q) next_block(Q) next_list(Q) next_aru(Q) n_blocks(Q)
#: n_gone_blocks(Q) n_lists(Q) n_gone_lists(Q) n_segs(Q) n_decided(Q)
#: total_len(Q) crc(Q)
_DELTA = struct.Struct("<4sHHQQQQQQQQQQQQQQQ")
_DeltaHead = collections.namedtuple(
    "_DeltaHead",
    "magic version pad base_seq base_crc ckpt_seq last_log_seq next_block "
    "next_list next_aru n_blocks n_gone_blocks n_lists n_gone_lists n_segs "
    "n_decided total_len crc",
)

#: Bytes after a record that are zero when the chain ends there: a
#: record header's magic, version and pad.
_PROBE = 8

#: one decided coordinator transaction id (cross-volume commit), or
#: one identifier a delta deletes
_ID = _DECIDED = struct.Struct("<Q")

#: block_id succ list_id timestamp segment slot flags
_BLOCK = struct.Struct("<QQQQIIB")
#: Bit of a block row's ``flags``: the block has a physical address.
FLAG_HAS_ADDR = 0x1

#: list_id first last count timestamp
_LIST = struct.Struct("<QQQQQ")

#: segment seq live total
_SEG = struct.Struct("<IQII")

#: Row sizes of a base's sections: block rows, list rows, roster,
#: decided xids.
_BASE_ROWS = (_BLOCK.size, _LIST.size, _SEG.size, _DECIDED.size)
#: Row sizes of a delta's sections: block rows, deleted block ids, list
#: rows, deleted list ids, roster, decided xids.
_DELTA_ROWS = (_BLOCK.size, _ID.size, _LIST.size, _ID.size, _SEG.size, _DECIDED.size)

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

    The identifiers repacked since the last checkpoint that reached
    the disk (:meth:`written`) are that checkpoint's delta
    (:meth:`changes`).
    """

    __slots__ = ("_table", "pack", "_rows", "_order", "_since")

    def __init__(self, table, pack: Callable[[int, object], bytes]) -> None:
        self._table = table
        self.pack = pack
        #: Identifier -> its row, for every persistent record.
        self._rows: Dict[int, bytes] = {}
        #: The identifiers of ``_rows`` ascending; None once the set of
        #: identifiers changed.
        self._order: Optional[List[int]] = None
        #: Identifiers repacked or dropped since the last checkpoint
        #: written; None while every row counts as changed.
        self._since: Optional[set] = None

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
            self._since = None
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
            if self._since is not None:
                self._since.update(changed)
        table.changed = set()
        order = self._order
        if order is None:
            order = self._order = sorted(rows)
        return b"".join(map(rows.__getitem__, order))

    def changes(self) -> Optional[Tuple[bytes, List[int]]]:
        """``(rows, gone)`` since the last checkpoint written: the rows
        repacked since, joined, and the identifiers whose rows went,
        both ascending; None when every row counts as changed.  Call
        after :meth:`section`."""
        since = self._since
        if since is None:
            return None
        rows = self._rows
        kept: List[bytes] = []
        gone: List[int] = []
        for ident in sorted(since):
            row = rows.get(ident)
            if row is None:
                gone.append(ident)
            else:
                kept.append(row)
        return b"".join(kept), gone

    def written(self) -> None:
        """A checkpoint of the current rows reached the disk."""
        self._since = set()

    def rows(self) -> Dict[int, bytes]:
        """Identifier -> the row held for it (for the checker)."""
        return dict(self._rows)


@dataclasses.dataclass
class RowChanges:
    """What a delta carries of the tables: the rows of the records
    that changed since the previous checkpoint and the identifiers
    whose records went, each ascending."""

    block_rows: bytes
    gone_blocks: List[int]
    list_rows: bytes
    gone_lists: List[int]


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
    #: The tables' changes since checkpoint ``ckpt_seq - 1``, when the
    #: writer knows them: what a delta would carry.  None (a load's
    #: result, JLD's snapshots) means the checkpoint is written as a
    #: base.  Not part of the state, so equality ignores it.
    changes: Optional[RowChanges] = dataclasses.field(default=None, compare=False)

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
        """Bytes the serialized base image occupies, header included."""
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


#: The ``lld.checkpoint.*`` counters, in ``stats()["checkpoint"]``
#: order.
CHECKPOINT_COUNTERS = (
    "writes", "bases", "deltas", "payload_bytes", "bytes_written"
)


def snapshot_checkpoint(lld) -> CheckpointData:
    """A volume's persistent state as a checkpoint (call only after a
    flush): the rows of the records that changed since the last one
    are repacked, the others are reused; the repacked rows since the
    last checkpoint written are its ``changes``."""
    block_rows = lld._block_rows.section()
    list_rows = lld._list_rows.section()
    blocks = lld._block_rows.changes()
    lists = lld._list_rows.changes()
    return CheckpointData(
        ckpt_seq=lld._ckpt_seq,
        last_log_seq=lld._last_written_seq,
        next_block_id=lld._next_block_id,
        next_list_id=lld._next_list_id,
        next_aru_id=lld.arus.next_id,
        block_rows=block_rows,
        list_rows=list_rows,
        segments=lld.usage.snapshot(),
        decided_xids=sorted(lld._decided_xids),
        changes=(
            None
            if blocks is None or lists is None
            else RowChanges(*blocks, *lists)
        ),
    )


def checkpoint_volume(lld) -> None:
    """Write ``lld``'s next checkpoint (:func:`snapshot_checkpoint`),
    folded into the ``lld.checkpoint.*`` counters and the
    ``checkpoint`` event; a disk crash under the write fails the
    volume."""
    lld._ckpt_seq += 1
    try:
        payload, written = lld.checkpoints.write(snapshot_checkpoint(lld))
    except DiskCrashedError:
        lld._mark_dead("disk_crashed_mid_checkpoint")
        raise
    lld._block_rows.written()
    lld._list_rows.written()
    kind = lld.checkpoints.last_kind
    counters = lld._ckpt_counters
    counters["writes"].inc()
    counters[f"{kind}s"].inc()
    counters["payload_bytes"].add(payload)
    counters["bytes_written"].add(written)
    lld.obs.record("checkpoint", ckpt_seq=lld._ckpt_seq, kind=kind, bytes=written)


@dataclasses.dataclass
class ChainRecord:
    """One record of a slot's chain, as written or read."""

    kind: str  # "base" or "delta"
    ckpt_seq: int
    #: Block and list rows the record carries.
    block_rows: int
    list_rows: int
    #: Block and list identifiers it deletes (0 for a base).
    gone: int
    #: Bytes it occupies, header included.
    nbytes: int

    @classmethod
    def of(cls, head) -> "ChainRecord":
        """The record a base or delta header describes."""
        delta = head.magic == DELTA_MAGIC
        return cls(
            "delta" if delta else "base",
            head.ckpt_seq,
            head.n_blocks,
            head.n_lists,
            head.n_gone_blocks + head.n_gone_lists if delta else 0,
            head.total_len,
        )


@dataclasses.dataclass
class SlotChain:
    """One slot's base and the deltas after it."""

    slot: int
    #: The base's CRC: every delta of the chain names it.
    base_crc: int = 0
    #: The valid records, base first; empty when no base is valid.
    records: List[ChainRecord] = dataclasses.field(default_factory=list)
    #: Something other than zeros or a valid record was found (or an
    #: I/O error hit) where a record could be.
    damaged: bool = False
    #: The checkpoint the valid records give, the chain applied (set
    #: by the loader).
    data: Optional[CheckpointData] = None

    @property
    def end(self) -> int:
        """Slot offset just past the last valid record."""
        return sum(record.nbytes for record in self.records)


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


class _SlotReader:
    """A slot's bytes, read from the disk a whole segment at a time,
    as far as they are asked for."""

    def __init__(self, disk: SimulatedDisk, first: int, segments: int) -> None:
        self._disk = disk
        self._first = first
        self._segment_size = disk.geometry.segment_size
        self.size = segments * self._segment_size
        self._chunks: List[bytes] = []
        self._bytes: Optional[memoryview] = None

    def read(self, offset: int, nbytes: int) -> memoryview:
        """The slot's bytes ``[offset, offset + nbytes)``."""
        while len(self._chunks) * self._segment_size < offset + nbytes:
            self._chunks.append(
                self._disk.read_segment(self._first + len(self._chunks))
            )
            self._bytes = None
        if self._bytes is None:
            self._bytes = memoryview(b"".join(self._chunks))
        return self._bytes[offset : offset + nbytes]


def _row_dict(rows: bytes, size: int) -> Dict[int, bytes]:
    """Packed rows -> identifier (each row's first field) -> row."""
    ident = _ID.unpack_from
    return {
        ident(rows, start)[0]: rows[start : start + size]
        for start in range(0, len(rows), size)
    }


def _joined(rows: Dict[int, bytes]) -> bytes:
    return b"".join([rows[ident] for ident in sorted(rows)])


def _ids(raw) -> List[int]:
    return [ident for (ident,) in _ID.iter_unpack(raw)]


def _head(record):
    """A serialized record's header, by name."""
    if record[:4] == DELTA_MAGIC:
        return _DeltaHead._make(_DELTA.unpack_from(record))
    return _BaseHead._make(_HEADER.unpack_from(record))


def _sections(reader, start: int, layout: struct.Struct, head, sizes):
    """The body of the record at ``start`` cut into sections, ``sizes``
    giving each one's ``(count, row size)``; None unless the record's
    length fits the slot, its CRC holds and the sections fill the
    body exactly."""
    if not layout.size <= head.total_len <= reader.size - start:
        return None
    raw = reader.read(start, head.total_len)
    body = raw[layout.size :]
    if zlib.crc32(body, zlib.crc32(raw[: layout.size - _CRC.size])) != head.crc:
        return None
    parts = []
    cut = 0
    for count, size in sizes:
        parts.append(body[cut : cut + count * size])
        cut += count * size
    return parts if cut == len(body) else None


class CheckpointManager:
    """Writes and loads checkpoint chains on reserved segments."""

    def __init__(
        self, disk: SimulatedDisk, slot_segments: Optional[int]
    ) -> None:
        """``slot_segments`` None: :func:`default_slot_segments`."""
        self.disk = disk
        self.geometry = disk.geometry
        if slot_segments is None:
            slot_segments = default_slot_segments(disk.geometry)
        self.slot_segments = slot_segments
        self.last_written_seq = 0
        #: ``last_log_seq`` of that checkpoint: segments numbered above
        #: it were written since.
        self.last_log_seq = 0
        #: Slots the last :meth:`load` found damaged (:meth:`read_slot`).
        self.damaged_slots: List[int] = []
        #: The slot holding the newest checkpoint (a virgin disk's
        #: implicit one counts as slot 0, so bases go 1, 0, 1, ...).
        self.slot = 0
        #: The kind of record the last :meth:`write` wrote.
        self.last_kind = ""
        #: The chain in :attr:`slot` while a delta may be appended to
        #: it; None when the next write must be a base.
        self._chain: Optional[SlotChain] = None
        #: Per slot: the offset past which the platter holds zeros.  A
        #: new volume's slots are blank; after a load nothing is known.
        self._dirty = [0, 0]

    @property
    def reserved_segments(self) -> int:
        """Total segments reserved at the front of the partition."""
        return 2 * self.slot_segments

    @property
    def slot_bytes(self) -> int:
        return self.slot_segments * self.geometry.segment_size

    def slot_segment(self, slot: int) -> int:
        """The first segment of ``slot``."""
        return slot * self.slot_segments

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def write(self, data: CheckpointData) -> Tuple[int, int]:
        """Serialize and write a checkpoint: a delta appended to the
        current chain, or a base in the other slot.

        A delta is written when ``data.changes`` holds the changes
        since the checkpoint last written, this manager wrote or
        loaded that checkpoint's chain undamaged, and the rebase rule
        allows: the deltas since the base, this one included, add up
        to no more than the base and fit in the slot.

        Only the bytes the record occupies are written, from where it
        starts to the end of its last sector: whole segments as such,
        the rest in place.  Whatever an older chain (or a torn write)
        left beyond stays on the platter, except that the bytes just
        past the record must read as zeros — the end of the chain — so
        when its own sector padding cannot provide them and the slot
        may hold something there, one more sector of zeros goes with
        it.  The CRC covers exactly the record, so a write torn
        anywhere leaves a record that fails it (or zeros, for a
        dropped one), and the previous checkpoint stands.

        Returns:
            ``(payload bytes, bytes handed to the disk)``.

        Raises:
            DiskFullError: If a base exceeds the reserved slot (tables
                larger than provisioned).
        """
        chain, self._chain = self._chain, None
        record = None
        if (
            data.changes is not None
            and chain is not None
            and data.ckpt_seq == self.last_written_seq + 1
        ):
            base = chain.records[0]
            record = self._serialize_delta(data, base.ckpt_seq, chain.base_crc)
            deltas = chain.end - base.nbytes + len(record)
            if deltas > base.nbytes or chain.end + len(record) > self.slot_bytes:
                record = None
        if record is None:
            record = self._serialize(data)
            if len(record) > self.slot_bytes:
                raise DiskFullError(
                    f"checkpoint needs {len(record)} bytes but the slot holds "
                    f"{self.slot_bytes}; reserve more checkpoint segments"
                )
            chain = SlotChain(1 - self.slot, _head(record).crc)
        entry = ChainRecord.of(_head(record))
        written = self._put(chain.slot, chain.end, record)
        chain.records.append(entry)
        self._chain = chain
        self.slot = chain.slot
        self.last_kind = entry.kind
        self.last_written_seq = data.ckpt_seq
        self.last_log_seq = data.last_log_seq
        return len(record), written

    def _put(self, slot: int, start: int, record: bytes) -> int:
        """Write ``record`` at slot offset ``start``, padded with zeros
        to a sector, and the zeros that end the chain; returns the
        bytes handed to the disk."""
        seg_size = self.geometry.segment_size
        end = start + len(record)
        stop = min(-(-end // SECTOR_SIZE) * SECTOR_SIZE, self.slot_bytes)
        if end + _PROBE > stop and stop < self._dirty[slot]:
            stop = min(stop + SECTOR_SIZE, self.slot_bytes)
        first = self.slot_segment(slot)
        pos = start
        while pos < stop:
            index, offset = divmod(pos, seg_size)
            cut = min(stop, (index + 1) * seg_size)
            piece = record[pos - start : cut - start]
            if cut > end:
                piece += bytes(cut - max(pos, end))
            if len(piece) == seg_size:
                self.disk.write_segment(first + index, piece)
            else:
                self.disk.write_at(first + index, offset, piece)
            pos += len(piece)
        self._dirty[slot] = max(self._dirty[slot], stop)
        return stop - start

    def _serialize(self, data: CheckpointData) -> bytes:
        """``data`` as a base image."""
        body = b"".join([data.block_rows, data.list_rows, *self._tail(data)])
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

    def _serialize_delta(
        self, data: CheckpointData, base_seq: int, base_crc: int
    ) -> bytes:
        """``data.changes`` as a delta of the base ``base_seq``."""
        changes = data.changes
        body = b"".join(
            [
                changes.block_rows,
                *map(_ID.pack, changes.gone_blocks),
                changes.list_rows,
                *map(_ID.pack, changes.gone_lists),
                *self._tail(data),
            ]
        )
        head = _DELTA.pack(
            DELTA_MAGIC,
            DELTA_VERSION,
            0,
            base_seq,
            base_crc,
            data.ckpt_seq,
            data.last_log_seq,
            data.next_block_id,
            data.next_list_id,
            data.next_aru_id,
            len(changes.block_rows) // _BLOCK.size,
            len(changes.gone_blocks),
            len(changes.list_rows) // _LIST.size,
            len(changes.gone_lists),
            len(data.segments),
            len(data.decided_xids),
            _DELTA.size + len(body),
            0,
        )[: -_CRC.size]
        crc = zlib.crc32(body, zlib.crc32(head))
        return b"".join((head, _CRC.pack(crc), body))

    @staticmethod
    def _tail(data: CheckpointData) -> List[bytes]:
        """The roster and the decided xids, which every record carries."""
        seg = _SEG.pack
        parts = [seg(number, *entry) for number, entry in sorted(data.segments.items())]
        parts += map(_DECIDED.pack, sorted(data.decided_xids))
        return parts

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load(self) -> CheckpointData:
        """Return the newest valid checkpoint (or the empty one)."""
        # A damaged slot may have held a newer checkpoint: segments the
        # survivor's roster attests may have been freed and rewritten
        # since, so recovery reads them all when this is not empty.
        self.damaged_slots = []
        best: Optional[SlotChain] = None
        for slot in range(2):
            chain = self.read_slot(slot)
            if chain.damaged:
                self.damaged_slots.append(slot)
            if chain.data is not None and (
                best is None or chain.data.ckpt_seq > best.data.ckpt_seq
            ):
                best = chain
        data = best.data if best is not None else CheckpointData.empty()
        self.slot = best.slot if best is not None else 0
        self._chain = best if best is not None and not best.damaged else None
        self._dirty = [self.slot_bytes, self.slot_bytes]
        self.last_written_seq = data.ckpt_seq
        self.last_log_seq = data.last_log_seq
        return data

    def read_slot(self, slot: int) -> SlotChain:
        """Read one slot's chain: its base, then each delta up to the
        zeros that end the chain.

        Not a checkpoint at all: a header of zeros (never written).
        Damaged: the base fails any check, or something other than
        zeros or the next valid delta of this base follows a record,
        or a read raises :class:`MediaError`.  A chain damaged after
        its base still gives the checkpoint its valid records make,
        with ``damaged`` set, so it never passes for a shorter chain.

        Only a media fault makes a slot "not a checkpoint"; a retired
        handle, a lost shard or a bug must not look like an empty disk.
        """
        chain = SlotChain(slot)
        reader = _SlotReader(self.disk, self.slot_segment(slot), self.slot_segments)
        try:
            head = reader.read(0, _HEADER.size)
            if not any(head):
                return chain
            data = self._parse_base(reader, head, chain)
        except MediaError:
            data = None
        if data is None:
            chain.damaged = True
            return chain
        deltas: List[CheckpointData] = []
        while True:
            end = chain.end
            if end + _PROBE > reader.size:
                break
            try:
                if not any(reader.read(end, _PROBE)):
                    break
                delta = self._parse_delta(
                    reader, end, chain, data.ckpt_seq + len(deltas)
                )
            except MediaError:
                delta = None
            if delta is None:
                chain.damaged = True
                break
            deltas.append(delta)
        chain.data = self._apply(data, deltas) if deltas else data
        return chain

    def _parse_base(
        self, reader: _SlotReader, raw: memoryview, chain: SlotChain
    ) -> Optional[CheckpointData]:
        head = _BaseHead._make(_HEADER.unpack(raw))
        if head.magic != CKPT_MAGIC or head.version != CKPT_VERSION:
            return None
        counts = (head.n_blocks, head.n_lists, head.n_segs, head.n_decided)
        parts = _sections(reader, 0, _HEADER, head, zip(counts, _BASE_ROWS))
        if parts is None:
            return None
        blocks, lists, roster, decided = parts
        chain.base_crc = head.crc
        chain.records.append(ChainRecord.of(head))
        return CheckpointData(
            ckpt_seq=head.ckpt_seq,
            last_log_seq=head.last_log_seq,
            next_block_id=head.next_block,
            next_list_id=head.next_list,
            next_aru_id=head.next_aru,
            block_rows=bytes(blocks),
            list_rows=bytes(lists),
            segments=self._roster(roster),
            decided_xids=_ids(decided),
        )

    def _parse_delta(
        self, reader: _SlotReader, start: int, chain: SlotChain, prev_seq: int
    ) -> Optional[CheckpointData]:
        """The delta at ``start``, as a :class:`CheckpointData` whose
        rows are empty and whose :attr:`~CheckpointData.changes` are
        the delta's; None unless it is the next delta of this base."""
        if start + _DELTA.size > reader.size:
            return None
        head = _DeltaHead._make(_DELTA.unpack(reader.read(start, _DELTA.size)))
        if (
            head.magic != DELTA_MAGIC
            or head.version != DELTA_VERSION
            or head.base_seq != chain.records[0].ckpt_seq
            or head.base_crc != chain.base_crc
            or head.ckpt_seq != prev_seq + 1
        ):
            return None
        counts = (
            head.n_blocks,
            head.n_gone_blocks,
            head.n_lists,
            head.n_gone_lists,
            head.n_segs,
            head.n_decided,
        )
        parts = _sections(reader, start, _DELTA, head, zip(counts, _DELTA_ROWS))
        if parts is None:
            return None
        blocks, gone_blocks, lists, gone_lists, roster, decided = parts
        chain.records.append(ChainRecord.of(head))
        return CheckpointData(
            ckpt_seq=head.ckpt_seq,
            last_log_seq=head.last_log_seq,
            next_block_id=head.next_block,
            next_list_id=head.next_list,
            next_aru_id=head.next_aru,
            block_rows=b"",
            list_rows=b"",
            segments=self._roster(roster),
            decided_xids=_ids(decided),
            changes=RowChanges(
                bytes(blocks), _ids(gone_blocks), bytes(lists), _ids(gone_lists)
            ),
        )

    @staticmethod
    def _roster(raw) -> Dict[int, Tuple[int, int, int]]:
        return {
            seg: (seq, live, total)
            for seg, seq, live, total in _SEG.iter_unpack(raw)
        }

    @staticmethod
    def _apply(base: CheckpointData, deltas: List[CheckpointData]) -> CheckpointData:
        """The base with each delta's rows applied in order, under the
        last delta's counters, roster and decided xids."""
        blocks = _row_dict(base.block_rows, _BLOCK.size)
        lists = _row_dict(base.list_rows, _LIST.size)
        for delta in deltas:
            changes = delta.changes
            for rows, gone, packed, size in (
                (blocks, changes.gone_blocks, changes.block_rows, _BLOCK.size),
                (lists, changes.gone_lists, changes.list_rows, _LIST.size),
            ):
                for ident in gone:
                    rows.pop(ident, None)
                rows.update(_row_dict(packed, size))
        return dataclasses.replace(
            deltas[-1],
            block_rows=_joined(blocks),
            list_rows=_joined(lists),
            changes=None,
        )
