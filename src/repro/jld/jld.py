"""The journaling overwrite-in-place logical disk.

Disk layout (on the same segment-granular simulated disk LLD uses)::

    [ checkpoint region | journal ring | home region ............ ]

* **Home region** — every allocated block owns a fixed (segment,
  slot) home; reads come from there (through a cache), writes go
  there only during :meth:`JLD.apply`, *after* their journal records
  are durable (write-ahead rule).
* **Journal ring** — sealed segments in the same on-disk format as
  LLD's (data payload slots + summary entries + trailer), reusing
  :mod:`repro.lld.segment` and :mod:`repro.lld.summary`.  A WRITE
  entry's payload is the redo data; entries tagged with an ARU only
  replay if that ARU's COMMIT record is on disk.
* **Checkpoint region** — the block/list tables (reusing
  :mod:`repro.lld.checkpoint`); a checkpoint after an apply pass lets
  the journal tail advance.

Atomicity argument: home locations only ever receive data whose redo
records (and commit record, for ARU writes) are already durable, so
recovery can always reconstruct the committed state from checkpoint +
journal regardless of where a crash interrupts an apply pass.

Transactions are bounded by the journal: an ARU whose effects exceed
the ring raises :class:`JournalFullError` (the classic journaling
limitation; LLD has no such bound).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Set, Tuple

from repro.core.aru import ARURecord, ARUTable
from repro.core.oplog import ListOp, ListOpKind
from repro.core.visibility import Visibility
from repro.disk.clock import CostMeter, CostModel
from repro.disk.simdisk import SimulatedDisk
from repro.errors import (
    BadBlockError,
    BadListError,
    ConcurrencyError,
    DiskCrashedError,
    LDError,
    MediaError,
)
from repro.ld.interface import LogicalDisk
from repro.ld.types import ARU_NONE, ARUId, BlockId, FIRST, ListId, PhysAddr, Predecessor
from repro.lld.cache import BlockCache, ReadStream
from repro.lld.checkpoint import (
    FLAG_HAS_ADDR,
    CheckpointData,
    CheckpointManager,
    pack_block_rows,
    pack_list_rows,
)
from repro.lld.segment import SegmentBuffer, decode_segment
from repro.lld.summary import EntryKind, SummaryEntry


class JournalFullError(LDError):
    """The journal ring cannot hold the in-flight operations."""


def _pack_home(addr: PhysAddr) -> int:
    return (addr.segment << 32) | addr.slot


def _unpack_home(packed: int) -> PhysAddr:
    return PhysAddr(packed >> 32, packed & 0xFFFFFFFF)


class _Block:
    """Committed-state record of one block."""

    __slots__ = (
        "allocated", "home", "successor", "list_id", "timestamp", "written",
    )

    def __init__(self, home: PhysAddr, timestamp: int) -> None:
        self.allocated = True
        self.home = home
        self.successor: Optional[BlockId] = None
        self.list_id: Optional[ListId] = None
        self.timestamp = timestamp
        #: False until the first committed write: the home slot may
        #: still hold a previous tenant's bytes, so fresh blocks read
        #: as zeros without touching it.
        self.written = False


class _List:
    """Committed-state record of one list."""

    __slots__ = ("first", "last", "count", "timestamp")

    def __init__(self, timestamp: int) -> None:
        self.first: Optional[BlockId] = None
        self.last: Optional[BlockId] = None
        self.count = 0
        self.timestamp = timestamp


class _ShadowBlock:
    """Per-ARU overlay of one block (copy-on-write of _Block)."""

    __slots__ = ("allocated", "successor", "list_id", "data", "timestamp")

    def __init__(self, base: Optional[_Block], timestamp: int) -> None:
        if base is not None:
            self.allocated = base.allocated
            self.successor = base.successor
            self.list_id = base.list_id
        else:
            self.allocated = False
            self.successor = None
            self.list_id = None
        self.data: Optional[bytes] = None
        self.timestamp = timestamp


class _ShadowList:
    """Per-ARU overlay of one list."""

    __slots__ = ("allocated", "first", "last", "count", "timestamp")

    def __init__(self, base: Optional[_List], timestamp: int) -> None:
        if base is not None:
            self.allocated = True
            self.first = base.first
            self.last = base.last
            self.count = base.count
        else:
            self.allocated = False
            self.first = None
            self.last = None
            self.count = 0
        self.timestamp = timestamp


class JLD(LogicalDisk):
    """Journaling overwrite-in-place logical disk with ARUs.

    Args:
        disk: The simulated disk.
        journal_segments: Size of the journal ring.
        checkpoint_slot_segments: Segments per checkpoint slot.
        apply_low_water: Free journal segments that trigger an apply
            (+ checkpoint) pass.
        cost_model / visibility / cache_blocks: As for
            :class:`repro.lld.lld.LLD`.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        journal_segments: int = 8,
        checkpoint_slot_segments: int = 2,
        apply_low_water: int = 2,
        cost_model: Optional[CostModel] = None,
        visibility: Visibility = Visibility.ARU_LOCAL,
        cache_blocks: int = 2048,
    ) -> None:
        self.disk = disk
        self.geometry = disk.geometry
        self.clock = disk.clock
        self.meter = CostMeter(self.clock, cost_model or CostModel())
        self.visibility = visibility
        self.concurrent = True  # interface parity with LLD

        self.checkpoints = CheckpointManager(disk, checkpoint_slot_segments)
        ckpt_end = self.checkpoints.reserved_segments
        if journal_segments < 2:
            raise ValueError("journal needs at least 2 segments")
        self.journal_base = ckpt_end
        self.journal_segments = journal_segments
        self.home_base = ckpt_end + journal_segments
        if self.home_base >= self.geometry.num_segments - 1:
            raise ValueError("no room left for the home region")
        self.apply_low_water = max(1, apply_low_water)

        self.blocks: Dict[BlockId, _Block] = {}
        self.lists: Dict[ListId, _List] = {}
        self.pending: Dict[BlockId, Tuple[bytes, int]] = {}  # data, origin
        self.arus = ARUTable(concurrent=True)
        self.shadow_blocks: Dict[int, Dict[BlockId, _ShadowBlock]] = {}
        self.shadow_lists: Dict[int, Dict[ListId, _ShadowList]] = {}
        self.cache = BlockCache(cache_blocks)
        self._read_stream = ReadStream(self.disk, self.cache)

        self._home_free: List[PhysAddr] = []
        for seg in range(self.geometry.num_segments - 1, self.home_base - 1, -1):
            for slot in range(self.geometry.max_data_blocks - 1, -1, -1):
                self._home_free.append(PhysAddr(seg, slot))

        self._next_block_id = 1
        self._next_list_id = 1
        self._next_seq = 1
        self._journal_seq: List[int] = [0] * journal_segments
        self._ring_index = 0
        self._ckpt_seq = 0
        self._ckpt_log_seq = 0
        self._commit_on_disk: Set[int] = set()
        self._pending_commit_arus: Set[int] = set()
        self._dead = False
        self._lock = threading.RLock()

        self.journal_writes = 0
        self.home_writes = 0
        self.applies = 0
        self.op_counts: Dict[str, int] = {}

        self._buffer: Optional[SegmentBuffer] = None
        self._buffer = self._open_buffer()

    # ==================================================================
    # ARUs
    # ==================================================================

    def begin_aru(self) -> ARUId:
        """Start an atomic recovery unit."""
        with self._lock:
            self._check_alive()
            self.meter.charge("ld_call_us")
            self.meter.charge("aru_begin_us")
            record = self.arus.begin(self.clock.tick())
            self.shadow_blocks[int(record.aru_id)] = {}
            self.shadow_lists[int(record.aru_id)] = {}
            return record.aru_id

    def end_aru(self, aru: ARUId) -> None:
        """Commit: journal the shadow writes, replay the list log,
        seal with a commit record."""
        with self._lock:
            self._check_alive()
            self.meter.charge("ld_call_us")
            self.meter.charge("aru_commit_us")
            record = self.arus.get(aru)
            key = int(aru)
            self._pending_commit_arus.add(key)
            overlay = self.shadow_blocks[key]
            for block_id, shadow in overlay.items():
                self.meter.charge("record_transition_us")
                if not shadow.allocated or shadow.data is None:
                    continue
                base = self.blocks.get(block_id)
                if base is None or not base.allocated:
                    raise ConcurrencyError(
                        f"block {block_id} disappeared before ARU "
                        f"{aru} committed"
                    )
                self._journal_write(block_id, shadow.data, key)
            for op in record.oplog:
                self.meter.charge("listop_replay_us")
                try:
                    self._apply_list_op(op, None, key)
                except LDError as exc:
                    raise ConcurrencyError(
                        f"replaying {op} for ARU {aru}: {exc}"
                    ) from exc
            self._journal_entry(
                SummaryEntry(
                    EntryKind.COMMIT, key, self.clock.tick(), record.op_count
                )
            )
            self.meter.charge("summary_entry_us")
            self.arus.finish(aru, committed=True)
            del self.shadow_blocks[key]
            del self.shadow_lists[key]

    def abort_aru(self, aru: ARUId) -> None:
        """Discard an ARU's shadow overlay."""
        with self._lock:
            self._check_alive()
            self.meter.charge("ld_call_us")
            record = self.arus.finish(aru, committed=False)
            record.oplog.clear()
            self.shadow_blocks.pop(int(aru), None)
            self.shadow_lists.pop(int(aru), None)

    # ==================================================================
    # Blocks and lists
    # ==================================================================

    def new_list(self, aru: Optional[ARUId] = None) -> ListId:
        """Allocate a list (committed immediately, as the semantics
        require)."""
        with self._lock:
            self._check_alive()
            self.meter.charge("ld_call_us")
            self._count("new_list")
            record = self.arus.get(aru) if aru is not None else None
            list_id = ListId(self._next_list_id)
            self._next_list_id += 1
            self.meter.charge("table_access_us")
            if aru is not None:
                self.meter.charge("aru_alloc_us")
            ts = self.clock.tick()
            self._journal_entry(
                SummaryEntry(EntryKind.NEW_LIST, 0, ts, int(list_id))
            )
            self.meter.charge("summary_entry_us")
            self.lists[list_id] = _List(ts)
            if record is not None:
                record.op_count += 1
            return list_id

    def new_block(
        self,
        list_id: ListId,
        predecessor: Predecessor = FIRST,
        aru: Optional[ARUId] = None,
    ) -> BlockId:
        """Allocate a block at a fresh home location; the insertion
        follows the issuing stream (shadow for ARUs)."""
        with self._lock:
            self._check_alive()
            self.meter.charge("ld_call_us")
            self._count("new_block")
            record = self.arus.get(aru) if aru is not None else None
            list_view = self._view_list(list_id, aru)
            if list_view is None or not getattr(list_view, "allocated", True):
                raise BadListError(int(list_id))
            if predecessor is not FIRST:
                pred_view = self._view_block(predecessor, aru)
                if (
                    pred_view is None
                    or not pred_view.allocated
                    or pred_view.list_id != list_id
                ):
                    raise BadBlockError(
                        int(predecessor), f"not a member of list {list_id}"
                    )
            if not self._home_free:
                raise LDError("home region is full")
            block_id = BlockId(self._next_block_id)
            self._next_block_id += 1
            home = self._home_free.pop()
            self.meter.charge("table_access_us")
            if aru is not None:
                self.meter.charge("aru_alloc_us")
            ts = self.clock.tick()
            self._journal_entry(
                SummaryEntry(
                    EntryKind.ALLOC_BLOCK, 0, ts, int(block_id),
                    _pack_home(home),
                )
            )
            self.meter.charge("summary_entry_us")
            self.blocks[block_id] = _Block(home, ts)
            op = ListOp(
                ListOpKind.INSERT,
                list_id,
                block_id,
                None if predecessor is FIRST else predecessor,
            )
            if record is not None:
                record.op_count += 1
                self._apply_list_op(op, record, 0)
                record.oplog.append(op, self.meter)
            else:
                self._apply_list_op(op, None, 0)
            return block_id

    def delete_block(self, block_id: BlockId, aru: Optional[ARUId] = None) -> None:
        """Unlink and deallocate a block."""
        with self._lock:
            self._check_alive()
            self.meter.charge("ld_call_us")
            self._count("delete_block")
            record = self.arus.get(aru) if aru is not None else None
            view = self._view_block(block_id, aru)
            if view is None or not view.allocated:
                raise BadBlockError(int(block_id))
            op = ListOp(
                ListOpKind.DELETE_BLOCK,
                view.list_id if view.list_id is not None else ListId(0),
                block_id,
            )
            if record is not None:
                record.op_count += 1
                self._apply_list_op(op, record, 0)
                record.oplog.append(op, self.meter)
            else:
                self._apply_list_op(op, None, 0)

    def delete_list(self, list_id: ListId, aru: Optional[ARUId] = None) -> None:
        """Deallocate a list and its members (from the head)."""
        with self._lock:
            self._check_alive()
            self.meter.charge("ld_call_us")
            self._count("delete_list")
            record = self.arus.get(aru) if aru is not None else None
            view = self._view_list(list_id, aru)
            if view is None or not getattr(view, "allocated", True):
                raise BadListError(int(list_id))
            op = ListOp(ListOpKind.DELETE_LIST, list_id)
            if record is not None:
                record.op_count += 1
                self._apply_list_op(op, record, 0)
                record.oplog.append(op, self.meter)
            else:
                self._apply_list_op(op, None, 0)

    def write(
        self, block_id: BlockId, data: bytes, aru: Optional[ARUId] = None
    ) -> None:
        """Write a block: to the ARU's shadow overlay, or journal+
        pending for simple operations."""
        if data.__class__ is not bytes:
            # The caller keeps its buffer: what is written is the bytes
            # it held at the call.
            data = memoryview(data).tobytes()
        with self._lock:
            self._check_alive()
            self.meter.charge("ld_call_us")
            self._count("write")
            if len(data) > self.geometry.block_size:
                raise ValueError("data exceeds block size")
            record = self.arus.get(aru) if aru is not None else None
            view = self._view_block(block_id, aru)
            if view is None or not view.allocated:
                raise BadBlockError(int(block_id))
            if len(data) < self.geometry.block_size:
                data = data + b"\x00" * (self.geometry.block_size - len(data))
            if record is not None:
                record.op_count += 1
                shadow = self._shadow_block(block_id, record)
                shadow.data = data
                shadow.timestamp = self.clock.tick()
                self.meter.charge("block_copy_us")
            else:
                self._journal_write(block_id, data, 0)

    def read(self, block_id: BlockId, aru: Optional[ARUId] = None) -> bytes:
        """Read under the configured visibility policy."""
        with self._lock:
            self._check_alive()
            self.meter.charge("ld_call_us")
            self._count("read")
            if aru is not None:
                self.arus.get(aru)
            shadow = self._visible_shadow_block(block_id, aru)
            base = self.blocks.get(block_id)
            if shadow is not None:
                if not shadow.allocated:
                    raise BadBlockError(int(block_id), "deallocated")
                self.meter.charge("block_read_us")
                if shadow.data is not None:
                    return shadow.data
            elif base is None or not base.allocated:
                raise BadBlockError(int(block_id))
            else:
                self.meter.charge("block_read_us")
            pending = self.pending.get(block_id)
            if pending is not None:
                return pending[0]
            if base is None or not base.written:
                return b"\x00" * self.geometry.block_size
            return self._read_home(base.home)

    def list_blocks(
        self, list_id: ListId, aru: Optional[ARUId] = None
    ) -> List[BlockId]:
        """Enumerate a list under the visibility policy."""
        with self._lock:
            self._check_alive()
            self.meter.charge("ld_call_us")
            self._count("list_blocks")
            if aru is not None:
                self.arus.get(aru)
            view = self._visible_list_view(list_id, aru)
            if view is None or not getattr(view, "allocated", True):
                raise BadListError(int(list_id))
            members: List[BlockId] = []
            cursor = view.first
            while cursor is not None:
                members.append(cursor)
                block_view = self._visible_block_view(cursor, aru)
                if block_view is None:
                    raise BadBlockError(
                        int(cursor), f"list {list_id} references missing block"
                    )
                cursor = block_view.successor
                if len(members) > len(self.blocks) + 1:
                    raise LDError(f"cycle detected in list {list_id}")
            return members

    def flush(self) -> None:
        """Seal and write the journal buffer: everything committed is
        now durable (homes are updated lazily by apply passes)."""
        with self._lock:
            self._check_alive()
            self.meter.charge("ld_call_us")
            self._count("flush")
            self._flush_journal()

    # ==================================================================
    # Views: shadow overlay -> committed
    # ==================================================================

    def _visible_shadow_block(self, block_id, aru) -> Optional[_ShadowBlock]:
        if self.visibility is Visibility.COMMITTED_ONLY:
            return None
        if self.visibility is Visibility.ARU_LOCAL:
            if aru is None:
                return None
            self.meter.charge("chain_hop_us")
            return self.shadow_blocks.get(int(aru), {}).get(block_id)
        newest = None
        for overlay in self.shadow_blocks.values():
            self.meter.charge("chain_hop_us")
            candidate = overlay.get(block_id)
            if candidate is not None and (
                newest is None or candidate.timestamp > newest.timestamp
            ):
                newest = candidate
        return newest

    def _visible_block_view(self, block_id, aru):
        shadow = self._visible_shadow_block(block_id, aru)
        if shadow is not None:
            return shadow
        return self.blocks.get(block_id)

    def _visible_list_view(self, list_id, aru):
        if self.visibility is Visibility.ARU_LOCAL and aru is not None:
            shadow = self.shadow_lists.get(int(aru), {}).get(list_id)
            if shadow is not None:
                return shadow
        elif self.visibility is Visibility.MOST_RECENT_SHADOW:
            newest = None
            for overlay in self.shadow_lists.values():
                candidate = overlay.get(list_id)
                if candidate is not None and (
                    newest is None or candidate.timestamp > newest.timestamp
                ):
                    newest = candidate
            if newest is not None:
                return newest
        return self.lists.get(list_id)

    def _view_block(self, block_id, aru):
        """Modification view: own shadow -> committed."""
        self.meter.charge("table_access_us")
        if aru is not None:
            shadow = self.shadow_blocks.get(int(aru), {}).get(block_id)
            if shadow is not None:
                return shadow
        return self.blocks.get(block_id)

    def _view_list(self, list_id, aru):
        self.meter.charge("table_access_us")
        if aru is not None:
            shadow = self.shadow_lists.get(int(aru), {}).get(list_id)
            if shadow is not None:
                return shadow
        return self.lists.get(list_id)

    def _shadow_block(self, block_id, record: ARURecord) -> _ShadowBlock:
        overlay = self.shadow_blocks[int(record.aru_id)]
        shadow = overlay.get(block_id)
        if shadow is None:
            shadow = _ShadowBlock(self.blocks.get(block_id), self.clock.tick())
            overlay[block_id] = shadow
            self.meter.charge("record_create_us")
        return shadow

    def _shadow_list(self, list_id, record: ARURecord) -> _ShadowList:
        overlay = self.shadow_lists[int(record.aru_id)]
        shadow = overlay.get(list_id)
        if shadow is None:
            shadow = _ShadowList(self.lists.get(list_id), self.clock.tick())
            overlay[list_id] = shadow
            self.meter.charge("record_create_us")
        return shadow

    # ==================================================================
    # List operations (shared: shadow execution and committed/replay)
    # ==================================================================

    def _apply_list_op(
        self, op: ListOp, record: Optional[ARURecord], aru_tag: int
    ) -> None:
        if op.kind is ListOpKind.INSERT:
            self._op_insert(op, record, aru_tag)
        elif op.kind is ListOpKind.DELETE_BLOCK:
            self._op_delete_block(op, record, aru_tag)
        else:
            self._op_delete_list(op, record, aru_tag)

    def _op_insert(self, op, record, aru_tag) -> None:
        aru = record.aru_id if record is not None else None
        list_view = self._view_list(op.list_id, aru)
        if list_view is None or not getattr(list_view, "allocated", True):
            raise BadListError(int(op.list_id))
        block_view = self._view_block(op.block_id, aru)
        if block_view is None or not block_view.allocated:
            raise BadBlockError(int(op.block_id))
        if block_view.list_id is not None:
            raise ConcurrencyError(
                f"block {op.block_id} is already in list {block_view.list_id}"
            )
        if op.predecessor is not None:
            pred_view = self._view_block(op.predecessor, aru)
            if (
                pred_view is None
                or not pred_view.allocated
                or pred_view.list_id != op.list_id
            ):
                raise BadBlockError(
                    int(op.predecessor), f"not a member of list {op.list_id}"
                )
        ts = self.clock.tick()
        if record is None:
            self._journal_entry(
                SummaryEntry(
                    EntryKind.LINK, aru_tag, ts, int(op.list_id),
                    int(op.block_id),
                    int(op.predecessor) if op.predecessor is not None else 0,
                )
            )
            self.meter.charge("summary_entry_us")
            lst = self.lists[op.list_id]
            blk = self.blocks[op.block_id]
            pred = self.blocks.get(op.predecessor) if op.predecessor else None
        else:
            lst = self._shadow_list(op.list_id, record)
            blk = self._shadow_block(op.block_id, record)
            pred = (
                self._shadow_block(op.predecessor, record)
                if op.predecessor is not None
                else None
            )
        if op.predecessor is None:
            blk.successor = lst.first
            if lst.first is None:
                lst.last = op.block_id
            lst.first = op.block_id
        else:
            blk.successor = pred.successor
            pred.successor = op.block_id
            pred.timestamp = ts
            if lst.last == op.predecessor:
                lst.last = op.block_id
        blk.list_id = op.list_id
        blk.timestamp = ts
        lst.count += 1
        lst.timestamp = ts

    def _op_delete_block(self, op, record, aru_tag) -> None:
        aru = record.aru_id if record is not None else None
        view = self._view_block(op.block_id, aru)
        if view is None or not view.allocated:
            raise BadBlockError(int(op.block_id))
        list_id = view.list_id
        predecessor = (
            self._find_predecessor(list_id, op.block_id, aru)
            if list_id is not None
            else None
        )
        ts = self.clock.tick()
        if record is None:
            self._journal_entry(
                SummaryEntry(EntryKind.DELETE_BLOCK, aru_tag, ts, int(op.block_id))
            )
            self.meter.charge("summary_entry_us")
            blk = self.blocks[op.block_id]
            lst = self.lists.get(list_id) if list_id is not None else None
            pred = self.blocks.get(predecessor) if predecessor else None
        else:
            blk = self._shadow_block(op.block_id, record)
            lst = (
                self._shadow_list(list_id, record)
                if list_id is not None
                else None
            )
            pred = (
                self._shadow_block(predecessor, record)
                if predecessor is not None
                else None
            )
        if lst is not None:
            if predecessor is None:
                lst.first = blk.successor
            else:
                pred.successor = blk.successor
                pred.timestamp = ts
            if lst.last == op.block_id:
                lst.last = predecessor
            lst.count -= 1
            lst.timestamp = ts
        self._dealloc_block(op.block_id, blk, record, ts)

    def _op_delete_list(self, op, record, aru_tag) -> None:
        aru = record.aru_id if record is not None else None
        view = self._view_list(op.list_id, aru)
        if view is None or not getattr(view, "allocated", True):
            raise BadListError(int(op.list_id))
        ts = self.clock.tick()
        if record is None:
            self._journal_entry(
                SummaryEntry(EntryKind.DELETE_LIST, aru_tag, ts, int(op.list_id))
            )
            self.meter.charge("summary_entry_us")
            lst = self.lists[op.list_id]
        else:
            lst = self._shadow_list(op.list_id, record)
        cursor = lst.first
        while cursor is not None:
            if record is None:
                blk = self.blocks[cursor]
            else:
                blk = self._shadow_block(cursor, record)
            nxt = blk.successor
            self._dealloc_block(cursor, blk, record, ts)
            cursor = nxt
        lst.first = None
        lst.last = None
        lst.count = 0
        lst.timestamp = ts
        if record is None:
            del self.lists[op.list_id]
        else:
            lst.allocated = False

    def _dealloc_block(self, block_id, blk, record, ts) -> None:
        if record is None:
            self.meter.charge("block_dealloc_us")
            base = self.blocks.pop(block_id, None)
            self.pending.pop(block_id, None)
            if base is not None:
                # The home slot will be handed to a future block: a
                # stale cache entry there would serve the dead
                # block's bytes.
                self.cache.invalidate(base.home)
                self._home_free.append(base.home)
        else:
            blk.allocated = False
            blk.data = None
        blk.successor = None
        blk.list_id = None
        blk.timestamp = ts

    def _find_predecessor(self, list_id, block_id, aru) -> Optional[BlockId]:
        view = self._view_list(list_id, aru)
        if view is None or not getattr(view, "allocated", True):
            raise BadListError(int(list_id))
        if view.first == block_id:
            return None
        cursor = view.first
        while cursor is not None:
            self.meter.charge("pred_search_step_us")
            node = self._view_block(cursor, aru)
            if node is None:
                break
            if node.successor == block_id:
                return cursor
            cursor = node.successor
        raise BadBlockError(int(block_id), f"not found in list {list_id}")

    # ==================================================================
    # Journal machinery
    # ==================================================================

    def _open_buffer(self) -> SegmentBuffer:
        segment = self._reserve_ring_slot()
        buffer = SegmentBuffer(self.geometry, self._next_seq, segment)
        self._next_seq += 1
        return buffer

    def _reserve_ring_slot(self) -> int:
        """Pick the next journal ring slot, applying/checkpointing if
        the slot still holds live (post-checkpoint) records."""
        for _attempt in range(2):
            index = self._ring_index
            if self._journal_seq[index] <= self._ckpt_log_seq:
                self._ring_index = (index + 1) % self.journal_segments
                return self.journal_base + index
            # The slot ahead still carries unsuperseded history: apply
            # pending data and checkpoint so the tail can advance.
            self.apply()
        raise JournalFullError(
            "journal ring is full of unapplied records (an ARU larger "
            "than the journal, or apply is blocked mid-commit)"
        )

    def _journal_write(self, block_id: BlockId, data: bytes, origin: int) -> None:
        """Write-ahead: redo payload + entry into the journal buffer."""
        ts = self.clock.tick()
        if self._buffer.append_write(block_id, data, origin, ts) is None:
            self._seal_journal_segment()
            self._buffer.append_write(block_id, data, origin, ts)
        self.meter.charge("block_copy_us")
        self.meter.charge("summary_entry_us")
        self.pending[block_id] = (data, origin)
        block = self.blocks.get(block_id)
        if block is not None:
            block.timestamp = self.clock.tick()
            block.written = True

    def _journal_entry(self, entry: SummaryEntry) -> None:
        if not self._buffer.has_room(0, entry.encoded_size()):
            self._seal_journal_segment()
        self._buffer.add_entry(entry)

    def _seal_journal_segment(self) -> None:
        buffer = self._buffer
        if buffer is None or buffer.is_empty:
            return
        # Detach first: the ring-slot reservation below may invoke
        # apply(), whose journal flush must see no active buffer.
        self._buffer = None
        image = buffer.seal()
        try:
            self.disk.write_segment(buffer.segment_no, image)
        except DiskCrashedError:
            self._dead = True
            raise
        self.journal_writes += 1
        self._journal_seq[buffer.segment_no - self.journal_base] = buffer.seq
        for entry in buffer.entries:
            if entry.kind is EntryKind.COMMIT:
                self._commit_on_disk.add(entry.aru_tag)
                self._pending_commit_arus.discard(entry.aru_tag)
        self._buffer = self._open_buffer()
        # Proactive apply: keep headroom in the ring so a burst (or a
        # larger ARU) doesn't hit the hard JournalFullError path.
        free = sum(1 for seq in self._journal_seq if seq <= self._ckpt_log_seq)
        if free <= self.apply_low_water and self.checkpoint_safe():
            self.apply()

    def _flush_journal(self) -> None:
        if self._buffer is not None and not self._buffer.is_empty:
            self._seal_journal_segment()

    # ==================================================================
    # Apply + checkpoint
    # ==================================================================

    def checkpoint_safe(self) -> bool:
        """True when no tagged records await their commit record."""
        return not self._pending_commit_arus

    def apply(self) -> int:
        """Write journaled data to home locations and checkpoint.

        Write-ahead ordering: the journal is flushed first, then only
        data whose origin ARU has a durable commit record is applied.
        Returns the number of home blocks written.
        """
        with self._lock:
            self._check_alive()
            self._flush_journal()
            applied = 0
            for block_id in list(self.pending):
                data, origin = self.pending[block_id]
                if origin and origin not in self._commit_on_disk:
                    continue  # uncommitted ARU data must not hit homes
                block = self.blocks.get(block_id)
                if block is None:
                    del self.pending[block_id]
                    continue
                offset = block.home.slot * self.geometry.block_size
                try:
                    self.disk.write_at(block.home.segment, offset, data)
                except DiskCrashedError:
                    self._dead = True
                    raise
                self.home_writes += 1
                self.meter.charge("block_copy_us")
                self.cache.put(block.home, data)
                del self.pending[block_id]
                applied += 1
            self.applies += 1
            if self.checkpoint_safe() and not self.pending:
                self._ckpt_seq += 1
                self.checkpoints.write(self._snapshot())
                self._ckpt_log_seq = self._next_seq - 2  # last sealed seq
            return applied

    def _snapshot(self) -> CheckpointData:
        block_rows = pack_block_rows(
            (
                block_id,
                block.successor or 0,
                block.list_id or 0,
                block.timestamp,
                block.home.segment,
                block.home.slot,
                FLAG_HAS_ADDR if block.written else 0,
            )
            for block_id, block in self.blocks.items()
        )
        list_rows = pack_list_rows(
            (list_id, lst.first or 0, lst.last or 0, lst.count, lst.timestamp)
            for list_id, lst in self.lists.items()
        )
        return CheckpointData(
            ckpt_seq=self._ckpt_seq,
            last_log_seq=self._next_seq - 2,
            next_block_id=self._next_block_id,
            next_list_id=self._next_list_id,
            next_aru_id=self.arus.next_id,
            block_rows=block_rows,
            list_rows=list_rows,
            segments={},
        )

    # ==================================================================
    # Reads from home locations
    # ==================================================================

    def _read_home(self, home: PhysAddr) -> bytes:
        cached = self.cache.get(home)
        if cached is not None:
            return cached
        return self._read_stream.read(home, self.geometry.max_data_blocks)

    # ==================================================================
    # Misc
    # ==================================================================

    def sweep_orphan_blocks(self) -> List[BlockId]:
        """Free allocated blocks that belong to no list (after aborted
        or undone ARUs), as the paper's consistency check does."""
        with self._lock:
            if self.arus.active_count:
                raise ConcurrencyError(
                    "cannot sweep orphans while ARUs are active"
                )
            orphans = [
                block_id
                for block_id, block in self.blocks.items()
                if block.list_id is None
            ]
            for block_id in orphans:
                self.delete_block(block_id)
            return orphans

    def _check_alive(self) -> None:
        if self._dead or self.disk.crashed:
            self._dead = True
            raise DiskCrashedError("logical disk lost its backing store")

    def _count(self, name: str) -> None:
        self.op_counts[name] = self.op_counts.get(name, 0) + 1

    def stats(self) -> dict:
        """Operation and I/O statistics."""
        return {
            "ops": dict(self.op_counts),
            "journal_writes": self.journal_writes,
            "home_writes": self.home_writes,
            "applies": self.applies,
            "pending_blocks": len(self.pending),
            "cpu_us": dict(self.meter.charged_us),
            "disk": self.disk.stats(),
        }


def recover_jld(disk: SimulatedDisk, sweep_orphans: bool = True, **kwargs):
    """Recover a :class:`JLD` from a (crashed) disk.

    Loads the newest checkpoint, replays journal segments newer than
    it (commit-record gated), rebuilds the home free list, sweeps
    orphaned allocations, and returns ``(jld, report)`` where report
    is a small dict of what was found.
    """
    jld = JLD(disk, **kwargs)
    # Discard the fresh instance's empty state and rebuild from disk.
    ckpt = jld.checkpoints.load()
    report = {
        "checkpoint_seq": ckpt.ckpt_seq,
        "segments_replayed": 0,
        "entries_replayed": 0,
        "entries_discarded": 0,
        "arus_committed": 0,
        "orphans_freed": [],
    }
    jld._ckpt_seq = ckpt.ckpt_seq
    jld._ckpt_log_seq = ckpt.last_log_seq
    jld._next_block_id = ckpt.next_block_id
    jld._next_list_id = ckpt.next_list_id
    jld.arus.set_next_id(ckpt.next_aru_id)
    jld.blocks.clear()
    jld.lists.clear()
    for block_id, successor, list_id, ts, segment, slot, flags in ckpt.blocks:
        block = _Block(PhysAddr(segment, slot), ts)
        block.successor = BlockId(successor) if successor else None
        block.list_id = ListId(list_id) if list_id else None
        block.written = bool(flags & FLAG_HAS_ADDR)
        jld.blocks[BlockId(block_id)] = block
    for list_id, first, last, count, ts in ckpt.lists:
        lst = _List(ts)
        lst.first = BlockId(first) if first else None
        lst.last = BlockId(last) if last else None
        lst.count = count
        jld.lists[ListId(list_id)] = lst

    # Scan the journal ring.
    decoded_segments = []
    for index in range(jld.journal_segments):
        seg = jld.journal_base + index
        try:
            raw = disk.read_segment(seg)
        except MediaError:
            continue
        decoded = decode_segment(raw, disk.geometry, seg)
        if decoded is not None and decoded.seq > ckpt.last_log_seq:
            decoded_segments.append((decoded, index))
    decoded_segments.sort(key=lambda pair: pair[0].seq)
    committed = {
        entry.aru_tag
        for decoded, _index in decoded_segments
        for entry in decoded.entries
        if entry.kind is EntryKind.COMMIT
    }
    report["arus_committed"] = len(committed)
    max_seq = ckpt.last_log_seq
    max_aru = ckpt.next_aru_id - 1
    for decoded, index in decoded_segments:
        report["segments_replayed"] += 1
        jld._journal_seq[index] = decoded.seq
        max_seq = max(max_seq, decoded.seq)
        for entry in decoded.entries:
            max_aru = max(max_aru, entry.aru_tag)
            if entry.aru_tag and entry.aru_tag not in committed:
                if entry.kind is not EntryKind.COMMIT:
                    report["entries_discarded"] += 1
                continue
            report["entries_replayed"] += 1
            _replay_entry(jld, decoded, entry)
    jld.arus.set_next_id(max_aru + 1)
    jld._next_seq = max_seq + 1
    jld._ring_index = (
        (decoded_segments[-1][1] + 1) % jld.journal_segments
        if decoded_segments
        else 0
    )
    jld._commit_on_disk = set(committed)

    # Rebuild the home free list.
    used = {block.home for block in jld.blocks.values()}
    jld._home_free = [
        PhysAddr(seg, slot)
        for seg in range(jld.geometry.num_segments - 1, jld.home_base - 1, -1)
        for slot in range(jld.geometry.max_data_blocks - 1, -1, -1)
        if PhysAddr(seg, slot) not in used
    ]
    jld.cache.invalidate_all()
    # Re-open a fresh buffer now that ring state is known.
    jld._buffer = jld._open_buffer()
    if sweep_orphans:
        report["orphans_freed"] = [int(b) for b in jld.sweep_orphan_blocks()]
    return jld, report


def _replay_entry(jld: JLD, decoded, entry: SummaryEntry) -> None:
    kind = entry.kind
    if kind is EntryKind.ALLOC_BLOCK:
        block = _Block(_unpack_home(entry.b), entry.timestamp)
        jld.blocks[BlockId(entry.a)] = block
        jld._next_block_id = max(jld._next_block_id, entry.a + 1)
    elif kind is EntryKind.NEW_LIST:
        jld.lists[ListId(entry.a)] = _List(entry.timestamp)
        jld._next_list_id = max(jld._next_list_id, entry.a + 1)
    elif kind is EntryKind.WRITE:
        block_id = BlockId(entry.a)
        if block_id in jld.blocks:
            jld.pending[block_id] = (decoded.slot_data(entry.b), 0)
            jld.blocks[block_id].written = True
    elif kind is EntryKind.DELETE_BLOCK:
        block = jld.blocks.pop(BlockId(entry.a), None)
        jld.pending.pop(BlockId(entry.a), None)
        if block is not None and block.list_id is not None:
            lst = jld.lists.get(block.list_id)
            if lst is not None:
                _unlink_replay(jld, lst, BlockId(entry.a), block)
    elif kind is EntryKind.DELETE_LIST:
        lst = jld.lists.pop(ListId(entry.a), None)
        if lst is not None:
            cursor = lst.first
            while cursor is not None:
                member = jld.blocks.pop(cursor, None)
                jld.pending.pop(cursor, None)
                cursor = member.successor if member else None
    elif kind is EntryKind.LINK:
        lst = jld.lists.get(ListId(entry.a))
        blk = jld.blocks.get(BlockId(entry.b))
        if lst is None or blk is None:
            return
        if entry.c == 0:
            blk.successor = lst.first
            if lst.first is None:
                lst.last = BlockId(entry.b)
            lst.first = BlockId(entry.b)
        else:
            pred = jld.blocks.get(BlockId(entry.c))
            if pred is None:
                return
            blk.successor = pred.successor
            pred.successor = BlockId(entry.b)
            if lst.last == BlockId(entry.c):
                lst.last = BlockId(entry.b)
        blk.list_id = ListId(entry.a)
        lst.count += 1


def _unlink_replay(jld: JLD, lst: _List, block_id: BlockId, block: _Block) -> None:
    if lst.first == block_id:
        lst.first = block.successor
        if lst.last == block_id:
            lst.last = None
        lst.count -= 1
        return
    cursor = lst.first
    while cursor is not None:
        node = jld.blocks.get(cursor)
        if node is None:
            return
        if node.successor == block_id:
            node.successor = block.successor
            if lst.last == block_id:
                lst.last = cursor
            lst.count -= 1
            return
        cursor = node.successor
