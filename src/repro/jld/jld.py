"""The journaling overwrite-in-place logical disk.

Layout: ``[ checkpoint region | journal ring | home region ... ]``.  A
block's fixed home is assigned at allocation and released when its
deallocation commits.  The ring holds sealed segments in LLD's format:
a WRITE's payload is redo, and an ARU's entries replay only after its
COMMIT.  :meth:`JLD.apply` writes durable redo home (write-ahead) and
checkpoints so the ring's tail can advance; an ARU larger than the
ring raises :class:`JournalFullError`, a bound LLD does not have.

The ARU machinery is :class:`~repro.core.engine.VersionEngine`'s, as on
LLD; JLD is its :class:`~repro.core.engine.LogSink`, and a record's
``address`` is its block's home once the block has been written.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Optional, Set, Tuple

from repro.core.aru import ARUTable
from repro.core.engine import VersionEngine
from repro.core.oplog import ListOp, ListOpKind
from repro.core.records import find_alt
from repro.core.tables import BlockNumberMap, ListTable
from repro.core.versions import VersionState
from repro.core.visibility import Visibility, read_versions
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
from repro.ld.types import ARU_NONE, ARUId, BlockId, FIRST, ListId, PhysAddr
from repro.lld.cache import BlockCache, ReadStream
from repro.lld.checkpoint import (
    FLAG_HAS_ADDR,
    CheckpointData,
    CheckpointManager,
    pack_block_rows,
    pack_list_rows,
)
from repro.lld.recovery import ReplayRules
from repro.lld.segment import SegmentBuffer, decode_segment
from repro.lld.summary import EntryKind, SummaryEntry


class JournalFullError(LDError):
    """The journal ring cannot hold the in-flight operations."""


def _committed_view(table, ident: int):
    """The committed (else persistent) record of ``ident``, uncharged."""
    committed = find_alt(table.alts.get(ident), VersionState.COMMITTED, ARU_NONE)
    return committed if committed is not None else table.persistent.get(ident)


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
        self._charge = self.meter.charge
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

        self.bmap = BlockNumberMap()
        self.ltable = ListTable()
        self.arus = ARUTable(concurrent=True)
        # The sink is weak, as LLD's: a dropped volume is freed by refcount.
        self.engine = VersionEngine(
            self.bmap, self.ltable, self.arus, self.meter, visibility,
            sink=weakref.proxy(self),
        )
        #: block -> its home, from allocation until its deallocation commits.
        self.homes: Dict[BlockId, PhysAddr] = {}
        #: block -> (redo data, origin ARU tag), journaled and not applied.
        self.pending: Dict[BlockId, Tuple[bytes, int]] = {}
        self.cache = BlockCache(cache_blocks)
        self._read_stream = ReadStream(self.disk, self.cache)
        self._home_free = self._free_homes(set())

        self._next_block_id = self._next_list_id = self._next_seq = 1
        self._journal_seq: List[int] = [0] * journal_segments
        self._ring_index = 0
        self._ckpt_seq = self._ckpt_log_seq = 0
        self._commit_on_disk: Set[int] = set()
        self._pending_commit_arus: Set[int] = set()
        self._dead = False
        self._lock = threading.RLock()

        self.journal_writes = self.home_writes = self.applies = 0
        self.op_counts: Dict[str, int] = {}

        self._buffer: Optional[SegmentBuffer] = self._open_buffer()

    def _free_homes(self, used) -> List[PhysAddr]:
        """Every home not in ``used``, lowest last (taken first)."""
        return [
            PhysAddr(seg, slot)
            for seg in range(self.geometry.num_segments - 1, self.home_base - 1, -1)
            for slot in range(self.geometry.max_data_blocks - 1, -1, -1)
            if PhysAddr(seg, slot) not in used
        ]

    # ==================================================================
    # ARUs
    # ==================================================================

    def begin_aru(self) -> ARUId:
        """Start an atomic recovery unit."""
        with self._lock:
            self._check_alive()
            self._charge("ld_call_us")
            self._charge("aru_begin_us")
            return self.arus.begin(self.clock.tick()).aru_id

    def end_aru(self, aru: ARUId) -> None:
        """Commit: merge the shadow state, then journal the COMMIT."""
        with self._lock:
            self._check_alive()
            self._charge("ld_call_us")
            self._charge("aru_commit_us")
            record = self.arus.get(aru)
            tag = int(aru)
            self._pending_commit_arus.add(tag)
            self.engine.merge(record)
            ts, count = self.clock.tick(), record.op_count
            self._journal_entry(SummaryEntry(EntryKind.COMMIT, tag, ts, count))
            self._charge("summary_entry_us")
            self.arus.finish(aru, committed=True)

    def abort_aru(self, aru: ARUId) -> None:
        """Discard an ARU's shadow state."""
        with self._lock:
            self._check_alive()
            self._charge("ld_call_us")
            self.engine.discard(self.arus.finish(aru, committed=False))

    # ==================================================================
    # Blocks and lists
    # ==================================================================

    def _enter(self, name: str, aru: Optional[ARUId]):
        """Count a block or list operation; say where it runs."""
        self._check_alive()
        self._charge("ld_call_us")
        self.op_counts[name] = self.op_counts.get(name, 0) + 1
        return self.engine.context(aru)

    def _live(self, table, ident: int, ctx):
        """The modification view of ``ident``, which must be allocated."""
        view = self.engine.view(table, ident, ctx)
        if view is None or not view.allocated:
            raise (BadBlockError if table is self.bmap else BadListError)(int(ident))
        return view

    def new_list(self, aru: Optional[ARUId] = None) -> ListId:
        """Allocate a list (committed at once, as Section 3.3 says)."""
        with self._lock:
            record, ctx, _tag = self._enter("new_list", aru)
            list_id = ListId(self._next_list_id)
            self._next_list_id += 1
            self._charge("table_access_us")
            if ctx is not None:
                self._charge("aru_alloc_us")
            ts = self.clock.tick()
            self._journal_entry(SummaryEntry(EntryKind.NEW_LIST, 0, ts, list_id))
            self._charge("summary_entry_us")
            self.engine.allocate(self.ltable, list_id, ts)
            if record is not None:
                record.op_count += 1
            return list_id

    def new_block(self, list_id: ListId, predecessor=FIRST, aru=None) -> BlockId:
        """Allocate a block at a fresh home, inserted in the ARU's stream."""
        with self._lock:
            record, ctx, tag = self._enter("new_block", aru)
            engine = self.engine
            self._live(self.ltable, list_id, ctx)
            if predecessor is not FIRST:
                pred = engine.view(self.bmap, predecessor, ctx)
                if pred is None or not pred.allocated or pred.list_id != list_id:
                    raise BadBlockError(
                        int(predecessor), f"not a member of list {list_id}"
                    )
            if not self._home_free:
                raise LDError("home region is full")
            block_id = BlockId(self._next_block_id)
            self._next_block_id += 1
            home = self.homes[block_id] = self._home_free.pop()
            self._charge("table_access_us")
            if ctx is not None:
                self._charge("aru_alloc_us")
            ts = self.clock.tick()
            packed = home.segment << 32 | home.slot
            entry = SummaryEntry(EntryKind.ALLOC_BLOCK, 0, ts, block_id, packed)
            self._journal_entry(entry)
            self._charge("summary_entry_us")
            engine.allocate(self.bmap, block_id, ts)
            pred_id = None if predecessor is FIRST else predecessor
            op = ListOp(ListOpKind.INSERT, list_id, block_id, pred_id)
            engine.execute(op, record, ctx, tag)
            return block_id

    def delete_block(self, block_id: BlockId, aru: Optional[ARUId] = None) -> None:
        """Unlink and deallocate a block."""
        with self._lock:
            record, ctx, tag = self._enter("delete_block", aru)
            list_id = self._live(self.bmap, block_id, ctx).list_id or ListId(0)
            op = ListOp(ListOpKind.DELETE_BLOCK, list_id, block_id)
            self.engine.execute(op, record, ctx, tag)

    def delete_list(self, list_id: ListId, aru: Optional[ARUId] = None) -> None:
        """Deallocate a list and its members (from the head)."""
        with self._lock:
            record, ctx, tag = self._enter("delete_list", aru)
            self._live(self.ltable, list_id, ctx)
            op = ListOp(ListOpKind.DELETE_LIST, list_id)
            self.engine.execute(op, record, ctx, tag)

    def write(self, block_id: BlockId, data, aru: Optional[ARUId] = None) -> None:
        """Write a block: to the ARU's shadow version, or journaled."""
        if data.__class__ is not bytes:
            # The caller keeps its buffer: what is written is the bytes
            # it held at the call.
            data = memoryview(data).tobytes()
        with self._lock:
            record, ctx, _tag = self._enter("write", aru)
            if len(data) > self.geometry.block_size:
                raise ValueError("data exceeds block size")
            self._live(self.bmap, block_id, ctx)
            data = data.ljust(self.geometry.block_size, b"\x00")
            if record is not None:
                record.op_count += 1
                self.engine.shadow_write(block_id, data, ctx)
            else:
                self.engine.commit_write(block_id, data, 0)

    def read(self, block_id: BlockId, aru: Optional[ARUId] = None) -> bytes:
        """Shadow data, else the pending redo, else the home, else zeros."""
        with self._lock:
            self._enter("read", aru)
            bmap = self.bmap
            candidates = read_versions(
                bmap.alts.get(block_id), bmap.persistent.get(block_id),
                aru, self.visibility, self.meter,
            )
            if not candidates:
                raise BadBlockError(int(block_id))
            if not candidates[0].allocated:
                raise BadBlockError(int(block_id), "deallocated")
            self._charge("block_read_us")
            for version in candidates:
                if not version.allocated:
                    break
                if version.data is not None:
                    return version.data
                if version.address is not None:
                    # Written.  A home released by a committed
                    # deallocation has nothing left to read.
                    pending = self.pending.get(block_id)
                    if pending is not None:
                        return pending[0]
                    home = self.homes.get(block_id)
                    if home is None:
                        break
                    cached = self.cache.get(home)
                    if cached is not None:
                        return cached
                    return self._read_stream.read(home, self.geometry.max_data_blocks)
            return b"\x00" * self.geometry.block_size

    def list_blocks(self, list_id: ListId, aru=None) -> List[BlockId]:
        """Enumerate a list under the visibility policy."""
        with self._lock:
            self._enter("list_blocks", aru)
            visible = self.engine.visible
            view = visible(self.ltable, list_id, aru)
            if view is None or not view.allocated:
                raise BadListError(int(list_id))
            members: List[BlockId] = []
            bound = len(self.bmap.persistent) + len(self.bmap.alts) + 1
            cursor = view.first
            while cursor is not None:
                members.append(cursor)
                block_view = visible(self.bmap, cursor, aru)
                if block_view is None or not block_view.allocated:
                    raise BadBlockError(int(cursor), f"missing from list {list_id}")
                cursor = block_view.successor
                if len(members) > bound:
                    raise LDError(f"cycle detected in list {list_id}")
            return members

    def flush(self) -> None:
        """Seal and write the journal buffer: what is committed is durable."""
        with self._lock:
            self._enter("flush", None)
            self._seal_journal_segment()

    # ==================================================================
    # The engine's sink
    # ==================================================================

    @property
    def log_seq(self) -> int:
        return self._buffer.seq

    def log_write(self, block_id, data: bytes, aru_tag: int, ts: int) -> PhysAddr:
        """Journal the redo; the data will live at the block's home."""
        if self._buffer.append_write(block_id, data, aru_tag, ts) is None:
            self._seal_journal_segment()
            self._buffer.append_write(block_id, data, aru_tag, ts)
        self._charge("block_copy_us")
        self._charge("summary_entry_us")
        self.pending[block_id] = (data, aru_tag)
        return self.homes[block_id]

    def log_link(self, aru_tag, ts, list_id, block_id, predecessor) -> None:
        self._journal_entry(
            SummaryEntry(EntryKind.LINK, aru_tag, ts, list_id, block_id, predecessor)
        )

    def log_delete_block(self, aru_tag, ts, block_id, list_id) -> None:
        self._journal_entry(SummaryEntry(EntryKind.DELETE_BLOCK, aru_tag, ts, block_id))
        self._release(block_id)

    def log_delete_list(self, aru_tag, ts, list_id) -> None:
        self._journal_entry(SummaryEntry(EntryKind.DELETE_LIST, aru_tag, ts, list_id))
        # The members the engine deallocates next, from the head.
        cursor = _committed_view(self.ltable, list_id).first
        while cursor is not None:
            member = _committed_view(self.bmap, cursor)
            if member is None or not member.allocated:
                break
            self._release(cursor)
            cursor = member.successor

    def retire_address(
        self, addr: PhysAddr, successor: Optional[PhysAddr] = None
    ) -> None:
        """Homes are released at deallocation (:meth:`_release`); a
        home never moves, so no standing has to follow it."""

    def _release(self, block_id) -> None:
        """A deallocation committed: drop the redo, free the home (and
        its cache entry, which the home's next tenant must not see)."""
        self.pending.pop(block_id, None)
        home = self.homes.pop(block_id, None)
        if home is not None:
            self.cache.invalidate(home)
            self._home_free.append(home)

    # ==================================================================
    # Journal machinery
    # ==================================================================

    def _open_buffer(self) -> SegmentBuffer:
        segment = self._reserve_ring_slot()
        buffer = SegmentBuffer(self.geometry, self._next_seq, segment)
        self._next_seq += 1
        return buffer

    def _reserve_ring_slot(self) -> int:
        """The next ring slot, applying first if it holds live records."""
        for _attempt in range(2):
            index = self._ring_index
            if self._journal_seq[index] <= self._ckpt_log_seq:
                self._ring_index = (index + 1) % self.journal_segments
                return self.journal_base + index
            # The slot ahead still carries unsuperseded history: apply
            # pending data and checkpoint so the tail can advance.
            self.apply()
        raise JournalFullError("journal ring full: an ARU larger than the "
                               "journal, or apply blocked mid-commit")

    def _journal_entry(self, entry: SummaryEntry) -> None:
        if not self._buffer.has_room(0, entry.encoded_size()):
            self._seal_journal_segment()
        self._buffer.add_entry(entry)

    def _seal_journal_segment(self) -> None:
        """Write the buffer (if it holds anything), fold what it made
        durable, open the next."""
        buffer = self._buffer
        if buffer is None or buffer.is_empty:
            return
        # Detach first: the ring-slot reservation below may invoke
        # apply(), whose journal flush must see no active buffer.
        self._buffer = None
        buffer.seal()
        try:
            # LLD's write rule: the data slots, then the chunk, as one
            # batch; never the free gap between them.
            with self.disk.batch():
                buffer.write_unwritten(self.disk)
        except DiskCrashedError:
            self._dead = True
            raise
        self.journal_writes += 1
        self._journal_seq[buffer.segment_no - self.journal_base] = buffer.seq
        for entry in buffer.entries:
            if entry.kind is EntryKind.COMMIT:
                self._commit_on_disk.add(entry.aru_tag)
                self._pending_commit_arus.discard(entry.aru_tag)
        self.engine.fold(buffer.seq, self._commit_on_disk)
        self._buffer = self._open_buffer()
        # Proactive apply: keep headroom in the ring so a burst (or a
        # larger ARU) doesn't hit the hard JournalFullError path.
        free = sum(1 for seq in self._journal_seq if seq <= self._ckpt_log_seq)
        if free <= self.apply_low_water and self.checkpoint_safe():
            self.apply()

    # ==================================================================
    # Apply + checkpoint
    # ==================================================================

    def checkpoint_safe(self) -> bool:
        """True when the persistent tables hold everything committed."""
        engine = self.engine
        return not (self._pending_commit_arus or len(engine.committed_blocks)
                    or len(engine.committed_lists))

    def apply(self) -> int:
        """Flush the journal, write to the homes the redo whose ARU
        (if any) has a durable commit record, and checkpoint.  Returns
        the number of home blocks written."""
        with self._lock:
            self._check_alive()
            self._seal_journal_segment()
            applied = 0
            for block_id in list(self.pending):
                data, origin = self.pending[block_id]
                if origin and origin not in self._commit_on_disk:
                    continue  # uncommitted ARU data must not hit homes
                home = self.homes[block_id]
                offset = home.slot * self.geometry.block_size
                try:
                    self.disk.write_at(home.segment, offset, data)
                except DiskCrashedError:
                    self._dead = True
                    raise
                self.home_writes += 1
                self._charge("block_copy_us")
                self.cache.put(home, data)
                del self.pending[block_id]
                applied += 1
            self.applies += 1
            if self.checkpoint_safe() and not self.pending:
                self._ckpt_seq += 1
                self.checkpoints.write(self._snapshot())
                self._ckpt_log_seq = self._next_seq - 2  # last sealed seq
            return applied

    def _snapshot(self) -> CheckpointData:
        homes = self.homes
        block_rows = pack_block_rows(
            (b, rec.successor or 0, rec.list_id or 0, rec.timestamp, *homes[b],
             FLAG_HAS_ADDR if rec.address is not None else 0)
            for b, rec in sorted(self.bmap.persistent.items())
        )
        list_rows = pack_list_rows(
            (list_id, lst.first or 0, lst.last or 0, lst.count, lst.timestamp)
            for list_id, lst in sorted(self.ltable.persistent.items())
        )
        return CheckpointData(
            ckpt_seq=self._ckpt_seq, last_log_seq=self._next_seq - 2,
            next_block_id=self._next_block_id, next_list_id=self._next_list_id,
            next_aru_id=self.arus.next_id, block_rows=block_rows,
            list_rows=list_rows, segments={},
        )

    # ==================================================================
    # Misc
    # ==================================================================

    def sweep_orphan_blocks(self) -> List[BlockId]:
        """Free allocated blocks in no list (the consistency sweep)."""
        with self._lock:
            if self.arus.active_count:
                raise ConcurrencyError("cannot sweep orphans while ARUs are active")
            orphans = [
                block_id for block_id in self.bmap.ids()
                if (view := _committed_view(self.bmap, block_id)) is not None
                and view.allocated and view.list_id is None
            ]
            for block_id in orphans:
                self.delete_block(block_id)
            return orphans

    def _check_alive(self) -> None:
        if self._dead or self.disk.crashed:
            self._dead = True
            raise DiskCrashedError("logical disk lost its backing store")

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


def recover_jld(disk: SimulatedDisk, **kwargs):
    """Recover a :class:`JLD`: the newest checkpoint, then the newer
    journal segments, commit-record gated, then the orphan sweep.
    Returns ``(jld, report)``, report a small dict of what was found."""
    jld = JLD(disk, **kwargs)
    ckpt = jld.checkpoints.load()
    segments = []
    for index in range(jld.journal_segments):
        try:
            raw = disk.read_segment(jld.journal_base + index)
        except MediaError:
            continue
        decoded = decode_segment(raw, disk.geometry, jld.journal_base + index)
        if decoded is not None and decoded.seq > ckpt.last_log_seq:
            segments.append((decoded, index))
            jld._journal_seq[index] = decoded.seq
    segments.sort(key=lambda pair: pair[0].seq)
    committed = {
        fields[1]
        for decoded, _index in segments
        for fields in decoded.entry_tuples
        if fields[0] == EntryKind.COMMIT
    }
    report = dict(checkpoint_seq=ckpt.ckpt_seq, segments_replayed=len(segments),
                  entries_replayed=0, entries_discarded=0,
                  arus_committed=len(committed), orphans_freed=[])

    # LLD's rules replay the lists; a JLD ALLOC_BLOCK carries the home,
    # and a WRITE's payload is redo for the home.
    blocks: Dict[int, object] = {}
    lists: Dict[int, object] = {}
    rules = ReplayRules(blocks, lists, committed, report=None)
    rules.load_checkpoint(ckpt)
    homes = {row[0]: PhysAddr(row[4], row[5]) for row in ckpt.blocks}
    pending: Dict[int, Tuple[bytes, int]] = {}
    next_block, next_list = ckpt.next_block_id, ckpt.next_list_id
    max_aru = ckpt.next_aru_id - 1
    for decoded, _index in segments:
        for fields in decoded.entry_tuples:
            kind, tag = fields[0], fields[1]
            max_aru = max(max_aru, tag)
            if tag and tag not in committed:
                report["entries_discarded"] += kind != EntryKind.COMMIT
                continue
            report["entries_replayed"] += 1
            if kind == EntryKind.WRITE:
                block = blocks.get(fields[3])
                if block is not None:
                    block.address = homes[fields[3]]
                    block.timestamp = fields[2]
                    pending[fields[3]] = (decoded.slot_data(fields[4]), 0)
                continue
            rules.apply(fields, decoded.segment_no)
            if kind == EntryKind.ALLOC_BLOCK:
                homes[fields[3]] = PhysAddr(fields[4] >> 32, fields[4] & 0xFFFFFFFF)
                next_block = max(next_block, fields[3] + 1)
            elif kind == EntryKind.NEW_LIST:
                next_list = max(next_list, fields[3] + 1)
    jld.bmap.adopt(blocks)
    jld.ltable.adopt(lists)
    jld.homes = {block_id: homes[block_id] for block_id in blocks}
    jld.pending = {b: redo for b, redo in pending.items() if b in blocks}
    jld._home_free = jld._free_homes(set(jld.homes.values()))
    jld._ckpt_seq = ckpt.ckpt_seq
    jld._ckpt_log_seq = ckpt.last_log_seq
    jld._next_block_id, jld._next_list_id = next_block, next_list
    jld.arus.set_next_id(max_aru + 1)
    if segments:
        jld._next_seq = segments[-1][0].seq + 1
        jld._ring_index = (segments[-1][1] + 1) % jld.journal_segments
    else:
        jld._next_seq, jld._ring_index = ckpt.last_log_seq + 1, 0
    jld._commit_on_disk = set(committed)
    jld.cache.invalidate_all()
    # Re-open a fresh buffer now that ring state is known.
    jld._buffer = jld._open_buffer()
    report["orphans_freed"] = [int(b) for b in jld.sweep_orphan_blocks()]
    return jld, report
