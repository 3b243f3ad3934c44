"""The version engine: shadow, committed and persistent versions of
blocks and lists, without a disk (PAPER.md § 1 item 3 as one class).

A lookup works from an ARU's shadow version down through the
committed version to the persistent one; a modification finds or
creates the alternative record for the state it runs in; list
operations inside an ARU also go to its list-operation log, which
:meth:`VersionEngine.merge` re-executes against the committed state
at commit; :meth:`VersionEngine.fold` makes committed records
persistent once the log says they are durable.

Of the substrate underneath the engine knows a *log sink*: it says
which records an operation puts in the log and asks where the log
stands, never how the log is laid out.
:class:`~repro.lld.logwriter.LogWriter` is the log-structured sink; a
test drives the engine with one that appends to a list.
"""

from __future__ import annotations

from typing import Optional, Protocol, Set, Tuple

from repro.core.aru import ARURecord, ARUTable
from repro.core.oplog import ListOp, ListOpKind
from repro.core.records import BlockVersion, ListVersion, StateChain
from repro.core.versions import VersionState
from repro.core.visibility import Visibility, read_versions
from repro.errors import (
    BadBlockError,
    BadListError,
    ConcurrencyError,
    LDError,
)
from repro.ld.types import ARU_NONE, ARUId, BlockId, ListId, PhysAddr

_SHADOW = VersionState.SHADOW
_COMMITTED = VersionState.COMMITTED


class LogSink(Protocol):
    """What the engine needs of the log it records into.

    Records land in call order; ``aru_tag`` is 0 for a simple
    operation, an absent list or predecessor 0 as well.
    """

    #: Sequence number of the part of the log being filled: read
    #: after a call, it names what holds the records of that call.
    log_seq: int

    def log_write(self, block_id, data: bytes, aru_tag: int, ts: int) -> PhysAddr:
        """Append block data; returns where it will live."""

    def log_link(self, aru_tag, ts, list_id, block_id, predecessor) -> None:
        """Record ``block_id`` inserted into ``list_id``."""

    def log_delete_block(self, aru_tag, ts, block_id, list_id) -> None:
        """Record a block unlinked and deallocated."""

    def log_delete_list(self, aru_tag, ts, list_id) -> None:
        """Record a list and its members deallocated."""

    def retire_address(
        self, addr: PhysAddr, successor: Optional[PhysAddr] = None
    ) -> None:
        """No version references ``addr`` any longer; ``successor`` is
        the address that now holds the same block's data, when a
        rewrite superseded it."""


class VersionEngine:
    """Version lookup, alternative records, list-operation replay,
    commit and fold over the block and list tables.

    One ``view`` / ``visible`` / ``for_update`` serves blocks and
    lists alike: the caller names the table (``engine.blocks`` or
    ``engine.lists``).  ``ctx`` is the ARU record whose shadow state
    an operation runs in, or None for the committed state —
    :meth:`context` makes that choice, once per call.

    Args:
        blocks, lists: The block-number-map and the list-table
            (:mod:`repro.core.tables`).
        arus: The active ARUs; ``arus.concurrent`` selects shadow
            states or the sequential baseline.
        meter: Cost meter; ``meter.clock`` issues the timestamps.
        visibility: The read-visibility policy of Section 3.3.
        sink: The :class:`LogSink` records go to.

    A commit that finds the committed state changed under the ARU
    raises :class:`~repro.errors.ConcurrencyError`.
    """

    def __init__(
        self,
        blocks,
        lists,
        arus: ARUTable,
        meter,
        visibility: Visibility,
        sink: LogSink,
    ) -> None:
        self.blocks = blocks
        self.lists = lists
        self.arus = arus
        self.meter = meter
        self.clock = meter.clock
        self.visibility = visibility
        self.sink = sink
        self.concurrent = arus.concurrent
        self.committed_blocks = StateChain()
        self.committed_lists = StateChain()
        self._charge = meter.charge
        # What making and folding a record cost: the alternative-record
        # machinery, or, in the old prototype, which updates its tables
        # in place, a table access.
        self._record_create = (
            "record_create_us" if self.concurrent else "table_access_us"
        )
        self._record_transition = (
            "record_transition_us" if self.concurrent else "table_access_us"
        )

    # ------------------------------------------------------------------
    # Version lookup and creation
    # ------------------------------------------------------------------

    def context(
        self, aru: Optional[ARUId]
    ) -> Tuple[Optional[ARURecord], Optional[ARURecord], int]:
        """Validate ``aru`` and say where its operation runs:
        ``(record, ctx, tag)`` — the ARU record (None for a simple
        operation), the shadow state to run in (None for the
        committed state, which is where the sequential baseline runs
        everything) and the tag its log records carry."""
        if aru is None:
            return None, None, 0
        record = self.arus.get(aru)
        return record, (record if self.concurrent else None), int(aru)

    def view(self, table, ident: int, ctx: Optional[ARURecord]):
        """Modification view: shadow (if in ARU) -> committed -> persistent.

        Each walk of the same-identifier chain charges one hop per
        record it visits (:func:`~repro.core.records.find_alt`'s walks,
        written out)."""
        head = table.alts.get(ident)
        if head is None:
            # No alternative record: no chain to walk, no hop to charge.
            persistent = table.persistent.get(ident)
            if persistent is not None:
                self._charge("table_access_us")
            return persistent
        charge = self._charge
        charge("table_access_us")
        if ctx is not None:
            owner = ctx.aru_id
            node = head
            while node is not None:
                charge("chain_hop_us")
                if node.state is _SHADOW and node.aru_id == owner:
                    return node
                node = node.next_same_id
        node = head
        while node is not None:
            charge("chain_hop_us")
            if node.state is _COMMITTED:
                return node
            node = node.next_same_id
        return table.persistent.get(ident)

    def visible(self, table, ident: int, aru: Optional[ARUId]):
        """Read view under the configured visibility policy."""
        head = table.alts.get(ident)
        persistent = table.persistent.get(ident)
        if head is None:
            return persistent
        candidates = read_versions(
            head, persistent, aru, self.visibility, self.meter
        )
        return candidates[0] if candidates else None

    def for_update(self, table, ident: int, ctx: Optional[ARURecord]):
        """Find or create the record to modify in the given state.

        Copies from the next-lower version (committed, then
        persistent) per the standardized search of Section 3.3.  The
        walks charge one hop per record visited, as :meth:`view`'s.
        """
        head = table.alts.get(ident)
        charge = self._charge
        base = table.persistent.get(ident)
        if ctx is None:
            state, owner = _COMMITTED, ARU_NONE
            node = head
            while node is not None:
                charge("chain_hop_us")
                if node.state is _COMMITTED:
                    return node
                node = node.next_same_id
        else:
            state, owner = _SHADOW, ctx.aru_id
            node = head
            while node is not None:
                charge("chain_hop_us")
                if node.state is _SHADOW and node.aru_id == owner:
                    return node
                node = node.next_same_id
            node = head
            while node is not None:
                charge("chain_hop_us")
                if node.state is _COMMITTED:
                    base = node
                    break
                node = node.next_same_id
        if table is self.blocks:
            version = BlockVersion(ident, state, owner, allocated=False)
            chain = self.committed_blocks if ctx is None else ctx.shadow_blocks
        else:
            version = ListVersion(ident, state, owner, allocated=False)
            chain = self.committed_lists if ctx is None else ctx.shadow_lists
        if base is not None:
            version.copy_from(base)
        charge(self._record_create)
        table.push_alt(ident, version)
        chain.push(version)
        return version

    def allocate(self, table, ident: int, ts: int) -> None:
        """Allocate a block or an (empty) list.  Whoever asks, that
        happens in the committed state, at once (Section 3.3), so
        concurrent ARUs can never be handed the same identifier."""
        version = self.for_update(table, ident, None)
        version.allocated = True
        version.timestamp = ts
        version.origin_aru = ARU_NONE
        version.pending_segment = self.sink.log_seq

    # ------------------------------------------------------------------
    # Block data
    # ------------------------------------------------------------------

    def shadow_write(
        self, block_id: BlockId, data: bytes, ctx: ARURecord
    ) -> None:
        """Hold block data in an ARU's shadow version."""
        shadow = self.for_update(self.blocks, block_id, ctx)
        shadow.data = data
        shadow.timestamp = self.clock.tick()
        self._charge("block_copy_us")

    def commit_write(self, block_id: BlockId, data: bytes, aru_tag: int) -> None:
        """Append block data to the committed (merged) stream."""
        ts = self.clock.tick()
        addr = self.sink.log_write(block_id, data, aru_tag, ts)
        version = self.for_update(self.blocks, block_id, None)
        if version.address is not None and version.address != addr:
            persistent = self.blocks.persistent.get(block_id)
            if persistent is None or persistent.address != version.address:
                self.sink.retire_address(version.address)
        version.allocated = True
        version.address = addr
        version.timestamp = ts
        version.origin_aru = ARUId(aru_tag)
        version.pending_segment = self.sink.log_seq

    # ------------------------------------------------------------------
    # List-operation execution (shared by shadow, committed, replay)
    # ------------------------------------------------------------------

    def execute(
        self,
        op: ListOp,
        record: Optional[ARURecord],
        ctx: Optional[ARURecord],
        aru_tag: int,
    ) -> None:
        """Run a client's list operation where :meth:`context` put
        it, logging it for replay when that is a shadow state."""
        if record is not None:
            record.op_count += 1
        self.apply(op, ctx, aru_tag)
        if ctx is not None:
            ctx.oplog.append(op, self.meter)

    def apply(self, op: ListOp, ctx: Optional[ARURecord], aru_tag: int) -> None:
        """Execute one list operation in the given state.

        With ``ctx`` set the operation runs in that ARU's shadow
        state and the sink hears nothing; otherwise it runs in the
        committed state and its link/delete record goes to the sink
        (tagged with ``aru_tag``).
        """
        if op.kind is ListOpKind.INSERT:
            self._insert(op, ctx, aru_tag)
        elif op.kind is ListOpKind.DELETE_BLOCK:
            self._delete_block(op, ctx, aru_tag)
        else:
            self._delete_list(op, ctx, aru_tag)

    def _insert(self, op: ListOp, ctx: Optional[ARURecord], aru_tag: int) -> None:
        list_view = self.view(self.lists, op.list_id, ctx)
        if list_view is None or not list_view.allocated:
            raise BadListError(int(op.list_id))
        block_view = self.view(self.blocks, op.block_id, ctx)
        if block_view is None or not block_view.allocated:
            raise BadBlockError(int(op.block_id))
        if block_view.list_id is not None:
            raise ConcurrencyError(
                f"block {op.block_id} is already in list {block_view.list_id}"
            )
        if op.predecessor is not None:
            pred_view = self.view(self.blocks, op.predecessor, ctx)
            if (
                pred_view is None
                or not pred_view.allocated
                or pred_view.list_id != op.list_id
            ):
                raise BadBlockError(
                    int(op.predecessor), f"not a member of list {op.list_id}"
                )
        ts = self.clock.tick()
        if ctx is None:
            self.sink.log_link(
                aru_tag,
                ts,
                int(op.list_id),
                int(op.block_id),
                int(op.predecessor) if op.predecessor is not None else 0,
            )
            self._charge("summary_entry_us")
        lst = self.for_update(self.lists, op.list_id, ctx)
        blk = self.for_update(self.blocks, op.block_id, ctx)
        if op.predecessor is None:
            blk.successor = lst.first
            if lst.first is None:
                lst.last = op.block_id
            lst.first = op.block_id
        else:
            pred = self.for_update(self.blocks, op.predecessor, ctx)
            blk.successor = pred.successor
            pred.successor = op.block_id
            pred.timestamp = ts
            if lst.last == op.predecessor:
                lst.last = op.block_id
            if ctx is None:
                pred.pending_segment = self.sink.log_seq
        blk.list_id = op.list_id
        blk.timestamp = ts
        lst.count += 1
        lst.timestamp = ts
        if ctx is None:
            blk.pending_segment = lst.pending_segment = self.sink.log_seq
            blk.origin_aru = lst.origin_aru = ARUId(aru_tag)

    def _delete_block(
        self, op: ListOp, ctx: Optional[ARURecord], aru_tag: int
    ) -> None:
        block_view = self.view(self.blocks, op.block_id, ctx)
        if block_view is None or not block_view.allocated:
            raise BadBlockError(int(op.block_id))
        list_id = block_view.list_id
        predecessor: Optional[BlockId] = None
        if list_id is not None:
            predecessor = self._find_predecessor(list_id, op.block_id, ctx)
        ts = self.clock.tick()
        if ctx is None:
            self.sink.log_delete_block(
                aru_tag,
                ts,
                int(op.block_id),
                int(list_id) if list_id is not None else 0,
            )
            self._charge("summary_entry_us")
        blk = self.for_update(self.blocks, op.block_id, ctx)
        if list_id is not None:
            lst = self.for_update(self.lists, list_id, ctx)
            if predecessor is None:
                lst.first = blk.successor
            else:
                pred = self.for_update(self.blocks, predecessor, ctx)
                pred.successor = blk.successor
                pred.timestamp = ts
                if ctx is None:
                    pred.pending_segment = self.sink.log_seq
            if lst.last == op.block_id:
                lst.last = predecessor
            lst.count -= 1
            lst.timestamp = ts
            if ctx is None:
                lst.pending_segment = self.sink.log_seq
                lst.origin_aru = ARUId(aru_tag)
        self._deallocate(blk, ts, ctx, aru_tag)

    def _delete_list(
        self, op: ListOp, ctx: Optional[ARURecord], aru_tag: int
    ) -> None:
        list_view = self.view(self.lists, op.list_id, ctx)
        if list_view is None or not list_view.allocated:
            raise BadListError(int(op.list_id))
        ts = self.clock.tick()
        if ctx is None:
            self.sink.log_delete_list(aru_tag, ts, int(op.list_id))
            self._charge("summary_entry_us")
        lst = self.for_update(self.lists, op.list_id, ctx)
        # Delete remaining members from the beginning of the list: no
        # predecessor searches (the improved deletion policy).
        cursor = lst.first
        while cursor is not None:
            blk = self.for_update(self.blocks, cursor, ctx)
            cursor = blk.successor
            self._deallocate(blk, ts, ctx, aru_tag)
        lst.first = None
        lst.last = None
        lst.count = 0
        lst.allocated = False
        lst.timestamp = ts
        if ctx is None:
            lst.pending_segment = self.sink.log_seq
            lst.origin_aru = ARUId(aru_tag)

    def _deallocate(
        self,
        blk: BlockVersion,
        ts: int,
        ctx: Optional[ARURecord],
        aru_tag: int,
    ) -> None:
        blk.allocated = False
        blk.data = None
        blk.successor = None
        blk.list_id = None
        blk.timestamp = ts
        if ctx is None:
            # Free-space bookkeeping happens when the deallocation
            # reaches the merged stream (shadow deallocations redo it
            # at replay).
            self._charge("block_dealloc_us")
            blk.pending_segment = self.sink.log_seq
            blk.origin_aru = ARUId(aru_tag)

    def _find_predecessor(
        self, list_id: ListId, block_id: BlockId, ctx: Optional[ARURecord]
    ) -> Optional[BlockId]:
        """Walk the list to find ``block_id``'s predecessor (None =
        the block is first).  Charges one search step per hop — this
        is the cost the improved deletion policy of Section 5.3
        avoids."""
        list_view = self.view(self.lists, list_id, ctx)
        if list_view is None or not list_view.allocated:
            raise BadListError(int(list_id))
        if list_view.first == block_id:
            return None
        charge = self._charge
        cursor = list_view.first
        while cursor is not None:
            charge("pred_search_step_us")
            view = self.view(self.blocks, cursor, ctx)
            if view is None:
                break
            if view.successor == block_id:
                return cursor
            cursor = view.successor
        raise BadBlockError(int(block_id), f"not found in list {list_id}")

    # ------------------------------------------------------------------
    # Commit, abort, fold
    # ------------------------------------------------------------------

    def _drop_shadow_lists(self, record: ARURecord) -> None:
        charge = self._charge
        for shadow in record.shadow_lists.drain():
            self.lists.remove_alt(shadow.list_id, shadow)
            charge("record_transition_us")

    def merge(self, record: ARURecord) -> None:
        """Merge an ARU's shadow state into the committed stream."""
        aru = record.aru_id
        charge = self._charge
        # 1. Transition data-bearing shadow block records.  Blocks the
        #    ARU deleted or only re-linked are reconstructed by the
        #    list-operation log replay below.
        for shadow in record.shadow_blocks.drain():
            self.blocks.remove_alt(shadow.block_id, shadow)
            charge("record_transition_us")
            if not shadow.allocated or shadow.data is None:
                continue
            view = self.view(self.blocks, shadow.block_id, None)
            if view is None or not view.allocated:
                raise ConcurrencyError(
                    f"block {shadow.block_id} disappeared before ARU "
                    f"{aru} committed"
                )
            self.commit_write(shadow.block_id, shadow.data, int(aru))
        # 2. Shadow list records carry no information the log replay
        #    does not regenerate; discard them.
        self._drop_shadow_lists(record)
        # 3. Re-execute the list-operation log in the committed state,
        #    generating the summary link records (Section 4).
        for op in record.oplog:
            charge("listop_replay_us")
            try:
                self.apply(op, None, int(aru))
            except LDError as exc:
                raise ConcurrencyError(
                    f"replaying {op} for ARU {aru}: {exc}"
                ) from exc
        record.oplog.clear()

    def discard(self, record: ARURecord) -> None:
        """Drop an aborted ARU's shadow state."""
        charge = self._charge
        for shadow in record.shadow_blocks.drain():
            self.blocks.remove_alt(shadow.block_id, shadow)
            charge("record_transition_us")
        self._drop_shadow_lists(record)
        record.oplog.clear()

    def fold(self, written_seq: int, committed_tags: Set[int]) -> None:
        """Committed -> persistent transitions for every record whose
        log entries lie at or below ``written_seq`` and whose origin
        ARU (if any) is in ``committed_tags``: both are durable."""
        for table, chain in (
            (self.blocks, self.committed_blocks),
            (self.lists, self.committed_lists),
        ):
            for version in chain:
                if version.pending_segment > written_seq:
                    continue
                origin = int(version.origin_aru)
                if origin and origin not in committed_tags:
                    continue
                self._fold(table, chain, version)

    def _fold(self, table, chain: StateChain, version) -> None:
        is_block = table is self.blocks
        ident = version.block_id if is_block else version.list_id
        table.remove_alt(ident, version)
        chain.remove(version)
        self._charge(self._record_transition)
        table.mark_changed(ident)
        persistent = table.persistent
        old = persistent.get(ident)
        if is_block:
            # A dying record retires the data slot it occupies itself
            # (its write was counted live at seal time); either way
            # an older persistent copy elsewhere is superseded.
            if not version.allocated and version.address is not None:
                self.sink.retire_address(version.address)
            if (
                old is not None
                and old.address is not None
                and old.address != version.address
            ):
                self.sink.retire_address(
                    old.address, version.address if version.allocated else None
                )
        if not version.allocated:
            persistent.pop(ident, None)
            return
        if old is None:
            old = persistent[ident] = type(version)(ident, VersionState.PERSISTENT)
        old.copy_from(version)
