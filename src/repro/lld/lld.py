"""The log-structured logical disk with atomic recovery units.

:class:`LLD` is the LD interface over the simulated disk: argument
checks, locking, id allocation, the read path, and the checkpoint,
cleaner, scrub and instant-restore entry points.  The two jobs
underneath it live elsewhere: :class:`~repro.core.engine.VersionEngine`
keeps the shadow / committed / persistent versions and never sees the
disk, and :class:`~repro.lld.logwriter.LogWriter` (this class's base,
and the engine's log sink) fills segments and writes them out.  Its
other base, :class:`~repro.lld.participant.Participant`, is one
volume's half of the array's two-phase commit.

Two modes, chosen by ``aru_mode``:

* ``"concurrent"`` — the paper's **new** prototype.  ARU operations
  execute in per-ARU shadow states; list operations also go to the
  ARU's list-operation log and are re-executed against the committed
  state at commit, where their link records are generated, followed
  by the ARU's commit record.
* ``"sequential"`` — the paper's **old** baseline.  One ARU at a
  time; its operations apply directly to the committed state, tagged
  with the ARU identifier, with a commit record at the end.  No
  shadow records, no list-operation log, no re-execution.

Durability ordering: within the stream, an ARU's data and link
records are always appended before its commit record, so a flushed
commit record implies all of the ARU's effects are on disk, and
recovery (:mod:`repro.lld.recovery`) discards any tagged entries
whose commit record never made it.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.aru import ARUTable
from repro.core.engine import VersionEngine
from repro.core.oplog import ListOp, ListOpKind
from repro.core.tables import BlockNumberMap, ListTable
from repro.core.versions import VersionState
from repro.core.visibility import read_versions
from repro.disk.clock import CostMeter, CostModel
from repro.disk.simdisk import SimulatedDisk
from repro.errors import (
    BadBlockError,
    BadListError,
    ConcurrencyError,
    DiskCrashedError,
    LDError,
    MediaError,
    UnrecoverableBlockError,
)
from repro.ld.interface import LogicalDisk
from repro.ld.types import (
    ARUId,
    BlockId,
    FIRST,
    ListId,
    PhysAddr,
    Predecessor,
    SYSTEM_ID_BASE,
)
from repro.lld.cache import BlockCache, ReadStream
from repro.lld.config import LLDConfig
from repro.lld.checkpoint import (
    CheckpointData,
    CheckpointManager,
    PackedRows,
    RowChanges,
    default_slot_segments,
    pack_block_record,
    pack_list_record,
)
from repro.lld.logwriter import LogWriter
from repro.lld.participant import Participant
from repro.lld.summary import EntryKind, SummaryEntry
from repro.lld.usage import SegmentState, SegmentUsage
from repro.obs import Observability

_SHADOW = VersionState.SHADOW


class _OpCounters(dict):
    """Operation name -> its ``lld.ops.<name>`` counter, registered
    when the operation first runs (``stats()["ops"]`` lists those)."""

    def __init__(self, metrics) -> None:
        super().__init__()
        self._metrics = metrics

    def __missing__(self, name: str):
        counter = self[name] = self._metrics.counter(f"lld.ops.{name}")
        return counter


class LLD(LogWriter, Participant, LogicalDisk):
    """Log-structured logical disk (LLD) with ARU support.

    Args:
        disk: The (simulated) disk to run on.
        cost_model: CPU cost model; defaults to the calibrated model.
        config: An :class:`~repro.lld.config.LLDConfig` carrying
            every tuning knob — ARU semantics, read cache,
            checkpointing, cleaner thresholds, the write pipeline,
            restore pacing and observability.  See that class for
            per-knob documentation; ``None`` means the defaults.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        cost_model: Optional[CostModel] = None,
        config: Optional[LLDConfig] = None,
        _defer_init: bool = False,
    ) -> None:
        cfg = config or LLDConfig()
        geometry = disk.geometry
        # Observability comes up before any collaborator (write-behind
        # queue, disk instruments) so they can register against it.
        # Instruments never touch the simulated clock, so metrics
        # on/off cannot change any simulated result.
        obs = Observability(
            metrics=cfg.metrics,
            dump_path=cfg.flight_dump_path,
        )
        obs.bind_clock(disk.clock)
        attach = getattr(disk, "attach_observability", None)
        if attach is not None:
            attach(obs)
        if geometry.usable_size < geometry.block_size + 64:
            raise ValueError("segments too small to hold a block plus summary")

        slot_segs = (
            cfg.checkpoint_slot_segments
            if cfg.checkpoint_slot_segments is not None
            else default_slot_segments(geometry)
        )
        self.checkpoints = CheckpointManager(disk, slot_segs)
        reserved = self.checkpoints.reserved_segments
        if reserved >= geometry.num_segments - max(2, cfg.clean_low_water):
            raise ValueError(
                "checkpoint reservation leaves too few log segments; "
                "use a larger partition or fewer checkpoint segments"
            )
        LogWriter.__init__(
            self,
            disk,
            SegmentUsage(geometry.num_segments, reserved=reserved),
            BlockCache(cfg.cache_blocks),
            CostMeter(disk.clock, cost_model or CostModel()),
            obs,
            cfg,
        )

        self.bmap = BlockNumberMap()
        self.ltable = ListTable()
        #: The tables' checkpoint rows, kept between checkpoints.
        self._block_rows = PackedRows(self.bmap, pack_block_record)
        self._list_rows = PackedRows(self.ltable, pack_list_record)
        self.arus = ARUTable(concurrent=cfg.aru_mode == "concurrent")
        self.engine = VersionEngine(
            self.bmap,
            self.ltable,
            self.arus,
            self.meter,
            cfg.visibility,
            # Weak, like every reference back to this volume: a dropped
            # volume is freed by refcount, not left for the collector.
            sink=weakref.proxy(self),
        )
        self.concurrent = self.engine.concurrent
        self.visibility = cfg.visibility
        self.committed_blocks = self.engine.committed_blocks
        self.committed_lists = self.engine.committed_lists
        self._read_stream = ReadStream(
            self.disk, self.cache, readahead=cfg.readahead
        )

        self._next_block_id = 1
        self._next_list_id = 1
        self._ckpt_seq = 0
        Participant.__init__(self)
        self._dead = False
        self._lock = threading.RLock()
        #: Segments a foreground read or the cleaner found damaged;
        #: the next :meth:`scrub` pass inspects them.
        self._scrub_pending: Set[int] = set()
        #: Instant-restore controller while a redo-on-demand recovery
        #: is in progress (set by ``recover(mode="instant")``); None
        #: in normal operation.
        self._restore = None
        #: The report of the recovery that built this instance (None
        #: for a freshly formatted volume); ``stats()["recovery"]``
        #: quotes its scan accounting.
        self._recovery_report = None

        # Statistics — registry-backed (docs/OBSERVABILITY.md names
        # every instrument).  The historical attributes (`op_counts`,
        # `segments_flushed`, …) are read-only properties over these
        # counters.
        m = self.obs.metrics
        self._ops = _OpCounters(m)
        self._cleaner_counters = {
            name: m.counter(f"lld.cleaner.{name}")
            for name in (
                "runs",
                "passes",
                "segments_freed",
                "segments_freed_unread",
                "blocks_copied",
                "damaged",
            )
        }
        self._ckpt_counters = {
            name: m.counter(f"lld.checkpoint.{name}")
            for name in (
                "writes", "bases", "deltas", "payload_bytes", "bytes_written"
            )
        }
        self._scrub_counters = {
            name: m.counter(f"lld.scrub.{name}")
            for name in (
                "scrubs",
                "segments_quarantined",
                "blocks_salvaged",
                "blocks_salvaged_stale",
                "blocks_lost",
                "degraded_reads",
                "salvaged_reads",
                "unrecoverable_reads",
            )
        }
        self._h_commit_us = m.histogram("lld.commit_us")
        self._h_flush_us = m.histogram("lld.flush_us")
        self._h_cleaner_us = m.histogram("lld.cleaner.run_us")

        if not _defer_init:
            self._open_new_buffer()

    # ==================================================================
    # Instant restore (redo-on-demand recovery)
    # ==================================================================
    #
    # While ``recover(mode="instant")`` has pending log segments, every
    # public operation funnels through one of these hooks before it
    # touches the tables: the id-specific hooks drain exactly the log
    # prefix covering the touched block/list (charged to the
    # requester), and every hook gives the background sweep its
    # ``restore_drain_segments`` quantum.  All hooks are no-ops in
    # normal operation (one attribute test).

    @property
    def restore_active(self) -> bool:
        """True while an instant restore still has pending segments."""
        return self._restore is not None

    def restore_drain(self, max_segments: Optional[int] = None) -> int:
        """Apply up to ``max_segments`` pending segments in log order.

        Returns the number of segments drained (0 when no restore is
        in progress).  With ``max_segments=None`` drains everything
        pending but — unlike :meth:`complete_restore` — does not run
        the final consistency sweep.
        """
        with self._lock:
            self._check_alive()
            controller = self._restore
            if controller is None:
                return 0
            before = controller.watermark
            controller.drain(max_segments)
            return controller.watermark - before

    def complete_restore(self) -> None:
        """Finish an in-progress instant restore synchronously.

        Drains every pending segment, runs the recovery consistency
        sweep (orphan blocks, exact live counts) and returns the
        volume to normal operation.  No-op when no restore is active.
        Called automatically before checkpoints, cleaning, scrubbing
        and orphan sweeps — those all need final table state.
        """
        with self._lock:
            self._check_alive()
            controller = self._restore
            if controller is not None:
                controller.complete()

    def _restore_tick(self) -> None:
        if self._restore is not None:
            self._restore.tick()

    def _restore_block(self, block_id) -> None:
        # Hold a local reference: the tick's background quantum may
        # finish the sweep, complete the restore and null the field.
        controller = self._restore
        if controller is not None:
            controller.tick()
            controller.ensure_block(int(block_id))

    def _restore_list(self, list_id) -> None:
        controller = self._restore
        if controller is not None:
            controller.tick()
            controller.ensure_list(int(list_id))

    # ==================================================================
    # Public interface: ARUs
    # ==================================================================

    def begin_aru(self) -> ARUId:
        """Start a new atomic recovery unit."""
        with self._lock:
            self._check_alive()
            self._charge("ld_call_us")
            self._charge("aru_begin_us")
            self._maybe_release_parked()
            self._ops["begin_aru"].inc()
            record = self.arus.begin(self.clock.tick())
            self.obs.record("aru.begin", aru=int(record.aru_id))
            return record.aru_id

    def end_aru(self, aru: ARUId) -> None:
        """Commit an ARU (Section 3: ARUs serialize at EndARU time).

        Under ``group_commit`` the ARU's data and link records are
        merged into the committed stream as usual, but its commit
        record is *parked* rather than emitted; the parked group is
        released (and written out) at the next drain point, when the
        parked-ARU cap is reached, or when the timer budget of the
        oldest parked commit expires.  Until then the ARU is
        committed in memory but not yet durable — exactly the window
        a buffered commit record has in the serial path.
        """
        self._commit(aru, None)

    def _commit(self, aru: ARUId, xid: Optional[int]) -> None:
        """The one commit path.  ``end_aru`` (``xid`` None) emits a
        COMMIT record, or parks it under group commit;
        ``prepare_commit`` emits a PREPARE record carrying ``xid`` and
        never parks it: the caller's flush must make that record
        durable before the decision."""
        prepare = xid is not None
        with self._lock:
            self._check_alive()
            self._charge("ld_call_us")
            self._charge("aru_commit_us")
            self._maybe_release_parked()
            self._ops["prepare_commit" if prepare else "end_aru"].inc()
            commit_start_us = self.clock.now_us
            record = self.arus.get(aru)
            tag = int(aru)
            cfg = self.config
            park = cfg.group_commit and not prepare
            op_count = record.op_count
            kind = EntryKind.PREPARE if prepare else EntryKind.COMMIT
            ts = self._log_in_reserve(
                "prepare_disk_full" if prepare else "commit_disk_full",
                None if park else kind,
                tag,
                op_count,
                xid or 0,
                merge=record,
            )
            if park:
                self._park_commit(tag, op_count, ts)
            self._pending_commit_arus.add(tag)
            if prepare:
                self._prepared_xids[tag] = xid
            self._charge("summary_entry_us")
            self.arus.finish(aru, committed=True)
            if prepare:
                self.obs.record("aru.prepare", aru=tag, xid=xid, ops=op_count)
            else:
                self.obs.record("aru.commit", aru=tag, ops=op_count, parked=park)
            self._h_commit_us.observe(self.clock.now_us - commit_start_us)
            if park and len(self._parked_commits) >= cfg.group_commit_max_parked:
                self._release_group()
            # Commits are the moment space pressure builds (shadow
            # data lands in the log) and the moment it becomes safe
            # to clean again — check here, not just on buffer rolls.
            self._clean_if_low()

    def abort_aru(self, aru: ARUId) -> None:
        """Discard an ARU's shadow state (extension; see interface)."""
        with self._lock:
            self._check_alive()
            self._charge("ld_call_us")
            self._ops["abort_aru"].inc()
            if not self.concurrent:
                raise ConcurrencyError(
                    "sequential-ARU mode cannot abort: operations were "
                    "applied to the committed state directly"
                )
            self.engine.discard(self.arus.finish(aru, committed=False))
            self.obs.record("aru.abort", aru=int(aru))

    # ==================================================================
    # Public interface: blocks
    # ==================================================================

    def new_block(
        self,
        list_id: ListId,
        predecessor: Predecessor = FIRST,
        aru: Optional[ARUId] = None,
        block_id: Optional[BlockId] = None,
    ) -> BlockId:
        """Allocate a block within ``list_id`` (see interface docs).

        ``block_id`` forces a specific identifier instead of taking
        the next counter value — the primitive replica placement and
        shard repair are built on.  A forced id in the ordinary range
        advances the allocation counter past it (an admitted block
        must never collide with a later allocation); a forced id in
        the system range (at or above
        :data:`~repro.ld.types.SYSTEM_ID_BASE`) leaves the counter —
        and therefore client-visible id assignment — untouched.
        """
        with self._lock:
            self._check_alive()
            self._charge("ld_call_us")
            self._ops["new_block"].inc()
            self._restore_list(list_id)
            if predecessor is not FIRST:
                self._restore_block(predecessor)
            engine = self.engine
            record, ctx, tag = engine.context(aru)
            list_view = engine.view(self.ltable, list_id, ctx)
            if list_view is None or not list_view.allocated:
                raise BadListError(int(list_id))
            if predecessor is not FIRST:
                pred_view = engine.view(self.bmap, predecessor, ctx)
                if (
                    pred_view is None
                    or not pred_view.allocated
                    or pred_view.list_id != list_id
                ):
                    raise BadBlockError(
                        int(predecessor), f"not a member of list {list_id}"
                    )
            if block_id is None:
                block_id = BlockId(self._next_block_id)
                self._next_block_id += 1
            else:
                block_id = BlockId(int(block_id))
                self._restore_block(block_id)
                existing = engine.view(self.bmap, block_id, ctx)
                if existing is not None and existing.allocated:
                    raise BadBlockError(
                        int(block_id), "forced id is already allocated"
                    )
                if int(block_id) < SYSTEM_ID_BASE:
                    self._next_block_id = max(
                        self._next_block_id, int(block_id) + 1
                    )
            self._charge("table_access_us")
            if ctx is not None:
                self._charge("aru_alloc_us")
            ts = self.clock.tick()
            # Allocation always happens in the merged stream and is
            # committed immediately, even inside an ARU (Section 3.3),
            # so concurrent ARUs can never be handed the same id.
            self._emit_entry(
                SummaryEntry(
                    EntryKind.ALLOC_BLOCK, 0, ts, int(block_id), int(list_id)
                )
            )
            self._charge("summary_entry_us")
            engine.allocate(self.bmap, block_id, ts)
            # The *insertion* into the list is part of the stream that
            # issued it: shadow state for concurrent ARUs, committed
            # state otherwise.
            op = ListOp(
                ListOpKind.INSERT,
                list_id,
                block_id,
                None if predecessor is FIRST else predecessor,
            )
            engine.execute(op, record, ctx, tag)
            return block_id

    def delete_block(self, block_id: BlockId, aru: Optional[ARUId] = None) -> None:
        """Remove a block from its list and deallocate it."""
        with self._lock:
            self._check_alive()
            self._charge("ld_call_us")
            self._ops["delete_block"].inc()
            self._restore_block(block_id)
            record, ctx, tag = self.engine.context(aru)
            view = self.engine.view(self.bmap, block_id, ctx)
            if view is None or not view.allocated:
                raise BadBlockError(int(block_id))
            op = ListOp(
                ListOpKind.DELETE_BLOCK,
                view.list_id if view.list_id is not None else ListId(0),
                block_id,
            )
            self._execute_delete(op, record, ctx, tag)

    def write(
        self, block_id: BlockId, data: bytes, aru: Optional[ARUId] = None
    ) -> None:
        """Write one block (shadow for ARUs, committed otherwise)."""
        if data.__class__ is not bytes:
            # The caller keeps its buffer: what is written is the bytes
            # it held at the call.
            data = memoryview(data).tobytes()
        with self._lock:
            if self._dead or self.disk.crashed:
                self._check_alive()
            self._charge("ld_call_us")
            self._ops["write"].inc()
            if self._restore is not None:
                self._restore_block(block_id)
            if len(data) > self.geometry.block_size:
                raise ValueError(
                    f"data ({len(data)} bytes) exceeds block size "
                    f"{self.geometry.block_size}"
                )
            engine = self.engine
            record, ctx, tag = engine.context(aru)
            view = engine.view(self.bmap, block_id, ctx)
            if view is None or not view.allocated:
                raise BadBlockError(int(block_id))
            if len(data) < self.geometry.block_size:
                data = data + b"\x00" * (self.geometry.block_size - len(data))
            if record is not None:
                record.op_count += 1
            if ctx is not None:
                engine.shadow_write(block_id, data, ctx)
            else:
                engine.commit_write(block_id, data, tag)

    def _resolve_read(
        self, block_id: BlockId, aru: Optional[ARUId]
    ) -> Tuple[Optional[bytes], Optional[PhysAddr]]:
        """Shared head of the read path: validate and pick a version.

        Returns ``(data, addr)``: ``data`` for in-memory hits (shadow
        or buffered versions), ``addr`` for data that lives on disk,
        ``(None, None)`` for allocated-but-never-written blocks
        (which read as zeros).  Charges the per-read CPU costs; a
        block with no alternative record walks (and charges) no hop.
        """
        if self._restore is not None:
            self._restore_block(block_id)
        charge = self._charge
        charge("ld_call_us")
        self._ops["read"].inc()
        if aru is not None:
            self.arus.get(aru)  # validates the ARU
        bmap = self.bmap
        head = bmap.alts.get(block_id)
        if head is None:
            version = bmap.persistent.get(block_id)
            if version is None:
                raise BadBlockError(int(block_id))
            if not version.allocated:
                raise BadBlockError(int(block_id), "deallocated")
            charge("block_read_us")
            if version.data is not None:
                return version.data, None
            return None, version.address
        candidates = read_versions(
            head, bmap.persistent.get(block_id), aru, self.visibility, self.meter
        )
        if not candidates:
            raise BadBlockError(int(block_id))
        if not candidates[0].allocated:
            raise BadBlockError(int(block_id), "deallocated")
        charge("block_read_us")
        for version in candidates:
            if not version.allocated:
                break
            if version.data is not None:
                return version.data, None
            # A shadow holds data only where its ARU wrote; one made
            # by a list operation copied an address it must not serve.
            if version.address is not None and version.state is not _SHADOW:
                return None, version.address
        return None, None

    def read(self, block_id: BlockId, aru: Optional[ARUId] = None) -> bytes:
        """Read one block under the configured visibility policy.

        On a media fault (or an address tombstoned into a quarantined
        segment) the read degrades: salvage a surviving copy via
        :meth:`_degraded_read`, or raise
        :class:`~repro.errors.UnrecoverableBlockError`.
        """
        with self._lock:
            if self._dead or self.disk.crashed:
                self._check_alive()
            data, addr = self._resolve_read(block_id, aru)
            if addr is None:
                # A version held in memory, or a block allocated but
                # never written: fresh blocks read as zeros.
                return b"\x00" * self.geometry.block_size if data is None else data
            data = self._read_resident(addr, block_id)
            if data is None:
                try:
                    data = self._read_stream.read(
                        addr, self.usage.total_slots(addr.segment)
                    )
                except MediaError:
                    data = self._degraded_read(addr, block_id)
            return data

    def read_many(
        self, block_ids: Sequence[BlockId], aru: Optional[ARUId] = None
    ) -> List[bytes]:
        """Read several blocks, batching the disk I/O.

        Semantically identical to calling :meth:`read` per block (same
        visibility, same errors, same per-block CPU charges), but all
        cache-missing physical addresses are fetched through one
        scatter-gather :meth:`~repro.disk.simdisk.SimulatedDisk.read_many`
        batch, so blocks that are adjacent on disk — the common case
        for sequentially written files and list walks — cost one seek
        plus one sequential transfer instead of a seek each.
        """
        if len(block_ids) == 1:
            # A singleton batch gains nothing from scatter-gather but
            # would never open the read stream's window; keep
            # block-at-a-time callers fast.
            return [self.read(block_ids[0], aru)]
        with self._lock:
            self._check_alive()
            zeros = b"\x00" * self.geometry.block_size
            results: List[Optional[bytes]] = [None] * len(block_ids)
            pending: Dict[PhysAddr, List[int]] = {}
            for index, block_id in enumerate(block_ids):
                data, addr = self._resolve_read(block_id, aru)
                if addr is not None:
                    data = self._read_resident(addr, block_id)
                    if data is None:
                        pending.setdefault(addr, []).append(index)
                        continue
                results[index] = zeros if data is None else data
            if pending:
                found = self._read_stream.read_many(pending)
                for addr, indexes in pending.items():
                    raw = found[addr]
                    if raw is None:
                        # Media fault mid-batch: salvage (or raise
                        # UnrecoverableBlockError) per block, exactly
                        # like the single-read path would.
                        raw = self._degraded_read(addr, block_ids[indexes[0]])
                    for index in indexes:
                        results[index] = raw
            return results  # type: ignore[return-value]

    # ==================================================================
    # Public interface: lists
    # ==================================================================

    def new_list(
        self,
        aru: Optional[ARUId] = None,
        list_id: Optional[ListId] = None,
    ) -> ListId:
        """Allocate a new empty list (committed immediately).

        ``list_id`` forces a specific identifier — see
        :meth:`new_block` for the forced-id contract (replica mirrors
        use the system range, shard repair re-admits ordinary ids).
        """
        with self._lock:
            self._check_alive()
            self._charge("ld_call_us")
            self._ops["new_list"].inc()
            self._restore_tick()
            record, ctx, _tag = self.engine.context(aru)
            if list_id is None:
                list_id = ListId(self._next_list_id)
                self._next_list_id += 1
            else:
                list_id = ListId(int(list_id))
                self._restore_list(list_id)
                existing = self.engine.view(self.ltable, list_id, ctx)
                if existing is not None and existing.allocated:
                    raise BadListError(
                        int(list_id), "forced id is already allocated"
                    )
                if int(list_id) < SYSTEM_ID_BASE:
                    self._next_list_id = max(
                        self._next_list_id, int(list_id) + 1
                    )
            self._charge("table_access_us")
            if ctx is not None:
                self._charge("aru_alloc_us")
            ts = self.clock.tick()
            self._emit_entry(
                SummaryEntry(EntryKind.NEW_LIST, 0, ts, int(list_id))
            )
            self._charge("summary_entry_us")
            self.engine.allocate(self.ltable, list_id, ts)
            if record is not None:
                record.op_count += 1
            return list_id

    def delete_list(self, list_id: ListId, aru: Optional[ARUId] = None) -> None:
        """Deallocate a list and its remaining members (head-first)."""
        with self._lock:
            self._check_alive()
            self._charge("ld_call_us")
            self._ops["delete_list"].inc()
            self._restore_list(list_id)
            record, ctx, tag = self.engine.context(aru)
            view = self.engine.view(self.ltable, list_id, ctx)
            if view is None or not view.allocated:
                raise BadListError(int(list_id))
            self._execute_delete(
                ListOp(ListOpKind.DELETE_LIST, list_id), record, ctx, tag
            )

    def _execute_delete(self, op: ListOp, record, ctx, tag: int) -> None:
        """Run a deletion.  It may dip into the segment reserve:
        deleting is how a full disk gets out of that state."""
        self._emergency = True
        try:
            self.engine.execute(op, record, ctx, tag)
        finally:
            self._emergency = False

    def list_blocks(
        self, list_id: ListId, aru: Optional[ARUId] = None
    ) -> List[BlockId]:
        """Enumerate a list under the visibility policy."""
        with self._lock:
            self._check_alive()
            self._charge("ld_call_us")
            self._ops["list_blocks"].inc()
            self._restore_list(list_id)
            engine = self.engine
            _record, ctx, _tag = engine.context(aru)
            shadow_aru = ctx.aru_id if ctx is not None else None
            view = engine.visible(self.ltable, list_id, shadow_aru)
            if view is None or not view.allocated:
                raise BadListError(int(list_id))
            blocks: List[BlockId] = []
            # No list holds more blocks than the map has entries.
            bound = len(self.bmap.persistent) + len(self.bmap.alts) + 1
            cursor = view.first
            while cursor is not None:
                blocks.append(cursor)
                block_view = engine.visible(self.bmap, cursor, shadow_aru)
                if block_view is None or not block_view.allocated:
                    raise BadBlockError(
                        int(cursor), f"list {list_id} references missing block"
                    )
                cursor = block_view.successor
                if len(blocks) > bound:
                    raise LDError(f"cycle detected in list {list_id}")
            return blocks

    # ==================================================================
    # Public interface: durability
    # ==================================================================

    def flush(self) -> None:
        """Durability barrier: park nothing, queue nothing.

        Releases any parked commit group, sends what the current
        segment buffer holds on its way (:meth:`_write_buffer`: the
        segment closed and written whole, or its new slots and one
        summary chunk written in place), then drains the write-behind
        queue — after which everything committed is persistent.  A
        buffer with nothing new and an empty queue is a no-op: no
        phantom segment is consumed, no empty chunk written.
        """
        with self._lock:
            self._check_alive()
            self._charge("ld_call_us")
            self._ops["flush"].inc()
            self._restore_tick()
            flush_start_us = self.clock.now_us
            self._release_group()
            self._h_flush_us.observe(self.clock.now_us - flush_start_us)

    def write_checkpoint(self) -> None:
        """Flush, then write a checkpoint bounding future recovery.

        Raises:
            ConcurrencyError: If the persistent tables cannot yet
                capture everything the log carries — an ARU is active
                in sequential mode, or committed records are still
                waiting for a commit record to reach the disk.  A
                checkpoint taken then could strand a later-committing
                ARU's pre-checkpoint entries.
        """
        with self._lock:
            self._check_alive()
            # A checkpoint roster must describe final table state; an
            # in-progress instant restore is finished first.
            self.complete_restore()
            self.flush()
            if not self.checkpoint_safe():
                raise ConcurrencyError(
                    "cannot checkpoint: unfolded committed state or an "
                    "active sequential-mode ARU still references the log"
                )
            self._write_checkpoint()

    def checkpoint_safe(self) -> bool:
        """True when the persistent tables fully capture the log
        history (so a checkpoint may supersede it)."""
        if self._restore is not None:
            # Pending log segments are not yet in the tables; callers
            # must complete_restore() first.
            return False
        if not self.concurrent and self.arus.active_count:
            return False
        return (
            len(self.committed_blocks) == 0
            and len(self.committed_lists) == 0
            and not self._pending_commit_arus
        )

    def sweep_orphan_blocks(self) -> List[BlockId]:
        """Free allocated blocks that belong to no list.

        Blocks allocated inside an ARU that never committed (or was
        aborted) stay allocated because allocation commits
        immediately; the paper prescribes a disk consistency check
        that frees them.  Requires no active ARUs.
        """
        with self._lock:
            self._check_alive()
            self.complete_restore()
            if self.arus.active_count:
                raise ConcurrencyError(
                    "cannot sweep orphans while ARUs are active"
                )
            members: Set[int] = set()
            for list_id in self.ltable.ids():
                view = self.engine.view(self.ltable, list_id, None)
                if view is None or not view.allocated:
                    continue
                cursor = view.first
                while cursor is not None:
                    members.add(int(cursor))
                    block_view = self.engine.view(self.bmap, cursor, None)
                    cursor = block_view.successor if block_view else None
            orphans: List[BlockId] = []
            for block_id in self.bmap.ids():
                view = self.engine.view(self.bmap, block_id, None)
                if view is None or not view.allocated:
                    continue
                if int(block_id) not in members and view.list_id is None:
                    orphans.append(block_id)
            for block_id in orphans:
                self.delete_block(block_id)
            return orphans

    def _run_cleaner(self) -> None:
        """Invoke the segment cleaner (lazy import avoids a cycle)."""
        from repro.lld.cleaner import SegmentCleaner

        # The cleaner reasons from live counts and full-CRC segment
        # bodies; both are only final once the restore has drained.
        self.complete_restore()
        self._cleaning = True
        pass_start_us = self.clock.now_us
        try:
            cleaner = SegmentCleaner(self, policy=self.config.cleaner_policy)
            report = cleaner.clean(target_free=self.clean_high_water)
            self._cleaner_counters["runs"].inc()
            counts = {
                "passes": report.passes,
                "segments_freed": report.segments_freed,
                "blocks_copied": report.blocks_copied,
                "damaged": len(report.damaged),
            }
            for name, count in counts.items():
                self._cleaner_counters[name].add(count)
            unread = report.segments_freed_unread
            self._cleaner_counters["segments_freed_unread"].add(unread)
            self.obs.record(
                "cleaner.pass",
                victims=len(report.victims),
                unread=unread,
                **counts,
            )
            self._h_cleaner_us.observe(self.clock.now_us - pass_start_us)
        finally:
            self._cleaning = False

    # ==================================================================
    # The read path: cache and read stream
    # ==================================================================

    def _read_resident(self, addr: PhysAddr, block_id: BlockId) -> Optional[bytes]:
        """The lookup chain every read at ``addr`` takes before the
        read stream: the open segment buffer, the cache, the
        write-behind queue, and salvage for a quarantined segment.
        ``None``: the block has to come off the platter."""
        buffer = self._buffer
        if buffer is not None and addr.segment == buffer.segment_no:
            self._charge("table_access_us")
            return buffer.get_slot(addr.slot)
        cached = self.cache.get(addr)
        if cached is not None:
            return cached
        queued = self._writeback.get_buffer(addr.segment)
        if queued is not None:
            # Sealed but not yet on disk: serve from the parked image
            # (the platter holds stale bytes underneath it).
            self._charge("table_access_us")
            return queued.get_slot(addr.slot)
        if self.usage.state(addr.segment) is SegmentState.QUARANTINED:
            # The platter may return garbage for a quarantined segment
            # (silent corruption); never read through the address.
            return self._degraded_read(addr, block_id)
        return None

    def _degraded_read(self, addr: PhysAddr, block_id: BlockId) -> bytes:
        """Media-fault fallback for a foreground read.

        Marks the segment for the next scrub pass, then tries to find
        a surviving copy of the block in older log segments (the cache
        and buffer were already consulted by the caller).  The salvage
        is cached under the failed address so repeated reads do not
        rescan the log.  Raises
        :class:`~repro.errors.UnrecoverableBlockError` when every copy
        is gone.
        """
        self._ops["degraded_reads"].inc()
        self._scrub_counters["degraded_reads"].inc()
        self.obs.record(
            "media.degraded_read",
            segment=addr.segment,
            slot=addr.slot,
            block=int(block_id),
        )
        if self.usage.state(addr.segment) is SegmentState.DIRTY:
            self._scrub_pending.add(addr.segment)
        from repro.lld.scrub import find_log_copy

        found = find_log_copy(self, block_id, exclude={addr.segment})
        if found is None:
            self._scrub_counters["unrecoverable_reads"].inc()
            raise UnrecoverableBlockError(int(block_id), addr.segment)
        data, _seq = found
        self._scrub_counters["salvaged_reads"].inc()
        self.obs.record(
            "scrub.salvage", block=int(block_id), segment=addr.segment
        )
        self.cache.put(addr, data)
        return data

    def scrub(self, segments: Optional[Sequence[int]] = None):
        """Run a scrub pass: validate, salvage, quarantine.

        ``segments`` limits the pass (e.g. ``lld._scrub_pending``
        after a degraded read); by default the whole log is swept.
        Returns a :class:`~repro.lld.scrub.ScrubReport`.
        """
        from repro.lld.scrub import Scrubber

        with self._lock:
            self._check_alive()
            # Scrub salvage decisions compare against final addresses;
            # drain any in-progress instant restore first.
            self.complete_restore()
            self._charge("ld_call_us")
            self._ops["scrub"].inc()
            report = Scrubber(self).scrub(segments)
            counters = self._scrub_counters
            counters["scrubs"].inc()
            counters["segments_quarantined"].add(report.segments_quarantined)
            counters["blocks_salvaged"].add(report.blocks_salvaged)
            counters["blocks_salvaged_stale"].add(report.blocks_salvaged_stale)
            counters["blocks_lost"].add(report.blocks_lost)
            for segment, kind in sorted(report.damaged.items()):
                self.obs.record("scrub.quarantine", segment=segment, kind=kind)
            self.obs.record(
                "scrub.pass",
                checked=report.segments_checked,
                quarantined=report.segments_quarantined,
                salvaged=report.blocks_salvaged,
                lost=report.blocks_lost,
            )
            return report

    def clean(self) -> None:
        """Run one segment-cleaner pass on demand.

        The cleaner normally fires from commit/seal space-pressure
        checks; this public entry point lets maintenance drivers run
        it *during* live traffic (the interference benchmarks), under
        the same lock and live-volume checks as every other client
        call.  A no-op while a triggered pass is already running.
        """
        with self._lock:
            self._check_alive()
            self._charge("ld_call_us")
            self._ops["clean"].inc()
            if not self._cleaning:
                self._run_cleaner()

    # ==================================================================
    # Checkpointing and bookkeeping
    # ==================================================================

    def _snapshot_checkpoint(self) -> CheckpointData:
        """The persistent state as a checkpoint (call only after a
        flush): the rows of the records that changed since the last
        one are repacked, the others are reused; the repacked rows
        since the last checkpoint written are its ``changes``."""
        block_rows = self._block_rows.section()
        list_rows = self._list_rows.section()
        blocks = self._block_rows.changes()
        lists = self._list_rows.changes()
        return CheckpointData(
            ckpt_seq=self._ckpt_seq,
            last_log_seq=self._last_written_seq,
            next_block_id=self._next_block_id,
            next_list_id=self._next_list_id,
            next_aru_id=self.arus.next_id,
            block_rows=block_rows,
            list_rows=list_rows,
            segments=self.usage.snapshot(),
            decided_xids=sorted(self._decided_xids),
            changes=(
                None
                if blocks is None or lists is None
                else RowChanges(*blocks, *lists)
            ),
        )

    def _write_checkpoint(self) -> None:
        """Write the next checkpoint from the current tables — the one
        place a checkpoint is issued (``write_checkpoint``, the cleaner
        and the scrubber).  Callers have flushed and hold
        ``checkpoint_safe()``.

        A checkpoint leaves no segment open.  One partly on disk stops
        growing: the roster attests whole segments and recovery
        classifies a segment by its first chunk, so a segment must lie
        wholly on one side of a checkpoint.  (Nothing is written for
        that; the next append opens a fresh segment.)"""
        buffer = self._buffer
        if buffer is not None and buffer.is_empty:
            # Back to the pool, sequence number included.  Recovery
            # walks the segments the roster does not list lowest first;
            # a buffer the cleaner opened before it freed lower-numbered
            # victims would be written out of that order, and a flushed
            # write lost (docs/RECOVERY.md has the counter-example).
            assert self._next_seq == buffer.seq + 1
            self._buffer = None
            self._next_seq = buffer.seq
            self.usage.free_segment(buffer.segment_no)
        elif buffer is not None and buffer.in_place:
            self._close_buffer()
        self._ckpt_seq += 1
        try:
            payload, written = self.checkpoints.write(self._snapshot_checkpoint())
        except DiskCrashedError:
            self._mark_dead("disk_crashed_mid_checkpoint")
            raise
        self._block_rows.written()
        self._list_rows.written()
        kind = self.checkpoints.last_kind
        counters = self._ckpt_counters
        counters["writes"].inc()
        counters[f"{kind}s"].inc()
        counters["payload_bytes"].add(payload)
        counters["bytes_written"].add(written)
        self.obs.record(
            "checkpoint", ckpt_seq=self._ckpt_seq, kind=kind, bytes=written
        )

    def _check_alive(self) -> None:
        if self._dead or self.disk.crashed:
            self._mark_dead("disk_crashed")
            raise DiskCrashedError("logical disk lost its backing store")

    def _mark_dead(self, reason: str) -> None:
        """Fail the instance, once: record the terminal event and dump
        the flight-recorder ring (if a dump path is configured)."""
        if self._dead:
            return
        self._dead = True
        self.obs.record("lld.dead", reason=reason)
        self.obs.crash_dump(reason)

    # ------------------------------------------------------------------
    # Historical counter attributes, as read-only registry views
    # ------------------------------------------------------------------

    @property
    def op_counts(self) -> Dict[str, int]:
        """Per-operation call counts (``lld.ops.*`` in the registry)."""
        return self.obs.metrics.group_values("lld.ops.")

    @property
    def segments_flushed(self) -> int:
        return self._c_segments_flushed.value

    @property
    def writeback_queued(self) -> int:
        """Sealed segments parked in the write-behind queue right now.

        Cheap O(1) view for admission control (the front end polls it
        on every submit; building the full ``stats()`` dict there
        would dwarf the work being admitted).
        """
        return len(self._writeback)

    @property
    def commits_parked(self) -> int:
        """ARU commit records parked by group commit right now."""
        return len(self._parked_commits)

    @property
    def cleanings(self) -> int:
        return self._cleaner_counters["runs"].value

    def stats(self) -> dict:
        """Operation, CPU, disk and cache statistics for the harness.

        A thin, schema-stable view over the metrics registry: every
        key is declared in :data:`repro.obs.schema.STATS_SCHEMA`, and
        ``tests/test_stats_schema.py`` freezes the shape.
        """
        recorder = self.obs.recorder
        return {
            "ops": self.op_counts,
            "cpu_us": self.meter.charged_us,
            "cpu_counts": self.meter.counters,
            "segments_flushed": self.segments_flushed,
            "cleanings": self.cleanings,
            "active_arus": self.arus.active_count,
            "arus_begun": self.arus.total_begun,
            "arus_committed": self.arus.total_committed,
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "free_segments": self.usage.free_count,
            "read_stream": self._read_stream.stats(),
            "cleaner": {
                name: counter.value
                for name, counter in self._cleaner_counters.items()
            },
            "checkpoint": {
                **{
                    name: counter.value
                    for name, counter in self._ckpt_counters.items()
                },
                "last_seq": self._ckpt_seq,
            },
            "scrub": {
                **{
                    name: counter.value
                    for name, counter in self._scrub_counters.items()
                },
                "pending_segments": len(self._scrub_pending),
                "quarantined_segments": len(
                    self.usage.quarantined_segments()
                ),
            },
            "writeback": self._writeback.stats(),
            "group_commit": {
                "enabled": self.config.group_commit,
                "parked": len(self._parked_commits),
                "groups_flushed": self._c_commit_groups_flushed.value,
                "commits_grouped": self._c_commits_grouped.value,
            },
            "segments": self._segment_fill_stats(),
            "recovery": self._restore_stats(),
            "disk": self.disk.stats(),
            "obs": {
                "metrics_enabled": self.obs.metrics.enabled,
                "events_recorded": recorder.recorded,
                "events_dropped": recorder.dropped,
                "events_capacity": recorder.capacity,
            },
        }

    def _restore_stats(self) -> dict:
        """How the recovery that built this volume read the disk
        (blank and zeros on a formatted one) and instant-restore
        progress (all zeros/False after eager recovery or once a
        restore has completed)."""
        m = self.obs.metrics
        controller = self._restore
        report = self._recovery_report
        return {
            "scan_plan": report.scan_plan if report else "",
            "scan_fallback": report.scan_fallback if report else "",
            "segments_scanned": report.segments_scanned if report else 0,
            "segments_attested": report.segments_attested if report else 0,
            "segments_invalid": report.segments_invalid if report else 0,
            "restoring": controller is not None,
            "watermark": controller.watermark if controller else 0,
            "pending_segments": (
                controller.pending_count if controller else 0
            ),
            "on_demand_replays": m.counter(
                "lld.recovery.on_demand_replays"
            ).value,
            "instant_restores": m.counter(
                "lld.recovery.instant_restores"
            ).value,
        }
