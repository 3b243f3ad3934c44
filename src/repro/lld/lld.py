"""The log-structured logical disk with atomic recovery units.

This module implements the complete LD interface over the simulated
disk.  It supports two modes:

* ``aru_mode="concurrent"`` — the paper's **new** prototype.  ARU
  operations execute in per-ARU shadow states built from alternative
  block/list records; list operations additionally go through the
  per-ARU list-operation log and are re-executed against the
  committed state at commit, where the segment-summary link records
  are generated, followed by the ARU's commit record.
* ``aru_mode="sequential"`` — the paper's **old** baseline.  Only one
  ARU may be active at a time; its operations apply directly to the
  committed state (tagged with the ARU identifier in the summaries,
  with a commit record at the end, which is what gives the old
  prototype failure atomicity for its sequential ARUs).  No shadow
  records, no list-operation log, no re-execution.

Version lifecycle (Section 3.1): shadow versions live purely in
memory; at ``EndARU`` they transition to committed versions, whose
data sits in the current in-memory segment buffer (or in already
written segments while their commit record is still in the buffer);
when the segment carrying a committed version's entries reaches the
disk *and* its ARU's commit record is on disk, the committed version
folds into the persistent state — the block-number-map and
list-table.

Durability ordering: within the stream, an ARU's data and link
records are always appended before its commit record, so a flushed
commit record implies all of the ARU's effects are on disk, and
recovery (:mod:`repro.lld.recovery`) discards any tagged entries
whose commit record never made it.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.aru import ARURecord, ARUTable
from repro.core.oplog import ListOp, ListOpKind
from repro.core.records import BlockVersion, ChainRoot, ListVersion, StateChain
from repro.core.versions import VersionState
from repro.core.visibility import Visibility, read_versions
from repro.disk.clock import CostMeter, CostModel
from repro.disk.simdisk import SimulatedDisk
from repro.errors import (
    BadBlockError,
    BadListError,
    ConcurrencyError,
    DiskCrashedError,
    DiskFullError,
    LDError,
    MediaError,
    SegmentOverflowError,
    UnrecoverableBlockError,
)
from repro.ld.interface import LogicalDisk
from repro.ld.types import (
    ARU_NONE,
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
    FLAG_HAS_ADDR,
    CheckpointData,
    CheckpointManager,
    default_slot_segments,
)
from repro.lld.maps import BlockNumberMap, ListTable
from repro.lld.segment import SegmentBuffer
from repro.lld.summary import EntryKind, SummaryEntry, entry_size
from repro.lld.usage import SegmentState, SegmentUsage
from repro.lld.writeback import WritebackQueue
from repro.obs import Observability

_WRITE_ENTRY_SIZE = entry_size(EntryKind.WRITE)


class LLD(LogicalDisk):
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
        self.config = cfg
        self.disk = disk
        self.geometry = disk.geometry
        self.clock = disk.clock
        self.meter = CostMeter(self.clock, cost_model or CostModel())
        # Observability comes up before any collaborator (write-behind
        # queue, disk instruments) so they can register against it.
        # Instruments never touch the simulated clock, so metrics
        # on/off cannot change any simulated result.
        self.obs = Observability(
            metrics=cfg.metrics,
            recorder_events=cfg.recorder_events,
            dump_path=cfg.flight_dump_path,
        )
        self.obs.bind_clock(self.clock)
        attach = getattr(disk, "attach_observability", None)
        if attach is not None:
            attach(self.obs)
        self.concurrent = cfg.aru_mode == "concurrent"
        self.visibility = cfg.visibility
        self.conflict_policy = cfg.conflict_policy
        if self.geometry.usable_size < self.geometry.block_size + 64:
            raise ValueError("segments too small to hold a block plus summary")

        slot_segs = (
            cfg.checkpoint_slot_segments
            if cfg.checkpoint_slot_segments is not None
            else default_slot_segments(self.geometry)
        )
        self.checkpoints = CheckpointManager(disk, slot_segs)
        reserved = self.checkpoints.reserved_segments
        if reserved >= self.geometry.num_segments - max(2, cfg.clean_low_water):
            raise ValueError(
                "checkpoint reservation leaves too few log segments; "
                "use a larger partition or fewer checkpoint segments"
            )

        self.bmap = BlockNumberMap()
        self.ltable = ListTable()
        self.arus = ARUTable(concurrent=self.concurrent)
        self.committed_blocks = StateChain()
        self.committed_lists = StateChain()
        self.usage = SegmentUsage(self.geometry.num_segments, reserved=reserved)
        self.cache = BlockCache(cfg.cache_blocks)
        self._read_stream = ReadStream(
            self.disk, self.cache, readahead=cfg.readahead
        )
        self.clean_low_water = cfg.clean_low_water
        self.clean_high_water = max(
            cfg.clean_high_water, cfg.clean_low_water + 1
        )
        self.cleaner_policy = cfg.cleaner_policy

        self._next_block_id = 1
        self._next_list_id = 1
        self._next_seq = 1
        self._last_written_seq = 0
        self._ckpt_seq = 0
        self._commit_on_disk: Set[int] = set()
        self._pending_commit_arus: Set[int] = set()
        #: ARU tag -> coordinator transaction id for ARUs that emitted
        #: a PREPARE record and are awaiting the coordinator decision
        #: (cross-volume commits; see :meth:`prepare_commit`).
        self._prepared_xids: Dict[int, int] = {}
        #: Coordinator transaction ids this volume has decided
        #: committed (shard 0 of a sharded volume; empty elsewhere).
        #: Persisted in checkpoints so cleaning the segment that holds
        #: a DECIDE record never loses the decision.
        self._decided_xids: Set[int] = set()
        self._dead = False
        self._cleaning = False
        self._emergency = False
        #: Segments ordinary allocations may never consume: kept for
        #: the cleaner and for deletions, so a full disk stays
        #: recoverable instead of wedged.
        self.segment_reserve = min(
            2, max(0, self.geometry.num_segments - reserved - 2)
        )
        # Cleaning must fire while ordinary allocations still have
        # headroom above the reserve, or the disk wedges at the
        # boundary.
        self.clean_low_water = max(self.clean_low_water, self.segment_reserve + 1)
        self.clean_high_water = max(self.clean_high_water, self.clean_low_water + 1)
        self._lock = threading.RLock()
        self._buffer: Optional[SegmentBuffer] = None
        self._writeback = WritebackQueue(self, cfg.writeback_depth)
        self.group_commit = bool(cfg.group_commit)
        self.group_commit_max_parked = cfg.group_commit_max_parked
        self.group_commit_timeout_us = float(cfg.group_commit_timeout_us)
        #: Commit records parked by ``end_aru`` under group commit:
        #: (aru tag, op count, commit timestamp) in commit order.
        self._parked_commits: List[Tuple[int, int, int]] = []
        #: Simulated deadline by which the oldest parked commit must
        #: be released (None while nothing is parked).
        self._parked_deadline_us: Optional[float] = None
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
        # `segments_flushed`, `scrub_stats`, …) are read-only
        # properties over these counters.
        m = self.obs.metrics
        self._op_counters: Dict[str, object] = {}
        self._c_segments_flushed = m.counter("lld.segments.flushed")
        self._c_in_place_writes = m.counter("lld.segments.in_place_writes")
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
            for name in ("writes", "payload_bytes", "bytes_written")
        }
        self._c_commit_groups_flushed = m.counter(
            "lld.group_commit.groups_flushed"
        )
        self._c_commits_grouped = m.counter("lld.group_commit.commits_grouped")
        #: Fill accounting over every segment that stopped growing:
        #: data and summary bytes actually used, and the min/total
        #: fill ratio, so partial-segment waste from eager flushes is
        #: visible.
        self._c_fill_sealed = m.counter("lld.segments.sealed")
        self._c_fill_data_bytes = m.counter("lld.segments.data_bytes")
        self._c_fill_summary_bytes = m.counter("lld.segments.summary_bytes")
        self._c_fill_ratio_total = m.counter("lld.segments.fill_ratio_total")
        self._g_fill_min = m.gauge("lld.segments.min_fill", initial=None)
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
            self.meter.charge("ld_call_us")
            self.meter.charge("aru_begin_us")
            self._maybe_release_parked()
            self._count("begin_aru")
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
        with self._lock:
            self._check_alive()
            self.meter.charge("ld_call_us")
            self.meter.charge("aru_commit_us")
            self._maybe_release_parked()
            self._count("end_aru")
            commit_start_us = self.clock.now_us
            record = self.arus.get(aru)
            # Commits may dip into the segment reserve: an interrupted
            # merge cannot be unwound, so completion beats headroom.
            self._emergency = True
            try:
                if self.concurrent:
                    self._commit_concurrent(record)
                op_count = record.op_count
                ts = self.clock.tick()
                if self.group_commit:
                    self._park_commit(int(aru), op_count, ts)
                else:
                    self._emit_entry(
                        SummaryEntry(EntryKind.COMMIT, int(aru), ts, op_count)
                    )
            except DiskFullError:
                # A half-merged commit cannot be unwound in memory;
                # fail the instance (recovery from disk restores the
                # consistent pre-commit state, since no commit record
                # was written).
                self._mark_dead("commit_disk_full")
                raise
            finally:
                self._emergency = False
            self._pending_commit_arus.add(int(aru))
            self.meter.charge("summary_entry_us")
            self.arus.finish(aru, committed=True)
            self.obs.record(
                "aru.commit",
                aru=int(aru),
                ops=op_count,
                parked=self.group_commit,
            )
            self._h_commit_us.observe(self.clock.now_us - commit_start_us)
            if (
                self.group_commit
                and len(self._parked_commits) >= self.group_commit_max_parked
            ):
                self._release_group(drain=True)
            # Commits are the moment space pressure builds (shadow
            # data lands in the log) and the moment it becomes safe
            # to clean again — check here, not just on buffer rolls.
            if (
                not self._cleaning
                and self.usage.free_count <= self.clean_low_water
            ):
                self._run_cleaner()

    def abort_aru(self, aru: ARUId) -> None:
        """Discard an ARU's shadow state (extension; see interface)."""
        with self._lock:
            self._check_alive()
            self.meter.charge("ld_call_us")
            self._count("abort_aru")
            if not self.concurrent:
                raise ConcurrencyError(
                    "sequential-ARU mode cannot abort: operations were "
                    "applied to the committed state directly"
                )
            record = self.arus.finish(aru, committed=False)
            for shadow in record.shadow_blocks.drain():
                self.bmap.root(shadow.block_id).remove_alt(shadow)
                self.bmap.drop_if_empty(shadow.block_id)
                self.meter.charge("record_transition_us")
            for shadow in record.shadow_lists.drain():
                self.ltable.root(shadow.list_id).remove_alt(shadow)
                self.ltable.drop_if_empty(shadow.list_id)
                self.meter.charge("record_transition_us")
            record.oplog.clear()
            self.obs.record("aru.abort", aru=int(aru))

    # ==================================================================
    # Cross-volume commit hooks (sharded volumes; repro.shard)
    # ==================================================================

    def prepare_commit(self, aru: ARUId, xid: int) -> None:
        """First phase of a cross-volume commit: park the ARU prepared.

        Like :meth:`end_aru`, the ARU's shadow state merges into the
        committed stream and the ARU is finished — but a PREPARE
        record carrying the coordinator transaction id ``xid`` is
        emitted instead of a COMMIT record.  The ARU's effects become
        persistent only once a DECIDE record for ``xid`` is durable on
        the coordinator volume *and* :meth:`finish_prepared` releases
        the parked state; recovery discards a prepared ARU whose xid
        was never decided.  Callers must flush this volume before
        logging the decision, so a durable DECIDE implies every
        participant's PREPARE (and data) is durable.
        """
        with self._lock:
            self._check_alive()
            self.meter.charge("ld_call_us")
            self.meter.charge("aru_commit_us")
            self._maybe_release_parked()
            self._count("prepare_commit")
            commit_start_us = self.clock.now_us
            record = self.arus.get(aru)
            # Same reserve rule as end_aru: an interrupted merge
            # cannot be unwound, so completion beats headroom.
            self._emergency = True
            try:
                if self.concurrent:
                    self._commit_concurrent(record)
                op_count = record.op_count
                ts = self.clock.tick()
                # Never parked under group commit: the caller's flush
                # must make this record durable before the decision.
                self._emit_entry(
                    SummaryEntry(
                        EntryKind.PREPARE, int(aru), ts, op_count, int(xid)
                    )
                )
            except DiskFullError:
                self._mark_dead("prepare_disk_full")
                raise
            finally:
                self._emergency = False
            self._pending_commit_arus.add(int(aru))
            self._prepared_xids[int(aru)] = int(xid)
            self.meter.charge("summary_entry_us")
            self.arus.finish(aru, committed=True)
            self.obs.record(
                "aru.prepare", aru=int(aru), xid=int(xid), ops=op_count
            )
            self._h_commit_us.observe(self.clock.now_us - commit_start_us)
            if (
                not self._cleaning
                and self.usage.free_count <= self.clean_low_water
            ):
                self._run_cleaner()

    def log_decision(self, xid: int) -> None:
        """Coordinator hook: append a DECIDE record for ``xid``.

        Called on shard 0 after every participant's PREPARE is
        durable; the caller flushes afterwards, and that flush is the
        commit point of the whole cross-volume ARU.  The decision is
        also remembered in memory (and rides in checkpoints) so the
        cleaner superseding the segment that holds the record never
        loses it while a participant might still need it.
        """
        with self._lock:
            self._check_alive()
            self.meter.charge("ld_call_us")
            self._count("log_decision")
            self._emergency = True
            try:
                self._emit_entry(
                    SummaryEntry(
                        EntryKind.DECIDE, 0, self.clock.tick(), int(xid)
                    )
                )
            except DiskFullError:
                self._mark_dead("decide_disk_full")
                raise
            finally:
                self._emergency = False
            self._decided_xids.add(int(xid))
            self.meter.charge("summary_entry_us")
            self.obs.record("aru.decide", xid=int(xid))

    def finish_prepared(self, aru_tag: int) -> None:
        """Second phase: release a prepared ARU as committed.

        Called once the coordinator's DECIDE record for the ARU's xid
        is durable (so by the durability ordering the PREPARE and all
        the ARU's effects are too).  The tag joins
        ``_commit_on_disk`` — exactly what recovery computes when it
        rolls a decided PREPARE forward — and folding proceeds.
        """
        with self._lock:
            self._check_alive()
            self.meter.charge("ld_call_us")
            self._count("finish_prepared")
            tag = int(aru_tag)
            self._prepared_xids.pop(tag, None)
            self._commit_on_disk.add(tag)
            self._pending_commit_arus.discard(tag)
            self._fold_committed()
            # The release is when checkpointing becomes safe again
            # (no pending commits), so space reclaimed here — unlike
            # during prepare_commit — can actually be freed.
            if (
                not self._cleaning
                and self.usage.free_count <= self.clean_low_water
            ):
                self._run_cleaner()

    def clear_decisions(self) -> None:
        """Forget the coordinator's decided transaction ids.

        Only safe when every participant volume has a durable
        checkpoint covering all of its PREPARE records — i.e. from
        :meth:`repro.shard.ShardedLLD.write_checkpoint`, after the
        other shards checkpointed and before this volume does.  The
        shrunken set becomes durable with this volume's next
        checkpoint; until then the old checkpoint's superset remains,
        which is always safe (stale decisions are never harmful).
        """
        with self._lock:
            self._decided_xids.clear()

    def _commit_concurrent(self, record: ARURecord) -> None:
        """Merge an ARU's shadow state into the committed stream."""
        aru = record.aru_id
        # 1. Transition data-bearing shadow block records.  Blocks the
        #    ARU deleted or only re-linked are reconstructed by the
        #    list-operation log replay below.
        for shadow in record.shadow_blocks.drain():
            self.bmap.root(shadow.block_id).remove_alt(shadow)
            self.meter.charge("record_transition_us")
            if not shadow.allocated or shadow.data is None:
                continue
            view = self._view_block(shadow.block_id, None)
            if view is None or not view.allocated:
                self._conflict(
                    f"block {shadow.block_id} disappeared before ARU "
                    f"{aru} committed"
                )
                continue
            self._commit_block_data(shadow.block_id, shadow.data, int(aru))
        # 2. Shadow list records carry no information the log replay
        #    does not regenerate; discard them.
        for shadow in record.shadow_lists.drain():
            self.ltable.root(shadow.list_id).remove_alt(shadow)
            self.ltable.drop_if_empty(shadow.list_id)
            self.meter.charge("record_transition_us")
        # 3. Re-execute the list-operation log in the committed state,
        #    generating the summary link records (Section 4).
        for op in record.oplog:
            self.meter.charge("listop_replay_us")
            try:
                self._apply_list_op(op, None, int(aru))
            except LDError as exc:
                self._conflict(f"replaying {op} for ARU {aru}: {exc}")
        record.oplog.clear()

    def _conflict(self, message: str) -> None:
        if self.conflict_policy == "raise":
            raise ConcurrencyError(message)
        self._count("replay_conflicts_skipped")

    # ==================================================================
    # Group commit: parking and releasing commit records
    # ==================================================================

    def _park_commit(self, aru_tag: int, op_count: int, ts: int) -> None:
        """Hold an ARU's commit record for the current group."""
        if not self._parked_commits:
            self._parked_deadline_us = (
                self.clock.now_us + self.group_commit_timeout_us
            )
        self._parked_commits.append((aru_tag, op_count, ts))

    def _maybe_release_parked(self) -> None:
        """Release the parked group if its timer budget expired."""
        if (
            self._parked_deadline_us is not None
            and self.clock.now_us >= self._parked_deadline_us
        ):
            self._release_group(drain=True)

    def _release_parked(self) -> None:
        """Emit every parked commit record into the log stream.

        The records land *after* all of their ARUs' data and link
        entries (those were appended at ``end_aru`` time), so log
        order still implies commit-after-data.  Does not by itself
        make anything durable — callers that need durability follow
        with a drain (see :meth:`_release_group` / :meth:`flush`).
        """
        if not self._parked_commits:
            return
        parked, self._parked_commits = self._parked_commits, []
        self._parked_deadline_us = None
        self._c_commit_groups_flushed.inc()
        self._c_commits_grouped.add(len(parked))
        self.obs.record("group_commit.release", commits=len(parked))
        self._emergency = True
        try:
            # (summary_entry_us was already charged at end_aru time;
            # emitting here is the deferred half of the same work.)
            for aru_tag, op_count, ts in parked:
                self._emit_entry(
                    SummaryEntry(EntryKind.COMMIT, aru_tag, ts, op_count)
                )
        except DiskFullError:
            # Parked ARUs are already committed in memory; losing the
            # ability to write their commit records cannot be unwound.
            self._mark_dead("group_commit_disk_full")
            raise
        finally:
            self._emergency = False

    def _release_group(self, drain: bool) -> None:
        """Close the current commit group and make it durable.

        One segment write (plus a queue drain) now covers every
        parked ARU — this is the N-commits-one-write payoff.
        """
        self._release_parked()
        if drain:
            self._write_buffer()
            self._writeback.drain()

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
            self.meter.charge("ld_call_us")
            self._count("new_block")
            self._restore_list(list_id)
            if predecessor is not FIRST:
                self._restore_block(predecessor)
            record = self._aru_record(aru)
            shadow_ctx = record if self.concurrent else None
            list_view = self._view_list(list_id, shadow_ctx)
            if list_view is None or not list_view.allocated:
                raise BadListError(int(list_id))
            if predecessor is not FIRST:
                pred_view = self._view_block(predecessor, shadow_ctx)
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
                existing = self._view_block(block_id, shadow_ctx)
                if existing is not None and existing.allocated:
                    raise BadBlockError(
                        int(block_id), "forced id is already allocated"
                    )
                if int(block_id) < SYSTEM_ID_BASE:
                    self._next_block_id = max(
                        self._next_block_id, int(block_id) + 1
                    )
            self.meter.charge("table_access_us")
            if self.concurrent and aru is not None:
                self.meter.charge("aru_alloc_us")
            ts = self.clock.tick()
            # Allocation always happens in the merged stream and is
            # committed immediately, even inside an ARU (Section 3.3),
            # so concurrent ARUs can never be handed the same id.
            self._emit_entry(
                SummaryEntry(
                    EntryKind.ALLOC_BLOCK, 0, ts, int(block_id), int(list_id)
                )
            )
            self.meter.charge("summary_entry_us")
            alloc = self._block_for_update(block_id, None)
            alloc.allocated = True
            alloc.timestamp = ts
            alloc.origin_aru = ARU_NONE
            alloc.pending_segment = self._buffer.seq
            # The *insertion* into the list is part of the stream that
            # issued it: shadow state for concurrent ARUs, committed
            # state otherwise.
            op = ListOp(
                ListOpKind.INSERT,
                list_id,
                block_id,
                None if predecessor is FIRST else predecessor,
            )
            if record is not None:
                record.op_count += 1
            if shadow_ctx is not None:
                self._apply_list_op(op, shadow_ctx, 0)
                shadow_ctx.oplog.append(op, self.meter)
            else:
                self._apply_list_op(op, None, int(aru) if aru else 0)
            return block_id

    def delete_block(self, block_id: BlockId, aru: Optional[ARUId] = None) -> None:
        """Remove a block from its list and deallocate it."""
        with self._lock:
            self._check_alive()
            self.meter.charge("ld_call_us")
            self._count("delete_block")
            self._restore_block(block_id)
            record = self._aru_record(aru)
            shadow_ctx = record if self.concurrent else None
            view = self._view_block(block_id, shadow_ctx)
            if view is None or not view.allocated:
                raise BadBlockError(int(block_id))
            op = ListOp(
                ListOpKind.DELETE_BLOCK,
                view.list_id if view.list_id is not None else ListId(0),
                block_id,
            )
            if record is not None:
                record.op_count += 1
            if shadow_ctx is not None:
                self._apply_list_op(op, shadow_ctx, 0)
                shadow_ctx.oplog.append(op, self.meter)
            else:
                self._emergency = True
                try:
                    self._apply_list_op(op, None, int(aru) if aru else 0)
                finally:
                    self._emergency = False

    def write(
        self, block_id: BlockId, data: bytes, aru: Optional[ARUId] = None
    ) -> None:
        """Write one block (shadow for ARUs, committed otherwise)."""
        with self._lock:
            self._check_alive()
            self.meter.charge("ld_call_us")
            self._count("write")
            self._restore_block(block_id)
            if len(data) > self.geometry.block_size:
                raise ValueError(
                    f"data ({len(data)} bytes) exceeds block size "
                    f"{self.geometry.block_size}"
                )
            record = self._aru_record(aru)
            shadow_ctx = record if self.concurrent else None
            view = self._view_block(block_id, shadow_ctx)
            if view is None or not view.allocated:
                raise BadBlockError(int(block_id))
            if len(data) < self.geometry.block_size:
                data = data + b"\x00" * (self.geometry.block_size - len(data))
            if record is not None:
                record.op_count += 1
            if shadow_ctx is not None:
                shadow = self._block_for_update(block_id, shadow_ctx)
                shadow.data = data
                shadow.timestamp = self.clock.tick()
                self.meter.charge("block_copy_us")
            else:
                self._commit_block_data(
                    block_id, data, int(aru) if aru else 0
                )

    def _resolve_read(
        self, block_id: BlockId, aru: Optional[ARUId]
    ) -> Tuple[Optional[bytes], Optional[PhysAddr]]:
        """Shared head of the read path: validate and pick a version.

        Returns ``(data, addr)``: ``data`` for in-memory hits (shadow
        or buffered versions), ``addr`` for data that lives on disk,
        ``(None, None)`` for allocated-but-never-written blocks
        (which read as zeros).  Charges the per-read CPU costs.
        """
        self.meter.charge("ld_call_us")
        self._count("read")
        self._aru_record(aru)  # validates the ARU if given
        root = self.bmap.root(block_id)
        if root is None:
            raise BadBlockError(int(block_id))
        candidates = read_versions(root, aru, self.visibility, self.meter)
        if not candidates:
            raise BadBlockError(int(block_id))
        if not candidates[0].allocated:
            raise BadBlockError(int(block_id), "deallocated")
        self.meter.charge("block_read_us")
        for version in candidates:
            if not version.allocated:
                break
            if version.data is not None:
                return version.data, None
            if version.address is not None:
                return None, version.address
        return None, None

    def read(self, block_id: BlockId, aru: Optional[ARUId] = None) -> bytes:
        """Read one block under the configured visibility policy."""
        with self._lock:
            self._check_alive()
            self._restore_block(block_id)
            data, addr = self._resolve_read(block_id, aru)
            if data is not None:
                return data
            if addr is not None:
                return self._read_at(addr, block_id)
            # Allocated but never written: fresh blocks read as zeros.
            return b"\x00" * self.geometry.block_size

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
            block_size = self.geometry.block_size
            results: List[Optional[bytes]] = [None] * len(block_ids)
            pending: Dict[PhysAddr, List[int]] = {}
            for index, block_id in enumerate(block_ids):
                self._restore_block(block_id)
                data, addr = self._resolve_read(block_id, aru)
                if data is not None:
                    results[index] = data
                    continue
                if addr is None:
                    results[index] = b"\x00" * block_size
                    continue
                if (
                    self._buffer is not None
                    and addr.segment == self._buffer.segment_no
                ):
                    self.meter.charge("table_access_us")
                    results[index] = self._buffer.get_slot(addr.slot)
                    continue
                cached = self.cache.get(addr)
                if cached is not None:
                    results[index] = cached
                    continue
                queued = self._writeback.get_buffer(addr.segment)
                if queued is not None:
                    # Sealed but not yet on disk: serve from the
                    # parked image rather than the stale platter.
                    self.meter.charge("table_access_us")
                    results[index] = queued.get_slot(addr.slot)
                    continue
                if self.usage.state(addr.segment) is SegmentState.QUARANTINED:
                    # Never trust quarantined media; salvage or raise.
                    results[index] = self._degraded_read(addr, block_id)
                    continue
                pending.setdefault(addr, []).append(index)
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
            self.meter.charge("ld_call_us")
            self._count("new_list")
            self._restore_tick()
            record = self._aru_record(aru)
            if list_id is None:
                list_id = ListId(self._next_list_id)
                self._next_list_id += 1
            else:
                list_id = ListId(int(list_id))
                self._restore_list(list_id)
                existing = self._view_list(
                    list_id, record if self.concurrent else None
                )
                if existing is not None and existing.allocated:
                    raise BadListError(
                        int(list_id), "forced id is already allocated"
                    )
                if int(list_id) < SYSTEM_ID_BASE:
                    self._next_list_id = max(
                        self._next_list_id, int(list_id) + 1
                    )
            self.meter.charge("table_access_us")
            if self.concurrent and aru is not None:
                self.meter.charge("aru_alloc_us")
            ts = self.clock.tick()
            self._emit_entry(
                SummaryEntry(EntryKind.NEW_LIST, 0, ts, int(list_id))
            )
            self.meter.charge("summary_entry_us")
            version = self._list_for_update(list_id, None)
            version.allocated = True
            version.first = None
            version.last = None
            version.count = 0
            version.timestamp = ts
            version.origin_aru = ARU_NONE
            version.pending_segment = self._buffer.seq
            if record is not None:
                record.op_count += 1
            return list_id

    def delete_list(self, list_id: ListId, aru: Optional[ARUId] = None) -> None:
        """Deallocate a list and its remaining members (head-first)."""
        with self._lock:
            self._check_alive()
            self.meter.charge("ld_call_us")
            self._count("delete_list")
            self._restore_list(list_id)
            record = self._aru_record(aru)
            shadow_ctx = record if self.concurrent else None
            view = self._view_list(list_id, shadow_ctx)
            if view is None or not view.allocated:
                raise BadListError(int(list_id))
            op = ListOp(ListOpKind.DELETE_LIST, list_id)
            if record is not None:
                record.op_count += 1
            if shadow_ctx is not None:
                self._apply_list_op(op, shadow_ctx, 0)
                shadow_ctx.oplog.append(op, self.meter)
            else:
                self._emergency = True
                try:
                    self._apply_list_op(op, None, int(aru) if aru else 0)
                finally:
                    self._emergency = False

    def list_blocks(
        self, list_id: ListId, aru: Optional[ARUId] = None
    ) -> List[BlockId]:
        """Enumerate a list under the visibility policy."""
        with self._lock:
            self._check_alive()
            self.meter.charge("ld_call_us")
            self._count("list_blocks")
            self._restore_list(list_id)
            self._aru_record(aru)
            shadow_aru = aru if self.concurrent else None
            view = self._visible_list(list_id, shadow_aru)
            if view is None or not view.allocated:
                raise BadListError(int(list_id))
            blocks: List[BlockId] = []
            cursor = view.first
            while cursor is not None:
                blocks.append(cursor)
                block_view = self._visible_block(cursor, shadow_aru)
                if block_view is None:
                    raise BadBlockError(
                        int(cursor), f"list {list_id} references missing block"
                    )
                cursor = block_view.successor
                if len(blocks) > len(self.bmap) + 1:
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
            self.meter.charge("ld_call_us")
            self._count("flush")
            self._restore_tick()
            flush_start_us = self.clock.now_us
            self._release_parked()
            self._write_buffer()
            self._writeback.drain()
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
            for list_id, _root in list(self.ltable.items()):
                view = self._view_list(list_id, None)
                if view is None or not view.allocated:
                    continue
                cursor = view.first
                while cursor is not None:
                    members.add(int(cursor))
                    block_view = self._view_block(cursor, None)
                    cursor = block_view.successor if block_view else None
            orphans: List[BlockId] = []
            for block_id, _root in list(self.bmap.items()):
                view = self._view_block(block_id, None)
                if view is None or not view.allocated:
                    continue
                if int(block_id) not in members and view.list_id is None:
                    orphans.append(block_id)
            for block_id in orphans:
                self.delete_block(block_id)
            return orphans

    # ==================================================================
    # Version lookup and creation
    # ==================================================================

    def _aru_record(self, aru: Optional[ARUId]) -> Optional[ARURecord]:
        """Validate and fetch the ARU record (None for simple ops)."""
        if aru is None:
            return None
        return self.arus.get(aru)

    def _view_block(
        self, block_id: BlockId, shadow_ctx: Optional[ARURecord]
    ) -> Optional[BlockVersion]:
        """Modification view: shadow (if in ARU) -> committed -> persistent."""
        root = self.bmap.root(block_id)
        if root is None:
            return None
        self.meter.charge("table_access_us")
        if shadow_ctx is not None:
            found = root.find(VersionState.SHADOW, shadow_ctx.aru_id, self.meter)
            if found is not None:
                return found
        found = root.find(VersionState.COMMITTED, ARU_NONE, self.meter)
        if found is not None:
            return found
        return root.persistent

    def _view_list(
        self, list_id: ListId, shadow_ctx: Optional[ARURecord]
    ) -> Optional[ListVersion]:
        """Modification view for lists (same search order as blocks)."""
        root = self.ltable.root(list_id)
        if root is None:
            return None
        self.meter.charge("table_access_us")
        if shadow_ctx is not None:
            found = root.find(VersionState.SHADOW, shadow_ctx.aru_id, self.meter)
            if found is not None:
                return found
        found = root.find(VersionState.COMMITTED, ARU_NONE, self.meter)
        if found is not None:
            return found
        return root.persistent

    def _visible_block(
        self, block_id: BlockId, aru: Optional[ARUId]
    ) -> Optional[BlockVersion]:
        """Read view under the configured visibility policy."""
        root = self.bmap.root(block_id)
        if root is None:
            return None
        candidates = read_versions(root, aru, self.visibility, self.meter)
        return candidates[0] if candidates else None

    def _visible_list(
        self, list_id: ListId, aru: Optional[ARUId]
    ) -> Optional[ListVersion]:
        """Read view for lists under the visibility policy."""
        root = self.ltable.root(list_id)
        if root is None:
            return None
        candidates = read_versions(root, aru, self.visibility, self.meter)
        return candidates[0] if candidates else None

    def _charge_record(self, category: str) -> None:
        """Charge a record operation; the old prototype updates its
        tables in place, so it pays only a table access."""
        if self.concurrent:
            self.meter.charge(category)
        else:
            self.meter.charge("table_access_us")

    def _block_for_update(
        self, block_id: BlockId, shadow_ctx: Optional[ARURecord]
    ) -> BlockVersion:
        """Find or create the block record to modify in the given state.

        Copies from the next-lower version (committed, then
        persistent) per the standardized search of Section 3.3.
        """
        root = self.bmap.root(block_id, create=True)
        if shadow_ctx is not None:
            found = root.find(VersionState.SHADOW, shadow_ctx.aru_id, self.meter)
            if found is not None:
                return found
            version = BlockVersion(
                block_id, VersionState.SHADOW, aru_id=shadow_ctx.aru_id
            )
            base = root.find(VersionState.COMMITTED, ARU_NONE, self.meter)
            if base is None:
                base = root.persistent
            if base is not None:
                version.copy_from(base)
            else:
                version.allocated = False
            self._charge_record("record_create_us")
            root.push_alt(version)
            shadow_ctx.shadow_blocks.push(version)
            return version
        found = root.find(VersionState.COMMITTED, ARU_NONE, self.meter)
        if found is not None:
            return found
        version = BlockVersion(block_id, VersionState.COMMITTED)
        if root.persistent is not None:
            version.copy_from(root.persistent)
        else:
            version.allocated = False
        self._charge_record("record_create_us")
        root.push_alt(version)
        self.committed_blocks.push(version)
        return version

    def _list_for_update(
        self, list_id: ListId, shadow_ctx: Optional[ARURecord]
    ) -> ListVersion:
        """List analogue of :meth:`_block_for_update`."""
        root = self.ltable.root(list_id, create=True)
        if shadow_ctx is not None:
            found = root.find(VersionState.SHADOW, shadow_ctx.aru_id, self.meter)
            if found is not None:
                return found
            version = ListVersion(
                list_id, VersionState.SHADOW, aru_id=shadow_ctx.aru_id
            )
            base = root.find(VersionState.COMMITTED, ARU_NONE, self.meter)
            if base is None:
                base = root.persistent
            if base is not None:
                version.copy_from(base)
            else:
                version.allocated = False
            self._charge_record("record_create_us")
            root.push_alt(version)
            shadow_ctx.shadow_lists.push(version)
            return version
        found = root.find(VersionState.COMMITTED, ARU_NONE, self.meter)
        if found is not None:
            return found
        version = ListVersion(list_id, VersionState.COMMITTED)
        if root.persistent is not None:
            version.copy_from(root.persistent)
        else:
            version.allocated = False
        self._charge_record("record_create_us")
        root.push_alt(version)
        self.committed_lists.push(version)
        return version

    # ==================================================================
    # List-operation execution (shared by shadow, committed, replay)
    # ==================================================================

    def _apply_list_op(
        self, op: ListOp, shadow_ctx: Optional[ARURecord], aru_tag: int
    ) -> None:
        """Execute one list operation in the given state.

        With ``shadow_ctx`` set the operation runs in that ARU's
        shadow state and generates no summary entries; otherwise it
        runs in the committed state and the link/delete records are
        emitted (tagged with ``aru_tag``).
        """
        if op.kind is ListOpKind.INSERT:
            self._apply_insert(op, shadow_ctx, aru_tag)
        elif op.kind is ListOpKind.DELETE_BLOCK:
            self._apply_delete_block(op, shadow_ctx, aru_tag)
        else:
            self._apply_delete_list(op, shadow_ctx, aru_tag)

    def _apply_insert(
        self, op: ListOp, shadow_ctx: Optional[ARURecord], aru_tag: int
    ) -> None:
        list_view = self._view_list(op.list_id, shadow_ctx)
        if list_view is None or not list_view.allocated:
            raise BadListError(int(op.list_id))
        block_view = self._view_block(op.block_id, shadow_ctx)
        if block_view is None or not block_view.allocated:
            raise BadBlockError(int(op.block_id))
        if block_view.list_id is not None:
            raise ConcurrencyError(
                f"block {op.block_id} is already in list {block_view.list_id}"
            )
        if op.predecessor is not None:
            pred_view = self._view_block(op.predecessor, shadow_ctx)
            if (
                pred_view is None
                or not pred_view.allocated
                or pred_view.list_id != op.list_id
            ):
                raise BadBlockError(
                    int(op.predecessor), f"not a member of list {op.list_id}"
                )
        ts = self.clock.tick()
        if shadow_ctx is None:
            self._emit_entry(
                SummaryEntry(
                    EntryKind.LINK,
                    aru_tag,
                    ts,
                    int(op.list_id),
                    int(op.block_id),
                    int(op.predecessor) if op.predecessor is not None else 0,
                )
            )
            self.meter.charge("summary_entry_us")
        lst = self._list_for_update(op.list_id, shadow_ctx)
        blk = self._block_for_update(op.block_id, shadow_ctx)
        if op.predecessor is None:
            blk.successor = lst.first
            if lst.first is None:
                lst.last = op.block_id
            lst.first = op.block_id
        else:
            pred = self._block_for_update(op.predecessor, shadow_ctx)
            blk.successor = pred.successor
            pred.successor = op.block_id
            pred.timestamp = ts
            if lst.last == op.predecessor:
                lst.last = op.block_id
            if shadow_ctx is None:
                pred.pending_segment = self._buffer.seq
        blk.list_id = op.list_id
        blk.timestamp = ts
        lst.count += 1
        lst.timestamp = ts
        if shadow_ctx is None:
            blk.pending_segment = self._buffer.seq
            lst.pending_segment = self._buffer.seq
            blk.origin_aru = ARUId(aru_tag)
            lst.origin_aru = ARUId(aru_tag)

    def _apply_delete_block(
        self, op: ListOp, shadow_ctx: Optional[ARURecord], aru_tag: int
    ) -> None:
        block_view = self._view_block(op.block_id, shadow_ctx)
        if block_view is None or not block_view.allocated:
            raise BadBlockError(int(op.block_id))
        list_id = block_view.list_id
        predecessor: Optional[BlockId] = None
        if list_id is not None:
            predecessor = self._find_predecessor(list_id, op.block_id, shadow_ctx)
        ts = self.clock.tick()
        if shadow_ctx is None:
            self._emit_entry(
                SummaryEntry(
                    EntryKind.DELETE_BLOCK,
                    aru_tag,
                    ts,
                    int(op.block_id),
                    int(list_id) if list_id is not None else 0,
                )
            )
            self.meter.charge("summary_entry_us")
        blk = self._block_for_update(op.block_id, shadow_ctx)
        if list_id is not None:
            lst = self._list_for_update(list_id, shadow_ctx)
            if predecessor is None:
                lst.first = blk.successor
            else:
                pred = self._block_for_update(predecessor, shadow_ctx)
                pred.successor = blk.successor
                pred.timestamp = ts
                if shadow_ctx is None:
                    pred.pending_segment = self._buffer.seq
            if lst.last == op.block_id:
                lst.last = predecessor
            lst.count -= 1
            lst.timestamp = ts
            if shadow_ctx is None:
                lst.pending_segment = self._buffer.seq
                lst.origin_aru = ARUId(aru_tag)
        self._deallocate_block_version(blk, ts, shadow_ctx, aru_tag)

    def _apply_delete_list(
        self, op: ListOp, shadow_ctx: Optional[ARURecord], aru_tag: int
    ) -> None:
        list_view = self._view_list(op.list_id, shadow_ctx)
        if list_view is None or not list_view.allocated:
            raise BadListError(int(op.list_id))
        ts = self.clock.tick()
        if shadow_ctx is None:
            self._emit_entry(
                SummaryEntry(EntryKind.DELETE_LIST, aru_tag, ts, int(op.list_id))
            )
            self.meter.charge("summary_entry_us")
        lst = self._list_for_update(op.list_id, shadow_ctx)
        # Delete remaining members from the beginning of the list: no
        # predecessor searches (the improved deletion policy).
        cursor = lst.first
        while cursor is not None:
            blk = self._block_for_update(cursor, shadow_ctx)
            cursor = blk.successor
            self._deallocate_block_version(blk, ts, shadow_ctx, aru_tag)
        lst.first = None
        lst.last = None
        lst.count = 0
        lst.allocated = False
        lst.timestamp = ts
        if shadow_ctx is None:
            lst.pending_segment = self._buffer.seq
            lst.origin_aru = ARUId(aru_tag)

    def _deallocate_block_version(
        self,
        blk: BlockVersion,
        ts: int,
        shadow_ctx: Optional[ARURecord],
        aru_tag: int,
    ) -> None:
        blk.allocated = False
        blk.data = None
        blk.successor = None
        blk.list_id = None
        blk.timestamp = ts
        if shadow_ctx is None:
            # Free-space bookkeeping happens when the deallocation
            # reaches the merged stream (shadow deallocations redo it
            # at replay).
            self.meter.charge("block_dealloc_us")
            blk.pending_segment = self._buffer.seq
            blk.origin_aru = ARUId(aru_tag)

    def _find_predecessor(
        self,
        list_id: ListId,
        block_id: BlockId,
        shadow_ctx: Optional[ARURecord],
    ) -> Optional[BlockId]:
        """Walk the list to find ``block_id``'s predecessor (None =
        the block is first).  Charges one search step per hop — this
        is the cost the improved deletion policy of Section 5.3
        avoids."""
        list_view = self._view_list(list_id, shadow_ctx)
        if list_view is None or not list_view.allocated:
            raise BadListError(int(list_id))
        if list_view.first == block_id:
            return None
        cursor = list_view.first
        while cursor is not None:
            self.meter.charge("pred_search_step_us")
            view = self._view_block(cursor, shadow_ctx)
            if view is None:
                break
            if view.successor == block_id:
                return cursor
            cursor = view.successor
        raise BadBlockError(int(block_id), f"not found in list {list_id}")

    # ==================================================================
    # The write path: segment buffer, folding, durability
    # ==================================================================

    def _commit_block_data(self, block_id: BlockId, data: bytes, aru_tag: int) -> None:
        """Append block data to the committed (merged) stream."""
        ts = self.clock.tick()
        addr = self._append_block_data(block_id, data, aru_tag, ts)
        version = self._block_for_update(block_id, None)
        if version.address is not None and version.address != addr:
            root = self.bmap.root(block_id)
            persistent = root.persistent if root else None
            if persistent is None or persistent.address != version.address:
                self._retire_address(version.address)
        version.allocated = True
        version.address = addr
        version.timestamp = ts
        version.origin_aru = ARUId(aru_tag)
        version.pending_segment = self._buffer.seq

    def _append_block_data(
        self, block_id: BlockId, data: bytes, aru_tag: int, ts: int
    ) -> PhysAddr:
        """Place data in the current segment buffer (rolling it if
        full) and emit the WRITE summary entry."""
        self._ensure_buffer()
        new_blocks = 0 if self._buffer.contains_block(block_id) else 1
        if not self._buffer.has_room(new_blocks, _WRITE_ENTRY_SIZE):
            self._roll_buffer()
        addr = self._buffer.add_block(block_id, data)
        self.meter.charge("block_copy_us")
        self._buffer.add_entry(
            SummaryEntry(EntryKind.WRITE, aru_tag, ts, int(block_id), addr.slot)
        )
        self.meter.charge("summary_entry_us")
        return addr

    def _emit_entry(self, entry: SummaryEntry) -> None:
        """Append a summary entry, rolling the buffer when full.

        Raises:
            SegmentOverflowError: If the entry could not fit even an
                *empty* segment's summary region — rolling the buffer
                can never help, so the record is rejected up front
                instead of consuming segments forever.
        """
        self._ensure_buffer()
        size = entry.encoded_size()
        if not self._buffer.has_room(0, size):
            if size > self.geometry.usable_size:
                raise SegmentOverflowError(
                    size,
                    self.geometry.usable_size,
                    f"summary entry {entry.kind.name}",
                )
            self._roll_buffer()
        self._buffer.add_entry(entry)

    def _ensure_buffer(self) -> None:
        """(Re)open the current buffer, cleaning first if space is low.

        May raise :class:`DiskFullError`, in which case no buffer is
        open and the interrupted operation has had no effect on the
        log — the instance stays usable, and deletions can free
        space.
        """
        if self._buffer is not None:
            return
        if not self._cleaning and self.usage.free_count <= self.clean_low_water:
            self._run_cleaner()
            if self._buffer is not None:
                # The cleaner's own evacuation already opened one.
                return
        self._open_new_buffer()

    def _roll_buffer(self) -> None:
        """Close the current segment and open the next, so the caller
        can keep appending."""
        self._close_buffer()
        self._ensure_buffer()

    def _write_buffer(self) -> None:
        """Durability point: send what the buffer holds and the disk
        does not on its way.

        A segment no chunk of which is on disk yet is closed and
        written whole iff streaming out the rest of it costs no more
        than the two positionings that coming back to it will (one for
        the next data slots, one for the chunk describing them) — asked
        of the disk model, once per segment.  Otherwise the flush
        writes in place — the new data slots, then one summary chunk —
        and the buffer keeps filling behind it; every later flush of
        that segment is then in place by necessity, the closing write
        being chunk-sized itself.
        """
        buffer = self._buffer
        if buffer is None or not buffer.has_unwritten:
            return
        if not buffer.in_place:
            model = self.disk.timer.model
            positioning_us = model.request_us(0, sequential=False)
            if model.transfer_us(buffer.bytes_free()) <= 2 * positioning_us:
                self._roll_buffer()
                return
        # Log order: whatever is parked goes out ahead of this chunk.
        self._writeback.drain()
        self._write_now([(buffer, buffer.seal(last=False))])

    def _close_buffer(self) -> None:
        """The current segment stops growing.

        What it holds and the disk does not is sealed and handed to
        the write path: with write-behind disabled it is written
        synchronously (the serial path); otherwise it parks in the
        queue and reaches the disk at the next drain — either
        automatic (queue depth) or forced by a barrier.  No buffer is
        open afterwards; an empty one is left as it is.
        """
        buffer = self._buffer
        if buffer is None or buffer.is_empty:
            return
        self._buffer = None
        self._account_fill(buffer)
        if buffer.has_unwritten:
            self._writeback.submit(buffer, buffer.seal())
        else:
            # Every chunk is on disk already; nothing more to write.
            self.usage.mark_written(buffer.segment_no, buffer.seq, 0)

    def _write_now(self, batch: List[Tuple[SegmentBuffer, bytearray]]) -> None:
        """Write sealed chunks to the disk — the only durability
        point of the write path.

        ``batch`` is in log-sequence order (enforced by construction:
        buffers are sealed in order and the queue is FIFO), so an
        ARU's data always precedes the chunk carrying its commit
        record.  A closed segment none of which is on disk goes out as
        its whole image, consecutive ones as one scatter-gather batch;
        anything else is written in place.  Only here do
        ``_last_written_seq``, ``_commit_on_disk`` and the
        committed→persistent fold advance; nothing queued is ever
        treated as durable.
        """
        if not batch:
            return
        queued = len(batch) > 1 or (
            self.usage.state(batch[0][0].segment_no) is SegmentState.QUEUED
        )
        try:
            whole: List[Tuple[int, bytearray]] = []
            for buffer, image in batch:
                if buffer.in_place or not buffer.is_sealed:
                    self._write_whole(whole)
                    whole = []
                    # Data first: a chunk on disk vouches for its slots.
                    view = memoryview(image)
                    for start, end in buffer.unwritten_ranges():
                        self.disk.write_at(
                            buffer.segment_no, start, view[start:end]
                        )
                else:
                    whole.append((buffer.segment_no, image))
            self._write_whole(whole)
        except DiskCrashedError:
            self._mark_dead("disk_crashed_mid_write")
            raise
        for buffer, _image in batch:
            segment_no = buffer.segment_no
            self._c_segments_flushed.inc()
            self._last_written_seq = max(self._last_written_seq, buffer.seq)
            if self.usage.state(segment_no) is SegmentState.QUEUED:
                # Liveness was tracked while parked (later writes may
                # have superseded slots); keep it, just flip durable.
                self.usage.mark_durable(segment_no)
            elif buffer.is_sealed:
                self.usage.mark_written(
                    segment_no, buffer.seq, buffer.unwritten_block_count
                )
            else:
                self.usage.mark_in_place(
                    segment_no, buffer.seq, buffer.unwritten_block_count
                )
            # Write-behind caching: blocks that just left the buffer
            # stay readable without a disk access (they were readable
            # for free while in memory; dropping them at the write
            # boundary would charge phantom re-reads for hot
            # meta-data).
            for _block_id, slot, data in buffer.unwritten_blocks():
                self.cache.put(PhysAddr(segment_no, slot), data)
            for entry in buffer.unwritten_entries():
                if entry.kind is EntryKind.COMMIT:
                    self._commit_on_disk.add(entry.aru_tag)
                    self._pending_commit_arus.discard(entry.aru_tag)
            if not buffer.is_sealed:
                self._c_in_place_writes.inc()
                self.obs.record(
                    "segment.write_in_place",
                    segment=segment_no,
                    log_seq=buffer.seq,
                    blocks=buffer.unwritten_block_count,
                    bytes=sum(e - s for s, e in buffer.unwritten_ranges()),
                )
                buffer.publish()
                self._next_seq = buffer.seq + 1
        if queued:
            # Completion bookkeeping overlaps the streamed transfer of
            # the rest of the batch: charge the critical-path share.
            self.meter.charge("writeback_us", count=len(batch), lanes=len(batch))
        self._fold_committed()

    def _write_whole(self, images: List[Tuple[int, bytearray]]) -> None:
        """Write whole-segment images: one plain write, or one
        scatter-gather batch for several."""
        if len(images) == 1:
            self.disk.write_segment(*images[0])
        elif images:
            self.disk.write_many(images)

    def _account_fill(self, buffer: SegmentBuffer) -> None:
        """Record the fill of a segment that stops growing for
        ``stats()["segments"]``."""
        self._c_fill_sealed.inc()
        self._c_fill_data_bytes.add(
            buffer.block_count * self.geometry.block_size
        )
        self._c_fill_summary_bytes.add(buffer.summary_bytes)
        ratio = buffer.fill_ratio
        self._c_fill_ratio_total.add(ratio)
        self._g_fill_min.update_min(ratio)
        self.obs.record(
            "segment.seal",
            segment=buffer.segment_no,
            log_seq=buffer.seq,
            blocks=buffer.block_count,
            fill=round(ratio, 4),
        )

    def _open_new_buffer(self) -> None:
        """Start filling a fresh segment.

        Ordinary allocations honor the segment reserve; the cleaner
        and deletion paths may dip into it (they are the operations
        that get a full disk *out* of that state)."""
        reserve = (
            0 if (self._cleaning or self._emergency) else self.segment_reserve
        )
        segment_no = self.usage.take_free(reserve=reserve)
        self._buffer = SegmentBuffer(self.geometry, self._next_seq, segment_no)
        self._next_seq += 1

    def _run_cleaner(self) -> None:
        """Invoke the segment cleaner (lazy import avoids a cycle)."""
        from repro.lld.cleaner import SegmentCleaner

        # The cleaner reasons from live counts and full-CRC segment
        # bodies; both are only final once the restore has drained.
        self.complete_restore()
        self._cleaning = True
        pass_start_us = self.clock.now_us
        try:
            cleaner = SegmentCleaner(self, policy=self.cleaner_policy)
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

    def _fold_committed(self) -> None:
        """Committed -> persistent transitions for records whose
        entries and commit records have reached the disk."""
        for version in self.committed_blocks:
            if version.pending_segment > self._last_written_seq:
                continue
            origin = int(version.origin_aru)
            if origin and origin not in self._commit_on_disk:
                continue
            self._fold_block(version)
        for version in self.committed_lists:
            if version.pending_segment > self._last_written_seq:
                continue
            origin = int(version.origin_aru)
            if origin and origin not in self._commit_on_disk:
                continue
            self._fold_list(version)

    def _fold_block(self, version: BlockVersion) -> None:
        root = self.bmap.root(version.block_id)
        root.remove_alt(version)
        self.committed_blocks.remove(version)
        self._charge_record("record_transition_us")
        old = root.persistent
        if not version.allocated:
            # Retire the data slot the dying record itself occupies
            # (its write was counted live at seal time) as well as
            # any older persistent copy.
            if version.address is not None:
                self._retire_address(version.address)
            if (
                old is not None
                and old.address is not None
                and old.address != version.address
            ):
                self._retire_address(old.address)
            root.persistent = None
            self.bmap.drop_if_empty(version.block_id)
            return
        if old is None:
            old = BlockVersion(version.block_id, VersionState.PERSISTENT)
            root.persistent = old
        elif old.address is not None and old.address != version.address:
            self._retire_address(old.address)
        old.copy_from(version)

    def _fold_list(self, version: ListVersion) -> None:
        root = self.ltable.root(version.list_id)
        root.remove_alt(version)
        self.committed_lists.remove(version)
        self._charge_record("record_transition_us")
        if not version.allocated:
            root.persistent = None
            self.ltable.drop_if_empty(version.list_id)
            return
        old = root.persistent
        if old is None:
            old = ListVersion(version.list_id, VersionState.PERSISTENT)
            root.persistent = old
        old.copy_from(version)

    def _retire_address(self, addr: PhysAddr) -> None:
        """One physical slot is no longer referenced by any version.

        Only slots the usage table has counted are uncounted: all of
        an on-disk or queued segment's, and of the segment still being
        filled those a chunk written in place already published."""
        state = self.usage.state(addr.segment)
        if state in (SegmentState.DIRTY, SegmentState.QUEUED) or (
            state is SegmentState.CURRENT
            and addr.slot < self.usage.total_slots(addr.segment)
        ):
            self.usage.retire_slot(addr.segment)

    # ==================================================================
    # The read path: cache and read stream
    # ==================================================================

    def _read_at(self, addr: PhysAddr, block_id: Optional[BlockId] = None) -> bytes:
        """Fetch block data at a physical address.

        On a media fault (or an address tombstoned into a quarantined
        segment) the read degrades: salvage a surviving copy via
        :meth:`_degraded_read`, or raise
        :class:`~repro.errors.UnrecoverableBlockError`.
        """
        if self._buffer is not None and addr.segment == self._buffer.segment_no:
            self.meter.charge("table_access_us")
            return self._buffer.get_slot(addr.slot)
        cached = self.cache.get(addr)
        if cached is not None:
            return cached
        queued = self._writeback.get_buffer(addr.segment)
        if queued is not None:
            # Sealed but not yet on disk: serve from the parked image
            # (the platter holds stale bytes underneath it).
            self.meter.charge("table_access_us")
            return queued.get_slot(addr.slot)
        if self.usage.state(addr.segment) is SegmentState.QUARANTINED:
            # The platter may return garbage for a quarantined segment
            # (silent corruption); never read through the address.
            return self._degraded_read(addr, block_id)
        try:
            return self._read_stream.read(
                addr, self.usage.total_slots(addr.segment)
            )
        except MediaError:
            return self._degraded_read(addr, block_id)

    def _degraded_read(self, addr: PhysAddr, block_id: Optional[BlockId]) -> bytes:
        """Media-fault fallback for a foreground read.

        Marks the segment for the next scrub pass, then tries to find
        a surviving copy of the block in older log segments (the cache
        and buffer were already consulted by the caller).  The salvage
        is cached under the failed address so repeated reads do not
        rescan the log.  Raises
        :class:`~repro.errors.UnrecoverableBlockError` when every copy
        is gone.
        """
        self._count("degraded_reads")
        self._scrub_counters["degraded_reads"].inc()
        self.obs.record(
            "media.degraded_read",
            segment=addr.segment,
            slot=addr.slot,
            block=int(block_id) if block_id is not None else None,
        )
        if self.usage.state(addr.segment) is SegmentState.DIRTY:
            self._scrub_pending.add(addr.segment)
        if block_id is None:
            raise MediaError(
                f"segment {addr.segment} failed and the block identity "
                "is unknown; cannot salvage"
            )
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
            self.meter.charge("ld_call_us")
            self._count("scrub")
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
            self.meter.charge("ld_call_us")
            self._count("clean")
            if not self._cleaning:
                self._run_cleaner()

    # ==================================================================
    # Checkpointing and bookkeeping
    # ==================================================================

    def _snapshot_checkpoint(self) -> CheckpointData:
        """The persistent state as checkpoint rows (call only after a
        flush)."""
        # One literal tuple per row (no concatenation): this loop
        # visits every persistent record on every checkpoint.
        blocks = [
            (
                block_id,
                rec.successor or 0,
                rec.list_id or 0,
                rec.timestamp,
                addr.segment,
                addr.slot,
                FLAG_HAS_ADDR,
            )
            if (addr := rec.address) is not None
            else (
                block_id, rec.successor or 0, rec.list_id or 0, rec.timestamp, 0, 0, 0
            )
            for block_id, rec in self.bmap.persistent_blocks()
        ]
        lists = [
            (list_id, rec.first or 0, rec.last or 0, rec.count, rec.timestamp)
            for list_id, rec in self.ltable.persistent_lists()
        ]
        return CheckpointData(
            ckpt_seq=self._ckpt_seq,
            last_log_seq=self._last_written_seq,
            next_block_id=self._next_block_id,
            next_list_id=self._next_list_id,
            next_aru_id=self.arus.next_id,
            blocks=blocks,
            lists=lists,
            segments=self.usage.snapshot(),
            decided_xids=sorted(self._decided_xids),
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
        self._ckpt_counters["writes"].inc()
        self._ckpt_counters["payload_bytes"].add(payload)
        self._ckpt_counters["bytes_written"].add(written)
        self.obs.record("checkpoint", ckpt_seq=self._ckpt_seq, bytes=written)

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

    def _count(self, name: str) -> None:
        counter = self._op_counters.get(name)
        if counter is None:
            counter = self._op_counters[name] = self.obs.metrics.counter(
                f"lld.ops.{name}"
            )
        counter.inc()

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

    @property
    def scrub_stats(self) -> Dict[str, int]:
        return {
            name: counter.value
            for name, counter in self._scrub_counters.items()
        }

    def metrics_snapshot(self) -> dict:
        """The full registry + recorder snapshot (JSON-ready)."""
        return self.obs.snapshot()

    def stats(self) -> dict:
        """Operation, CPU, disk and cache statistics for the harness.

        A thin, schema-stable view over the metrics registry: every
        key is declared in :data:`repro.obs.schema.STATS_SCHEMA`, and
        ``tests/test_stats_schema.py`` freezes the shape.
        """
        recorder = self.obs.recorder
        return {
            "ops": self.op_counts,
            "cpu_us": dict(self.meter.charged_us),
            "cpu_counts": dict(self.meter.counters),
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
                **self.scrub_stats,
                "pending_segments": len(self._scrub_pending),
                "quarantined_segments": len(
                    self.usage.quarantined_segments()
                ),
            },
            "writeback": self._writeback.stats(),
            "group_commit": {
                "enabled": self.group_commit,
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

    def _segment_fill_stats(self) -> dict:
        """Fill-ratio accounting over every segment that stopped
        growing so far, and the log writes that reached the disk."""
        sealed = self._c_fill_sealed.value
        return {
            "sealed": sealed,
            "flushed": self.segments_flushed,
            "in_place_writes": self._c_in_place_writes.value,
            "data_bytes": self._c_fill_data_bytes.value,
            "summary_bytes": self._c_fill_summary_bytes.value,
            "avg_fill": (
                (self._c_fill_ratio_total.value / sealed) if sealed else 0.0
            ),
            "min_fill": self._g_fill_min.value,
        }
