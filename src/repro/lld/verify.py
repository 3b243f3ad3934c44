"""Internal consistency verification for a live LLD instance.

:func:`verify_lld` cross-checks the in-memory structures against each
other and returns a list of human-readable violations (empty = sound):

1. each table's ``persistent`` dict holds only allocated PERSISTENT
   records keyed by their own identifier, its ``alts`` dict only
   non-empty chains of that identifier's alternative records, and
   every alternative record hangs off the correct same-identifier
   chain *and* the correct same-state chain (the perpendicular mesh
   of Section 4),
2. persistent block addresses point into on-disk (or current-buffer)
   segments, and the per-segment live counts match exactly the slots
   the map and the not-yet-folded committed records hold,
3. every list version is well-formed in its own view: walking
   ``first`` by successors visits ``count`` distinct members, each
   claiming membership of that list, ending at ``last``,
4. ARU shadow chains contain only SHADOW records owned by that ARU,
5. the free pool hands out the lowest free segment, and no batch of
   free segments lies below one written since the last checkpoint —
   the allocation order the next recovery's walk relies on,
6. the checkpoint rows kept between checkpoints are the rows a fresh
   pack would give, for every identifier its table has not marked
   changed — so the next checkpoint equals one packed from scratch.

Checks 1, 3 and 4 read only the version engine's tables and chains,
so :func:`repro.jld.verify.verify_jld` runs them on JLD as well.
Tests and the torture example run this after workloads; it is also a
useful debugging aid for anyone extending the write path.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional, Set

from repro.core.records import ListVersion, find_alt, iter_chain
from repro.core.versions import VersionState
from repro.ld.types import ARU_NONE
from repro.lld.usage import WALK_BATCH, SegmentState


def verify_lld(lld) -> List[str]:
    """Return a list of invariant violations (empty when sound)."""
    problems = _verify_versions(lld.engine)
    problems += _verify_usage(lld)
    problems += _verify_segment_states(lld)
    problems += _verify_allocation_order(lld)
    problems += _verify_restore(lld)
    problems += _verify_packed_rows(lld)
    if problems:
        obs = getattr(lld, "obs", None)
        if obs is not None:
            obs.record("verify.failed", problems=len(problems))
            obs.crash_dump("verify_failed")
    return problems


def _verify_versions(engine) -> List[str]:
    """Checks 1, 3 and 4: the engine's tables, the mesh of its
    alternative records and every list view, on any substrate the
    engine runs over."""
    problems = _verify_tables(engine)
    problems += _verify_block_mesh(engine)
    problems += _verify_list_mesh(engine)
    problems += _verify_lists_well_formed(engine)
    return problems


def _verify_restore(lld) -> List[str]:
    """Instant-restore watermark discipline.

    The controller records a violation whenever a request was served
    while a pending (unreplayed) log segment still named the touched
    id — the one invariant redo-on-demand must never break.  Empty in
    normal operation and after ``complete_restore()``.
    """
    controller = getattr(lld, "_restore", None)
    if controller is None:
        return []
    return list(controller.violations)


def _verify_packed_rows(lld) -> List[str]:
    """The checkpoint row cache against a fresh pack.

    Outside the identifiers a table marked changed since the last
    checkpoint, the cache holds a row for exactly the identifiers with
    a persistent record, and each row is what packing that record
    gives now.  A table that counts as all-changed has nothing to
    check: its next checkpoint repacks every row."""
    problems: List[str] = []
    for name, table, packed in (
        ("block", lld.bmap, lld._block_rows),
        ("list", lld.ltable, lld._list_rows),
    ):
        changed = table.changed
        if changed is None:
            continue
        held = packed.rows()
        records = table.persistent
        for ident in sorted((held.keys() | records.keys()) - changed):
            if ident not in records:
                problems.append(
                    f"checkpoint row kept for {name} {ident}, which has no "
                    "persistent record and is not marked changed"
                )
            elif ident not in held:
                problems.append(
                    f"no checkpoint row for {name} {ident}, and it is not "
                    "marked changed"
                )
            elif held[ident] != packed.pack(ident, records[ident]):
                problems.append(
                    f"stale checkpoint row for {name} {ident}: its record "
                    "changed and it is not marked changed"
                )
    return problems


def _verify_segment_states(lld) -> List[str]:
    """At most one segment may be CURRENT: the active buffer's.

    Anything else is a leaked segment (a buffer that was opened and
    then abandoned without being written or freed)."""
    problems: List[str] = []
    current = [
        seg
        for seg in range(lld.geometry.num_segments)
        if lld.usage.state(seg) is SegmentState.CURRENT
    ]
    expected = (
        {lld._buffer.segment_no} if lld._buffer is not None else set()
    )
    leaked = [seg for seg in current if seg not in expected]
    if leaked:
        problems.append(f"leaked CURRENT segments: {leaked}")
    queued_table = [
        seg
        for seg in range(lld.geometry.num_segments)
        if lld.usage.state(seg) is SegmentState.QUEUED
    ]
    parked = lld._writeback.pending_segments()
    orphaned = [seg for seg in queued_table if seg not in parked]
    if orphaned:
        problems.append(
            f"QUEUED segments with no parked write-behind image: {orphaned}"
        )
    if (
        lld._buffer is not None
        and lld.usage.state(lld._buffer.segment_no)
        is SegmentState.QUARANTINED
    ):
        problems.append(
            f"current buffer targets quarantined segment "
            f"{lld._buffer.segment_no}"
        )
    return problems


def _verify_allocation_order(lld) -> List[str]:
    """What the next recovery's walk rests on (docs/RECOVERY.md, "The
    roll-forward walk"): segments are taken lowest first, so no batch
    of free ones lies below a segment written since the last
    checkpoint.  (None at all does, short of a recovery that found
    damage in the middle of the log.)"""
    usage = lld.usage
    since = lld.checkpoints.last_log_seq
    free: List[int] = []
    newest = -1
    for seg in range(usage.reserved_count, usage.num_segments):
        state = usage.state(seg)
        if state is SegmentState.FREE:
            free.append(seg)
        elif state is SegmentState.CURRENT or usage.seq_of(seg) > since:
            newest = seg
    problems: List[str] = []
    if usage.free_count != len(free) or not set(free) <= set(usage._free):
        problems.append("free pool out of step with the segment states")
    below = sum(seg < newest for seg in free)
    if below >= WALK_BATCH:
        problems.append(
            f"{below} free segments lie below segment {newest}, written "
            "since the last checkpoint"
        )
    return problems


def _collect_state_members(engine):
    committed_blocks = set(map(id, engine.committed_blocks))
    committed_lists = set(map(id, engine.committed_lists))
    shadow_blocks: Dict[int, int] = {}
    shadow_lists: Dict[int, int] = {}
    for aru_id in list(engine.arus.active_ids()):
        record = engine.arus.get(aru_id)
        for version in record.shadow_blocks:
            shadow_blocks[id(version)] = int(aru_id)
        for version in record.shadow_lists:
            shadow_lists[id(version)] = int(aru_id)
    return committed_blocks, committed_lists, shadow_blocks, shadow_lists


def _verify_tables(engine) -> List[str]:
    """The two dicts of each table hold no entry they should not:
    every ``persistent`` value is an allocated PERSISTENT record keyed
    by its own identifier, and every ``alts`` value heads a non-empty
    chain of non-PERSISTENT records of that identifier."""
    problems: List[str] = []
    for name, table, id_of in (
        ("block", engine.blocks, attrgetter("block_id")),
        ("list", engine.lists, attrgetter("list_id")),
    ):
        for ident, record in sorted(table.persistent.items()):
            if record.state is not VersionState.PERSISTENT:
                problems.append(
                    f"{name} {ident}: map entry in state {record.state.name}"
                )
            if not record.allocated:
                problems.append(
                    f"{name} {ident}: deallocated record kept in the map"
                )
            if id_of(record) != ident:
                problems.append(
                    f"{name} {ident}: persistent record names {id_of(record)}"
                )
        for ident, head in sorted(table.alts.items()):
            if head is None:
                problems.append(f"{name} {ident}: empty alternative chain kept")
            for alt in iter_chain(head):
                if id_of(alt) != ident:
                    problems.append(
                        f"{name} {ident}: chained record names {id_of(alt)}"
                    )
                if alt.state is VersionState.PERSISTENT:
                    problems.append(
                        f"{name} {ident}: persistent record on the alt chain"
                    )
    return problems


def _verify_block_mesh(engine) -> List[str]:
    problems: List[str] = []
    committed, _cl, shadows, _sl = _collect_state_members(engine)
    seen_alt_ids: Set[int] = set()
    for block_id, head in sorted(engine.blocks.alts.items()):
        for alt in iter_chain(head):
            seen_alt_ids.add(id(alt))
            if alt.state is VersionState.COMMITTED:
                if id(alt) not in committed:
                    problems.append(
                        f"block {block_id}: committed record missing from "
                        "the committed state chain"
                    )
            elif alt.state is VersionState.SHADOW:
                owner = shadows.get(id(alt))
                if owner is None:
                    problems.append(
                        f"block {block_id}: shadow record missing from any "
                        "ARU's shadow chain"
                    )
                elif owner != int(alt.aru_id):
                    problems.append(
                        f"block {block_id}: shadow record owned by ARU "
                        f"{alt.aru_id} chained under ARU {owner}"
                    )
    # Reverse direction: every state-chain member must be in the mesh.
    for version in engine.committed_blocks:
        if id(version) not in seen_alt_ids:
            problems.append(
                f"committed block record {version.block_id} missing from "
                "its identifier chain"
            )
    return problems


def _verify_list_mesh(engine) -> List[str]:
    problems: List[str] = []
    _cb, committed, _sb, shadows = _collect_state_members(engine)
    seen_alt_ids: Set[int] = set()
    for list_id, head in sorted(engine.lists.alts.items()):
        for alt in iter_chain(head):
            seen_alt_ids.add(id(alt))
            if alt.state is VersionState.COMMITTED and id(alt) not in committed:
                problems.append(
                    f"list {list_id}: committed record missing from the "
                    "committed state chain"
                )
            if alt.state is VersionState.SHADOW and id(alt) not in shadows:
                problems.append(
                    f"list {list_id}: shadow record missing from any ARU"
                )
    for version in engine.committed_lists:
        if id(version) not in seen_alt_ids:
            problems.append(
                f"committed list record {version.list_id} missing from its "
                "identifier chain"
            )
    return problems


def _verify_usage(lld) -> List[str]:
    problems: List[str] = []
    live: Dict[int, int] = {}
    for block_id, persistent in sorted(lld.bmap.persistent.items()):
        addr = persistent.address
        if addr is None:
            continue
        state = lld.usage.state(addr.segment)
        if state is SegmentState.QUARANTINED:
            # A tombstone for a lost block: the data died with the
            # segment, the address stays so reads raise the precise
            # UnrecoverableBlockError.  Not counted live.
            continue
        current = (
            lld._buffer is not None and addr.segment == lld._buffer.segment_no
        )
        if (
            state is not SegmentState.DIRTY
            and state is not SegmentState.QUEUED
            and not current
        ):
            problems.append(
                f"block {block_id}: persistent address {addr} points at a "
                f"{state.value} segment"
            )
        live[addr.segment] = live.get(addr.segment, 0) + 1
    # A committed record that has not folded yet (its ARU's commit
    # record is not on disk) holds a slot of its own, counted when its
    # chunk was written: LogWriter.retire_address's rule.
    usage = lld.usage
    for version in lld.committed_blocks:
        addr = version.address
        if addr is None:
            continue
        persistent = lld.bmap.persistent.get(version.block_id)
        if persistent is not None and persistent.address == addr:
            continue
        state = usage.state(addr.segment)
        if state is SegmentState.DIRTY or state is SegmentState.QUEUED or (
            state is SegmentState.CURRENT
            and addr.slot < usage.total_slots(addr.segment)
        ):
            live[addr.segment] = live.get(addr.segment, 0) + 1
    restore = getattr(lld, "_restore", None)
    counted = list(lld.usage.dirty_segments())
    if lld._buffer is not None and lld._buffer.in_place:
        # The slots earlier flushes wrote in place are counted too.
        seg = lld._buffer.segment_no
        counted.append((seg, lld.usage.live_slots(seg), -1))
    for seg, live_count, _seq in counted:
        if restore is not None and seg in restore.restore_era:
            # Mid-restore, restore-era live counts are provisional
            # (pending segments count every written slot live until
            # the sweep recomputes from final addresses); skip them.
            continue
        expected = live.get(seg, 0)
        if live_count != expected:
            problems.append(
                f"segment {seg}: usage table says {live_count} live slots, "
                f"the map references {expected}"
            )
    return problems


def _walk_view(engine, list_version: ListVersion, state: VersionState,
               aru_id) -> Optional[List[int]]:
    """Walk one list view via that view's successor fields."""
    members: List[int] = []
    seen: Set[int] = set()
    cursor = list_version.first
    while cursor is not None:
        if int(cursor) in seen:
            return None  # cycle
        seen.add(int(cursor))
        members.append(int(cursor))
        head = engine.blocks.alts.get(cursor)
        persistent = engine.blocks.persistent.get(cursor)
        if state is VersionState.SHADOW:
            block = find_alt(head, VersionState.SHADOW, aru_id) or find_alt(
                head, VersionState.COMMITTED, ARU_NONE
            ) or persistent
        elif state is VersionState.COMMITTED:
            block = find_alt(head, VersionState.COMMITTED, ARU_NONE) or (
                persistent
            )
        else:
            # Persistent view.  A member may transiently lack a
            # persistent record while its committed record waits for a
            # later segment (the link folded first); fall back to it.
            block = persistent or find_alt(head, VersionState.COMMITTED, ARU_NONE)
        if block is None:
            return None
        cursor = block.successor
    return members


def _verify_lists_well_formed(engine) -> List[str]:
    problems: List[str] = []
    ltable = engine.lists
    for list_id in ltable.ids():
        views = []
        persistent = ltable.persistent.get(list_id)
        if persistent is not None:
            views.append((persistent, VersionState.PERSISTENT, ARU_NONE))
        for alt in iter_chain(ltable.alts.get(list_id)):
            views.append((alt, alt.state, alt.aru_id))
        for version, state, aru_id in views:
            if not version.allocated:
                continue
            members = _walk_view(engine, version, state, aru_id)
            if members is None:
                problems.append(
                    f"list {list_id} ({state.name}): broken or cyclic chain"
                )
                continue
            if len(members) != version.count:
                problems.append(
                    f"list {list_id} ({state.name}): walk found "
                    f"{len(members)} members, record claims {version.count}"
                )
            expected_last = members[-1] if members else None
            actual_last = int(version.last) if version.last is not None else None
            if expected_last != actual_last:
                problems.append(
                    f"list {list_id} ({state.name}): last is "
                    f"{version.last}, walk ends at {expected_last}"
                )
    return problems
