"""Replica upkeep: one rule brings a copy of a list up to date.

Repair, :func:`resync` and :func:`scrub` healing all go through
:func:`reconcile`: the *authority* is the first other live copy in the
replica set, home first (:func:`_sources`); a target holding its
members in order gets only its diverged or unreadable blocks
rewritten; any other copy it holds is rebuilt by the one list copier,
:func:`copy_list`; a copy no authority holds is dropped.  Every block
goes through :func:`copy_block`, every read takes the committed view,
and each step is serial on array time.  docs/SHARDING.md § "Repair,
resync and scrub healing" tells it at length.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.disk.simdisk import SimulatedDisk
from repro.errors import (
    BadBlockError,
    ConcurrencyError,
    ShardLostError,
    UnrecoverableBlockError,
)
from repro.ld.types import FIRST, SYSTEM_ID_BASE, BlockId, ListId, Predecessor
from repro.lld.lld import LLD
from repro.shard import sharded

if TYPE_CHECKING:
    from repro.shard.sharded import ShardedLLD

#: :func:`reconcile` reads the authority's members itself.
_UNREAD = object()


def _homed(local: int) -> bool:
    """Whether a member-local id is the member's own, not a mirror."""
    return local < SYSTEM_ID_BASE


def held_ids(volume: LLD, lists: bool) -> Set[int]:
    """The list (or block) ids a member holds; a member mid instant
    restore also names its controller's pending ids."""
    ids = set((volume.ltable if lists else volume.bmap).ids())
    restore = volume._restore
    if restore is not None:
        index = restore.list_index if lists else restore.block_index
        ids.update(int(k) for k in index)
    return ids


def _holds_list(volume: LLD, local: int) -> bool:
    """Whether a volume's committed view has the list."""
    volume._restore_list(ListId(local))
    view = volume.engine.view(volume.ltable, ListId(local), None)
    return view is not None and view.allocated


def _lists_held(array: "ShardedLLD", members, keep) -> List[int]:
    """Global ids of the lists ``members`` hold among the local ids
    ``keep`` accepts, ascending."""
    return sorted(
        {
            array._global_id(local, s)
            for s in members
            for local in held_ids(array.shards[s], lists=True)
            if keep(local) and _holds_list(array.shards[s], local)
        }
    )


def _local_id(array: "ShardedLLD", gid: int, shard: int) -> int:
    """``gid``'s id on ``shard``: its own at home, else its mirror's."""
    if sharded.shard_of(gid, array.n) == shard:
        return sharded.to_local(gid, array.n)
    return sharded.mirror_id(gid)


def _sources(array: "ShardedLLD", gid: int, shard: int) -> List[tuple]:
    """The other live copies of ``gid``, home first, that ``shard``'s
    copy follows; none when ``shard`` is outside the replica set."""
    home = sharded.shard_of(gid, array.n)
    if shard != home and shard not in array._peers(home):
        return []
    return [(s, local) for s, local in array._copies(gid) if s != shard]


def _authority(array: "ShardedLLD", gid: int, shard: int):
    """The first of :func:`_sources` for list ``gid``, if it holds the
    list; else None."""
    sources = _sources(array, gid, shard)
    if sources and _holds_list(array.shards[sources[0][0]], sources[0][1]):
        return sources[0]
    return None


def _members(array: "ShardedLLD", s: int, local: int, volume=None) -> list:
    """The members of the copy at ``s`` (``volume``, or the live
    member), as global ids."""
    if volume is None:
        volume = array.shards[s]
    array._sync_clock(volume)
    members = volume.list_blocks(ListId(local))
    return [array._global_id(int(b), s) for b in members]


def copy_block(
    array: "ShardedLLD", gid: int, shard: int, volume: LLD, check: bool = False
) -> bool:
    """Write block ``gid`` onto ``volume`` (the copy at ``shard``) from
    the first of :func:`_sources` that can serve it, else raise the
    last one's error; with ``check``, a readable target with the same
    bytes is left alone.  Returns whether it wrote."""
    failed = None
    for s, local in _sources(array, gid, shard):
        source = array.shards[s]
        try:
            array._sync_clock(source)
            data = source.read(BlockId(local))
        except ShardLostError as exc:
            array._mark_shard_lost(s)
            failed = exc
            continue
        except (BadBlockError, UnrecoverableBlockError) as exc:
            failed = exc
            continue
        break
    else:
        if failed is not None:
            raise failed
        return False
    target = BlockId(_local_id(array, gid, shard))
    array._sync_clock(volume)
    if check:
        try:
            if volume.read(target) == data:
                return False
        except UnrecoverableBlockError:
            pass
    volume.write(target, data)
    array._blocks_healed += 1
    return True


def copy_list(
    array: "ShardedLLD", list_gid: int, shard: int, volume: LLD
) -> Optional[int]:
    """Rebuild list ``list_gid`` on ``volume`` (the copy at ``shard``)
    from its authority: drop what the target holds, admit the list and
    its members under forced ids, copy the bytes.  Returns the blocks
    copied, or None when no authority holds the list."""
    target = ListId(_local_id(array, list_gid, shard))
    if _holds_list(volume, target):
        array._sync_clock(volume)
        volume.delete_list(target)
    source = _authority(array, list_gid, shard)
    if source is None:
        return None
    members = _members(array, *source)
    array._sync_clock(volume)
    volume.new_list(list_id=target)
    prev: Predecessor = FIRST
    for gid in members:
        block = BlockId(_local_id(array, gid, shard))
        stale = volume.engine.view(volume.bmap, block, None)
        if stale is not None and stale.allocated:
            volume.delete_block(block)
        volume.new_block(target, predecessor=prev, block_id=block)
        copy_block(array, gid, shard, volume)
        prev = block
    array._lists_healed += 1
    return len(members)


def reconcile(
    array: "ShardedLLD", list_gid: int, shard: int, volume: LLD,
    members=_UNREAD,
) -> Tuple[str, int]:
    """Bring ``volume``'s copy of list ``list_gid`` (at ``shard``) up
    to date.  ``members``: the authority's (global ids) if the caller
    read them, None if it found no authority holds the list.  Returns
    ``("rewritten" | "rebuilt", blocks written)``, ``("dropped", 0)``
    or ``("absent", 0)`` (neither side holds it)."""
    target = ListId(_local_id(array, list_gid, shard))
    holds = members is None or _holds_list(volume, target)
    if holds and members is _UNREAD:
        source = _authority(array, list_gid, shard)
        members = None if source is None else _members(array, *source)
    if members is None:
        array._sync_clock(volume)
        volume.delete_list(target)
        return "dropped", 0
    if holds and _members(array, shard, target, volume) == members:
        return "rewritten", sum(
            copy_block(array, gid, shard, volume, check=True)
            for gid in members
        )
    copied = copy_list(array, list_gid, shard, volume)
    return ("absent", 0) if copied is None else ("rebuilt", copied)


def resync(array: "ShardedLLD") -> Dict[str, int]:
    """Reconcile each live home's lists in order onto its ring peers in
    order, then drop, member by member, the mirror lists no authority
    holds and the mirror blocks no list holds."""
    fixed = {
        "mirror_lists_rebuilt": 0,
        "mirror_blocks_rewritten": 0,
        "stray_mirrors_deleted": 0,
    }
    if array.rf < 2:
        return fixed
    if array._arus:
        raise ConcurrencyError("cannot resync with active ARUs")
    n = array.n
    for home, volume in enumerate(array.shards):
        if volume is None:
            continue
        for list_gid in _lists_held(array, [home], _homed):
            members = _members(array, home, sharded.to_local(list_gid, n))
            for p in array._alive_peers(home):
                peer = array.shards[p]
                what, written = reconcile(array, list_gid, p, peer, members)
                if what == "rewritten":
                    fixed["mirror_blocks_rewritten"] += written
                else:
                    fixed["mirror_lists_rebuilt"] += 1
    for p, volume in enumerate(array.shards):
        if volume is None:
            continue
        for local in sorted(held_ids(volume, lists=True)):
            if local < SYSTEM_ID_BASE or not _holds_list(volume, local):
                continue
            list_gid = local - SYSTEM_ID_BASE
            if not array._alive(sharded.shard_of(list_gid, n)):
                continue  # the surviving copy of a lost home: keep
            if _authority(array, list_gid, p) is None:
                reconcile(array, list_gid, p, volume, None)
                fixed["stray_mirrors_deleted"] += 1
        # Mirror blocks orphaned by an ARU that never committed:
        # allocation commits at once, so sweep them like the paper's
        # disk consistency check sweeps user orphans.
        for block_id in volume.bmap.ids():
            if block_id < SYSTEM_ID_BASE:
                continue
            view = volume.engine.view(volume.bmap, BlockId(block_id), None)
            if view is None or not view.allocated or view.list_id:
                continue
            if array._alive(sharded.shard_of(block_id - SYSTEM_ID_BASE, n)):
                array._sync_clock(volume)
                volume.delete_block(BlockId(block_id))
                fixed["stray_mirrors_deleted"] += 1
    return fixed


class _RepairJob:
    """Incremental rebuild of one lost member onto fresh media: its
    home lists first (degraded data regains redundancy earliest), then
    its mirror lists, each reconciled onto the replacement; the lists
    the router marks dirty meanwhile are reconciled again when no ARU
    is active.  A crash or a lost replacement discards the volume."""

    def __init__(self, array: "ShardedLLD", shard: int) -> None:
        self.array = array
        self.shard = shard
        self.dirty: Set[int] = set()
        self.lists_copied = 0
        self.blocks_copied = 0
        template = array.shards[array._first_alive()]
        injector = template.disk.injector
        injector.replace_shard(shard)
        disk = SimulatedDisk(
            template.geometry,
            model=template.disk.timer.model,
            injector=injector,
            shard_index=shard,
        )
        self.lld = LLD(
            disk, cost_model=template.meter.model, config=template.config
        )
        n = array.n
        homes = [
            h
            for h in range(n)
            if h != shard and array._alive(h) and shard in array._peers(h)
        ]
        self.queue: List[int] = _lists_held(
            array,
            array._alive_peers(shard),
            lambda k: k >= SYSTEM_ID_BASE
            and sharded.shard_of(k - SYSTEM_ID_BASE, n) == shard,
        ) + _lists_held(array, homes, _homed)

    def covers(self, gid: int) -> bool:
        """Whether the member being rebuilt is in ``gid``'s replica set
        (a block and its list share one)."""
        home = sharded.shard_of(gid, self.array.n)
        return self.shard == home or self.shard in self.array._peers(home)

    def list_of(self, gid: int) -> Optional[int]:
        """The list block ``gid`` belongs to (committed view, from the
        first live copy that knows it), if the job covers it."""
        if not self.covers(gid):
            return None
        for s, local in self.array._copies(gid):
            volume = self.array.shards[s]
            volume._restore_block(BlockId(local))
            view = volume.engine.view(volume.bmap, BlockId(local), None)
            if view is not None and view.allocated and view.list_id:
                return self.array._global_id(int(view.list_id), s)
        return None

    def mark(self, list_gid: Optional[int]) -> None:
        """Note that a list changed while its copy may be in flight."""
        if list_gid is not None and self.covers(list_gid):
            self.dirty.add(list_gid)

    def reconcile(self, list_gid: int) -> int:
        """Reconcile one list onto the replacement; the ops it spent."""
        what, written = reconcile(self.array, list_gid, self.shard, self.lld)
        self.lists_copied += what == "rebuilt"
        self.blocks_copied += written
        return 1 + 2 * written


def start_repair(array: "ShardedLLD", shard: Optional[int]) -> int:
    if array._repair is not None:
        raise ConcurrencyError("a repair is already in progress")
    if shard is None:
        if not array._dead:
            raise ValueError("no shard is lost")
        shard = min(array._dead)
    if shard not in array._dead:
        raise ValueError(f"shard {shard} is not lost")
    if array.rf < 2:
        raise ValueError(
            "an unreplicated array has no surviving copies to repair from"
        )
    array._repair = _RepairJob(array, shard)
    return len(array._repair.queue)


def repair_step(array: "ShardedLLD", max_ops: int) -> bool:
    if max_ops < 1:
        raise ValueError(f"max_ops must be >= 1, got {max_ops}")
    job = array._repair
    if job is None:
        return True
    try:
        while job.queue and max_ops > 0:
            max_ops -= job.reconcile(job.queue[0])
            del job.queue[0]
        if job.queue or array._arus:
            return False  # the dirty pass needs the final committed state
        while job.dirty:
            list_gid = next(iter(job.dirty))
            job.reconcile(list_gid)
            job.dirty.discard(list_gid)
        _install(array, job)
        return True
    except ShardLostError as exc:
        if exc.shard == job.shard:
            array._repair = None
        else:
            array._mark_shard_lost(exc.shard)
        return False


def _install(array: "ShardedLLD", job: _RepairJob) -> None:
    """Put the rebuilt volume in the member's place."""
    counters = array._dead_counters.get(job.shard)
    if counters is not None:
        # Ids handed out while the member was down must never be
        # reallocated by the healed volume.
        job.lld._next_block_id = max(job.lld._next_block_id, counters[0])
        job.lld._next_list_id = max(job.lld._next_list_id, counters[1])
    array._sync_clock(job.lld)
    job.lld.flush()
    array.shards[job.shard] = job.lld
    del array._dead[job.shard]
    array._dead_counters.pop(job.shard, None)
    array._repair = None
    array._repairs_completed += 1


def repair(array: "ShardedLLD", shard: Optional[int]) -> dict:
    if array._repair is None:
        start_repair(array, shard)
    if array._arus:
        raise ConcurrencyError(
            "cannot run synchronous repair with active ARUs; use repair_step"
        )
    job = array._repair
    while not repair_step(array, 64):
        pass
    if job.shard in array._dead:
        raise ShardLostError(job.shard, "replacement lost mid-repair")
    return {
        "lists_copied": job.lists_copied,
        "blocks_copied": job.blocks_copied,
    }


def scrub(array: "ShardedLLD", segments) -> dict:
    """Scrub each live member in a call of its own, then heal the
    blocks its scrubber declared lost with :func:`copy_block`."""
    reports: Dict[str, object] = {}
    for s in range(array.n):
        for report in array._each(LLD.scrub, (s,), segments).values():
            reports[str(s)] = report
            volume = array.shards[s]
            for local in report.lost_blocks:
                gid = array._global_id(int(local), s)
                try:
                    copy_block(array, gid, s, volume)
                except (BadBlockError, UnrecoverableBlockError):
                    continue  # no other copy can serve it: stays lost
                except ShardLostError as exc:
                    if exc.shard == s:  # the damaged member itself
                        array._mark_shard_lost(s)
                        break
    return reports
