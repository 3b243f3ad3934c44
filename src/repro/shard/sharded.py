"""``ShardedLLD``: one logical disk striped over N LLD volumes.

Global and per-shard ("local") identifiers are related by a fixed
bijection for both blocks and lists::

    shard_of(g)  = (g - 1) %  N
    to_local(g)  = (g - 1) // N + 1
    to_global(l, s) = (l - 1) * N + s + 1

Each shard allocates its local identifiers densely from 1, so global
identifiers are unique by construction.  New lists go round-robin from
shard 0, which keeps the bootstrap list ids of
:class:`~repro.fs.filesystem.MinixFS` (1 and 2) stable for any shard
count, and a block lives on its list's shard, so every list is wholly
local to one volume.

With :class:`~repro.shard.config.ArrayConfig` ``replication_factor``
k > 1, an entity homed on shard *s* is mirrored on the ring peers
``(s + 1) % N .. (s + k - 1) % N`` under the forced local id
:func:`mirror_id`, ``SYSTEM_ID_BASE + g``: placement is arithmetic,
and no map is stored.  Mirror operations ride the same ARU as the home
one, so an acknowledged commit is durable on k volumes and survives
the loss of any k - 1.  :mod:`repro.shard.twophase` states the
cross-shard commit protocol.  Simple operations are mirrored with
single-volume durability (the next flush), like the home copy.

Every routed operation works on the live copies of a global id, home
first (:meth:`ShardedLLD._copies`): mutations through
:meth:`ShardedLLD._mutate`, queries through :meth:`ShardedLLD._lookup`,
and whole-array operations through :meth:`ShardedLLD._each`.  A
member that raises :class:`~repro.errors.ShardLostError` is failed
over where it is met.  Bringing a copy up to date is
:mod:`repro.shard.replicas`: repair rebuilds a lost member from the
committed copies on its peers, resync reconciles mirrors after a
recovery, and scrub heals a lost block, all by one reconcile rule.

Each shard owns a private :class:`~repro.disk.clock.SimClock`; array
time is the furthest member's, and a call that touches several
members costs its critical path, not the sum (:class:`_FanOut`).
:func:`build_sharded` shares one
:class:`~repro.disk.faults.FaultInjector` across the members, so a
fault plan counts one global write index and a power failure halts
every shard at once.  docs/SHARDING.md tells each of these at length.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.disk.clock import CostModel, SimClock
from repro.disk.faults import FaultInjector
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.disk.timing import DiskModel, HP_C3010
from repro.errors import (
    BadARUError,
    BadBlockError,
    BadListError,
    ShardLostError,
    UnrecoverableBlockError,
)
from repro.ld.interface import LogicalDisk
from repro.ld.types import (
    ARUId,
    BlockId,
    FIRST,
    ListId,
    Predecessor,
    SYSTEM_ID_BASE,
)
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.shard import replicas, twophase
from repro.shard.config import ArrayConfig


def shard_of(global_id: int, n: int) -> int:
    """The shard a global block/list identifier lives on."""
    return (int(global_id) - 1) % n


def to_local(global_id: int, n: int) -> int:
    """A global identifier's local identifier on its shard."""
    return (int(global_id) - 1) // n + 1


def to_global(local_id: int, shard: int, n: int) -> int:
    """The global identifier of shard-local ``local_id``."""
    return (int(local_id) - 1) * n + shard + 1


def mirror_id(global_id: int) -> int:
    """The forced local identifier of ``global_id``'s mirror on any
    peer shard: deterministic, so replica placement needs no map."""
    return SYSTEM_ID_BASE + int(global_id)


class _MaxClock:
    """Read-only clock view over the shard array: 'now' is the
    furthest live shard, matching how a host would observe the
    array — and never earlier than ``floor_us``, the last reading of
    the furthest member lost so far, so array time is monotone."""

    def __init__(self, shards: Sequence[Optional[LLD]]) -> None:
        self._shards = shards
        self.floor_us = 0.0

    @property
    def now_us(self) -> float:
        now = self.floor_us
        for shard in self._shards:
            if shard is not None and shard.clock.now_us > now:
                now = shard.clock.now_us
        return now

    @property
    def now_s(self) -> float:
        return self.now_us / 1e6


class _FanOut:
    """Array time across one call that touches several members: its
    critical path, not the sum.  One host CPU issues the members'
    calls in program order and the disks work side by side: with
    ``t0`` the array time when the fan-out starts, a member starts at
    ``t0`` plus the simulated CPU the members before it charged —
    their clock's advance less their disk's busy time, exact because
    only its cost meter, its disk timer and this rule move a clock.
    The join is implicit: array time is the furthest member and the
    next call starts there.  One member: ``_sync_clock`` + the call."""

    def __init__(self, array: "ShardedLLD") -> None:
        self._array = array
        self._t0 = self._start_us = array.clock.now_us
        self._serial_us = 0.0
        self._legs = 0
        self._clock: Optional[SimClock] = None

    def start(self, volume: LLD) -> None:
        """The member before (if any) is done issuing: bring
        ``volume``'s clock to where its call starts (never back)."""
        if self._clock is not None:
            took_us = self._clock.now_us - self._began_us
            self._start_us += took_us - (self._timer.busy_us - self._busy_us)
            self._serial_us += took_us
            self._legs += 1
        self._clock = clock = volume.clock
        self._timer = timer = volume.disk.timer
        if self._start_us > clock.now_us:
            clock.advance_us(self._start_us - clock.now_us)
        self._began_us = clock.now_us
        self._busy_us = timer.busy_us

    def join(self) -> None:
        """Count what the overlap bought; the clocks need nothing."""
        if self._legs:  # members before the last one: at least two
            array = self._array
            array._fanouts += 1
            last_us = self._clock.now_us - self._began_us
            array._fanout_serial_us += self._serial_us + last_us
            array._fanout_elapsed_us += array.clock.now_us - self._t0


# A member-loop step that is two calls on one volume.  It goes through
# the instance, so a method patched on the LLD class (the benchmark's
# tracer does that) is the one that runs.


def _end_aru_durably(volume: LLD, local: ARUId) -> None:
    volume.end_aru(local)
    volume.flush()


class ShardedLLD(LogicalDisk):
    """N independent LLD volumes behind one LogicalDisk interface.

    Args:
        shards: The member volumes, in shard order (``None`` entries
            are lost members of a degraded array).  The decision
            shards (:func:`repro.shard.twophase.decision_shards`)
            carry the DECIDE records of cross-shard commits.
        array_config: :class:`~repro.shard.config.ArrayConfig`
            (the replication factor); ``None`` means the unreplicated
            default.
        dead: shard index -> reason for members lost before assembly
            (recovery passes this for shards whose media is gone);
            their allocation counters are derived from the surviving
            mirrors.

    Build fresh arrays with :func:`build_sharded`; reassemble crashed
    ones with :func:`repro.recovery.recover`.
    """

    def __init__(
        self,
        shards: Sequence[Optional[LLD]],
        array_config: Optional[ArrayConfig] = None,
        dead: Optional[Dict[int, str]] = None,
    ) -> None:
        if not shards:
            raise ValueError("a sharded volume needs at least one shard")
        self.shards: List[Optional[LLD]] = list(shards)
        self.n = len(self.shards)
        self.config = array_config or ArrayConfig()
        self.rf = self.config.replication_factor
        if self.rf > self.n:
            raise ValueError(
                f"replication_factor {self.rf} needs at least {self.rf} "
                f"shards, got {self.n}"
            )
        self._dead: Dict[int, str] = {
            int(k): str(v) for k, v in (dead or {}).items()
        }
        for index, shard in enumerate(self.shards):
            if shard is None and index not in self._dead:
                self._dead[index] = "missing"
            elif shard is not None and index in self._dead:
                self.shards[index] = None
        if len(self._dead) >= self.n:
            raise ValueError("every shard of the array is lost")
        self.geometry = self.shards[self._first_alive()].geometry
        self.clock = _MaxClock(self.shards)
        self._lock = threading.RLock()
        #: global ARU id -> {shard index: local ARU id} for every
        #: shard the ARU has touched so far (participants).
        self._arus: Dict[int, Dict[int, ARUId]] = {}
        self._next_aru = 1
        #: Coordinator transaction ids are durable state (they appear
        #: in PREPARE/DECIDE records); recovery restores the counter.
        self._next_xid = 1
        #: Allocation counters of dead shards, so ids handed out
        #: while a member is down stay dense and are never reused.
        self._dead_counters: Dict[int, List[int]] = {
            index: self._derive_dead_counters(index) for index in self._dead
        }
        # Round-robin pointer for new lists; derived from the shards'
        # allocation counters so a reassembled array keeps striping
        # where the crashed one stopped.
        self._next_shard = (
            sum(
                (
                    shard._next_list_id
                    if shard is not None
                    else self._dead_counters[index][1]
                )
                - 1
                for index, shard in enumerate(self.shards)
            )
            % self.n
        )
        self._commits_single = 0
        self._commits_cross = 0
        self._degraded_reads = 0
        self._repairs_completed = 0
        self._blocks_healed = 0
        self._lists_healed = 0
        self._replica_skips = 0
        #: Fan-outs over >= 2 members: Σ member time vs array time.
        self._fanouts = 0
        self._fanout_serial_us = 0.0
        self._fanout_elapsed_us = 0.0
        self._repair: Optional[replicas._RepairJob] = None
        self._resync_pending = False

    # ------------------------------------------------------------------
    # Replica sets, clock and failover
    # ------------------------------------------------------------------

    def _first_alive(self) -> int:
        for index, shard in enumerate(self.shards):
            if shard is not None:
                return index
        raise ShardLostError(0, "every shard of the array is lost")

    def _alive(self, shard_index: int) -> bool:
        return self.shards[shard_index] is not None

    def _peers(self, shard_index: int) -> List[int]:
        """Ring peers holding mirrors of ``shard_index``'s entities."""
        return [(shard_index + i) % self.n for i in range(1, self.rf)]

    def _alive_peers(self, shard_index: int) -> List[int]:
        return [p for p in self._peers(shard_index) if self._alive(p)]

    def _copies(self, gid: int) -> List[Tuple[int, int]]:
        """The live copies of a global id as ``(shard, local id)``,
        home first — the replica set everything routes through."""
        home = shard_of(gid, self.n)
        copies = [(home, to_local(gid, self.n))] if self._alive(home) else []
        return copies + [(p, mirror_id(gid)) for p in self._alive_peers(home)]

    def _covered(self, shard_index: int) -> bool:
        """Whether what a member holds is reachable: every replica set
        it is in (its own, its ``rf - 1`` homes') has a live member."""
        return all(
            self._alive(h % self.n) or self._alive_peers(h % self.n)
            for h in range(shard_index - self.rf + 1, shard_index + 1)
        )

    def _global_id(self, local_id: int, shard_index: int) -> int:
        """The global id behind a member-local id: mirrors live in
        the system range, home entities below it."""
        if local_id >= SYSTEM_ID_BASE:
            return local_id - SYSTEM_ID_BASE
        return to_global(local_id, shard_index, self.n)

    def _sync_clock(self, volume: LLD) -> None:
        """Advance one volume's clock to the array-wide 'now' before
        routing an operation to it alone: the one-member fan-out."""
        target = self.clock.now_us
        clock = volume.clock
        if target > clock.now_us:
            clock.advance_us(target - clock.now_us)

    def _local_aru(
        self, aru: Optional[ARUId], shard_index: int, create: bool
    ) -> Optional[ARUId]:
        """Map a global ARU to its local ARU on one shard.

        ``create=True`` (mutating operations) begins a local ARU on
        first touch, enrolling the shard as a participant;
        ``create=False`` (reads) returns the local ARU only if the
        shard is already a participant — the ARU has no shadow state
        there otherwise.
        """
        if aru is None:
            return None
        participants = self._arus.get(int(aru))
        if participants is None:
            raise BadARUError(int(aru))
        local = participants.get(shard_index)
        if local is None and create:
            local = self.shards[shard_index].begin_aru()
            participants[shard_index] = local
        return local

    def _mark_shard_lost(self, shard_index: int, reason: str = "lost") -> None:
        """Fail a member over to its replicas: snapshot its
        allocation counters (ids handed out must never be reused) and
        its clock (array time must not run backwards), drop the
        object and record the death."""
        if shard_index in self._dead:
            return
        shard = self.shards[shard_index]
        if shard is not None:
            self._dead_counters[shard_index] = [
                int(shard._next_block_id),
                int(shard._next_list_id),
            ]
            self.clock.floor_us = max(self.clock.floor_us, shard.clock.now_us)
            try:
                shard._mark_dead("shard lost")
            except Exception:
                pass
        self.shards[shard_index] = None
        self._dead[shard_index] = reason

    def _take_dead_id(self, shard_index: int, kind: str) -> int:
        """Next local id for an allocation homed on a dead shard."""
        counters = self._dead_counters[shard_index]
        slot = 0 if kind == "block" else 1
        value = counters[slot]
        counters[slot] = value + 1
        return value

    def _derive_dead_counters(self, shard_index: int) -> List[int]:
        """Best-effort allocation counters for a member that was
        already lost at assembly: one past the largest id any
        surviving mirror names.  (Exact when the largest-id entity
        still exists; a real array would persist member metadata.)
        """
        top = [0, 0]
        for p in self._alive_peers(shard_index):
            volume = self.shards[p]
            for slot, lists in enumerate((False, True)):
                for local in replicas.held_ids(volume, lists):
                    gid = local - SYSTEM_ID_BASE
                    if (
                        local >= SYSTEM_ID_BASE
                        and shard_of(gid, self.n) == shard_index
                    ):
                        top[slot] = max(top[slot], to_local(gid, self.n))
        return [top[0] + 1, top[1] + 1]

    # ------------------------------------------------------------------
    # The router: every routed operation is one of these three shapes
    # ------------------------------------------------------------------

    def _mutate(
        self,
        method,
        aru: Optional[ARUId],
        home: int,
        home_args: tuple,
        mirror_args: tuple,
        what: str,
        alloc: Optional[str] = None,
    ):
        """Apply one mutation to every live copy, home first.

        ``method`` is the :class:`~repro.lld.lld.LLD` method, called
        with ``home_args`` on the home copy — which validates, so its
        ``BadBlockError``/``BadListError`` propagate before any
        mirror is touched — and with ``mirror_args`` on each live
        ring peer.  A copy that raises ``ShardLostError`` is failed
        over; a mirror that rejects the operation (it diverged while
        degraded) is counted in ``replica_skips``.  If no copy took
        the mutation, that rejection or ``ShardLostError`` is raised.

        ``alloc`` (``"block"``/``"list"``) marks an allocator: the
        result is the new *global* id — drawn from the dead home's
        counter snapshot when a mirror stands in for it — and mirrors
        are admitted under the forced ``mirror_id`` of that id.
        """
        result = None
        took = False
        # A single copy has nothing to overlap with.
        fan = _FanOut(self) if self.rf > 1 else None
        volume = self.shards[home]
        if volume is not None:
            try:
                if fan is None:
                    self._sync_clock(volume)
                else:
                    fan.start(volume)
                result = method(
                    volume,
                    *home_args,
                    aru=self._local_aru(aru, home, create=True),
                )
                took = True
            except ShardLostError:
                self._mark_shard_lost(home)
        peers = self._alive_peers(home) if fan is not None else ()
        forced = {}
        if alloc is not None and (took or peers):
            local = result if took else self._take_dead_id(home, alloc)
            result = to_global(local, home, self.n)
            forced[alloc + "_id"] = mirror_id(result)
        bad: Optional[Exception] = None
        for p in peers:
            volume = self.shards[p]
            fan.start(volume)
            try:
                method(
                    volume,
                    *mirror_args,
                    aru=self._local_aru(aru, p, create=True),
                    **forced,
                )
                took = True
            except ShardLostError:
                self._mark_shard_lost(p)
            except (BadBlockError, BadListError) as exc:
                bad = exc
                self._replica_skips += 1
        if fan is not None:
            fan.join()
        if took:
            return result
        if bad is not None:
            raise bad
        raise self._no_replica(what, home, home_args)

    def _no_replica(
        self, what: str, home: int, home_args: tuple
    ) -> ShardLostError:
        """The error for an entity none of whose copies is reachable;
        its global id is recovered from the home-local id leading
        ``home_args`` (the hot path formats no message)."""
        if home_args:
            what = f"{what} {to_global(home_args[0], home, self.n)}"
        return ShardLostError(home, f"{what}: no surviving replica")

    def _lookup(
        self,
        method,
        aru: Optional[ARUId],
        home: int,
        home_args: tuple,
        mirror_args: tuple,
        what: str,
    ):
        """Answer one query from the first live copy that can:
        ``(shard it came from, result)``.

        The home copy answers unless it is lost or — when a live peer
        exists — its data is gone (``UnrecoverableBlockError``, a
        quarantined segment); then the first mirror that has the
        entity answers, counted in ``degraded_reads``.
        """
        volume = self.shards[home]
        if volume is not None:
            try:
                self._sync_clock(volume)
                return home, method(
                    volume,
                    *home_args,
                    aru=self._local_aru(aru, home, create=False),
                )
            except ShardLostError:
                self._mark_shard_lost(home)
            except UnrecoverableBlockError:
                if not self._alive_peers(home):
                    raise
        last: Optional[Exception] = None
        for p in self._alive_peers(home):
            volume = self.shards[p]
            try:
                self._sync_clock(volume)
                result = method(
                    volume,
                    *mirror_args,
                    aru=self._local_aru(aru, p, create=False),
                )
                self._degraded_reads += 1
                return p, result
            except ShardLostError:
                self._mark_shard_lost(p)
            except (
                BadBlockError, BadListError, UnrecoverableBlockError
            ) as exc:
                last = exc
        if last is not None:
            raise last
        raise self._no_replica(what, home, home_args)

    def _each(
        self,
        call,
        members: Optional[Iterable[int]] = None,
        *args,
        arus: Optional[Dict[int, ARUId]] = None,
    ) -> Dict[int, object]:
        """``call(volume, *args)`` on every live member of ``members``
        (default: all), issued in that order as one fan-out (members
        that must *finish* in order go one per call); with ``arus``
        the member's local ARU id leads the arguments.  A member lost
        on the way is failed over and left out of ``{shard: result}``."""
        results: Dict[int, object] = {}
        fan = _FanOut(self)
        for s in range(self.n) if members is None else members:
            volume = self.shards[s]
            if volume is None:
                continue
            fan.start(volume)
            try:
                if arus is None:
                    results[s] = call(volume, *args)
                else:
                    results[s] = call(volume, arus[s], *args)
            except ShardLostError:
                self._mark_shard_lost(s)
        fan.join()
        return results

    # ------------------------------------------------------------------
    # ARUs
    # ------------------------------------------------------------------

    def begin_aru(self) -> ARUId:
        with self._lock:
            aru = ARUId(self._next_aru)
            self._next_aru += 1
            self._arus[int(aru)] = {}
            return aru

    def end_aru(self, aru: ARUId) -> None:
        """Commit an ARU across every shard it touched.

        A lone participant commits through its own ``end_aru``
        (durable at the next flush, like any single volume; flushed at
        once on a *replicated* array, so an acknowledged commit is
        durable); several commit durably through
        :func:`repro.shard.twophase.commit`.  Members lost on the way
        are failed over; a participant lost with no copy left
        (:meth:`_covered`) raises.
        """
        with self._lock:
            participants = self._arus.get(int(aru))
            if participants is None:
                raise BadARUError(int(aru))
            alive = [s for s in sorted(participants) if self._alive(s)]
            for s in participants:
                if s not in alive and not self._covered(s):
                    self.abort_aru(aru)  # never half an ARU acknowledged
                    raise ShardLostError(
                        s, f"ARU {int(aru)}: participant has no replica left"
                    )
            if len(alive) <= 1:
                # On a replicated array a lone participant has no
                # second copy to survive on, so "acked" must mean
                # durable — flush immediately.  The unreplicated
                # array keeps the durable-at-next-flush contract.
                commit = _end_aru_durably if self.rf > 1 else LLD.end_aru
                committed = self._each(commit, alive, arus=participants)
                del self._arus[int(aru)]
                if alive and not committed:
                    raise ShardLostError(
                        min(self._dead),
                        f"ARU {int(aru)}: every participant lost "
                        "before commit",
                    )
                self._commits_single += 1
                return
            twophase.commit(self, aru, participants, alive)

    def abort_aru(self, aru: ARUId) -> None:
        with self._lock:
            participants = self._arus.get(int(aru))
            if participants is None:
                raise BadARUError(int(aru))
            self._each(LLD.abort_aru, sorted(participants), arus=participants)
            del self._arus[int(aru)]

    # ------------------------------------------------------------------
    # Blocks
    # ------------------------------------------------------------------

    def new_block(
        self,
        list_id: ListId,
        predecessor: Predecessor = FIRST,
        aru: Optional[ARUId] = None,
    ) -> BlockId:
        with self._lock:
            list_gid = int(list_id)
            if predecessor is FIRST:
                home_pred = mirror_pred = FIRST
            else:
                home_pred = to_local(predecessor, self.n)
                mirror_pred = mirror_id(predecessor)
            gid = self._mutate(
                LLD.new_block,
                aru,
                shard_of(list_gid, self.n),
                (to_local(list_gid, self.n), home_pred),
                (mirror_id(list_gid), mirror_pred),
                "list",
                alloc="block",
            )
            if self._repair is not None:
                self._repair.mark(list_gid)
            return BlockId(gid)

    def delete_block(
        self, block_id: BlockId, aru: Optional[ARUId] = None
    ) -> None:
        with self._lock:
            gid = int(block_id)
            # The block's list is unknowable once it is deleted, and
            # only a repair covering it wants to know.
            job = self._repair
            list_gid = job.list_of(gid) if job is not None else None
            self._mutate(
                LLD.delete_block,
                aru,
                shard_of(gid, self.n),
                (to_local(gid, self.n),),
                (mirror_id(gid),),
                "block",
            )
            if job is not None:
                job.mark(list_gid)

    def write(
        self, block_id: BlockId, data: bytes, aru: Optional[ARUId] = None
    ) -> None:
        if data.__class__ is not bytes:
            # Once for every replica: each member then takes it as is.
            data = memoryview(data).tobytes()
        with self._lock:
            gid = int(block_id)
            self._mutate(
                LLD.write,
                aru,
                shard_of(gid, self.n),
                (to_local(gid, self.n), data),
                (mirror_id(gid), data),
                "block",
            )
            job = self._repair
            if job is not None:
                job.mark(job.list_of(gid))

    def read(self, block_id: BlockId, aru: Optional[ARUId] = None) -> bytes:
        with self._lock:
            gid = int(block_id)
            return self._lookup(
                LLD.read,
                aru,
                shard_of(gid, self.n),
                (to_local(gid, self.n),),
                (mirror_id(gid),),
                "block",
            )[1]

    def read_many(
        self, block_ids: Sequence[BlockId], aru: Optional[ARUId] = None
    ) -> List[bytes]:
        """Batched read: blocks are grouped by home shard and each
        live home serves its group with one ``LLD.read_many``, the
        groups as one fan-out.  A group whose home is lost — or whose
        batch meets a lost shard or unrecoverable block — is re-read
        block by block through :meth:`read`, so every block still
        fails over on its own (in turn: that ends the fan-out)."""
        with self._lock:
            by_shard: Dict[int, List[Tuple[int, BlockId]]] = {}
            for index, gid in enumerate(block_ids):
                by_shard.setdefault(shard_of(gid, self.n), []).append(
                    (index, gid)
                )
            results: List[Optional[bytes]] = [None] * len(block_ids)
            fan = _FanOut(self)
            for s in sorted(by_shard):
                items = by_shard[s]
                volume = self.shards[s]
                data = None
                if volume is not None:
                    fan.start(volume)
                    try:
                        data = volume.read_many(
                            [to_local(gid, self.n) for _i, gid in items],
                            aru=self._local_aru(aru, s, create=False),
                        )
                    except (ShardLostError, UnrecoverableBlockError):
                        pass
                if data is None:
                    fan.join()
                    data = [self.read(gid, aru=aru) for _i, gid in items]
                    fan = _FanOut(self)
                for (index, _gid), payload in zip(items, data):
                    results[index] = payload
            fan.join()
            return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Lists
    # ------------------------------------------------------------------

    def new_list(self, aru: Optional[ARUId] = None) -> ListId:
        with self._lock:
            home = self._next_shard
            self._next_shard = (home + 1) % self.n
            gid = self._mutate(
                LLD.new_list, aru, home, (), (), "new list", alloc="list"
            )
            if self._repair is not None:
                self._repair.mark(gid)
            return ListId(gid)

    def delete_list(
        self, list_id: ListId, aru: Optional[ARUId] = None
    ) -> None:
        with self._lock:
            list_gid = int(list_id)
            self._mutate(
                LLD.delete_list,
                aru,
                shard_of(list_gid, self.n),
                (to_local(list_gid, self.n),),
                (mirror_id(list_gid),),
                "list",
            )
            if self._repair is not None:
                self._repair.mark(list_gid)

    def list_blocks(
        self, list_id: ListId, aru: Optional[ARUId] = None
    ) -> List[BlockId]:
        with self._lock:
            list_gid = int(list_id)
            source, members = self._lookup(
                LLD.list_blocks,
                aru,
                shard_of(list_gid, self.n),
                (to_local(list_gid, self.n),),
                (mirror_id(list_gid),),
                "list",
            )
            return [BlockId(self._global_id(b, source)) for b in members]

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def flush(self) -> None:
        with self._lock:
            self._each(LLD.flush)

    @property
    def restore_active(self) -> bool:
        """True while any shard's instant restore is still pending."""
        return any(
            shard.restore_active
            for shard in self.shards
            if shard is not None
        )

    def restore_drain(self, max_segments=None) -> int:
        """Drain pending restore segments on every shard (sum)."""
        with self._lock:
            return sum(
                self._each(LLD.restore_drain, None, max_segments).values()
            )

    def complete_restore(self) -> None:
        """Finish every shard's in-progress instant restore; run a
        deferred replica resync once final table state exists."""
        with self._lock:
            self._each(LLD.complete_restore)
            if self._resync_pending and not self._arus:
                self._resync_pending = False
                self.resync()

    def write_checkpoint(self) -> None:
        """Checkpoint every shard (a global recovery bound), in the
        order that prunes the decided xids last
        (:func:`repro.shard.twophase.checkpoint`)."""
        with self._lock:
            self.flush()
            twophase.checkpoint(self)

    # ------------------------------------------------------------------
    # Failure, repair and replica maintenance
    # ------------------------------------------------------------------

    @property
    def dead_shards(self) -> List[int]:
        """Indices of lost members, ascending."""
        return sorted(self._dead)

    @property
    def repair_active(self) -> bool:
        return self._repair is not None

    def lose_shard(self, shard_index: int) -> None:
        """Destroy one member's media (a first-class injectable
        fault): the shared injector rejects all further I/O to it and
        the array fails it over to its replicas immediately."""
        with self._lock:
            if not 0 <= shard_index < self.n:
                raise ValueError(f"no shard {shard_index} in a {self.n}-shard array")
            shard = self.shards[shard_index]
            injector = (
                shard.disk.injector
                if shard is not None
                else self.shards[self._first_alive()].disk.injector
            )
            injector.lose_shard(shard_index)
            self._mark_shard_lost(shard_index, "lost by operator")

    def start_repair(self, shard_index: Optional[int] = None) -> int:
        """Begin rebuilding a lost member (the lowest lost one by
        default) onto fresh replacement media.  Returns the number of
        lists queued; drive the copy with :meth:`repair_step` (paced)
        or :meth:`repair` (synchronous)."""
        with self._lock:
            return replicas.start_repair(self, shard_index)

    def repair_step(self, max_ops: int = 64) -> bool:
        """Spend up to ``max_ops`` copy operations of the active
        repair; True once it has completed, which needs a moment with
        no active ARU (the dirty lists' last pass, then the install).
        A lost source is failed over to the next copy; a lost
        replacement ends the repair (False, none active) and the
        member stays lost."""
        with self._lock:
            return replicas.repair_step(self, max_ops)

    def repair(self, shard_index: Optional[int] = None) -> dict:
        """Rebuild a lost member synchronously (start + run to
        completion).  Requires no active ARUs.  Returns copy counts.
        """
        with self._lock:
            return replicas.repair(self, shard_index)

    def scrub(self, segments: Optional[Sequence[int]] = None) -> dict:
        """Scrub every live shard; blocks the per-volume scrubber
        declares lost are healed from their surviving replicas (each
        member's right after its own scrub)."""
        with self._lock:
            return replicas.scrub(self, segments)

    def clean(self) -> None:
        """Run one segment-cleaner pass on every live shard (the
        array-wide twin of :meth:`~repro.lld.lld.LLD.clean`, for
        maintenance drivers running during live traffic)."""
        with self._lock:
            self._each(LLD.clean)

    def resync(self) -> Dict[str, int]:
        """Reconcile every mirror with its live home copy, and drop
        the mirrors no live home backs (a lost home's are kept: they
        are its surviving copy).  Recovery runs it; it also builds the
        mirrors of an unreplicated image recovered at rf > 1.  Needs
        no active ARU.  Returns what it mended."""
        with self._lock:
            return replicas.resync(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def sharding_info(self) -> dict:
        """Striping, commit-protocol and replication counters (see
        the stats schema's ``sharding`` section)."""
        return {
            "shards": self.n,
            "replication_factor": self.rf,
            "xids_issued": self._next_xid - 1,
            "commits_single_shard": self._commits_single,
            "commits_cross_shard": self._commits_cross,
            "decided_pending": twophase.decided_pending(self),
            "dead_shards": len(self._dead),
            "degraded_reads": self._degraded_reads,
            "repairs_completed": self._repairs_completed,
            "blocks_healed": self._blocks_healed,
            "lists_healed": self._lists_healed,
            "replica_skips": self._replica_skips,
            "fanouts": self._fanouts,
            "fanout_serial_us": self._fanout_serial_us,
            "fanout_elapsed_us": self._fanout_elapsed_us,
            "redundancy_full": not self._dead and self._repair is None,
        }

    def stats(self) -> dict:
        """Per-shard stats under the frozen schema, plus a summed
        aggregate view (itself frozen-schema-conformant) and the
        sharding counters.  Lost members have no stats to report, so
        an array with no live member raises ``ShardLostError`` like
        every other call; :meth:`sharding_info` still answers."""
        from repro.obs.aggregate import aggregate_stats

        self._first_alive()
        per_shard = {
            str(index): shard.stats()
            for index, shard in enumerate(self.shards)
            if shard is not None
        }
        return {
            "shards": per_shard,
            "aggregate": aggregate_stats(list(per_shard.values())),
            "sharding": self.sharding_info(),
        }


def build_sharded(
    num_shards: int,
    geometry: Optional[DiskGeometry] = None,
    cost_model: Optional[CostModel] = None,
    disk_model: DiskModel = HP_C3010,
    config: Optional[LLDConfig] = None,
    injector: Optional[FaultInjector] = None,
    array_config: Optional[ArrayConfig] = None,
) -> ShardedLLD:
    """Build a fresh N-shard volume.

    ``geometry`` is per shard (every member volume gets its own
    partition of that size).  All shard disks share one fault
    injector — ``injector`` or a fresh fault-free one — so a fault
    plan counts a single global write index and power failure is
    simultaneous across the array; each disk knows its shard index,
    so shard-scoped faults and whole-shard loss hit the right member.
    Each shard gets a private clock.  ``config`` configures every
    member LLD alike; ``array_config`` the array (its replication
    factor).
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    geo = geometry if geometry is not None else DiskGeometry.small(
        num_segments=64
    )
    shared = injector if injector is not None else FaultInjector()
    shards = [
        LLD(
            SimulatedDisk(
                geo, model=disk_model, injector=shared, shard_index=index
            ),
            cost_model=cost_model,
            config=config,
        )
        for index in range(num_shards)
    ]
    return ShardedLLD(shards, array_config=array_config)
