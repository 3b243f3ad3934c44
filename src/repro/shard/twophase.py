"""The array's two-phase commit: its coordinator, and the one statement
of the protocol.

An ARU that touched one shard commits through that member's own
``end_aru`` (:meth:`~repro.shard.sharded.ShardedLLD.end_aru`).  One
that touched several commits through :func:`commit`, presumed-abort:

1. **Prepare.**  Every live participant merges the ARU and logs a
   PREPARE carrying a fresh transaction id, the *xid*
   (:class:`~repro.lld.participant.Participant`), and is flushed: all
   the ARU's effects and PREPAREs are durable, none committed.  A
   participant lost here is dropped if its mirrors hold its effects.
2. **Decide.**  Each decision shard (:func:`decision_shards`: 0, or
   ``0 .. min(k, N) - 1`` at replication factor k) logs a DECIDE for
   the xid and is flushed, issued in ascending order.  The first
   durable DECIDE is the commit point; the commit is acknowledged once
   every live decision shard holds one, so it survives any k - 1
   losses.  Mirrors ride the home ARU, so its effects are then durable
   on k volumes.
3. **Release.**  Each participant's parked state is released
   (``finish_prepared``) and folds.  Memory only: a crash from here on
   changes nothing.

A failure after PREPARE leaves :func:`commit` by one exit, which
raises :class:`~repro.errors.ShardLostError` with no DECIDE on a live
decision shard.  Recovery (:mod:`repro.shard.recovery`) recovers the
decision shards first, ascending, then the other members against the
union of their decided xids: a PREPARE whose xid is decided rolls
forward, any other is discarded.  Every crash point is all-or-nothing
across the array because of three orderings:

1. **Prepare before decide.**  A durable DECIDE implies every PREPARE
   and all the ARU's data are durable.  A torn DECIDE fails its
   segment's CRC and counts as absent.  An unacknowledged commit may
   resolve either way, but the same way on every surviving member.
2. **Decisions outlive their log segments.**  The cleaner may reuse
   the segment holding a DECIDE while another member's PREPARE is
   still replayable, so every checkpoint record, base and delta,
   carries the decided xids, and recovery unions checkpoint and log.
3. **A checkpoint prunes decisions last.**  :func:`checkpoint` first
   checkpoints the other members side by side; then no PREPARE needs a
   decision.  Then each decision shard, highest first and one at a
   time, forgets its decided set and checkpoints, so shard 0, which
   recovery reads first, holds a superset to the end: [1, 2, 0] for
   three unreplicated shards, [2, 3, 1, 0] for four at k = 2.  A crash
   between leaves a superset of the needed decisions: always safe.

A member with a prepared ARU not yet released refuses to checkpoint
(``checkpoint_safe()``).  Xids are durable state: recovery restores
``ShardedLLD._next_xid`` past the largest one a member names.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.errors import ShardLostError
from repro.ld.types import ARUId
from repro.lld.lld import LLD

if TYPE_CHECKING:
    from repro.shard.sharded import ShardedLLD


def decision_shards(n: int, rf: int) -> List[int]:
    """The members that carry DECIDE records: shard 0 plus, with
    replication factor ``rf``, enough ring successors to survive
    ``rf - 1`` losses."""
    return list(range(min(max(rf, 1), n)))


def decided_pending(array: "ShardedLLD") -> int:
    """The most decided xids any live decision shard still holds."""
    live = [s for s in decision_shards(array.n, array.rf) if array._alive(s)]
    return max((len(array.shards[s]._decided_xids) for s in live), default=0)


# Steps that are two calls on one volume.  They go through the
# instance, so a method patched on the LLD class (the benchmark's
# tracer does that) is the one that runs.


def _decide(volume: LLD, xid: int) -> None:
    volume.log_decision(xid)
    volume.flush()


def _forget_and_checkpoint(volume: LLD) -> None:
    volume.clear_decisions()
    volume.write_checkpoint()


def commit(array: "ShardedLLD", aru: ARUId, participants, alive) -> None:
    """Commit ``aru`` durably across its live participants ``alive``
    (two or more, ascending; ``participants`` maps each shard to its
    local ARU).  Call with the array lock held."""
    xid = array._next_xid
    array._next_xid += 1
    refused = _prepare_and_decide(array, aru, participants, alive, xid)
    if refused is not None:
        # The one exit after PREPARE: no live decision shard holds a
        # DECIDE, so recovery discards every PREPARE of this xid.
        del array._arus[int(aru)]
        raise ShardLostError(min(array._dead), refused)
    for s in alive:
        if array._alive(s):
            array.shards[s].finish_prepared(int(participants[s]))
    array._commits_cross += 1
    del array._arus[int(aru)]


def _prepare_and_decide(array, aru, participants, alive, xid) -> Optional[str]:
    """Phases 1 and 2: None once a DECIDE is durable, else why not."""
    prepared = array._each(LLD.prepare_commit, alive, xid, arus=participants)
    flushed = array._each(LLD.flush, prepared)
    if not all(array._covered(s) for s in alive if s not in flushed):
        return f"ARU {int(aru)}: participants lost before commit"
    if not array._each(_decide, decision_shards(array.n, array.rf), xid):
        return f"xid {xid}: every decision shard lost (presumed abort)"
    return None


def checkpoint(array: "ShardedLLD") -> None:
    """Checkpoint every member of a flushed array in the order that
    prunes decisions last (ordering 3): the other members in one
    fan-out, whose disks overlap, then the decision shards one per
    fan-out, highest first."""
    decision = decision_shards(array.n, array.rf)
    others = [s for s in range(array.n) if s not in decision]
    array._each(LLD.write_checkpoint, others)
    for s in reversed(decision):
        array._each(_forget_and_checkpoint, (s,))
