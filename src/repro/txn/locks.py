"""A strict two-phase lock manager with wait-die deadlock avoidance.

Locks are held on arbitrary hashable resources (the transaction layer
uses block and list identifiers).  Shared locks are compatible with
shared locks; exclusive locks are compatible with nothing.  Lock
upgrades (shared -> exclusive) are supported.

Deadlock avoidance is the classic *wait-die* scheme: a transaction
may wait only for **older** transactions (smaller timestamp); when a
younger one wants a lock an older one holds, the younger requester
"dies" (:class:`~repro.errors.DeadlockError`) and is expected to
abort and retry **with its original timestamp** (see
:func:`repro.txn.transactions.run_transaction`, which threads the
timestamp through :meth:`repro.txn.transactions.TransactionManager.
begin`).  Retrying with the original timestamp is what makes wait-die
starvation-free: a victim only ever gets *relatively older* on each
retry, so it eventually outranks every competitor and wins.

Two refinements over the textbook scheme, both needed once many
threads actually contend (``docs/CONCURRENCY.md`` discusses them):

* **Waiter-aware grants.** A requester conflicts not only with the
  current *holders* but also with older *waiters*.  Without this, a
  stream of young shared requesters can be granted over and over
  while an older exclusive waiter starves — wait-die only kills
  waits-for-older, and those young readers never wait.  Letting an
  older waiter block (kill, in wait-die terms) younger conflicting
  requesters keeps every wait pointed at strictly younger owners, so
  the waits-for graph stays acyclic and the scheme stays
  deadlock-free.
* **Deadline timeouts.** Each :meth:`LockManager.acquire` computes
  one monotonic deadline up front and waits only for the *remaining*
  time after every wakeup.  Passing the full timeout to every
  ``Condition.wait`` call would reset the clock on each
  ``notify_all`` — under heavy traffic a waiter's effective timeout
  becomes unbounded, which is exactly when timeouts matter most.

A waiter blocks on the manager's :class:`threading.Condition` and
registers in ``state.waiters``.  The registration must be removed on
every exit from :meth:`LockManager.acquire` — grant, death, timeout —
because a stale entry is indistinguishable from a live older waiter
and would make younger requesters die against a ghost forever; the
wait loop therefore drops it in a ``finally``.
"""

from __future__ import annotations

import enum
import threading
import time
from typing import Dict, Hashable, Set

from repro.errors import DeadlockError, LockError


class LockMode(enum.Enum):
    """Lock compatibility modes."""

    SHARED = "shared"
    EXCLUSIVE = "exclusive"


def _conflicts(a: LockMode, b: LockMode) -> bool:
    return a is LockMode.EXCLUSIVE or b is LockMode.EXCLUSIVE


class _LockState:
    """Holders and waiters (by owner id -> mode) of one resource."""

    __slots__ = ("holders", "waiters")

    def __init__(self) -> None:
        self.holders: Dict[int, LockMode] = {}
        self.waiters: Dict[int, LockMode] = {}


class LockManager:
    """Grants shared/exclusive locks to timestamp-ordered owners."""

    def __init__(self, timeout_s: float = 10.0) -> None:
        self._mutex = threading.Lock()
        self._changed = threading.Condition(self._mutex)
        self._locks: Dict[Hashable, _LockState] = {}
        #: owner id -> priority timestamp (smaller = older = wins)
        self._owner_ts: Dict[int, int] = {}
        self.timeout_s = timeout_s
        self.grants = 0
        self.waits = 0
        self.deaths = 0
        self.timeouts = 0

    def register(self, owner: int, timestamp: int) -> None:
        """Introduce an owner with its wait-die priority timestamp."""
        with self._mutex:
            self._owner_ts[owner] = timestamp

    def _drop_waiter_locked(self, owner: int, resource: Hashable) -> None:
        """Remove a waiter registration and wake anyone queued behind
        it (a departing older waiter may unblock younger requesters)."""
        state = self._locks.get(resource)
        if state is None:
            return
        state.waiters.pop(owner, None)
        if not state.holders and not state.waiters:
            del self._locks[resource]
        else:
            self._changed.notify_all()

    def acquire(
        self, owner: int, resource: Hashable, mode: LockMode
    ) -> float:
        """Acquire (or upgrade to) ``mode`` on ``resource``.

        Returns the wall-clock microseconds spent inside the call —
        the request's lock-wait contribution, which the transaction
        layer accumulates for tail-latency decomposition.

        Raises:
            DeadlockError: If wait-die decides this owner must abort
                (it conflicts with an older holder or older waiter).
            LockError: If the owner was never registered, if a holder
                of the lock is not registered (corrupted lock table),
                or if the wait times out — a deadlock *symptom*
                callers should treat like a death (abort and retry
                with the original timestamp).
        """
        start = time.monotonic()
        deadline = start + self.timeout_s
        with self._changed:
            if owner not in self._owner_ts:
                raise LockError(f"owner {owner} is not registered")
            waiting_on: Hashable = None
            registered_wait = False
            try:
                while True:
                    # Re-fetch each iteration: release_all drops empty
                    # lock states from the table while we wait, so a
                    # pre-wait reference could be an orphaned object.
                    state = self._locks.setdefault(resource, _LockState())
                    if self._compatible(state, owner, mode):
                        state.holders[owner] = self._merge_mode(
                            state, owner, mode
                        )
                        self.grants += 1
                        return (time.monotonic() - start) * 1e6
                    self._check_wait_die(state, owner, mode)
                    if not registered_wait:
                        state.waiters[owner] = mode
                        waiting_on = resource
                        registered_wait = True
                        self.waits += 1
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._changed.wait(
                        timeout=remaining
                    ):
                        self.timeouts += 1
                        raise LockError(
                            f"timed out waiting for {mode.value} lock on "
                            f"{resource!r}"
                        )
            finally:
                if registered_wait:
                    self._drop_waiter_locked(owner, waiting_on)

    def _merge_mode(
        self, state: _LockState, owner: int, mode: LockMode
    ) -> LockMode:
        held = state.holders.get(owner)
        if held is LockMode.EXCLUSIVE or mode is LockMode.EXCLUSIVE:
            return LockMode.EXCLUSIVE
        return LockMode.SHARED

    def _ts(self, owner: int, other: int, resource_hint: str) -> int:
        """The registered timestamp of ``other`` — a holder or waiter
        seen by ``owner``.  An unregistered entry is corrupted state
        (release_all removes table entries and registration under one
        mutex acquisition), so it raises rather than silently winning
        every wait-die comparison."""
        ts = self._owner_ts.get(other)
        if ts is None:
            raise LockError(
                f"lock table corrupted: {resource_hint} {other} is not a "
                f"registered owner (seen by owner {owner})"
            )
        return ts

    def _compatible(
        self, state: _LockState, owner: int, mode: LockMode
    ) -> bool:
        for holder, held_mode in state.holders.items():
            if holder == owner:
                continue
            if _conflicts(mode, held_mode):
                return False
        # Waiter-aware grants: never overtake an *older* conflicting
        # waiter, or an old exclusive upgrade can starve behind an
        # endless stream of young shared grants.  An upgrader (owner
        # already holds the lock) is exempt — it must run before any
        # waiter can make progress anyway.
        if owner not in state.holders:
            my_ts = self._owner_ts[owner]
            for waiter, wait_mode in state.waiters.items():
                if waiter == owner:
                    continue
                if _conflicts(mode, wait_mode) and (
                    self._ts(owner, waiter, "waiter") < my_ts
                ):
                    return False
        return True

    def _check_wait_die(
        self, state: _LockState, owner: int, mode: LockMode
    ) -> None:
        my_ts = self._owner_ts[owner]
        for holder, held_mode in state.holders.items():
            if holder == owner or not _conflicts(mode, held_mode):
                continue
            holder_ts = self._ts(owner, holder, "holder")
            if my_ts > holder_ts:
                self.deaths += 1
                raise DeadlockError(
                    f"wait-die: owner {owner} (ts {my_ts}) must not wait "
                    f"for older owner {holder} (ts {holder_ts})"
                )
        for waiter, wait_mode in state.waiters.items():
            if waiter == owner or not _conflicts(mode, wait_mode):
                continue
            if my_ts > self._ts(owner, waiter, "waiter"):
                self.deaths += 1
                raise DeadlockError(
                    f"wait-die: owner {owner} (ts {my_ts}) must not queue "
                    f"behind older waiter {waiter}"
                )

    def release_all(self, owner: int) -> int:
        """Drop every lock the owner holds; returns how many.

        Also retires the owner's timestamp registration, so a
        released owner id can never shadow the lock table again.
        """
        with self._changed:
            released = 0
            empty = []
            for resource, state in self._locks.items():
                if owner in state.holders:
                    del state.holders[owner]
                    released += 1
                state.waiters.pop(owner, None)
                if not state.holders and not state.waiters:
                    empty.append(resource)
            for resource in empty:
                del self._locks[resource]
            self._owner_ts.pop(owner, None)
            self._changed.notify_all()
            return released

    def held_by(self, owner: int) -> Set[Hashable]:
        """Resources the owner currently holds locks on."""
        with self._mutex:
            return {
                resource
                for resource, state in self._locks.items()
                if owner in state.holders
            }

    # ------------------------------------------------------------------
    # Introspection (leak accounting)
    # ------------------------------------------------------------------

    def owner_count(self) -> int:
        """Registered owners — 0 when every transaction finished."""
        with self._mutex:
            return len(self._owner_ts)

    def resource_count(self) -> int:
        """Resources with any holder or waiter — 0 at quiesce."""
        with self._mutex:
            return len(self._locks)

    def snapshot(self) -> dict:
        """Counters plus live table sizes, for stats() views and the
        front end's leak assertions (all zeros at quiesce)."""
        with self._mutex:
            return {
                "grants": self.grants,
                "waits": self.waits,
                "deaths": self.deaths,
                "timeouts": self.timeouts,
                "owners_registered": len(self._owner_ts),
                "resources_locked": len(self._locks),
                "locks_held": sum(
                    len(state.holders) for state in self._locks.values()
                ),
                "waiters": sum(
                    len(state.waiters) for state in self._locks.values()
                ),
            }
