"""Full transactions: ARUs + two-phase locking + flush-on-commit.

A :class:`Transaction` proxies the LD operations, acquiring the
appropriate lock before each access (shared for reads, exclusive for
writes and structural changes), executing the operation inside its
ARU, and — at commit — ending the ARU and flushing the disk so the
effects are durable.  Abort discards the ARU's shadow state and
releases the locks; because ARUs already isolate shadow state, abort
needs no undo log.

This is the paper's claim made concrete: "failure atomicity over
several disk operations is necessary to efficiently support
transaction-based systems as direct disk system clients."
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, TypeVar

from repro.errors import LockError, TransactionAborted
from repro.ld.interface import LogicalDisk
from repro.ld.types import ARUId, BlockId, FIRST, ListId, Predecessor
from repro.txn.locks import LockManager, LockMode

T = TypeVar("T")


class TxnBreakdown:
    """Where one request's wall-clock time went, across retries.

    The front end hands one instance per request to
    :func:`run_transaction`; every attempt's transaction accumulates
    into it, so at completion the request's service time decomposes
    into **lock wait** (inside :meth:`LockManager.acquire`),
    **storage** (inside the logical disk's operations, commit and
    flush included) and a scheduling/CPU remainder.  All values are host wall-clock microseconds — the
    same time base as the front end's service histograms, so the
    components of one request genuinely sum (the simulated-µs commit
    latency is a different, per-shard story).
    """

    __slots__ = ("lock_wait_us", "storage_us", "attempts")

    def __init__(self) -> None:
        self.lock_wait_us = 0.0
        self.storage_us = 0.0
        self.attempts = 0


class Transaction:
    """One ACID transaction over a logical disk.

    Obtain from :meth:`TransactionManager.begin`; use as a context
    manager (commits on clean exit, aborts on exception) or call
    :meth:`commit` / :meth:`abort` explicitly.
    """

    def __init__(
        self,
        manager: "TransactionManager",
        aru: ARUId,
        txn_id: int,
        durable: bool,
        timestamp: int,
        breakdown: Optional[TxnBreakdown] = None,
    ) -> None:
        self.manager = manager
        self.ld = manager.ld
        self.aru = aru
        self.txn_id = txn_id
        self.durable = durable
        #: Wait-die priority.  A retry of a died transaction carries
        #: the *original* timestamp forward (see ``run_transaction``),
        #: so a victim ages instead of starving.
        self.timestamp = timestamp
        self.state = "active"
        self.breakdown = breakdown
        if breakdown is not None:
            breakdown.attempts += 1

    # ------------------------------------------------------------------
    # Locking helpers
    # ------------------------------------------------------------------

    def _lock_block(self, block_id: BlockId, mode: LockMode) -> None:
        waited = self.manager.locks.acquire(
            self.txn_id, ("block", int(block_id)), mode
        )
        if self.breakdown is not None:
            self.breakdown.lock_wait_us += waited

    def _lock_list(self, list_id: ListId, mode: LockMode) -> None:
        waited = self.manager.locks.acquire(
            self.txn_id, ("list", int(list_id)), mode
        )
        if self.breakdown is not None:
            self.breakdown.lock_wait_us += waited

    def _ld_call(self, fn, *args, **kwargs):
        """Run one logical-disk operation, charging its wall time to
        the breakdown's storage component when one is attached."""
        if self.breakdown is None:
            return fn(*args, **kwargs)
        start = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            self.breakdown.storage_us += (time.monotonic() - start) * 1e6

    def _check_active(self) -> None:
        if self.state != "active":
            raise TransactionAborted(
                f"transaction {self.txn_id} is {self.state}"
            )

    # ------------------------------------------------------------------
    # Proxied LD operations
    # ------------------------------------------------------------------

    def read(self, block_id: BlockId) -> bytes:
        """Read a block under a shared lock."""
        self._check_active()
        self._lock_block(block_id, LockMode.SHARED)
        return self._ld_call(self.ld.read, block_id, aru=self.aru)

    def write(self, block_id: BlockId, data: bytes) -> None:
        """Write a block under an exclusive lock."""
        self._check_active()
        self._lock_block(block_id, LockMode.EXCLUSIVE)
        self._ld_call(self.ld.write, block_id, data, aru=self.aru)

    def new_list(self) -> ListId:
        """Allocate a list (exclusively locked to this transaction)."""
        self._check_active()
        list_id = self._ld_call(self.ld.new_list, aru=self.aru)
        self._lock_list(list_id, LockMode.EXCLUSIVE)
        return list_id

    def delete_list(self, list_id: ListId) -> None:
        """Delete a list under an exclusive lock."""
        self._check_active()
        self._lock_list(list_id, LockMode.EXCLUSIVE)
        for block_id in self._ld_call(
            self.ld.list_blocks, list_id, aru=self.aru
        ):
            self._lock_block(block_id, LockMode.EXCLUSIVE)
        self._ld_call(self.ld.delete_list, list_id, aru=self.aru)

    def new_block(
        self, list_id: ListId, predecessor: Predecessor = FIRST
    ) -> BlockId:
        """Allocate a block in a list under an exclusive list lock and
        a shared lock on its predecessor: the commit replays the insert
        against that block, so no other transaction may delete it
        first."""
        self._check_active()
        self._lock_list(list_id, LockMode.EXCLUSIVE)
        if predecessor is not FIRST:
            self._lock_block(predecessor, LockMode.SHARED)
        block_id = self._ld_call(
            self.ld.new_block, list_id, predecessor, aru=self.aru
        )
        self._lock_block(block_id, LockMode.EXCLUSIVE)
        return block_id

    def delete_block(self, block_id: BlockId) -> None:
        """Delete a block under an exclusive block lock.

        The containing list is *not* locked — the LD interface has no
        block -> list lookup — so a concurrent ``list_blocks`` of that
        list is not repeatable across this transaction's commit (see
        "Known isolation gaps" in ``docs/CONCURRENCY.md``).
        """
        self._check_active()
        self._lock_block(block_id, LockMode.EXCLUSIVE)
        self._ld_call(self.ld.delete_block, block_id, aru=self.aru)

    def list_blocks(self, list_id: ListId) -> List[BlockId]:
        """Enumerate a list under a shared lock."""
        self._check_active()
        self._lock_list(list_id, LockMode.SHARED)
        return self._ld_call(self.ld.list_blocks, list_id, aru=self.aru)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def commit(self) -> None:
        """Commit: EndARU, then (optionally) flush for durability.

        A failing ``end_aru`` aborts the transaction (the ARU's
        shadow state is discarded best-effort) before re-raising; a
        failing ``flush`` leaves the ARU committed but still releases
        every lock and finishes the transaction (state ``"failed"``).
        Either way no lock — and no wait-die timestamp registration —
        outlives the attempt.
        """
        self._check_active()
        try:
            self._ld_call(self.ld.end_aru, self.aru)
        except BaseException:
            self._fail(discard_aru=True)
            raise
        try:
            if self.durable:
                self._ld_call(self.ld.flush)
        except BaseException:
            # The ARU is already committed (and durable at the next
            # successful flush); only the transaction bookkeeping and
            # its locks remain to clean up.
            self._fail(discard_aru=False)
            raise
        self.state = "committed"
        self.manager.locks.release_all(self.txn_id)
        self.manager._finished(self)

    def _fail(self, discard_aru: bool) -> None:
        """Tear down after a failed commit: best-effort ARU abort,
        unconditional lock release and manager bookkeeping."""
        self.state = "failed"
        try:
            if discard_aru:
                self.ld.abort_aru(self.aru)
        except Exception:
            # The primary error (about to be re-raised by commit) is
            # what the caller must see; a dead disk rejecting the
            # abort as well adds nothing.
            pass
        finally:
            self.manager.locks.release_all(self.txn_id)
            self.manager._finished(self)

    def abort(self) -> None:
        """Abort: discard the ARU's shadow state and release locks.

        Lock release and manager bookkeeping happen even when the
        disk rejects the ARU abort (e.g. the volume died mid-body) —
        leaking locks on the way out would wedge every other
        transaction until its timeout.
        """
        if self.state != "active":
            return
        self.state = "aborted"
        try:
            self.ld.abort_aru(self.aru)
        finally:
            self.manager.locks.release_all(self.txn_id)
            self.manager._finished(self)

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        if exc_type is None:
            self.commit()
        else:
            self.abort()
        return False


class TransactionManager:
    """Creates transactions over one logical disk."""

    def __init__(self, ld: LogicalDisk, lock_timeout_s: float = 10.0) -> None:
        self.ld = ld
        self.locks = LockManager(timeout_s=lock_timeout_s)
        self._mutex = threading.Lock()
        self._next_txn = 1
        self.committed = 0
        self.aborted = 0

    def begin(
        self,
        durable: bool = True,
        timestamp: Optional[int] = None,
        breakdown: Optional[TxnBreakdown] = None,
    ) -> Transaction:
        """Start a transaction (an ARU plus a lock-owner identity).

        ``timestamp`` overrides the wait-die priority (default: the
        fresh transaction id).  Retry loops pass the died attempt's
        original timestamp so the victim gets relatively older each
        round instead of starting over as the youngest — the
        starvation-freedom half of the wait-die contract.

        ``breakdown`` attaches a :class:`TxnBreakdown` the transaction
        charges its lock waits and storage calls to.
        """
        with self._mutex:
            txn_id = self._next_txn
            self._next_txn += 1
        # The ARU begins before the owner registers: if the disk
        # rejects the ARU there must be nothing to unregister (a
        # stale _owner_ts entry is exactly the leak this layer
        # promises not to make).
        aru = self.ld.begin_aru()
        ts = txn_id if timestamp is None else timestamp
        self.locks.register(txn_id, ts)
        return Transaction(self, aru, txn_id, durable, ts, breakdown)

    def _finished(self, txn: Transaction) -> None:
        with self._mutex:
            if txn.state == "committed":
                self.committed += 1
            else:
                self.aborted += 1

    def stats(self) -> dict:
        """Commit/abort totals plus the lock manager's counters and
        live table sizes (all table sizes 0 once quiesced)."""
        with self._mutex:
            totals = {
                "begun": self._next_txn - 1,
                "committed": self.committed,
                "aborted": self.aborted,
            }
        return {**totals, "locks": self.locks.snapshot()}


def run_batch(
    manager: TransactionManager,
    bodies,
    max_attempts: int = 10,
) -> list:
    """Group commit: run several transaction bodies, one flush.

    The related-work section of the paper credits FSD's group commit
    with amortizing the cost of forcing the log; ARUs compose the
    same way — each body commits its ARU without flushing, and a
    single flush at the end makes the whole batch durable together.

    Atomicity stays per-body: on the first failing body the batch
    stops, that body's transaction aborts, the flush still runs (so
    the already-committed bodies are durable), and the error is
    re-raised.

    Returns the list of body results, in order.
    """
    results = []
    try:
        for body in bodies:
            results.append(
                run_transaction(
                    manager, body, max_attempts=max_attempts, durable=False
                )
            )
    finally:
        manager.ld.flush()
    return results


def run_transaction(
    manager: TransactionManager,
    body: Callable[[Transaction], T],
    max_attempts: int = 10,
    durable: bool = True,
    retry_backoff_s: float = 0.001,
    breakdown: Optional[TxnBreakdown] = None,
) -> T:
    """Run ``body`` in a transaction, retrying on wait-die aborts.

    The retry contract (see ``docs/CONCURRENCY.md``):

    * Every retry reuses the **first attempt's timestamp**, so a
      wait-die victim ages relative to newly begun transactions and
      cannot starve.
    * :class:`~repro.errors.LockError` timeouts retry too — the lock
      manager documents them as a deadlock symptom, and under load a
      popular lock's wait can simply exceed one timeout budget.
      (:class:`~repro.errors.DeadlockError` is a ``LockError``
      subclass, so one handler covers both.)
    * Retries back off linearly (``retry_backoff_s`` × attempts so
      far, capped at 50 ms).  A death means an *older* transaction
      holds the conflict; retrying instantly just burns the attempt
      budget inside the same conflict window.  Pass 0 to disable
      (single-threaded tests don't need to sleep).
    * Any *other* exception — from the body or from the commit —
      aborts the transaction (releasing its locks and its timestamp
      registration) and propagates.  Nothing leaks on any path.
    """
    last_error: Optional[Exception] = None
    timestamp: Optional[int] = None
    for attempt in range(max_attempts):
        if attempt and retry_backoff_s > 0:
            time.sleep(min(retry_backoff_s * attempt, 0.05))
        txn = manager.begin(
            durable=durable, timestamp=timestamp, breakdown=breakdown
        )
        timestamp = txn.timestamp
        try:
            result = body(txn)
        except LockError as exc:
            txn.abort()
            last_error = exc
            continue
        except BaseException:
            try:
                txn.abort()
            except Exception:
                # The body's error is the story; a disk that also
                # rejects the abort must not displace it.  Locks are
                # already released (abort's finally ran).
                pass
            raise
        try:
            txn.commit()
        except LockError as exc:
            # commit() already tore the transaction down.
            last_error = exc
            continue
        return result
    raise TransactionAborted(
        f"transaction failed after {max_attempts} wait-die retries"
    ) from last_error
