"""Regression tests for the transaction-layer lock-leak and
wait-die-livelock fixes.

Each test here pins one of the historical bugs:

* a failing ``end_aru``/``flush`` during :meth:`Transaction.commit`
  leaked every lock (and the wait-die timestamp registration) the
  transaction held, wedging all later conflicting transactions until
  their timeouts;
* :func:`run_transaction` retried wait-die victims with a *fresh*
  timestamp, so a victim restarted as the youngest transaction every
  round and could starve forever (livelock);
* :meth:`LockManager.acquire` passed the full timeout to every
  ``Condition.wait``, so each ``notify_all`` reset the clock and a
  waiter under traffic could wait far past its budget;
* an unregistered holder in the lock table silently won every
  wait-die comparison (its timestamp defaulted to ``-1``) instead of
  being reported as corruption;
* a young shared-lock stream could be granted over an older exclusive
  waiter indefinitely (wait-die only kills waits-for-older, and those
  young readers never waited).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import (
    DeadlockError,
    LDError,
    LockError,
    TransactionAborted,
)
from repro.txn.locks import LockManager, LockMode
from repro.txn.transactions import TransactionManager, run_transaction
from tests.conftest import make_lld


class FlakyLD:
    """Delegating wrapper that fails selected LD operations on cue."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.fail_begin = False
        self.fail_end = False
        self.fail_flush = False

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def begin_aru(self):
        if self.fail_begin:
            raise LDError("injected begin_aru failure")
        return self._inner.begin_aru()

    def end_aru(self, aru):
        if self.fail_end:
            raise LDError("injected end_aru failure")
        return self._inner.end_aru(aru)

    def flush(self):
        if self.fail_flush:
            raise LDError("injected flush failure")
        return self._inner.flush()


def assert_quiesced(locks: LockManager) -> None:
    """The leak assertion: every lock table is empty."""
    snap = locks.snapshot()
    assert snap["owners_registered"] == 0, snap
    assert snap["resources_locked"] == 0, snap
    assert snap["locks_held"] == 0, snap
    assert snap["waiters"] == 0, snap


def provisioned_manager():
    ld = FlakyLD(make_lld())
    manager = TransactionManager(ld, lock_timeout_s=0.5)
    lst = ld.new_list()
    block = ld.new_block(lst)
    ld.write(block, b"\0" * 16)
    ld.flush()
    return ld, manager, block


class TestCommitFailureReleasesLocks:
    def test_failing_end_aru_releases_everything(self):
        ld, manager, block = provisioned_manager()
        txn = manager.begin(durable=False)
        txn.write(block, b"doomed")
        ld.fail_end = True
        with pytest.raises(LDError, match="end_aru"):
            txn.commit()
        assert txn.state == "failed"
        assert_quiesced(manager.locks)
        # The shadow state was discarded: the write never landed.
        ld.fail_end = False
        assert ld.read(block)[:6] != b"doomed"

    def test_failing_flush_releases_everything(self):
        ld, manager, block = provisioned_manager()
        txn = manager.begin(durable=True)
        txn.write(block, b"landed")
        ld.fail_flush = True
        with pytest.raises(LDError, match="flush"):
            txn.commit()
        assert txn.state == "failed"
        assert_quiesced(manager.locks)
        # The ARU itself committed before the flush failed; only
        # durability (and the bookkeeping) was at stake.
        ld.fail_flush = False
        assert ld.read(block)[:6] == b"landed"

    def test_conflicting_txn_proceeds_after_failed_commit(self):
        """The original symptom: a failed commit must not wedge the
        next transaction on the same block until its timeout."""
        ld, manager, block = provisioned_manager()
        txn = manager.begin(durable=False)
        txn.write(block, b"doomed")
        ld.fail_end = True
        with pytest.raises(LDError):
            txn.commit()
        ld.fail_end = False
        start = time.monotonic()
        with manager.begin(durable=False) as nxt:
            nxt.write(block, b"winner")
        assert time.monotonic() - start < manager.locks.timeout_s / 2
        assert ld.read(block)[:6] == b"winner"
        assert_quiesced(manager.locks)

    def test_failing_begin_aru_leaves_no_registration(self):
        ld, manager, _block = provisioned_manager()
        ld.fail_begin = True
        with pytest.raises(LDError, match="begin_aru"):
            manager.begin()
        assert manager.locks.owner_count() == 0


class TestRunTransactionRetryContract:
    def test_retries_carry_the_original_timestamp(self):
        _ld, manager, block = provisioned_manager()
        attempts = []

        def body(txn):
            attempts.append((txn.txn_id, txn.timestamp))
            if len(attempts) < 3:
                raise DeadlockError("synthetic wait-die death")
            txn.write(block, b"aged")
            return "won"

        result = run_transaction(manager, body, durable=False,
                                 retry_backoff_s=0.0)
        assert result == "won"
        ids = [txn_id for txn_id, _ in attempts]
        stamps = [ts for _, ts in attempts]
        # Fresh transaction id every attempt, one timestamp for all —
        # the victim ages instead of rejoining as the youngest.
        assert len(set(ids)) == 3
        assert set(stamps) == {attempts[0][0]}
        assert_quiesced(manager.locks)

    def test_lock_timeout_retries_like_a_death(self):
        _ld, manager, block = provisioned_manager()
        attempts = []

        def body(txn):
            attempts.append(txn.txn_id)
            if len(attempts) == 1:
                raise LockError("timed out waiting for exclusive lock")
            txn.write(block, b"retried")
            return len(attempts)

        assert run_transaction(manager, body, durable=False,
                               retry_backoff_s=0.0) == 2
        assert_quiesced(manager.locks)

    def test_budget_exhaustion_raises_transaction_aborted(self):
        _ld, manager, _block = provisioned_manager()

        def body(_txn):
            raise DeadlockError("always dies")

        with pytest.raises(TransactionAborted, match="3 wait-die"):
            run_transaction(manager, body, max_attempts=3,
                            retry_backoff_s=0.0)
        assert_quiesced(manager.locks)

    def test_non_lock_error_aborts_and_propagates(self):
        _ld, manager, block = provisioned_manager()

        def body(txn):
            txn.write(block, b"never-lands")
            raise ValueError("application bug")

        with pytest.raises(ValueError, match="application bug"):
            run_transaction(manager, body, durable=False)
        assert_quiesced(manager.locks)
        assert manager.ld.read(block)[:11] != b"never-lands"


class TestLockManagerTimeouts:
    def test_deadline_survives_a_notify_storm(self):
        """Each notify_all used to reset the waiter's timeout; under
        a storm the effective timeout became unbounded."""
        lm = LockManager(timeout_s=0.3)
        lm.register(1, 5)
        lm.acquire(1, "popular", LockMode.EXCLUSIVE)
        # The requester is OLDER than the holder, so wait-die lets it
        # wait (a younger one would die instantly, not time out).
        lm.register(2, 1)

        storming = threading.Event()
        storming.set()

        def storm():
            owner = 100
            while storming.is_set():
                lm.register(owner, 1000 + owner)
                lm.acquire(owner, ("noise", owner), LockMode.SHARED)
                lm.release_all(owner)  # notify_all every iteration
                owner += 1
                time.sleep(0.005)

        noise = threading.Thread(target=storm, daemon=True)
        noise.start()
        try:
            start = time.monotonic()
            with pytest.raises(LockError, match="timed out"):
                lm.acquire(2, "popular", LockMode.EXCLUSIVE)
            elapsed = time.monotonic() - start
        finally:
            storming.clear()
            noise.join()
        assert 0.2 <= elapsed < 2.0, elapsed
        assert lm.timeouts == 1
        lm.release_all(1)
        lm.release_all(2)
        assert_quiesced(lm)

    def test_unregistered_owner_is_rejected(self):
        lm = LockManager()
        with pytest.raises(LockError, match="not registered"):
            lm.acquire(42, "r", LockMode.SHARED)

    def test_corrupted_holder_raises_not_wins(self):
        """An unregistered holder used to default to timestamp -1 and
        silently win every wait-die comparison."""
        lm = LockManager(timeout_s=0.2)
        lm.register(1, 1)
        lm.acquire(1, "r", LockMode.EXCLUSIVE)
        del lm._owner_ts[1]  # simulate the corruption
        lm.register(2, 2)
        with pytest.raises(LockError, match="corrupted") as excinfo:
            lm.acquire(2, "r", LockMode.EXCLUSIVE)
        assert not isinstance(excinfo.value, DeadlockError)


class TestWaiterAwareWaitDie:
    def wait_for_waiter(self, lm: LockManager) -> None:
        deadline = time.monotonic() + 2.0
        while lm.snapshot()["waiters"] == 0:
            assert time.monotonic() < deadline, "waiter never queued"
            time.sleep(0.001)

    def test_young_reader_dies_against_older_exclusive_waiter(self):
        lm = LockManager(timeout_s=2.0)
        lm.register(10, 10)  # young holder
        lm.register(1, 1)    # old writer, will wait
        lm.register(20, 20)  # younger reader, must not overtake
        lm.acquire(10, "r", LockMode.SHARED)

        acquired = threading.Event()

        def old_writer():
            lm.acquire(1, "r", LockMode.EXCLUSIVE)
            acquired.set()

        writer = threading.Thread(target=old_writer, daemon=True)
        writer.start()
        self.wait_for_waiter(lm)
        # Compatible with the shared holder, but the older exclusive
        # waiter must not be overtaken: the young reader dies.
        with pytest.raises(DeadlockError, match="older waiter"):
            lm.acquire(20, "r", LockMode.SHARED)
        lm.release_all(10)
        writer.join(timeout=2.0)
        assert acquired.is_set(), "old writer starved behind releases"
        lm.release_all(1)
        lm.release_all(20)
        assert_quiesced(lm)

    def test_upgrader_is_exempt_from_the_waiter_check(self):
        """A shared holder upgrading to exclusive must not die
        against a waiter queued behind it — the waiter cannot make
        progress until the holder finishes anyway."""
        lm = LockManager(timeout_s=2.0)
        lm.register(10, 10)  # young holder, will upgrade
        lm.register(1, 1)    # old writer, waits behind the holder
        lm.acquire(10, "r", LockMode.SHARED)

        acquired = threading.Event()

        def old_writer():
            lm.acquire(1, "r", LockMode.EXCLUSIVE)
            acquired.set()

        writer = threading.Thread(target=old_writer, daemon=True)
        writer.start()
        self.wait_for_waiter(lm)
        lm.acquire(10, "r", LockMode.EXCLUSIVE)  # upgrade succeeds
        assert not acquired.is_set()
        lm.release_all(10)
        writer.join(timeout=2.0)
        assert acquired.is_set()
        lm.release_all(1)
        assert_quiesced(lm)


class TestIntrospection:
    def test_snapshot_counts_live_tables(self):
        lm = LockManager()
        lm.register(1, 1)
        lm.register(2, 2)
        lm.acquire(1, "a", LockMode.EXCLUSIVE)
        lm.acquire(2, "b", LockMode.SHARED)
        snap = lm.snapshot()
        assert snap["owners_registered"] == 2
        assert snap["resources_locked"] == 2
        assert snap["locks_held"] == 2
        assert snap["grants"] == 2
        assert lm.owner_count() == 2
        assert lm.resource_count() == 2
        lm.release_all(1)
        lm.release_all(2)
        assert_quiesced(lm)

    def test_manager_stats_embed_lock_snapshot(self):
        _ld, manager, block = provisioned_manager()
        with manager.begin(durable=False) as txn:
            txn.write(block, b"x")
        stats = manager.stats()
        assert stats["begun"] == 1
        assert stats["committed"] == 1
        assert stats["aborted"] == 0
        assert stats["locks"]["owners_registered"] == 0
