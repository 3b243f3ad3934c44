"""Tests for the lock manager and ACID transactions over ARUs."""

import threading

import pytest

import repro
from repro.errors import (
    BadBlockError,
    ConcurrencyError,
    DeadlockError,
    LockError,
    TransactionAborted,
)
from repro.lld.config import LLDConfig
from repro.txn.locks import LockManager, LockMode
from repro.txn.transactions import TransactionManager, run_transaction

from tests.conftest import make_lld
from tests.oracle import state_fingerprint


class TestLockManager:
    def test_shared_locks_compatible(self):
        locks = LockManager()
        locks.register(1, 1)
        locks.register(2, 2)
        locks.acquire(1, "r", LockMode.SHARED)
        locks.acquire(2, "r", LockMode.SHARED)
        assert locks.grants == 2

    def test_exclusive_excludes(self):
        locks = LockManager(timeout_s=0.05)
        locks.register(1, 1)
        locks.register(2, 2)
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        # Younger requester dies instead of waiting.
        with pytest.raises(DeadlockError):
            locks.acquire(2, "r", LockMode.SHARED)

    def test_wait_die_lets_older_wait(self):
        locks = LockManager(timeout_s=0.5)
        locks.register(1, 1)  # older
        locks.register(2, 2)  # younger
        locks.acquire(2, "r", LockMode.EXCLUSIVE)

        release = threading.Timer(0.05, lambda: locks.release_all(2))
        release.start()
        # Older owner 1 is allowed to wait for younger owner 2.
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        release.join()
        assert locks.held_by(1) == {"r"}

    def test_upgrade_shared_to_exclusive(self):
        locks = LockManager()
        locks.register(1, 1)
        locks.acquire(1, "r", LockMode.SHARED)
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        locks.acquire(1, "r", LockMode.SHARED)  # stays exclusive

    def test_unregistered_owner_rejected(self):
        locks = LockManager()
        with pytest.raises(LockError):
            locks.acquire(9, "r", LockMode.SHARED)

    def test_release_all(self):
        locks = LockManager()
        locks.register(1, 1)
        locks.acquire(1, "a", LockMode.SHARED)
        locks.acquire(1, "b", LockMode.EXCLUSIVE)
        assert locks.release_all(1) == 2
        locks.register(2, 2)
        locks.acquire(2, "a", LockMode.EXCLUSIVE)  # free again

    def test_timeout_surfaces_as_lock_error(self):
        locks = LockManager(timeout_s=0.05)
        locks.register(1, 1)
        locks.register(2, 2)
        locks.acquire(2, "r", LockMode.EXCLUSIVE)
        # Owner 1 is older, so it waits — and then times out.
        with pytest.raises(LockError):
            locks.acquire(1, "r", LockMode.EXCLUSIVE)


@pytest.fixture
def mgr():
    lld = make_lld(num_segments=128)
    return TransactionManager(lld, lock_timeout_s=0.5)


class TestTransactions:
    def test_commit_makes_visible_and_durable(self, mgr):
        txn = mgr.begin()
        lst = txn.new_list()
        block = txn.new_block(lst)
        txn.write(block, b"acid")
        txn.commit()
        assert mgr.ld.read(block).startswith(b"acid")
        assert mgr.committed == 1
        # Durable: survives a crash cycle.
        from repro.lld.recovery import recover

        lld2, _ = recover(
            mgr.ld.disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        assert lld2.read(block).startswith(b"acid")

    def test_abort_discards(self, mgr):
        lst_setup = mgr.ld.new_list()
        block = mgr.ld.new_block(lst_setup)
        mgr.ld.write(block, b"before")
        txn = mgr.begin()
        txn.write(block, b"after")
        txn.abort()
        assert mgr.ld.read(block).startswith(b"before")
        assert mgr.aborted == 1

    def test_context_manager_commits(self, mgr):
        with mgr.begin() as txn:
            lst = txn.new_list()
            block = txn.new_block(lst)
            txn.write(block, b"ctx")
        assert mgr.ld.read(block).startswith(b"ctx")

    def test_context_manager_aborts_on_error(self, mgr):
        lst = mgr.ld.new_list()
        block = mgr.ld.new_block(lst)
        mgr.ld.write(block, b"original")
        with pytest.raises(RuntimeError):
            with mgr.begin() as txn:
                txn.write(block, b"doomed")
                raise RuntimeError("boom")
        assert mgr.ld.read(block).startswith(b"original")

    def test_isolation_between_transactions(self, mgr):
        lst = mgr.ld.new_list()
        block = mgr.ld.new_block(lst)
        mgr.ld.write(block, b"v0")
        writer = mgr.begin()
        writer.write(block, b"v1")
        reader = mgr.begin()
        # The younger reader dies rather than waiting (wait-die).
        with pytest.raises(DeadlockError):
            reader.read(block)
        reader.abort()
        writer.commit()
        assert mgr.ld.read(block).startswith(b"v1")

    def test_operations_after_commit_rejected(self, mgr):
        txn = mgr.begin()
        lst = txn.new_list()
        txn.commit()
        with pytest.raises(TransactionAborted):
            txn.new_block(lst)

    def test_reads_are_shared(self, mgr):
        lst = mgr.ld.new_list()
        block = mgr.ld.new_block(lst)
        mgr.ld.write(block, b"shared")
        a = mgr.begin()
        b = mgr.begin()
        assert a.read(block).startswith(b"shared")
        assert b.read(block).startswith(b"shared")
        a.commit()
        b.commit()

    def test_delete_list_under_locks(self, mgr):
        lst = mgr.ld.new_list()
        block = mgr.ld.new_block(lst)
        mgr.ld.write(block, b"x")
        with mgr.begin() as txn:
            txn.delete_list(lst)
        from repro.errors import BadListError

        with pytest.raises(BadListError):
            mgr.ld.list_blocks(lst)

    def test_run_transaction_retries_deadlock(self, mgr):
        lst = mgr.ld.new_list()
        block = mgr.ld.new_block(lst)
        mgr.ld.write(block, b"v0")
        blocker = mgr.begin()
        blocker.write(block, b"blocker")
        attempts = []

        def body(txn):
            attempts.append(txn.txn_id)
            if len(attempts) == 2:
                blocker.commit()  # free the lock mid-retry
            txn.write(block, b"winner")
            return "done"

        result = run_transaction(mgr, body, max_attempts=10)
        assert result == "done"
        assert len(attempts) >= 2
        assert mgr.ld.read(block).startswith(b"winner")

    def test_run_transaction_gives_up(self, mgr):
        lst = mgr.ld.new_list()
        block = mgr.ld.new_block(lst)
        blocker = mgr.begin()
        blocker.write(block, b"hold")

        with pytest.raises(TransactionAborted):
            run_transaction(
                mgr, lambda txn: txn.write(block, b"never"), max_attempts=3
            )
        blocker.abort()

    def test_bank_transfer_example(self, mgr):
        """The classic: money moves atomically between two blocks."""
        lst = mgr.ld.new_list()
        alice = mgr.ld.new_block(lst)
        bob = mgr.ld.new_block(lst, predecessor=alice)
        mgr.ld.write(alice, (100).to_bytes(8, "little"))
        mgr.ld.write(bob, (50).to_bytes(8, "little"))

        def transfer(txn, amount=30):
            a = int.from_bytes(txn.read(alice)[:8], "little")
            b = int.from_bytes(txn.read(bob)[:8], "little")
            txn.write(alice, (a - amount).to_bytes(8, "little"))
            txn.write(bob, (b + amount).to_bytes(8, "little"))

        run_transaction(mgr, transfer)
        assert int.from_bytes(mgr.ld.read(alice)[:8], "little") == 70
        assert int.from_bytes(mgr.ld.read(bob)[:8], "little") == 80

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP items 1(c) and 17: T1 never locks its "
        "predecessor, T2 deletes it, and T1's refused EndARU leaves "
        "half of T1 on the live volume",
    )
    def test_refused_commit_leaves_no_half_transaction(self, mgr):
        """T1 inserts block n after b, locking the list and n but not
        b; T2 deletes b and commits; T1's commit is refused.  A correct
        fix either keeps T2 out (T1 holds b) or refuses T1 whole; both
        must leave a sound volume that recovery agrees with."""
        ld = mgr.ld
        lst = ld.new_list()
        b = ld.new_block(lst)
        ld.write(b, b"b")
        ld.flush()
        t1 = mgr.begin()
        n = t1.new_block(lst, predecessor=b)
        t1.write(n, b"T1")
        t2 = mgr.begin()
        try:
            t2.delete_block(b)
            t2.commit()
        except LockError:
            t2.abort()
        try:
            t1.commit()
        except ConcurrencyError:
            pass
        try:
            visible = ld.read(n).startswith(b"T1")
        except BadBlockError:
            visible = False
        assert not visible or n in ld.list_blocks(lst)
        assert ld.checkpoint_safe()
        ld.flush()
        recovered, report = repro.recover(
            ld.disk.power_cycle(), config=ld.config
        )
        # The checkpoint image is left out: its rows carry logical
        # timestamps, which the live volume takes from its clock and
        # recovery from the log, so they differ on a healthy run too.
        live, rebuilt = (
            state_fingerprint(volume, report) for volume in (ld, recovered)
        )
        del live["checkpoint"], rebuilt["checkpoint"]
        assert live == rebuilt
