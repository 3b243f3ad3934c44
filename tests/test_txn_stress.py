"""Multithreaded transaction stress: the fixes proven under fire.

The single-threaded regressions in ``test_txn_leaks.py`` pin each bug
in isolation; these tests put genuine thread contention on the lock
manager and assert the global invariants the fixes exist to protect:

* **conservation** — concurrent transfers between accounts never
  create or destroy money (2PL isolation + ARU atomicity);
* **no lost updates** — concurrent shared->exclusive upgrades on one
  counter always sum to the number of increments;
* **no starvation** — every thread finishes its quota within its
  wait-die retry budget (timestamp inheritance at work);
* **no leaks** — after every storm the lock table, waiter table and
  timestamp registration are all empty.
"""

from __future__ import annotations

import random
import threading
import time

from repro.disk.geometry import DiskGeometry
from repro.lld.config import LLDConfig
from repro.shard.sharded import build_sharded
from repro.txn.transactions import TransactionManager, run_transaction
from tests.conftest import make_lld

N_THREADS = 8
OPS_PER_THREAD = 20
ACCOUNT_COUNT = 6
INITIAL_BALANCE = 1_000


def assert_quiesced(manager: TransactionManager) -> None:
    snap = manager.locks.snapshot()
    assert snap["owners_registered"] == 0, snap
    assert snap["resources_locked"] == 0, snap
    assert snap["locks_held"] == 0, snap
    assert snap["waiters"] == 0, snap


def encode(value: int) -> bytes:
    return value.to_bytes(8, "little", signed=True)


def decode(data: bytes) -> int:
    return int.from_bytes(data[:8], "little", signed=True)


def provision_accounts(ld, count: int):
    lst = ld.new_list()
    accounts = [ld.new_block(lst) for _ in range(count)]
    for block in accounts:
        ld.write(block, encode(INITIAL_BALANCE))
    ld.flush()
    return accounts


def storm(worker, n_threads: int = N_THREADS):
    """Run ``worker(thread_index)`` on every thread; re-raise the
    first failure on the main thread so pytest sees it."""
    errors = []

    def wrapped(index: int) -> None:
        try:
            worker(index)
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(index,), daemon=True)
        for index in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "stress worker wedged"
    if errors:
        raise errors[0]


class TestBankTransfers:
    def run_transfers(self, ld, manager, accounts):
        def worker(index: int) -> None:
            rng = random.Random(1000 + index)
            for _ in range(OPS_PER_THREAD):
                src, dst = rng.sample(accounts, 2)
                amount = rng.randrange(1, 50)

                def body(txn, src=src, dst=dst, amount=amount):
                    from_balance = decode(txn.read(src))
                    to_balance = decode(txn.read(dst))
                    txn.write(src, encode(from_balance - amount))
                    txn.write(dst, encode(to_balance + amount))

                run_transaction(
                    manager, body, max_attempts=200, durable=False
                )

        storm(worker)
        manager.ld.flush()
        total = sum(decode(ld.read(block)) for block in accounts)
        assert total == len(accounts) * INITIAL_BALANCE
        stats = manager.stats()
        assert stats["committed"] == N_THREADS * OPS_PER_THREAD
        assert_quiesced(manager)
        return stats

    def test_conservation_single_volume(self):
        ld = make_lld(num_segments=96)
        manager = TransactionManager(ld, lock_timeout_s=5.0)
        accounts = provision_accounts(ld, ACCOUNT_COUNT)
        self.run_transfers(ld, manager, accounts)

    def test_conservation_cross_shard(self):
        """Transfers spanning shards: 2PC cross-shard ARUs under the
        same lock discipline, still conserving."""
        volume = build_sharded(
            4,
            geometry=DiskGeometry.small(num_segments=64),
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        manager = TransactionManager(volume, lock_timeout_s=5.0)
        # One list per shard so random pairs routinely cross shards.
        lists = [volume.new_list() for _ in range(4)]
        accounts = [volume.new_block(lst) for lst in lists for _ in range(2)]
        for block in accounts:
            volume.write(block, encode(INITIAL_BALANCE))
        volume.flush()
        self.run_transfers(volume, manager, accounts)


class TestUpgradeContention:
    def test_no_lost_updates_on_shared_counter(self):
        """Every thread read-modify-writes one block: the shared read
        then exclusive write is the upgrade path, the classic lost-
        update trap.  2PL + wait-die must make the sum exact."""
        ld = make_lld(num_segments=96)
        manager = TransactionManager(ld, lock_timeout_s=5.0)
        lst = ld.new_list()
        counter = ld.new_block(lst)
        ld.write(counter, encode(0))
        ld.flush()

        def worker(_index: int) -> None:
            for _ in range(OPS_PER_THREAD):
                def body(txn):
                    value = decode(txn.read(counter))
                    # Hold the shared lock across a scheduling point
                    # so increments genuinely overlap and the upgrade
                    # conflict actually happens.
                    time.sleep(0.0002)
                    txn.write(counter, encode(value + 1))

                run_transaction(
                    manager, body, max_attempts=200, durable=False
                )

        storm(worker)
        ld.flush()
        assert decode(ld.read(counter)) == N_THREADS * OPS_PER_THREAD
        stats = manager.stats()
        # The point of the exercise: the storm actually contended.
        locks = stats["locks"]
        assert locks["deaths"] + locks["waits"] + locks["timeouts"] > 0
        assert_quiesced(manager)

    def test_mixed_readers_and_upgraders(self):
        """Readers sharing the counter while upgraders increment it:
        waiter-aware wait-die must neither starve the writers nor
        leak anything when readers die against queued writers."""
        ld = make_lld(num_segments=96)
        manager = TransactionManager(ld, lock_timeout_s=5.0)
        lst = ld.new_list()
        counter = ld.new_block(lst)
        ld.write(counter, encode(0))
        ld.flush()
        observed = []
        observed_mutex = threading.Lock()

        def worker(index: int) -> None:
            writes = index % 2 == 0
            for _ in range(OPS_PER_THREAD):
                if writes:
                    def body(txn):
                        value = decode(txn.read(counter))
                        txn.write(counter, encode(value + 1))
                        return None
                else:
                    def body(txn):
                        return decode(txn.read(counter))

                value = run_transaction(
                    manager, body, max_attempts=200, durable=False
                )
                if value is not None:
                    with observed_mutex:
                        observed.append(value)

        storm(worker)
        ld.flush()
        writers = (N_THREADS + 1) // 2
        final = decode(ld.read(counter))
        assert final == writers * OPS_PER_THREAD
        # Readers only ever saw committed prefixes of the count.
        assert all(0 <= value <= final for value in observed)
        assert_quiesced(manager)
