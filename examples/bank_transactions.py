#!/usr/bin/env python3
"""ACID transactions built on atomic recovery units.

The paper positions ARUs as "a light-weight form of transaction":
failure atomicity at the disk level, with isolation and durability
left to clients.  This example supplies those missing pieces from
:mod:`repro.txn` — two-phase locks with wait-die deadlock avoidance,
and a flush at commit — and runs a classic banking workload from
four concurrent threads, then crashes the machine and audits the
books.

Run:  python examples/bank_transactions.py
"""

import random
import threading

from repro import LLDConfig, make_system, recover
from repro.errors import TransactionAborted
from repro.txn import TransactionManager, run_transaction

N_ACCOUNTS = 12
INITIAL_BALANCE = 1_000
N_THREADS = 4
TRANSFERS_PER_THREAD = 40


def read_balance(reader, block) -> int:
    return int.from_bytes(reader(block)[:8], "little")


def main() -> None:
    system = make_system(
        num_segments=256,
        config=LLDConfig(checkpoint_slot_segments=2),
    )
    ld = system.ld
    manager = TransactionManager(ld, lock_timeout_s=5.0)

    # Open the accounts inside one durable transaction.
    with manager.begin() as setup:
        ledger = setup.new_list()
        accounts = []
        previous = None
        for _ in range(N_ACCOUNTS):
            if previous is None:
                account = setup.new_block(ledger)
            else:
                account = setup.new_block(ledger, predecessor=previous)
            setup.write(account, INITIAL_BALANCE.to_bytes(8, "little"))
            accounts.append(account)
            previous = account
    print(f"opened {N_ACCOUNTS} accounts with {INITIAL_BALANCE} each")

    stats = {"ok": 0, "insufficient": 0, "gave_up": 0}
    stats_lock = threading.Lock()

    def teller(seed: int) -> None:
        rng = random.Random(seed)
        for _ in range(TRANSFERS_PER_THREAD):
            src, dst = rng.sample(accounts, 2)
            amount = rng.randrange(1, 250)

            def body(txn):
                balance = read_balance(txn.read, src)
                if balance < amount:
                    return "insufficient"
                txn.write(src, (balance - amount).to_bytes(8, "little"))
                other = read_balance(txn.read, dst)
                txn.write(dst, (other + amount).to_bytes(8, "little"))
                return "ok"

            try:
                outcome = run_transaction(manager, body, max_attempts=200)
            except TransactionAborted:
                outcome = "gave_up"
            with stats_lock:
                stats[outcome] += 1

    threads = [
        threading.Thread(target=teller, args=(seed,))
        for seed in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    total = sum(read_balance(ld.read, account) for account in accounts)
    print(f"transfers: {stats['ok']} ok, {stats['insufficient']} declined, "
          f"{stats['gave_up']} gave up after retries")
    print(f"lock manager: {manager.locks.grants} grants, "
          f"{manager.locks.deaths} wait-die aborts")
    print(f"ledger total: {total} "
          f"(expected {N_ACCOUNTS * INITIAL_BALANCE})")
    assert total == N_ACCOUNTS * INITIAL_BALANCE

    # --- durability across a crash -----------------------------------
    print("\n-- simulated power failure --")
    recovered, _report = recover(
        system.disk.power_cycle(),
        config=LLDConfig(checkpoint_slot_segments=2),
    )
    recovered_total = sum(
        read_balance(recovered.read, account) for account in accounts
    )
    print(f"ledger total after recovery: {recovered_total}")
    assert recovered_total == N_ACCOUNTS * INITIAL_BALANCE
    print("every committed transfer survived; no money was created "
          "or destroyed.")


if __name__ == "__main__":
    main()
