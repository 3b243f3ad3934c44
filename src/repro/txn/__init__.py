"""Transactions on top of atomic recovery units.

ARUs are "a light-weight form of transaction": failure atomicity
without isolation or durability (Section 1).  The paper argues that
clients can easily add the missing pieces; this package does exactly
that:

* :mod:`repro.txn.locks` — a strict two-phase lock manager with
  shared/exclusive modes and wait-die deadlock avoidance,
* :mod:`repro.txn.transactions` — full ACID transactions: each
  transaction wraps an ARU (atomicity), acquires locks before every
  access (isolation), and flushes the logical disk at commit
  (durability).
"""

from repro.txn.locks import LockManager, LockMode
from repro.txn.transactions import (
    Transaction,
    TransactionManager,
    TxnBreakdown,
    run_batch,
    run_transaction,
)

__all__ = [
    "LockManager",
    "LockMode",
    "Transaction",
    "TransactionManager",
    "TxnBreakdown",
    "run_batch",
    "run_transaction",
]
