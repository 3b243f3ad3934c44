"""Sharded multi-volume logical disks.

:class:`ShardedLLD` stripes logical block and list identifiers across
N independent :class:`~repro.lld.lld.LLD` volumes (each with its own
simulated disk, clock, cleaner, write-behind queue and metrics
registry) behind the ordinary :class:`~repro.ld.interface.LogicalDisk`
API, keeping ``begin_aru``/``end_aru`` failure-atomic *across* the
volumes via a two-phase coordinator commit, and — with an
:class:`ArrayConfig` replication factor above 1 — mirroring every
entity on ring peer shards so the array serves reads and writes
through the loss of any ``replication_factor - 1`` members and
rebuilds them online (:meth:`ShardedLLD.repair`).
:func:`repro.recovery.recover` recovers the surviving shards one
after another and rolls each shard's prepared state forward or
discards it according to the union of the decision shards' DECIDE
records (:mod:`repro.shard.twophase` states the protocol).  See
``docs/SHARDING.md``.
"""

from repro.shard.config import ArrayConfig
from repro.shard.recovery import ShardRecoveryReport
from repro.shard.sharded import (
    ShardedLLD,
    build_sharded,
    mirror_id,
    shard_of,
    to_global,
    to_local,
)

__all__ = [
    "ArrayConfig",
    "ShardedLLD",
    "ShardRecoveryReport",
    "build_sharded",
    "mirror_id",
    "shard_of",
    "to_global",
    "to_local",
]
