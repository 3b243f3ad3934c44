"""The seven workloads: one module each, benchmark-owned generators.

Every module exposes the same five names:

``NAME`` / ``WHY``
    The final workload name and the one-sentence reason it exists.
``generate(seed, scale=1.0)``
    Seeded inputs — pure data (payload pools, op scripts, the shadow
    model of what will have been acknowledged).  The seed feeds only
    these generators; the program under test never sees it.  ``scale``
    shrinks the work for the untimed warm-up burst.
``setup(inputs, ctx, substrate)``
    Build the volume and preload it (timed as ``setup_s``).
``run(state, inputs, ctx)``
    Materialise the op list against the live identifiers, then run
    the timed region inside a :class:`~benchmarks.perf.probe.Probe`.
``check(state, inputs, timed, oracle)``
    Oracle checks, after and outside the timed region.

A module that runs worker threads also sets ``THREADED = True``: its
simulated metrics are then not held to equality across repetitions,
and its child process is pinned to one CPU (see ``child.py``).

Flush policy is part of each workload's definition and is the same on
every commit.
"""

from __future__ import annotations

from . import (
    aru_commit,
    crash_recovery,
    frontend_txn,
    minixfs_files,
    read_mix,
    shard_2pc,
    write_storm,
)

WORKLOADS = {
    module.NAME: module
    for module in (
        write_storm,
        read_mix,
        aru_commit,
        minixfs_files,
        crash_recovery,
        shard_2pc,
        frontend_txn,
    )
}

#: Workloads that also run on the journaling baseline (JLD) in the
#: traced pass: same generated ops, LLD-only knobs do not apply.
JLD_WORKLOADS = (aru_commit.NAME, minixfs_files.NAME)


__all__ = ["JLD_WORKLOADS", "WORKLOADS"]
