"""The frozen ``stats()`` schema, in one place.

Every key that :meth:`repro.lld.lld.LLD.stats` returns is declared
here, with its type; the regression test in
``tests/test_stats_schema.py`` snapshots the declared paths, so
renaming or dropping a counter is a deliberate, visible act (edit
this module *and* the test) rather than a silent drift.

The schema language is deliberately tiny:

* ``INT`` / ``NUM`` / ``BOOL`` — leaf sentinels (``NUM`` accepts int
  or float; ``bool`` is never a valid ``INT``/``NUM``).
* ``OPT_NUM`` — a number or ``None`` (e.g. ``segments.min_fill``
  before any segment sealed).
* ``STR`` — a string (e.g. ``recovery.scan_plan``).
* a dict — a nested section whose keys must match exactly…
* …unless it contains the single key ``"*"``, which declares an open
  group: any keys, every value matching the ``"*"`` type (used for
  the op/CPU counter groups, whose members depend on the workload).

``python -m repro.obs.schema FILE...`` validates harness metrics
artifacts (or bare ``stats()`` dumps) against the schema.
"""

from __future__ import annotations

import json
import sys
from typing import Iterator, List

INT = "int"
NUM = "number"
BOOL = "bool"
OPT_NUM = "number-or-null"
STR = "string"

#: The frozen schema.  Add keys freely in future PRs; renames and
#: removals must update the snapshot test alongside this table.
STATS_SCHEMA = {
    "ops": {"*": INT},
    "cpu_us": {"*": NUM},
    # Units vary by charge kind (calls, entries, KB), so fractional
    # counts are legitimate (e.g. crc charged per KB).
    "cpu_counts": {"*": NUM},
    "segments_flushed": INT,
    "cleanings": INT,
    "active_arus": INT,
    "arus_begun": INT,
    "arus_committed": INT,
    "cache_hits": INT,
    "cache_misses": INT,
    "free_segments": INT,
    # How the foreground read path's cache misses reached the disk
    # (:class:`repro.lld.cache.ReadStream`): every one is ``positioned``
    # or ``streamed`` from the head over ``gap_blocks`` dropped blocks;
    # ``windows`` of them read ahead, ``window_blocks`` in all.
    "read_stream": {
        "positioned": INT,
        "streamed": INT,
        "windows": INT,
        "window_blocks": INT,
        "gap_blocks": INT,
    },
    # A run is one cleaner invocation (``cleanings`` == ``runs``), a
    # pass one evacuation round inside it; a pass that frees its
    # victims ends in exactly one checkpoint.  ``segments_freed_unread``
    # are the victims among ``segments_freed`` that held no live slot,
    # ``summaries_read`` the victims read by a tail window because no
    # slot table covered them.
    "cleaner": {
        "runs": INT,
        "passes": INT,
        "segments_freed": INT,
        "segments_freed_unread": INT,
        "summaries_read": INT,
        "blocks_copied": INT,
        "damaged": INT,
    },
    # ``writes`` = ``bases`` + ``deltas`` (base images and the delta
    # records chained behind them); ``payload_bytes`` is what the
    # checkpoints occupy, ``bytes_written`` what reached the disk
    # (payload rounded up to a sector).
    "checkpoint": {
        "writes": INT,
        "bases": INT,
        "deltas": INT,
        "payload_bytes": INT,
        "bytes_written": INT,
        "last_seq": INT,
    },
    "scrub": {
        "scrubs": INT,
        "segments_quarantined": INT,
        "blocks_salvaged": INT,
        "blocks_salvaged_stale": INT,
        "blocks_lost": INT,
        "degraded_reads": INT,
        "salvaged_reads": INT,
        "unrecoverable_reads": INT,
        "pending_segments": INT,
        "quarantined_segments": INT,
    },
    "writeback": {
        "depth": INT,
        "queued": INT,
        "submitted": INT,
        "drains": INT,
        "auto_drains": INT,
        "max_depth_seen": INT,
    },
    "group_commit": {
        "enabled": BOOL,
        "parked": INT,
        "groups_flushed": INT,
        "commits_grouped": INT,
    },
    "segments": {
        "sealed": INT,
        "flushed": INT,
        "in_place_writes": INT,
        "data_bytes": INT,
        "summary_bytes": INT,
        "avg_fill": NUM,
        "min_fill": OPT_NUM,
    },
    # The ``scan_*``/``segments_*`` keys quote the RecoveryReport of
    # the recovery that built the volume ("" and zeros on a formatted
    # one): scanned + attested + unread free space + roster-quarantined
    # = log segments.
    "recovery": {
        "scan_plan": STR,
        "scan_fallback": STR,
        "segments_scanned": INT,
        "segments_attested": INT,
        "segments_invalid": INT,
        "restoring": BOOL,
        "watermark": INT,
        "pending_segments": INT,
        "on_demand_replays": INT,
        "instant_restores": INT,
    },
    "disk": {
        "requests": INT,
        "sequential_requests": INT,
        "bytes_transferred": INT,
        "bytes_read": INT,
        "bytes_written": INT,
        "busy_us": NUM,
        "writes": INT,
        "reads": INT,
        "read_batches": INT,
        "batched_requests": INT,
        "batched_runs": INT,
        "write_batches": INT,
        "write_batched_requests": INT,
        "write_batched_runs": INT,
    },
    "obs": {
        "metrics_enabled": BOOL,
        "events_recorded": INT,
        "events_dropped": INT,
        "events_capacity": INT,
    },
}


#: The ``sharding`` section a :class:`~repro.shard.sharded.ShardedLLD`
#: adds beside its per-shard and aggregate stats.  Separate table, not
#: part of STATS_SCHEMA: single-volume stats never carry it, and the
#: frozen-path snapshot covers single volumes only.
SHARDING_SCHEMA = {
    "shards": INT,
    "replication_factor": INT,
    "xids_issued": INT,
    "commits_single_shard": INT,
    "commits_cross_shard": INT,
    "decided_pending": INT,
    "dead_shards": INT,
    "degraded_reads": INT,
    "repairs_completed": INT,
    "blocks_healed": INT,
    "lists_healed": INT,
    "replica_skips": INT,
    "fanouts": INT,
    "fanout_serial_us": NUM,
    "fanout_elapsed_us": NUM,
    "redundancy_full": BOOL,
}


#: One component of the front end's decomposed request latency —
#: the shape :func:`repro.obs.registry.latency_summary` emits.
LATENCY_SUMMARY_SCHEMA = {
    "count": INT,
    "mean_us": NUM,
    "max_us": NUM,
    "p50_us": NUM,
    "p99_us": NUM,
    "p999_us": NUM,
}

#: The front-end ``stats()`` schema.
FRONTEND_SCHEMA = {
    "lanes": INT,
    "workers": INT,
    "inflight": INT,
    "inflight_max": INT,
    "submitted": INT,
    "admitted": INT,
    "shed": INT,
    "completed": INT,
    "gave_up": INT,
    "failed": INT,
    "per_tenant_completed": {"*": INT},
    "latency": {
        "queue_wait": LATENCY_SUMMARY_SCHEMA,
        "lock_wait": LATENCY_SUMMARY_SCHEMA,
        "storage": LATENCY_SUMMARY_SCHEMA,
        "sched_overhead": LATENCY_SUMMARY_SCHEMA,
        "service": LATENCY_SUMMARY_SCHEMA,
    },
    "txn": {
        "begun": INT,
        "committed": INT,
        "aborted": INT,
        "locks": {
            "grants": INT,
            "waits": INT,
            "deaths": INT,
            "timeouts": INT,
            "owners_registered": INT,
            "resources_locked": INT,
            "locks_held": INT,
            "waiters": INT,
        },
    },
}


def _type_ok(sentinel: str, value) -> bool:
    # bool is a subclass of int, so it must be ruled on first.
    if sentinel == BOOL:
        return isinstance(value, bool)
    if sentinel == STR:
        return isinstance(value, str)
    if isinstance(value, bool):
        return False
    if sentinel == INT:
        return isinstance(value, int)
    if sentinel == NUM:
        return isinstance(value, (int, float))
    if sentinel == OPT_NUM:
        return value is None or isinstance(value, (int, float))
    raise ValueError(f"unknown schema sentinel {sentinel!r}")


def _validate(schema: dict, stats, path: str, problems: List[str]) -> None:
    if not isinstance(stats, dict):
        problems.append(f"{path or '<root>'}: expected a dict, got "
                        f"{type(stats).__name__}")
        return
    if set(schema) == {"*"}:
        sentinel = schema["*"]
        for key, value in stats.items():
            if not _type_ok(sentinel, value):
                problems.append(
                    f"{path}.{key}: expected {sentinel}, got {value!r}"
                )
        return
    for key, expected in schema.items():
        where = f"{path}.{key}" if path else key
        if key not in stats:
            problems.append(f"{where}: missing")
            continue
        value = stats[key]
        if isinstance(expected, dict):
            _validate(expected, value, where, problems)
        elif not _type_ok(expected, value):
            problems.append(f"{where}: expected {expected}, got {value!r}")
    for key in stats:
        if key not in schema:
            where = f"{path}.{key}" if path else key
            problems.append(f"{where}: not in the frozen schema")


def validate_stats(stats: dict) -> List[str]:
    """Problems with a ``stats()`` dict against the frozen schema.

    Empty list means the dict conforms: every declared key present
    with the declared type, and no undeclared keys.
    """
    problems: List[str] = []
    _validate(STATS_SCHEMA, stats, "", problems)
    return problems


def is_sharded_stats(stats) -> bool:
    """Whether a dict has the sharded-volume stats shape."""
    return (
        isinstance(stats, dict)
        and "shards" in stats
        and "aggregate" in stats
    )


def validate_sharded_stats(stats: dict) -> List[str]:
    """Problems with a :class:`ShardedLLD` ``stats()`` dict.

    The shape is ``{"shards": {index: <frozen stats>}, "aggregate":
    <frozen stats>, "sharding": <SHARDING_SCHEMA>}`` — every per-shard
    dict and the aggregate must each conform to the frozen
    single-volume schema.
    """
    problems: List[str] = []
    per_shard = stats.get("shards")
    if not isinstance(per_shard, dict) or not per_shard:
        problems.append("shards: expected a non-empty dict")
    else:
        for index, entry in per_shard.items():
            problems += [
                f"shards.{index}.{problem}"
                for problem in validate_stats(entry)
            ]
    if "aggregate" not in stats:
        problems.append("aggregate: missing")
    else:
        problems += [
            f"aggregate.{problem}"
            for problem in validate_stats(stats["aggregate"])
        ]
    if "sharding" not in stats:
        problems.append("sharding: missing")
    else:
        sharding: List[str] = []
        _validate(SHARDING_SCHEMA, stats["sharding"], "sharding", sharding)
        problems += sharding
    for key in stats:
        if key not in ("shards", "aggregate", "sharding"):
            problems.append(f"{key}: not in the sharded stats shape")
    return problems


def validate_any_stats(stats: dict) -> List[str]:
    """Validate either stats shape, dispatching on structure."""
    if is_sharded_stats(stats):
        return validate_sharded_stats(stats)
    return validate_stats(stats)


def validate_frontend_stats(stats: dict) -> List[str]:
    """Problems with a front-end ``stats()`` dict (either lane
    implementation) against :data:`FRONTEND_SCHEMA`."""
    problems: List[str] = []
    _validate(FRONTEND_SCHEMA, stats, "", problems)
    return problems


def schema_paths() -> List[str]:
    """Every declared key path, dotted, sorted (``ops.*`` style for
    open groups) — the surface the snapshot test freezes."""

    def walk(schema: dict, prefix: str) -> Iterator[str]:
        for key, expected in schema.items():
            where = f"{prefix}.{key}" if prefix else key
            if isinstance(expected, dict):
                yield from walk(expected, where)
            else:
                yield f"{where}:{expected}"

    return sorted(walk(STATS_SCHEMA, ""))


def validate_artifact(payload: dict) -> List[str]:
    """Problems with a harness metrics artifact (or bare stats dict).

    Artifacts look like ``{"experiment": ..., "variants": {label:
    {"stats": ..., "metrics": ...}}}``; anything else is validated as
    a bare ``stats()`` dict.  Each stats entry may be a single-volume
    dict (the frozen schema) or a sharded-volume dict (per-shard +
    aggregate + sharding), dispatched on shape.
    """
    problems: List[str] = []
    if "variants" in payload:
        variants = payload["variants"]
        if not isinstance(variants, dict) or not variants:
            return ["variants: expected a non-empty dict"]
        for label, entry in variants.items():
            if not isinstance(entry, dict) or "stats" not in entry:
                problems.append(f"variants.{label}: missing 'stats'")
                continue
            problems += [
                f"variants.{label}.stats: {problem}"
                for problem in validate_any_stats(entry["stats"])
            ]
    else:
        problems += validate_any_stats(payload)
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print("usage: python -m repro.obs.schema FILE...", file=sys.stderr)
        return 2
    failed = False
    for path in argv:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        problems = validate_artifact(payload)
        if problems:
            failed = True
            print(f"{path}: {len(problems)} schema problem(s)")
            for problem in problems:
                print(f"  {problem}")
        else:
            print(f"{path}: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
