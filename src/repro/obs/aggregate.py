"""Aggregating per-shard ``stats()`` dicts into one schema-shaped view.

A sharded volume (:mod:`repro.shard`) reports one frozen-schema stats
dict per member volume plus an ``aggregate`` section combining them.
The aggregate is itself valid under :data:`~repro.obs.schema.STATS_SCHEMA`
— same keys, same types — so every consumer of single-volume stats
(plots, CI validators, the harness) reads a sharded volume's totals
unchanged.

Combination rules, derived from the schema rather than hand-listed so
new counters aggregate automatically:

* ``INT``/``NUM`` leaves and open counter groups sum across shards;
* ``BOOL`` leaves AND across shards (a feature counts as enabled for
  the array only if every shard has it);
* ``OPT_NUM`` leaves take the minimum of the non-``None`` values
  (``segments.min_fill`` is the array's worst fill), ``None`` if all
  are ``None``;
* ``STR`` leaves list the distinct non-empty values, sorted and
  joined by ``"; "`` (``recovery.scan_plan`` is ``"walk"`` when every
  shard walked);
* ``segments.avg_fill`` is re-derived as the sealed-segment-weighted
  mean, not the mean of means.
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs.schema import BOOL, INT, NUM, OPT_NUM, STATS_SCHEMA, STR


def _aggregate(schema: dict, dicts: List[dict], path: str) -> dict:
    result: dict = {}
    if set(schema) == {"*"}:
        keys = sorted({key for entry in dicts for key in entry})
        for key in keys:
            result[key] = sum(entry.get(key, 0) for entry in dicts)
        return result
    for key, expected in schema.items():
        where = f"{path}.{key}" if path else key
        values = [entry[key] for entry in dicts]
        if isinstance(expected, dict):
            result[key] = _aggregate(expected, values, where)
        elif where == "segments.avg_fill":
            sealed = [entry["sealed"] for entry in dicts]
            total = sum(sealed)
            result[key] = (
                sum(fill * n for fill, n in zip(values, sealed)) / total
                if total
                else 0.0
            )
        elif expected == BOOL:
            result[key] = all(values)
        elif expected == OPT_NUM:
            present = [value for value in values if value is not None]
            result[key] = min(present) if present else None
        elif expected == STR:
            result[key] = "; ".join(sorted(set(values) - {""}))
        elif expected in (INT, NUM):
            result[key] = sum(values)
        else:
            raise ValueError(f"unknown schema sentinel {expected!r}")
    return result


def aggregate_stats(per_shard: List[dict]) -> dict:
    """Combine per-shard ``stats()`` dicts into one schema-shaped dict.

    Every input must individually conform to the frozen schema (a
    volume's real ``stats()`` output always does); the result then
    conforms too.
    """
    if not per_shard:
        raise ValueError("aggregate_stats needs at least one stats dict")
    return _aggregate(STATS_SCHEMA, list(per_shard), "")
