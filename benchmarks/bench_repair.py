"""Shard-loss repair benchmark: time to restore full redundancy.

A 4-shard, rf=2 array is populated, one shard is destroyed, and the
array heals onto a replacement while a light foreground workload
keeps running.  Reported numbers: wall-clock repair time, entities
healed per second, degraded-read overhead while the shard is down,
and the paced repair_step budget that produced them.

Machine-readable results accumulate in
``benchmarks/results/BENCH_shard_repair.json``.
"""

import time

import pytest

from repro.disk.geometry import DiskGeometry
from repro.lld.config import LLDConfig
from repro.shard import build_sharded
from repro.shard.config import ArrayConfig

from benchmarks.conftest import full_scale, report_json, report_table

N_SHARDS = 4
N_LISTS = 40 if full_scale() else 12
BLOCKS_PER_LIST = 25 if full_scale() else 8
PAYLOAD = b"repair-bench-payload".ljust(64, b".")


def build_populated():
    vol = build_sharded(
        N_SHARDS,
        geometry=DiskGeometry.small(num_segments=128),
        config=LLDConfig(checkpoint_slot_segments=2),
        array_config=ArrayConfig(replication_factor=2),
    )
    blocks = []
    for _ in range(N_LISTS):
        lst = vol.new_list()
        for _ in range(BLOCKS_PER_LIST):
            blocks.append(vol.new_block(lst))
    for blk in blocks:
        vol.write(blk, PAYLOAD)
    vol.flush()
    return vol, blocks


def time_reads(vol, blocks, rounds=3):
    start = time.perf_counter()
    for _ in range(rounds):
        for blk in blocks:
            vol.read(blk)
    return (time.perf_counter() - start) / (rounds * len(blocks))


@pytest.mark.benchmark(group="repair")
def test_shard_repair_to_full_redundancy(benchmark):
    vol, blocks = build_populated()
    healthy_read_s = time_reads(vol, blocks)

    vol.lose_shard(1)
    degraded_read_s = time_reads(vol, blocks)

    # Paced repair: fixed step budget, a foreground write between
    # steps so the bench exercises the dirty-recopy path too.
    start = time.perf_counter()
    vol.start_repair(1)
    steps = 0
    while vol.repair_active:
        vol.repair_step(max_ops=32)
        steps += 1
        vol.write(blocks[steps % len(blocks)], PAYLOAD)
    repair_s = time.perf_counter() - start

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    stats = vol.stats()["sharding"]
    assert stats["dead_shards"] == 0
    assert stats["redundancy_full"]
    healed = stats["blocks_healed"] + stats["lists_healed"]
    assert healed > 0
    healed_per_s = healed / repair_s if repair_s else 0.0

    repaired_read_s = time_reads(vol, blocks)
    for blk in blocks:
        assert vol.read(blk).startswith(PAYLOAD)

    rows = [
        ("entities healed", f"{healed}"),
        ("repair wall time", f"{repair_s * 1e3:.1f} ms"),
        ("heal rate", f"{healed_per_s:,.0f} entities/s"),
        ("repair steps (32-op budget)", f"{steps}"),
        ("read latency healthy", f"{healthy_read_s * 1e6:.1f} us"),
        ("read latency degraded", f"{degraded_read_s * 1e6:.1f} us"),
        ("read latency repaired", f"{repaired_read_s * 1e6:.1f} us"),
    ]
    width = max(len(label) for label, _ in rows) + 2
    table = "\n".join(
        [f"Shard repair ({N_SHARDS} shards, rf=2, {len(blocks)} blocks)"]
        + [f"{label.ljust(width)}{value}" for label, value in rows]
    )
    report_table("shard_repair", table)
    report_json(
        "shard_repair",
        {
            "shards": N_SHARDS,
            "replication_factor": 2,
            "blocks": len(blocks),
            "lists": N_LISTS,
            "entities_healed": healed,
            "repair_seconds": repair_s,
            "heal_rate_per_sec": healed_per_s,
            "repair_steps": steps,
            "step_budget_ops": 32,
            "read_us_healthy": healthy_read_s * 1e6,
            "read_us_degraded": degraded_read_s * 1e6,
            "read_us_repaired": repaired_read_s * 1e6,
            "full_scale": full_scale(),
        },
    )
    benchmark.extra_info["heal_rate_per_sec"] = round(healed_per_s)
