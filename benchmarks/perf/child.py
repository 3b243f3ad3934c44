"""One timed repetition, in this process.

The parent spawns a fresh interpreter per repetition (in-process
repeats drift as the heap grows); this module is what runs inside it:

    generate inputs -> build + preload (timed as ``setup_s``)
    -> untimed warm-up burst on a throw-away volume -> ``gc.collect()``
    -> timed region -> oracle checks -> one JSON line on stdout

Both measured regions are bracketed by the calibration kernel
(:mod:`.calibrate`) and their wall metrics reported at nominal machine
speed.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import resource
import time
from typing import Dict, Optional

from . import calibrate
from .metrics import LAYERS, percentile
from .oracle import Oracle
from .probe import Context, DiskBytes, Timed
from .tracing import Tracer
from .workloads import WORKLOADS

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

#: Share of the full op counts the warm-up burst runs.
WARM_SCALE = 0.03


def _mean_us(names: Dict[str, dict], key: str) -> float:
    row = names.get(key)
    return row["total_ns"] / row["calls"] / 1000.0 if row else 0.0


def span_layers(tracer: Tracer, timed: Timed) -> Dict[str, float]:
    """Per-layer metrics that only the spans can give."""
    summary = tracer.summary()
    # Self times partition the root spans, so their sum is the traced
    # thread-time.  Where threads overlap (front-end workers, recovery
    # decode lanes) that exceeds the wall time and becomes the base
    # instead, so a workload's shares always sum to <= 1.
    traced_ns = sum(row["self_ns"] for row in summary["layers"].values())
    wall_ns = max(timed.wall_s * 1e9, traced_ns)
    result: Dict[str, float] = {}
    for layer in LAYERS:
        row = summary["layers"][layer]
        result[f"{layer}.calls"] = row["calls"]
        result[f"{layer}.busy_ms"] = row["busy_ns"] / 1e6
        result[f"{layer}.self_ms"] = row["self_ns"] / 1e6
        result[f"{layer}.self_share"] = row["self_ns"] / wall_ns
    names = summary["names"]

    def calls(key: str) -> int:
        return names.get(key, {}).get("calls", 0)

    result.update(
        {
            "segment.seal_us": _mean_us(names, "SegmentBuffer.seal"),
            "segment.decode_us": _mean_us(names, "segment.decode_segment"),
            "cleaner.select_ms": names.get(
                "SegmentCleaner.select_victims", {}
            ).get("total_ns", 0)
            / 1e6,
            "cleaner.segments_cleaned": tracer.captured.get(
                "SegmentCleaner.clean", 0
            ),
            "checkpoint.writes": calls("CheckpointManager.write"),
            "lld.write_us": _mean_us(names, "LLD.write"),
            "lld.read_us": _mean_us(names, "LLD.read"),
            "lld.end_aru_us": _mean_us(names, "LLD.end_aru"),
            "lld.flush_us": _mean_us(names, "LLD.flush"),
            "fs.create_us": _mean_us(names, "MinixFS.create"),
            "fs.read_us": _mean_us(names, "MinixFS.read_file"),
            "fs.unlink_us": _mean_us(names, "MinixFS.unlink"),
            "shard.end_aru_us": _mean_us(names, "ShardedLLD.end_aru"),
            "shard.prepare_flushes": calls("LLD.prepare_commit"),
            # Cleaner time inside an array's calls (the 2PC-cleaner
            # interaction); zero where no array runs.
            "shard.cleaner_share": (
                summary["layers"]["cleaner"]["busy_ns"] / wall_ns
                if summary["layers"]["shard"]["calls"]
                else 0.0
            ),
            "trace.missing": len(tracer.missing),
        }
    )
    return result


def pin_to_one_cpu() -> None:
    """Keep every thread of this process on one CPU.

    On this 2-CPU virtual machine a hand-off between threads that sit
    on different CPUs wakes an idle virtual CPU, and how long that
    takes is the host's business: for minutes at a time ``frontend_txn``
    ran at 1.9k instead of 4.3k requests/s, while runs pinned to one
    CPU, interleaved with those, stayed at 4.2-4.6k.  The interpreter
    lock lets one thread run at a time anyway, so pinning costs the
    program nothing (same throughput in the host's good minutes) and
    the hand-offs become context switches on a CPU that is busy."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_child(
    workload: str, seed: int, traced: bool = False, substrate: str = "lld"
) -> dict:
    module = WORKLOADS[workload]
    if getattr(module, "THREADED", False):
        pin_to_one_cpu()
    disk_bytes = DiskBytes()
    disk_bytes.install()
    tracer: Optional[Tracer] = None
    if traced:
        tracer = Tracer()
        tracer.install()
    ctx = Context(disk_bytes, tracer)

    inputs = module.generate(seed)
    kernel0 = calibrate.kernel_seconds()
    start = time.perf_counter()
    state = module.setup(inputs, ctx, substrate)
    setup_s = time.perf_counter() - start
    setup_speed = calibrate.speed(kernel0, calibrate.kernel_seconds())

    warm_ctx = Context(disk_bytes)
    warm = module.generate(seed + 1, WARM_SCALE)
    module.run(module.setup(warm, warm_ctx, substrate), warm, warm_ctx)
    del warm
    gc.collect()

    kernel0 = calibrate.kernel_seconds()
    timed = module.run(state, inputs, ctx)
    kernel1 = calibrate.kernel_seconds()
    speed = calibrate.speed(kernel0, kernel1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    oracle = Oracle()
    module.check(state, inputs, timed, oracle)

    rate_ops = timed.rate_ops if timed.rate_ops is not None else timed.ops
    rate_wall = (
        timed.rate_wall_s if timed.rate_wall_s is not None else timed.wall_s
    )
    latencies_us = [sample * speed for sample in timed.latencies_us]
    layers = dict(timed.layers)
    layers["wall_p99_us"] = percentile(latencies_us, 0.99)
    layers["machine.speed"] = speed
    layers["raw.wall_ops_per_s"] = rate_ops / rate_wall
    if tracer is not None:
        layers.update(span_layers(tracer, timed))
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(
            OUT_DIR / f"trace_{workload}.json",
            workload,
            {"seed": seed, "timed_wall_s": timed.wall_s},
        )
    return {
        "workload": workload,
        "seed": seed,
        "setup_s": setup_s * setup_speed,
        "timed_s": timed.wall_s,
        "machine_drift": calibrate.drift(kernel0, kernel1),
        "wall_ops_per_s": rate_ops / rate_wall / speed,
        "wall_p50_us": percentile(latencies_us, 0.50),
        "sim_us_per_op": timed.sim_us / timed.ops,
        "write_amp": timed.disk_bytes / timed.user_bytes,
        "peak_rss_mb": peak_rss_mb,
        "latencies_us": latencies_us,
        "attempted": timed.ops,
        "checks": oracle.checks,
        "failed": oracle.failed,
        "problems": oracle.problems,
        "layers": layers,
        "trace_missing": tracer.missing if tracer is not None else [],
    }


def main(workload: str, seed: int, traced: bool, substrate: str) -> int:
    print(json.dumps(run_child(workload, seed, traced, substrate)))
    return 0
