"""The pipelined write path: write-behind and group commit.

Three workloads compare the serial write path (every sealed segment
written synchronously, every commit flushed on its own) against the
pipelined one (bounded write-behind queue draining through
scatter-gather ``write_many``, commit records grouped at drain
points):

* **Sequential fill** — large streaming writes; the queue turns N
  single-segment writes into N/depth batched writes whose adjacent
  segments coalesce into one seek plus a streamed transfer.
* **Commit storm** — many tiny ARUs, each made durable; the serial
  baseline pays one partial-segment flush per commit, group commit
  shares one segment write among ``max_parked`` commits.  The 2x
  simulated-time gate on this workload is the acceptance criterion
  of the write-path PR.
* **Clean under load** — overwrite churn on a small partition so the
  cleaner runs mid-workload; evacuation copies ride the same queue,
  proving write-behind does not regress the cleaner's pathology.

Machine-readable results accumulate in
``benchmarks/results/BENCH_write.json``.
"""

import time

import pytest

from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.harness.reporting import format_table
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.verify import verify_lld

from benchmarks.conftest import full_scale, report_json, report_table

#: Blocks streamed by the sequential-fill workload.
FILL_BLOCKS = 4000 if full_scale() else 800

#: Tiny ARUs committed (and made durable) by the commit storm.
STORM_ARUS = 2000 if full_scale() else 400

#: Blocks in the clean-under-load working set (overwritten 3x).
CHURN_BLOCKS = 600 if full_scale() else 200

_RESULTS: dict = {}


def _save() -> None:
    report_json("write", _RESULTS)


def build_lld(num_segments, block_size=4096, **kwargs):
    geo = DiskGeometry.small(num_segments=num_segments, block_size=block_size)
    disk = SimulatedDisk(geo)
    kwargs.setdefault("checkpoint_slot_segments", 2)
    return LLD(disk, config=LLDConfig(**kwargs))


# ======================================================================
# Sequential fill
# ======================================================================


def run_fill(writeback_depth):
    segments_needed = FILL_BLOCKS // 16 + 48
    ld = build_lld(segments_needed, writeback_depth=writeback_depth)
    lst = ld.new_list()
    start_us = ld.clock.now_us
    for index in range(FILL_BLOCKS):
        block = ld.new_block(lst)
        ld.write(block, b"fill-%06d" % index)
    ld.flush()
    elapsed_ms = (ld.clock.now_us - start_us) / 1000.0
    assert verify_lld(ld) == []
    return elapsed_ms, ld.disk.stats()


@pytest.mark.benchmark(group="write_path")
def test_sequential_fill(benchmark):
    def run():
        serial_ms, _ = run_fill(writeback_depth=0)
        pipelined_ms, disk_stats = run_fill(writeback_depth=8)
        return serial_ms, pipelined_ms, disk_stats

    serial_ms, pipelined_ms, disk_stats = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    speedup = serial_ms / max(pipelined_ms, 1e-9)
    table = format_table(
        f"Write path — sequential fill of {FILL_BLOCKS} blocks (simulated)",
        ["time ms", "speedup"],
        {
            "serial writes": [serial_ms, 1.0],
            "write-behind (depth 8)": [pipelined_ms, speedup],
        },
    )
    report_table("write_sequential_fill", table)
    _RESULTS["sequential_fill"] = {
        "blocks": FILL_BLOCKS,
        "serial_ms": round(serial_ms, 1),
        "pipelined_ms": round(pipelined_ms, 1),
        "speedup": round(speedup, 2),
        "write_batches": disk_stats["write_batches"],
        "write_batched_requests": disk_stats["write_batched_requests"],
        "write_batched_runs": disk_stats["write_batched_runs"],
    }
    _save()
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert pipelined_ms < serial_ms, (
        f"write-behind slower than serial: {pipelined_ms:.1f} ms vs "
        f"{serial_ms:.1f} ms"
    )
    # Batches really coalesced: far fewer runs than batched requests.
    assert disk_stats["write_batched_runs"] < disk_stats["write_batched_requests"]


# ======================================================================
# Commit storm
# ======================================================================


def run_storm(group_commit, metrics=True):
    # 1 KB blocks keep the platter small while the storm writes one
    # segment per serial commit.
    segments_needed = STORM_ARUS + 64 if not group_commit else STORM_ARUS + 64
    ld = build_lld(
        segments_needed,
        block_size=1024,
        writeback_depth=8 if group_commit else 0,
        group_commit=group_commit,
        group_commit_max_parked=16,
        group_commit_timeout_us=1e12,
        metrics=metrics,
    )
    lst = ld.new_list()
    start_us = ld.clock.now_us
    for index in range(STORM_ARUS):
        aru = ld.begin_aru()
        block = ld.new_block(lst, aru=aru)
        ld.write(block, b"storm-%06d" % index, aru)
        ld.end_aru(aru)
        if not group_commit:
            # The serial baseline makes every commit durable on its
            # own: one partial-segment flush per ARU.
            ld.flush()
    ld.flush()
    elapsed_ms = (ld.clock.now_us - start_us) / 1000.0
    assert ld.checkpoint_safe()
    stats = ld.stats()
    return elapsed_ms, stats


@pytest.mark.benchmark(group="write_path")
def test_commit_storm(benchmark):
    """The acceptance gate: group commit + write-behind is at least
    2x faster (simulated time) than commit-at-a-time flushing."""

    def run():
        wall = time.perf_counter()
        serial_ms, serial_stats = run_storm(group_commit=False)
        serial_wall_ms = (time.perf_counter() - wall) * 1000.0
        wall = time.perf_counter()
        grouped_ms, grouped_stats = run_storm(group_commit=True)
        grouped_wall_ms = (time.perf_counter() - wall) * 1000.0
        return (
            serial_ms, serial_stats, grouped_ms, grouped_stats,
            serial_wall_ms, grouped_wall_ms,
        )

    (
        serial_ms, serial_stats, grouped_ms, grouped_stats,
        serial_wall_ms, grouped_wall_ms,
    ) = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = serial_ms / max(grouped_ms, 1e-9)
    table = format_table(
        f"Write path — commit storm, {STORM_ARUS} tiny ARUs made durable "
        "(simulated; wall ms is host time)",
        ["time ms", "segments", "speedup", "wall ms"],
        {
            "flush per commit": [
                serial_ms,
                float(serial_stats["segments_flushed"]),
                1.0,
                serial_wall_ms,
            ],
            "group commit (16)": [
                grouped_ms,
                float(grouped_stats["segments_flushed"]),
                speedup,
                grouped_wall_ms,
            ],
        },
    )
    report_table("write_commit_storm", table)
    _RESULTS["commit_storm"] = {
        "arus": STORM_ARUS,
        "serial_ms": round(serial_ms, 1),
        "grouped_ms": round(grouped_ms, 1),
        "speedup": round(speedup, 2),
        "serial_segments": serial_stats["segments_flushed"],
        "grouped_segments": grouped_stats["segments_flushed"],
        "commits_grouped": grouped_stats["group_commit"]["commits_grouped"],
        "groups_flushed": grouped_stats["group_commit"]["groups_flushed"],
        "avg_fill_serial": round(serial_stats["segments"]["avg_fill"], 4),
        "avg_fill_grouped": round(grouped_stats["segments"]["avg_fill"], 4),
        # Host time (not simulated): tracks the wall-clock fast paths.
        "serial_wall_ms": round(serial_wall_ms, 2),
        "grouped_wall_ms": round(grouped_wall_ms, 2),
    }
    _save()
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= 2.0, (
        f"group commit only {speedup:.2f}x over flush-per-commit "
        f"({serial_ms:.1f} ms -> {grouped_ms:.1f} ms)"
    )
    assert (
        grouped_stats["segments_flushed"] < serial_stats["segments_flushed"]
    )


# ======================================================================
# Metrics overhead
# ======================================================================

#: Quick-scale commit-storm baselines recorded before the
#: observability subsystem landed (STORM_ARUS=400).  The simulated
#: times are deterministic, so staying within the 3% gate proves the
#: instrumented write path costs (next to) nothing simulated.
PRE_OBS_SERIAL_MS = 3086.9
PRE_OBS_GROUPED_MS = 508.8


@pytest.mark.benchmark(group="write_path")
def test_metrics_overhead(benchmark):
    """The observability guardrail.

    1. Metrics on vs off must produce *identical* simulated times —
       the registry and recorder never touch the simulated clock.
    2. At quick scale, both storm variants must stay within 3% of the
       pre-observability baselines, so the instrumentation (and its
       disabled fast path) cannot silently tax the write path.
    3. Host wall-clock for both modes is reported (informational).
    """

    def run():
        timings = {}
        wall = time.perf_counter()
        on_serial_ms, _ = run_storm(group_commit=False, metrics=True)
        on_grouped_ms, _ = run_storm(group_commit=True, metrics=True)
        timings["wall_on_s"] = time.perf_counter() - wall
        wall = time.perf_counter()
        off_serial_ms, _ = run_storm(group_commit=False, metrics=False)
        off_grouped_ms, _ = run_storm(group_commit=True, metrics=False)
        timings["wall_off_s"] = time.perf_counter() - wall
        return on_serial_ms, on_grouped_ms, off_serial_ms, off_grouped_ms, \
            timings

    on_serial, on_grouped, off_serial, off_grouped, timings = \
        benchmark.pedantic(run, rounds=1, iterations=1)

    assert on_serial == off_serial, (
        f"metrics changed simulated serial time: {on_serial} vs {off_serial}"
    )
    assert on_grouped == off_grouped, (
        f"metrics changed simulated grouped time: "
        f"{on_grouped} vs {off_grouped}"
    )
    if not full_scale():
        for label, got, baseline in (
            ("serial", off_serial, PRE_OBS_SERIAL_MS),
            ("grouped", off_grouped, PRE_OBS_GROUPED_MS),
        ):
            drift = abs(got - baseline) / baseline
            assert drift < 0.03, (
                f"{label} storm drifted {drift:.1%} from the "
                f"pre-observability baseline ({got:.1f} ms vs "
                f"{baseline:.1f} ms)"
            )
    _RESULTS["metrics_overhead"] = {
        "serial_ms": round(off_serial, 1),
        "grouped_ms": round(off_grouped, 1),
        "wall_metrics_on_s": round(timings["wall_on_s"], 3),
        "wall_metrics_off_s": round(timings["wall_off_s"], 3),
    }
    _save()


# ======================================================================
# Clean under load
# ======================================================================


def run_churn(writeback_depth):
    # A partition sized so overwrite churn forces the cleaner to run
    # during the workload.
    ld = build_lld(
        CHURN_BLOCKS // 16 + 28,
        writeback_depth=writeback_depth,
        clean_low_water=4,
        clean_high_water=8,
    )
    lst = ld.new_list()
    blocks = []
    start_us = ld.clock.now_us
    for index in range(CHURN_BLOCKS):
        block = ld.new_block(lst)
        ld.write(block, b"seed-%06d" % index)
        blocks.append(block)
    for round_no in range(3):
        for index, block in enumerate(blocks):
            if index % 2 == round_no % 2:
                ld.write(block, b"churn-%d-%06d" % (round_no, index))
    ld.flush()
    elapsed_ms = (ld.clock.now_us - start_us) / 1000.0
    assert ld.cleanings > 0, "workload never triggered the cleaner"
    assert verify_lld(ld) == []
    return elapsed_ms, ld.stats()


@pytest.mark.benchmark(group="write_path")
def test_clean_under_load(benchmark):
    def run():
        serial_ms, _ = run_churn(writeback_depth=0)
        pipelined_ms, stats = run_churn(writeback_depth=8)
        return serial_ms, pipelined_ms, stats

    serial_ms, pipelined_ms, stats = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    speedup = serial_ms / max(pipelined_ms, 1e-9)
    table = format_table(
        f"Write path — overwrite churn with cleaning, {CHURN_BLOCKS} blocks "
        "x3 rounds (simulated)",
        ["time ms", "cleanings", "speedup"],
        {
            "serial writes": [serial_ms, 0.0, 1.0],
            "write-behind (depth 8)": [
                pipelined_ms,
                float(stats["cleanings"]),
                speedup,
            ],
        },
    )
    report_table("write_clean_under_load", table)
    _RESULTS["clean_under_load"] = {
        "blocks": CHURN_BLOCKS,
        "serial_ms": round(serial_ms, 1),
        "pipelined_ms": round(pipelined_ms, 1),
        "speedup": round(speedup, 2),
        "cleanings": stats["cleanings"],
    }
    _save()
    benchmark.extra_info["speedup"] = round(speedup, 2)
    # The queue must never make the cleaning pathology worse.
    assert pipelined_ms <= serial_ms * 1.02, (
        f"write-behind regressed clean-under-load: {pipelined_ms:.1f} ms vs "
        f"{serial_ms:.1f} ms serial"
    )
