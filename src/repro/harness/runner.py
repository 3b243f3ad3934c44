"""Experiment runners: one function per paper experiment.

Each runner builds fresh systems for the requested variants, executes
the workload, and returns both the raw per-variant results and a
rendered, paper-style table.  Scale parameters default to sizes that
run in seconds; the benchmark suite passes the paper's full sizes
when ``REPRO_FULL_SCALE`` is set.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.disk.geometry import DiskGeometry
from repro.harness.reporting import format_deltas, format_table
from repro.harness.variants import VARIANTS, Variant, build_variant, paper_geometry
from repro.lld.config import LLDConfig
from repro.workloads.arulat import ARULatencyResult, run_aru_latency
from repro.workloads.largefile import LargeFileResult, run_large_file
from repro.workloads.smallfile import SmallFileResult, run_small_files


def capture_metrics(ld) -> Dict[str, dict]:
    """One experiment run's observability artifact for a system.

    ``stats`` is the frozen schema-stable view (see
    :mod:`repro.obs.schema`); ``registry`` is the full instrument
    snapshot including latency histograms.
    """
    return {"stats": ld.stats(), "registry": ld.obs.snapshot()}


@dataclasses.dataclass
class Figure5Result:
    """Figure 5: small-file throughput per variant and size class."""

    #: (variant, n_files, file_size) -> phase results
    results: Dict[str, Dict[int, SmallFileResult]]
    table: str
    #: per-run observability artifacts, keyed "variant/file_size"
    metrics: Dict[str, dict] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class Figure6Result:
    """Figure 6: large-file throughput, old vs new."""

    results: Dict[str, LargeFileResult]
    table: str
    metrics: Dict[str, dict] = dataclasses.field(default_factory=dict)


def run_figure5(
    size_classes: Sequence[Dict] = (
        {"n_files": 10_000, "file_size": 1024},
        {"n_files": 1_000, "file_size": 10 * 1024},
    ),
    variants: Sequence[str] = ("old", "new", "new_delete"),
    geometry: Optional[DiskGeometry] = None,
) -> Figure5Result:
    """The small-file experiment for every variant and size class."""
    results: Dict[str, Dict[int, SmallFileResult]] = {}
    metrics: Dict[str, dict] = {}
    for name in variants:
        variant = VARIANTS[name]
        per_size: Dict[int, SmallFileResult] = {}
        for spec in size_classes:
            geo = geometry if geometry is not None else paper_geometry(0.25)
            _disk, ld, fs = build_variant(
                variant, geometry=geo,
                n_inodes=max(1024, spec["n_files"] + spec["n_files"] // 64 + 64),
            )
            per_size[spec["file_size"]] = run_small_files(
                fs, spec["n_files"], spec["file_size"]
            )
            metrics[f"{name}/{spec['file_size']}"] = capture_metrics(ld)
        results[name] = per_size

    columns: List[str] = []
    for spec in size_classes:
        kb = spec["file_size"] // 1024
        columns += [f"C+W {kb}KB", f"R {kb}KB", f"D {kb}KB"]
    rows = {
        name: [
            value
            for spec in size_classes
            for value in (
                results[name][spec["file_size"]].create_write_fps,
                results[name][spec["file_size"]].read_fps,
                results[name][spec["file_size"]].delete_fps,
            )
        ]
        for name in variants
    }
    table = format_table(
        "Figure 5 — small-file throughput (files/second, simulated)",
        columns,
        rows,
        unit="files/second",
    )
    if "old" in rows and len(rows) > 1:
        table += "\n\n" + format_deltas(
            "Concurrency overhead vs the old prototype", "old", columns, rows
        )
    return Figure5Result(results=results, table=table, metrics=metrics)


def run_figure6(
    file_size: int = 20_000 * 4096,
    variants: Sequence[str] = ("old", "new"),
    geometry: Optional[DiskGeometry] = None,
) -> Figure6Result:
    """The large-file experiment (write1/read1/write2/read2/read3)."""
    results: Dict[str, LargeFileResult] = {}
    metrics: Dict[str, dict] = {}
    for name in variants:
        geo = geometry if geometry is not None else paper_geometry(
            _geometry_scale_for(file_size)
        )
        # Keep the block cache well below the file size, as the
        # paper's 80 MB machine was against its 78 MB file; otherwise
        # the read phases just measure the cache.
        cache_blocks = max(64, min(2048, file_size // geo.block_size // 4))
        _disk, ld, fs = build_variant(
            VARIANTS[name], geometry=geo, n_inodes=64,
            config=LLDConfig(cache_blocks=cache_blocks),
        )
        results[name] = run_large_file(fs, file_size=file_size)
        metrics[name] = capture_metrics(ld)
    columns = ["write1", "read1", "write2", "read2", "read3"]
    rows = {
        name: [results[name].phase(phase) for phase in columns]
        for name in variants
    }
    table = format_table(
        "Figure 6 — large-file throughput (MB/second, simulated)",
        columns,
        rows,
        unit="MB/second",
        precision=3,
    )
    if "old" in rows and len(rows) > 1:
        table += "\n\n" + format_deltas(
            "Concurrency overhead vs the old prototype", "old", columns, rows
        )
    return Figure6Result(results=results, table=table, metrics=metrics)


def run_aru_latency_experiment(
    iterations: int = 500_000,
    geometry: Optional[DiskGeometry] = None,
) -> ARULatencyResult:
    """The Section 5.3 microbenchmark on the new (concurrent) LLD."""
    geo = geometry if geometry is not None else paper_geometry(0.25)
    _disk, ld, _fs = build_variant(VARIANTS["new"], geometry=geo, n_inodes=64)
    result = run_aru_latency(ld, iterations=iterations)
    result.metrics["new"] = capture_metrics(ld)
    return result


@dataclasses.dataclass
class ScrubResult:
    """Outcome of the media-fault scrub demonstration."""

    segments_checked: int
    segments_quarantined: int
    blocks_salvaged: int
    blocks_lost: int
    blocks_intact: int
    verify_problems: int
    summary: str
    metrics: Dict[str, dict] = dataclasses.field(default_factory=dict)


def run_scrub_experiment(
    n_blocks: int = 200,
    n_faults: int = 4,
    seed: int = 7,
    geometry: Optional[DiskGeometry] = None,
) -> ScrubResult:
    """Inject media faults into a written log, then scrub and repair.

    Writes ``n_blocks`` blocks (overwriting some so older log copies
    exist), corrupts ``n_faults`` dirty segments (half bit-rot, half
    unreadable), runs a scrub pass, and verifies that every block the
    scrubber salvaged reads back byte-identical.
    """
    import random

    from repro.disk.faults import MediaFault
    from repro.disk.simdisk import SimulatedDisk
    from repro.errors import UnrecoverableBlockError
    from repro.lld.lld import LLD
    from repro.lld.usage import SegmentState
    from repro.lld.verify import verify_lld

    geo = geometry if geometry is not None else DiskGeometry.small(
        num_segments=128
    )
    disk = SimulatedDisk(geo)
    ld = LLD(disk, config=LLDConfig(checkpoint_slot_segments=2))
    rng = random.Random(seed)
    lst = ld.new_list()
    blocks = [ld.new_block(lst) for _ in range(max(1, n_blocks // 2))]
    expected: Dict[int, bytes] = {}
    for _round in range(2):  # every block written twice: old copies exist
        for block in blocks:
            data = bytes([rng.randrange(256)]) * geo.block_size
            ld.write(block, data)
            expected[int(block)] = data
        ld.flush()
    ld.read_many(blocks)  # warm the cache: one salvage source

    # Fail the most-live segments: those are the interesting victims.
    dirty = sorted(
        (seg for seg, _live, _seq in ld.usage.dirty_segments()),
        key=lambda seg: ld.usage.live_slots(seg),
        reverse=True,
    )
    victims = dirty[: min(n_faults, len(dirty))]
    for index, seg in enumerate(victims):
        kind = "corrupt" if index % 2 == 0 else "unreadable"
        disk.injector.add_media_fault(MediaFault(seg, kind))
        if index % 2 == 1:
            # Half the victims lose their cache entries too, forcing
            # the scrubber onto older log copies (or into data loss).
            ld.cache.invalidate_segment(seg)

    report = ld.scrub()
    intact = 0
    lost = 0
    for block in blocks:
        try:
            if ld.read(block) == expected[int(block)]:
                intact += 1
        except UnrecoverableBlockError:
            lost += 1
    quarantined = ld.usage.quarantined_segments()
    problems = verify_lld(ld)
    summary = (
        f"scrub: {report.segments_checked} segments checked, "
        f"{report.segments_quarantined} quarantined "
        f"({sorted(report.damaged)}), "
        f"{report.blocks_salvaged} blocks salvaged byte-identical, "
        f"{report.blocks_salvaged_stale} from older log copies (stale), "
        f"{report.blocks_lost} lost\n"
        f"readback: {intact}/{len(expected)} blocks byte-identical, "
        f"{lost} unrecoverable; "
        f"verify_lld: {len(problems)} problem(s); "
        f"quarantined states: "
        f"{[ld.usage.state(s) is SegmentState.QUARANTINED for s in quarantined].count(True)}"
        f"/{len(quarantined)}"
    )
    return ScrubResult(
        segments_checked=report.segments_checked,
        segments_quarantined=report.segments_quarantined,
        blocks_salvaged=report.blocks_salvaged,
        blocks_lost=report.blocks_lost,
        blocks_intact=intact,
        verify_problems=len(problems),
        summary=summary,
        metrics={"scrub": capture_metrics(ld)},
    )


@dataclasses.dataclass
class WritePathResult:
    """Outcome of the pipelined-write-path demonstration."""

    serial_ms: float
    pipelined_ms: float
    speedup: float
    serial_segments: int
    pipelined_segments: int
    commits_grouped: int
    groups_flushed: int
    summary: str
    metrics: Dict[str, dict] = dataclasses.field(default_factory=dict)


def run_writepath_experiment(
    n_arus: int = 200,
    writeback_depth: int = 8,
    group_commit_max_parked: int = 16,
    geometry: Optional[DiskGeometry] = None,
) -> WritePathResult:
    """Durable-commit storm: serial flush-per-ARU vs the pipeline.

    Runs ``n_arus`` tiny ARUs, each made durable immediately, first
    against the default serial write path and then with the
    write-behind queue and group commit enabled, and reports the
    simulated-time speedup and segment savings.  This is the harness
    front end for the ``writeback_depth`` / ``group_commit*`` knobs of
    :class:`~repro.lld.config.LLDConfig`.
    """
    from repro.disk.simdisk import SimulatedDisk
    from repro.lld.lld import LLD

    def storm(config: LLDConfig) -> "tuple[float, LLD]":
        geo = geometry if geometry is not None else DiskGeometry.small(
            num_segments=n_arus + 64, block_size=1024
        )
        disk = SimulatedDisk(geo)
        ld = LLD(disk, config=config)
        lst = ld.new_list()
        start = ld.clock.now_us
        for i in range(n_arus):
            aru = ld.begin_aru()
            block = ld.new_block(lst, aru=aru)
            ld.write(block, bytes([i & 0xFF]) * geo.block_size, aru=aru)
            ld.end_aru(aru)
            if not config.group_commit:
                ld.flush()  # a serial durable commit = flush per ARU
        ld.flush()
        return ld.clock.now_us - start, ld

    serial = LLDConfig(checkpoint_slot_segments=2)
    serial_us, serial_ld = storm(serial)
    pipelined_us, pipelined_ld = storm(
        serial.replace(
            writeback_depth=writeback_depth,
            group_commit=True,
            group_commit_max_parked=group_commit_max_parked,
            group_commit_timeout_us=1e12,
        )
    )
    serial_segments = serial_ld.stats()["segments"]["flushed"]
    pipelined_segments = pipelined_ld.stats()["segments"]["flushed"]
    gc_stats = pipelined_ld.stats()["group_commit"]
    speedup = serial_us / pipelined_us if pipelined_us else float("inf")
    summary = (
        f"write path: {n_arus} durable ARUs — serial "
        f"{serial_us / 1000:.1f} ms ({serial_segments} segments) vs "
        f"pipelined {pipelined_us / 1000:.1f} ms "
        f"({pipelined_segments} segments, "
        f"{gc_stats['commits_grouped']} commits in "
        f"{gc_stats['groups_flushed']} groups): {speedup:.2f}x"
    )
    return WritePathResult(
        serial_ms=serial_us / 1000,
        pipelined_ms=pipelined_us / 1000,
        speedup=speedup,
        serial_segments=serial_segments,
        pipelined_segments=pipelined_segments,
        commits_grouped=gc_stats["commits_grouped"],
        groups_flushed=gc_stats["groups_flushed"],
        summary=summary,
        metrics={
            "serial": capture_metrics(serial_ld),
            "pipelined": capture_metrics(pipelined_ld),
        },
    )


def _geometry_scale_for(file_size: int) -> float:
    """A partition comfortably larger than the benchmark file.

    The large-file experiment rewrites the file once, so the log
    needs roughly 2.5x the file size plus headroom for the cleaner.
    """
    needed_bytes = file_size * 3
    segments = max(64, needed_bytes // (512 * 1024))
    return segments / 800.0


@dataclasses.dataclass
class ShardResult:
    """Outcome of the sharded-volume demonstration."""

    shards: int
    rounds: int
    cross_shard_commits: int
    reads_identical: bool
    single_recover_ms: float
    sharded_parallel_ms: float
    sharded_serial_ms: float
    recovery_speedup: float
    #: Run time: the members' own durations over what array time
    #: advanced, summed over the fan-outs of the workload.
    fanout_speedup: float
    summary: str
    metrics: Dict[str, dict] = dataclasses.field(default_factory=dict)


def run_shard_experiment(
    shards: int = 4,
    n_lists: int = 8,
    blocks_per_list: int = 6,
    rounds: int = 12,
    num_segments: int = 96,
    replication_factor: int = 1,
) -> ShardResult:
    """Striping demonstration: one volume vs a sharded array.

    Runs the same logical workload — ``n_lists`` lists, then
    ``rounds`` transactions each rewriting one block on *every* list
    inside a single ARU — against a single LLD and against a
    ``shards``-way :class:`~repro.shard.sharded.ShardedLLD` (so every
    transaction is a cross-shard two-phase commit), crashes both by
    power-cycling every disk, recovers both, and reports (a) whether
    the recovered arrays read back identically block-for-block and
    (b) the simulated recovery time of the array's parallel,
    coordinator-first scan against the single volume and against
    scanning the same shards serially, beside (c) what the same
    overlap bought at run time (``sharding.fanout_serial_us`` over
    ``fanout_elapsed_us``).  ``replication_factor`` above
    1 runs the array with replicated shards (every transaction then
    carries its mirror writes through the same two-phase commits).
    """
    from repro.disk.geometry import DiskGeometry
    from repro.disk.simdisk import SimulatedDisk
    from repro.lld.lld import LLD
    from repro.recovery import recover
    from repro.shard.config import ArrayConfig
    from repro.shard.sharded import build_sharded

    geometry = DiskGeometry.small(num_segments=num_segments)
    # Same total capacity for the array: each member volume gets a
    # 1/shards slice, so the comparison is one big volume vs the same
    # storage striped.
    shard_geometry = DiskGeometry.small(
        num_segments=max(24, num_segments // shards)
    )

    def populate(ld) -> List[List]:
        lists = [ld.new_list() for _ in range(n_lists)]
        blocks = [
            [ld.new_block(lst) for _ in range(blocks_per_list)]
            for lst in lists
        ]
        for round_no in range(rounds):
            aru = ld.begin_aru()
            for li, per_list in enumerate(blocks):
                payload = f"r{round_no}-l{li}".encode().ljust(64, b".")
                ld.write(per_list[round_no % blocks_per_list], payload, aru=aru)
            ld.end_aru(aru)
        ld.flush()
        return blocks

    config = LLDConfig(checkpoint_slot_segments=2)
    single = LLD(SimulatedDisk(geometry), config=config)
    single_blocks = populate(single)

    array_config = ArrayConfig(replication_factor=replication_factor)
    sharded = build_sharded(
        shards,
        geometry=shard_geometry,
        config=config,
        array_config=array_config,
    )
    sharded_blocks = populate(sharded)
    info = sharded.sharding_info()
    cross = info["commits_cross_shard"]
    fanout_speedup = (
        info["fanout_serial_us"] / info["fanout_elapsed_us"]
        if info["fanouts"]
        else 1.0
    )

    # Recovered under the config they were written under: the
    # checkpoint slots' size is not recorded on the platter.
    single_rec, single_report = recover(
        single.disk.power_cycle(), config=config
    )
    sharded_rec, shard_report = recover(
        [shard.disk.power_cycle() for shard in sharded.shards],
        config=config,
        array_config=array_config,
    )

    identical = True
    for per_single, per_sharded in zip(single_blocks, sharded_blocks):
        for bid_single, bid_sharded in zip(per_single, per_sharded):
            if single_rec.read(bid_single) != sharded_rec.read(bid_sharded):
                identical = False

    single_ms = single_report.recovery_time_us / 1000
    parallel_ms = shard_report.parallel_us / 1000
    serial_ms = shard_report.serial_us / 1000
    speedup = serial_ms / parallel_ms if parallel_ms else float("inf")
    summary = (
        f"shard: {shards} shards, {rounds} cross-shard ARUs "
        f"({cross} two-phase commits) — recovered reads "
        f"{'identical' if identical else 'DIVERGED'}; recovery "
        f"single {single_ms:.1f} ms, array parallel {parallel_ms:.1f} ms "
        f"(serial {serial_ms:.1f} ms, {speedup:.2f}x); run-time "
        f"fan-outs {info['fanout_elapsed_us'] / 1000:.1f} ms "
        f"(serial {info['fanout_serial_us'] / 1000:.1f} ms, "
        f"{fanout_speedup:.2f}x)"
    )
    return ShardResult(
        shards=shards,
        rounds=rounds,
        cross_shard_commits=cross,
        reads_identical=identical,
        single_recover_ms=single_ms,
        sharded_parallel_ms=parallel_ms,
        sharded_serial_ms=serial_ms,
        recovery_speedup=speedup,
        fanout_speedup=fanout_speedup,
        summary=summary,
        metrics={
            "single": capture_metrics(single_rec),
            "sharded": {
                "stats": sharded_rec.stats(),
                "registry": sharded_rec.metrics_snapshot(),
            },
        },
    )


@dataclasses.dataclass
class FrontendResult:
    """Outcome of the concurrent front-end burst."""

    shards: int
    lanes: int
    workers: int
    offered: int
    admitted: int
    shed: int
    completed: int
    gave_up: int
    commit_p50_us: float
    commit_p99_us: float
    commit_p999_us: float
    locks: Dict[str, int]
    summary: str
    metrics: Dict[str, dict] = dataclasses.field(default_factory=dict)


def commit_latency_percentiles(ld) -> Dict[str, float]:
    """p50/p99/p999 of ARU commit latency (simulated µs) from the
    volume's existing ``lld.commit_us`` histograms — per-shard
    distributions merged exactly (shared fixed buckets)."""
    from repro.obs import merge_histogram_snapshots, percentile_from_snapshot

    shards = getattr(ld, "shards", [ld])
    merged = merge_histogram_snapshots(
        [
            shard.obs.metrics.histogram("lld.commit_us").snapshot()
            for shard in shards
        ]
    )
    return {
        "p50": percentile_from_snapshot(merged, 0.50),
        "p99": percentile_from_snapshot(merged, 0.99),
        "p999": percentile_from_snapshot(merged, 0.999),
        "count": merged["count"],
    }


def run_frontend_experiment(
    shards: int = 4,
    n_tenants: int = 16,
    n_requests: int = 300,
    rate: float = 1500.0,
    workers_per_lane: int = 2,
    max_inflight: int = 64,
    hot_fraction: float = 0.2,
    seed: int = 2026,
) -> FrontendResult:
    """A short open-loop burst through the multi-tenant front end.

    Builds a ``shards``-way array with the write-behind queue and
    group commit enabled, provisions ``n_tenants`` tenants, offers
    ``n_requests`` arrivals at ``rate`` per wall second, drains, and
    reports admission/completion counts, ARU-commit latency
    percentiles from the shards' ``lld.commit_us`` histograms, and
    the lock table's final (leak-free) sizes.
    """
    from repro.frontend import FrontendConfig, make_frontend
    from repro.shard.sharded import build_sharded
    from repro.workloads.openloop import (
        OpenLoopConfig,
        provision_hot_block,
        provision_tenants,
        run_openloop,
    )

    volume = build_sharded(
        shards,
        geometry=DiskGeometry.small(num_segments=96),
        config=LLDConfig(
            checkpoint_slot_segments=2,
            writeback_depth=4,
            group_commit=True,
            group_commit_max_parked=8,
        ),
    )
    frontend = make_frontend(
        volume,
        FrontendConfig(
            workers_per_lane=workers_per_lane,
            max_inflight=max_inflight,
            writeback_high_water=8,
            parked_high_water=16,
            lock_timeout_s=2.0,
        ),
    )
    tenants = provision_tenants(volume, n_tenants, blocks_per_tenant=4)
    hot_block = provision_hot_block(volume)
    result = run_openloop(
        frontend,
        tenants,
        OpenLoopConfig(
            rate=rate,
            n_requests=n_requests,
            n_tenants=n_tenants,
            hot_fraction=hot_fraction,
            seed=seed,
        ),
        hot_block=hot_block,
    )
    frontend.close()
    latency = commit_latency_percentiles(volume)
    frontend_stats = frontend.stats()
    locks = frontend_stats["txn"]["locks"]
    summary = (
        f"frontend: {shards} shards x "
        f"{frontend_stats['workers']} workers, "
        f"{n_tenants} tenants — offered {result.offered} "
        f"({rate:.0f}/s), admitted {result.admitted}, shed "
        f"{result.shed}, completed {result.completed} "
        f"(gave up {result.gave_up}); ARU commit p50 "
        f"{latency['p50']:.0f} us, p99 {latency['p99']:.0f} us, "
        f"p999 {latency['p999']:.0f} us; leaked locks "
        f"{locks['locks_held']}, leaked owners "
        f"{locks['owners_registered']}"
    )
    return FrontendResult(
        shards=shards,
        lanes=frontend.n_lanes,
        workers=frontend_stats["workers"],
        offered=result.offered,
        admitted=result.admitted,
        shed=result.shed,
        completed=result.completed,
        gave_up=result.gave_up,
        commit_p50_us=latency["p50"],
        commit_p99_us=latency["p99"],
        commit_p999_us=latency["p999"],
        locks=locks,
        summary=summary,
        metrics={
            "frontend": {
                "stats": volume.stats(),
                "registry": volume.metrics_snapshot(),
                "frontend": frontend_stats,
                "commit_latency_us": latency,
            },
        },
    )
