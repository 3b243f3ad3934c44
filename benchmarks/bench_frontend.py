"""Front-end load benchmarks: saturation, 2048-client flood, interference.

Drives the concurrent multi-tenant front end (:mod:`repro.frontend`)
over a 4-shard array with the open-loop generator
(:mod:`repro.workloads.openloop`).  Three experiments, all merged
into ``benchmarks/results/BENCH_frontend.json`` (one top-level
section each):

* ``saturation_sweep`` — offered arrival rate swept from comfortable
  to past saturation (a final unpaced *flood* point offers every
  arrival at once), on the thread lanes.  Per point: throughput,
  shed/admitted counts, wait-die deaths/timeouts, and the
  p50/p99/p999 ARU-commit latency taken from the shards' existing
  ``lld.commit_us`` histograms (simulated µs, merged exactly).
* ``flood`` — >= 2048 unpaced open-loop clients with admission sized
  so nothing sheds.  The lanes must hold at least half of them in
  flight at once (the workers retire requests while the generator is
  still submitting, so the peak sits below the client count); the
  decomposed wall-clock latency digests (queue-wait / lock-wait /
  storage / scheduling overhead, p50/p99/p999 each) say where a
  request's time goes.
* ``maintenance_interference`` — a 512-client storm twice, without
  and with the cleaner + scrubber running mid-storm on a maintenance
  driver; the decomposed digests measure the interference.

Three properties are asserted at every point — they are the
regression net for the transaction-layer bugfixes this rig exists to
prove:

* **zero lock leaks**: all locks released and the wait-die timestamp
  table (``_owner_ts``) empty once the front end quiesces;
* **no starvation**: every admitted request commits — none exhausts
  its wait-die retry budget, even at the contended flood point;
* **real concurrency**: the flood point holds >= 64 requests in
  flight simultaneously (>= half the clients for the 2048 flood).

``REPRO_FULL_SCALE=1`` multiplies the request counts by 8 (the
flood and interference client counts by 2).
"""

from __future__ import annotations

import threading
import time

from benchmarks.conftest import (
    full_scale,
    merge_report_json,
    report_table,
)

from repro.frontend import FrontEnd, FrontendConfig
from repro.frontend.maintenance import MaintenanceDriver
from repro.obs import merge_histogram_snapshots, percentile_from_snapshot
from repro.obs.schema import validate_frontend_stats
from repro.shard.sharded import build_sharded
from repro.disk.geometry import DiskGeometry
from repro.lld.config import LLDConfig
from repro.workloads.openloop import (
    OpenLoopConfig,
    provision_hot_block,
    provision_tenants,
    run_openloop,
)

SHARDS = 4
N_TENANTS = 64
MIN_CONCURRENT = 64
MAX_INFLIGHT = 128
#: The no-shed flood's client swarm.
FLOOD_CLIENTS = 2048


def commit_latency_percentiles(volume) -> dict:
    """p50/p99/p999 of ARU commit latency (simulated µs) from the
    array's existing ``lld.commit_us`` histograms — per-shard
    distributions merged exactly (shared fixed buckets)."""
    merged = merge_histogram_snapshots(
        [
            shard.obs.metrics.histogram("lld.commit_us").snapshot()
            for shard in volume.shards
        ]
    )
    return {
        "p50": percentile_from_snapshot(merged, 0.50),
        "p99": percentile_from_snapshot(merged, 0.99),
        "p999": percentile_from_snapshot(merged, 0.999),
        "count": merged["count"],
    }


def meet_on_the_hot_block(frontend, tenants, hot_block, timeout_s=5.0):
    """Submit two read-modify-writes of the hot block, on two lanes,
    that meet by construction: the second touches the block only once
    the first holds it, and the first keeps it until the lock manager
    has counted a wait or a death.  Returns their handles."""
    locks = frontend.manager.locks
    before = locks.waits + locks.deaths
    held = threading.Event()

    def increment(txn):
        counter = int.from_bytes(txn.read(hot_block)[:8], "little")
        txn.write(hot_block, (counter + 1).to_bytes(8, "little").ljust(64, b"\0"))

    def holder(txn):
        increment(txn)
        held.set()
        deadline = time.monotonic() + timeout_s
        while (
            locks.waits + locks.deaths == before
            and time.monotonic() < deadline
        ):
            time.sleep(0.0005)

    def meeter(txn):
        held.wait(timeout_s)
        increment(txn)

    first = {}
    for name in sorted(tenants):
        first.setdefault(tenants[name].shard, name)
    (lane_a, name_a), (lane_b, name_b) = sorted(first.items())[:2]
    return [
        frontend.submit(holder, name_a, shard=lane_a),
        frontend.submit(meeter, name_b, shard=lane_b),
    ]


def run_point(
    rate: float,
    n_requests: int,
    pace: bool = True,
    hot_fraction: float = 0.15,
    seed: int = 2026,
    meet: bool = False,
) -> dict:
    """One offered-load point on a fresh 4-shard array; with ``meet``
    two transactions meet on the hot block before the arrivals
    (:func:`meet_on_the_hot_block`)."""
    volume = build_sharded(
        SHARDS,
        geometry=DiskGeometry.small(num_segments=128),
        config=LLDConfig(
            checkpoint_slot_segments=2,
            writeback_depth=4,
            group_commit=True,
            group_commit_max_parked=8,
        ),
    )
    frontend = FrontEnd(
        volume,
        FrontendConfig(
            workers_per_lane=2,
            max_inflight=MAX_INFLIGHT,
            lock_timeout_s=2.0,
        ),
    )
    tenants = provision_tenants(volume, N_TENANTS, blocks_per_tenant=4)
    hot_block = provision_hot_block(volume)
    met = meet_on_the_hot_block(frontend, tenants, hot_block) if meet else []
    result = run_openloop(
        frontend,
        tenants,
        OpenLoopConfig(
            rate=rate,
            n_requests=n_requests,
            n_tenants=N_TENANTS,
            hot_fraction=hot_fraction,
            seed=seed,
            pace=pace,
        ),
        hot_block=hot_block,
    )
    for handle in met:
        handle.wait()
    frontend.close()
    latency = commit_latency_percentiles(volume)
    stats = result.frontend
    locks = stats["txn"]["locks"]
    return {
        "offered_rate": rate if pace else None,
        "paced": pace,
        "offered": result.offered,
        "admitted": result.admitted,
        "shed": result.shed,
        "completed": result.completed,
        "gave_up": result.gave_up,
        "failed": result.failed,
        "achieved_tps": result.achieved_tps,
        "inflight_max": stats["inflight_max"],
        "hot_commits": result.hot_value,
        "deaths": locks["deaths"],
        "timeouts": locks["timeouts"],
        "waits": locks["waits"],
        "lock_leaks": locks["locks_held"],
        "owner_ts_leaks": locks["owners_registered"],
        "waiter_leaks": locks["waiters"],
        "tenants_served": len(stats["per_tenant_completed"]),
        "commit_p50_us": latency["p50"],
        "commit_p99_us": latency["p99"],
        "commit_p999_us": latency["p999"],
        "commit_count": latency["count"],
    }


def check_invariants(point: dict) -> None:
    """The per-point regression net (see module docstring)."""
    assert point["failed"] == 0, point
    assert point["gave_up"] == 0, f"starved requests: {point}"
    assert point["lock_leaks"] == 0, f"leaked locks: {point}"
    assert point["owner_ts_leaks"] == 0, f"leaked _owner_ts: {point}"
    assert point["waiter_leaks"] == 0, f"leaked waiters: {point}"
    assert point["completed"] == point["admitted"], point


def test_frontend_saturation_sweep():
    scale = 8 if full_scale() else 1
    n_requests = 320 * scale
    points = []
    for rate in (500.0, 1500.0, 4000.0):
        point = run_point(rate, n_requests=n_requests)
        check_invariants(point)
        points.append(point)

    # The flood point: every arrival offered at once, far past
    # saturation — admission control must shed rather than queue
    # without bound, and the lanes must genuinely hold >= 64
    # concurrent clients.  Its lock pressure is built in: workers
    # under the interpreter lock can finish every hot-block
    # transaction without one waiting, so two are made to meet.
    flood = run_point(
        rate=1e9, n_requests=4 * MAX_INFLIGHT * scale, pace=False,
        hot_fraction=0.8, meet=True,
    )
    check_invariants(flood)
    assert flood["inflight_max"] >= MIN_CONCURRENT, flood
    assert flood["shed"] > 0, "flood point never saturated admission"
    points.append(flood)

    # Monotonic sanity: latency percentiles are well-formed
    # everywhere and the contended flood point actually contended.
    for point in points:
        assert 0 < point["commit_p50_us"] <= point["commit_p99_us"]
        assert point["commit_p99_us"] <= point["commit_p999_us"]
        # commit_count is per-shard ARU commits, not requests: a
        # pure-read transaction touches no shard ARU, a cross-shard
        # one commits on several shards.
        assert point["commit_count"] > 0
    assert flood["deaths"] + flood["timeouts"] + flood["waits"] > 0, (
        "flood point produced no lock pressure at all; the sweep is "
        "not exercising the contention paths"
    )

    header = (
        f"{'rate/s':>10} {'admit':>6} {'shed':>6} {'tps':>8} "
        f"{'p50us':>8} {'p99us':>8} {'p999us':>8} {'deaths':>7} "
        f"{'maxinfl':>8}"
    )
    rows = [header]
    for point in points:
        rate = (
            "flood" if not point["paced"] else f"{point['offered_rate']:.0f}"
        )
        rows.append(
            f"{rate:>10} {point['admitted']:>6} {point['shed']:>6} "
            f"{point['achieved_tps']:>8.0f} {point['commit_p50_us']:>8.0f} "
            f"{point['commit_p99_us']:>8.0f} {point['commit_p999_us']:>8.0f} "
            f"{point['deaths']:>7} {point['inflight_max']:>8}"
        )
    table = "\n".join(rows)
    report_table("frontend_saturation", table)
    merge_report_json(
        "frontend",
        "saturation_sweep",
        {
            "shards": SHARDS,
            "tenants": N_TENANTS,
            "max_inflight": MAX_INFLIGHT,
            "min_concurrent_required": MIN_CONCURRENT,
            "max_concurrent_seen": flood["inflight_max"],
            "sweep": points,
            "lock_leaks_total": sum(p["lock_leaks"] for p in points),
            "owner_ts_leaks_total": sum(
                p["owner_ts_leaks"] for p in points
            ),
            "starved_total": sum(p["gave_up"] for p in points),
        },
    )


def test_tenant_fairness_under_flood():
    """One tenant flooding its lane cannot starve its lane-mates:
    round-robin service still completes every other tenant's work."""
    volume = build_sharded(
        SHARDS,
        geometry=DiskGeometry.small(num_segments=96),
        config=LLDConfig(checkpoint_slot_segments=2),
    )
    frontend = FrontEnd(
        volume,
        FrontendConfig(
            workers_per_lane=1,
            max_inflight=MAX_INFLIGHT,
            max_tenant_queue=8,
            lock_timeout_s=2.0,
        ),
    )
    tenants = provision_tenants(volume, 8, blocks_per_tenant=2)
    names = sorted(tenants)
    greedy = names[0]
    lane = tenants[greedy].shard

    def body_for(tenant):
        block = tenants[tenant].blocks[0]

        def body(txn):
            txn.write(block, b"x" * 64)
            return tenant

        return body

    # The greedy tenant floods its own lane queue; every other tenant
    # on the same lane trickles in behind it.
    victims = [
        name
        for name in names[1:]
        if tenants[name].shard == lane
    ]
    handles = []
    shed = 0
    for _round in range(6):
        for _ in range(4):
            handle = frontend.try_submit(
                body_for(greedy), greedy, shard=lane
            )
            if handle is None:
                shed += 1
            else:
                handles.append(handle)
        for name in victims:
            handles.append(frontend.submit(body_for(name), name, shard=lane))
    frontend.drain()
    stats = frontend.stats()
    frontend.close()
    per_tenant = stats["per_tenant_completed"]
    for name in victims:
        assert per_tenant.get(name, 0) == 6, (name, per_tenant)
    assert stats["txn"]["locks"]["owners_registered"] == 0


def _digest(summary: dict) -> dict:
    """One latency component, rounded for the JSON artifact."""
    return {
        "count": summary["count"],
        "mean_us": round(summary["mean_us"], 1),
        "p50_us": round(summary["p50_us"], 1),
        "p99_us": round(summary["p99_us"], 1),
        "p999_us": round(summary["p999_us"], 1),
        "max_us": round(summary["max_us"], 1),
    }


def run_swarm(
    n_clients: int,
    seed: int = 2026,
    hot_fraction: float = 0.02,
    maintenance: bool = False,
) -> dict:
    """One unpaced flood of ``n_clients`` open-loop clients on a
    fresh 4-shard array.

    Admission is sized so nothing sheds: every client is admitted and
    waits in a lane FIFO, which is the concurrency being measured.
    With ``maintenance=True`` a cleaner+scrubber driver runs
    throughout the storm.
    """
    volume = build_sharded(
        SHARDS,
        geometry=DiskGeometry.small(num_segments=192),
        config=LLDConfig(
            checkpoint_slot_segments=2,
            writeback_depth=4,
            group_commit=True,
            group_commit_max_parked=8,
        ),
    )
    frontend = FrontEnd(
        volume,
        FrontendConfig(
            workers_per_lane=2,
            max_inflight=2 * n_clients,
            max_tenant_queue=max(64, (2 * n_clients) // N_TENANTS),
            lock_timeout_s=5.0,
        ),
    )
    tenants = provision_tenants(volume, N_TENANTS, blocks_per_tenant=4)
    hot_block = provision_hot_block(volume)
    config = OpenLoopConfig(
        rate=1e9,
        n_requests=n_clients,
        n_tenants=N_TENANTS,
        hot_fraction=hot_fraction,
        seed=seed,
        pace=False,
        # The whole flood is admitted before the lanes take work, so
        # ``inflight_max`` measures admission, not a race between the
        # generator and eight workers on a loaded host.
        hold_lanes=True,
    )
    driver = (
        MaintenanceDriver(volume, interval_s=0.005).start()
        if maintenance
        else None
    )
    try:
        result = run_openloop(
            frontend, tenants, config, hot_block=hot_block
        )
    finally:
        if driver is not None:
            driver.stop()
    stats = result.frontend
    frontend.close()
    assert not validate_frontend_stats(stats), validate_frontend_stats(
        stats
    )
    commit = commit_latency_percentiles(volume)
    latency = stats["latency"]
    locks = stats["txn"]["locks"]
    point = {
        "clients": n_clients,
        "maintenance": maintenance,
        "maintenance_passes": driver.passes if driver else 0,
        "admitted": result.admitted,
        "shed": result.shed,
        "completed": result.completed,
        "gave_up": result.gave_up,
        "failed": result.failed,
        "wall_s": round(result.wall_s, 3),
        "achieved_tps": round(result.achieved_tps, 1),
        "inflight_max": stats["inflight_max"],
        "deaths": locks["deaths"],
        "timeouts": locks["timeouts"],
        "lock_leaks": locks["locks_held"],
        "owner_ts_leaks": locks["owners_registered"],
        "waiter_leaks": locks["waiters"],
        "latency": {
            component: _digest(latency[component])
            for component in (
                "queue_wait",
                "lock_wait",
                "storage",
                "sched_overhead",
                "service",
            )
        },
        "commit_p50_us": commit["p50"],
        "commit_p99_us": commit["p99"],
        "commit_p999_us": commit["p999"],
    }
    check_invariants(point)
    return point


def test_flood_holds_thousands_in_flight():
    """>= 2048 unpaced clients, none shed: the lanes hold at least
    half of them in flight at once on 8 worker threads, everything
    commits leak-free, and every request's latency is decomposed."""
    n_clients = FLOOD_CLIENTS * (2 if full_scale() else 1)
    point = run_swarm(n_clients)

    assert point["shed"] == 0, point
    assert point["admitted"] == n_clients, point
    assert point["inflight_max"] >= n_clients // 2, point
    # Decomposition recorded for every single request, and the
    # percentile chains are well-formed.
    for component in ("lock_wait", "storage", "sched_overhead"):
        digest = point["latency"][component]
        assert digest["count"] == n_clients, (component, digest)
        assert (
            0 <= digest["p50_us"] <= digest["p99_us"] <= digest["p999_us"]
        ), (component, digest)

    rows = [
        f"{'component':>15} {'p50 us':>10} {'p99 us':>10} {'p999 us':>10}"
    ]
    for component, digest in point["latency"].items():
        rows.append(
            f"{component:>15} {digest['p50_us']:>10.0f} "
            f"{digest['p99_us']:>10.0f} {digest['p999_us']:>10.0f}"
        )
    rows.append(
        f"clients {point['clients']}, max in flight "
        f"{point['inflight_max']}, {point['achieved_tps']:.0f} tps, "
        f"{point['deaths']} wait-die deaths"
    )
    report_table("frontend_flood", "\n".join(rows))
    merge_report_json(
        "frontend",
        "flood",
        {
            "shards": SHARDS,
            "tenants": N_TENANTS,
            "clients": n_clients,
            "min_concurrent_required": n_clients // 2,
            "max_concurrent_seen": point["inflight_max"],
            "point": point,
        },
    )


def test_maintenance_interference():
    """Cleaner + scrubber passes mid-storm: the storm still commits
    everything with zero leaks, and the decomposed digests quantify
    the interference against the undisturbed baseline."""
    n_clients = 512 * (2 if full_scale() else 1)
    baseline = run_swarm(n_clients, seed=7)
    disturbed = run_swarm(n_clients, seed=7, maintenance=True)
    assert disturbed["maintenance_passes"] > 0, disturbed
    merge_report_json(
        "frontend",
        "maintenance_interference",
        {
            "clients": n_clients,
            "baseline": baseline,
            "with_maintenance": disturbed,
            "storage_p99_delta_us": round(
                disturbed["latency"]["storage"]["p99_us"]
                - baseline["latency"]["storage"]["p99_us"],
                1,
            ),
            "service_p99_delta_us": round(
                disturbed["latency"]["service"]["p99_us"]
                - baseline["latency"]["service"]["p99_us"],
                1,
            ),
        },
    )
