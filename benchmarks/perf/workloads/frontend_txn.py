"""``frontend_txn``: multi-tenant transactions through the front end,
closed loop for throughput and open loop for latency."""

from __future__ import annotations

import dataclasses
import math
import random
import time
from typing import Dict, List, Optional

from repro import DiskGeometry, LLDConfig
from repro.frontend import FrontendConfig, make_frontend
from repro.shard import build_sharded, shard_of

from ..gen import payload_pool, scaled
from ..metrics import percentile

NAME = "frontend_txn"
WHY = (
    "frontend + txn (locks, wait-die) + cross-shard commits under real "
    "threads, sized to a 2-core box; default lane implementation only, "
    "since a later change may delete the other."
)

#: Worker threads interleave differently every run, so simulated
#: metrics vary by a few % and are held to the bound, not to equality.
THREADED = True
SHARDS = 2
GEOMETRY = DiskGeometry.small(num_segments=128)
CONFIG = LLDConfig(
    checkpoint_slot_segments=2,
    writeback_depth=4,
    group_commit=True,
    group_commit_max_parked=8,
)
#: Default lane implementation, ``durable=False``, closing flush.
FRONTEND = FrontendConfig(workers_per_lane=2, max_inflight=32)
TENANTS = 64
BLOCKS_PER_TENANT = 4
TOUCHES = 2
READ_ONLY_SHARE = 0.25
HOT_SHARE = 0.10
PAYLOAD = 64
POOL = 64
#: Set-up flushes that wrap both 16 MB logs once (every flush seals a
#: segment however little it holds), so the timed requests run with
#: the cleaner already cycling instead of racing the first wrap.
AGE_FLUSHES = 160
AGE_WRITES_PER_FLUSH = 8
#: Phase A, closed loop: one generator thread on blocking ``submit()``
#: keeps ``max_inflight`` = 32 virtual clients busy.
CLOSED_REQUESTS = 1800
#: Phase B, open loop: arrivals on a fixed schedule, each timed from
#: its due time.  An arrival that finds the front end saturated
#: (``try_submit`` sheds it; counted in ``frontend.shed``) waits in the
#: generator on blocking ``submit()`` instead of being lost, so a stall
#: of the host delays requests — and shows in their latency — but
#: fails none.
OPEN_REQUESTS = 480
OPEN_RATE = 800.0


@dataclasses.dataclass
class Plan:
    tenant: int
    touched: List[int]  # positions within the tenant's blocks
    read_only: bool
    hit_hot: bool
    payload: int


@dataclasses.dataclass
class Inputs:
    pool: List[bytes]
    #: per set-up flush: (tenant, position) blocks rewritten with zeros
    age: List[List[tuple]]
    closed: List[Plan]
    open: List[Plan]


def generate(seed: int, scale: float = 1.0) -> Inputs:
    rng = random.Random(seed)
    pool = payload_pool(rng, POOL, PAYLOAD)

    def plans(count: int) -> List[Plan]:
        return [
            Plan(
                rng.randrange(TENANTS),
                rng.sample(range(BLOCKS_PER_TENANT), TOUCHES),
                rng.random() < READ_ONLY_SHARE,
                rng.random() < HOT_SHARE,
                rng.randrange(POOL),
            )
            for _ in range(count)
        ]

    age = [
        [
            (rng.randrange(TENANTS), rng.randrange(BLOCKS_PER_TENANT))
            for _ in range(AGE_WRITES_PER_FLUSH)
        ]
        for _ in range(scaled(AGE_FLUSHES, scale, 4))
    ]
    return Inputs(
        pool,
        age,
        plans(scaled(CLOSED_REQUESTS, scale, 64)),
        plans(scaled(OPEN_REQUESTS, scale, 64)),
    )


@dataclasses.dataclass
class State:
    volume: object
    frontend: object
    tenant_blocks: List[list]
    tenant_shard: List[int]
    hot_block: int
    closed_handles: list = dataclasses.field(default_factory=list)
    open_handles: list = dataclasses.field(default_factory=list)
    stats: Optional[dict] = None


def setup(inputs: Inputs, ctx, substrate: str = "lld") -> State:
    volume = build_sharded(SHARDS, GEOMETRY, config=CONFIG)
    tenant_blocks, tenant_shard = [], []
    zero = b"\0" * PAYLOAD
    for _ in range(TENANTS):
        lst = volume.new_list()
        blocks = [volume.new_block(lst) for _ in range(BLOCKS_PER_TENANT)]
        for block in blocks:
            volume.write(block, zero)
        tenant_blocks.append(blocks)
        # A tenant's private traffic stays on its home shard's lane.
        tenant_shard.append(shard_of(lst, SHARDS))
    hot_list = volume.new_list()
    hot_block = volume.new_block(hot_list)
    volume.write(hot_block, (0).to_bytes(8, "little").ljust(PAYLOAD, b"\0"))
    volume.flush()
    for writes in inputs.age:
        for tenant, position in writes:
            volume.write(tenant_blocks[tenant][position], zero)
        volume.flush()
    frontend = make_frontend(volume, FRONTEND)
    return State(volume, frontend, tenant_blocks, tenant_shard, hot_block)


def _body(state: State, plan: Plan, data: bytes, number: int):
    """One request's transaction body — a pure closure, because
    wait-die may run it several times."""
    touched = [state.tenant_blocks[plan.tenant][p] for p in plan.touched]
    hot_block = state.hot_block

    def body(txn):
        for block in touched:
            txn.read(block)
            if not plan.read_only:
                txn.write(block, data)
        if plan.hit_hot:
            counter = int.from_bytes(txn.read(hot_block)[:8], "little")
            txn.write(
                hot_block,
                (counter + 1).to_bytes(8, "little").ljust(PAYLOAD, b"\0"),
            )

    body.trace_op = number
    return body


def _requests(state: State, pool, plans: List[Plan], first: int) -> list:
    """(body, tenant name, home lane) per plan, numbered from
    ``first``."""
    return [
        (
            _body(state, plan, pool[plan.payload], first + number),
            f"tenant{plan.tenant}",
            state.tenant_shard[plan.tenant],
        )
        for number, plan in enumerate(plans)
    ]


def run(state: State, inputs: Inputs, ctx):
    frontend, volume = state.frontend, state.volume
    closed = _requests(state, inputs.pool, inputs.closed, 0)
    opened = _requests(state, inputs.pool, inputs.open, len(closed))
    submit, try_submit = frontend.submit, frontend.try_submit
    monotonic, sleep = time.monotonic, time.sleep
    probe = ctx.probe(volume)

    # Phase A: closed loop.
    closed_handles = state.closed_handles
    start = monotonic()
    for body, tenant, shard in closed:
        closed_handles.append(submit(body, tenant, shard=shard))
    frontend.drain()
    closed_s = monotonic() - start

    # Phase B: open loop.  An arrival is timed from when it was due,
    # so a stall is charged to every request queued behind it — in
    # the front end or, once that is full, in the generator.
    open_handles = state.open_handles
    due_times, late_us = [], []
    interval = 1.0 / OPEN_RATE
    start = monotonic() + interval
    for number, (body, tenant, shard) in enumerate(opened):
        due = start + number * interval
        delay = due - monotonic()
        if delay > 0:
            sleep(delay)
        late_us.append(max(0.0, (monotonic() - due) * 1e6))
        open_handles.append(
            try_submit(body, tenant, shard=shard)
            or submit(body, tenant, shard=shard)
        )
        due_times.append(due)
    frontend.drain()
    frontend.close()  # the closing flush

    # A gave-up or failed request misses any latency limit.
    samples = probe.latencies_us
    lost = 0
    for handle, due in zip(open_handles, due_times):
        if handle.state == "done":
            samples.append((handle.finished_at - due) * 1e6)
        else:
            samples.append(math.inf)
            lost += 1
    lost += sum(1 for handle in closed_handles if handle.state != "done")
    writes = sum(
        TOUCHES * (not plan.read_only) + plan.hit_hot
        for plan in inputs.closed + inputs.open
    )
    requests = len(closed) + len(opened)
    timed = probe.finish(
        ops=requests, user_bytes=writes * PAYLOAD, failed=lost
    )
    # Throughput is phase A's alone; phase B runs at a fixed rate.
    timed.rate_ops, timed.rate_wall_s = len(closed), closed_s
    stats = state.stats = frontend.stats()
    latency = stats["latency"]
    locks = stats["txn"]["locks"]
    timed.layers.update(
        {
            "txn.lock_wait_p50_us": latency["lock_wait"]["p50_us"],
            "txn.lock_wait_p99_us": latency["lock_wait"]["p99_us"],
            "txn.deaths": locks["deaths"],
            "txn.timeouts": locks["timeouts"],
            "txn.commit_ratio": (
                stats["txn"]["committed"] / stats["txn"]["begun"]
                if stats["txn"]["begun"]
                else 0.0
            ),
            "frontend.queue_wait_p50_us": latency["queue_wait"]["p50_us"],
            "frontend.queue_wait_p99_us": latency["queue_wait"]["p99_us"],
            "frontend.sched_overhead_p50_us": latency["sched_overhead"][
                "p50_us"
            ],
            "frontend.sched_overhead_p99_us": latency["sched_overhead"][
                "p99_us"
            ],
            "frontend.storage_p50_us": latency["storage"]["p50_us"],
            "frontend.storage_p99_us": latency["storage"]["p99_us"],
            "frontend.inflight_max": stats["inflight_max"],
            "frontend.shed": stats["shed"],
            "frontend.gen_late_p99_us": percentile(late_us, 0.99),
            "frontend.closed_loop_tps": len(closed) / closed_s,
            "shard.two_phase_commits": volume.stats()["sharding"][
                "commits_cross_shard"
            ],
        }
    )
    return timed


def check(state: State, inputs: Inputs, timed, oracle) -> None:
    volume = state.volume
    oracle.timed_checks(
        timed.ops, timed.failed, "requests gave up or failed"
    )
    oracle.frontend_quiesced(state.stats)
    oracle.volume_sound(volume)
    # Two workers of one lane may serialise a tenant's requests in
    # either order, so a block may hold what any committed request
    # wrote to it — and nothing else.  The hot counter is exact.
    handles = state.closed_handles + state.open_handles
    plans = inputs.closed + inputs.open
    writers: Dict[int, set] = {}
    hot = 0
    for handle, plan in zip(handles, plans):
        if handle.state != "done":
            continue
        hot += plan.hit_hot
        if not plan.read_only:
            for position in plan.touched:
                block = state.tenant_blocks[plan.tenant][position]
                writers.setdefault(block, set()).add(plan.payload)
    pool = inputs.pool
    for blocks in state.tenant_blocks:
        for block in blocks:
            got = volume.read(block)[:PAYLOAD]
            allowed = writers.get(block)
            oracle.expect(
                got in {pool[p] for p in allowed}
                if allowed
                else got == b"\0" * PAYLOAD,
                f"block {int(block)} holds bytes no committed request wrote",
            )
    counter = int.from_bytes(volume.read(state.hot_block)[:8], "little")
    oracle.expect(
        counter == hot,
        f"hot counter {counter} != {hot} committed hot requests",
    )
