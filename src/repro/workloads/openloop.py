"""Open-loop, arrival-rate-driven transactional workload.

The other workloads in this package are **closed-loop**: each
operation starts when the previous one finishes, so the system under
test sets its own pace and saturation is invisible (`postmark.py`
measures throughput, never backlog).  An open-loop generator instead
fixes an *offered* arrival rate in host wall-clock time and submits a
transaction at every arrival whether or not earlier ones finished.
When the front end saturates, arrivals are shed by admission control
and counted — offered load beyond capacity becomes a measured
quantity instead of a stalled generator.

Workload shape: ``n_tenants`` tenants, each owning a private list of
blocks on its home shard.  Every request is one transaction that
reads and rewrites a few of its tenant's blocks; a ``hot_fraction``
of requests also read-modify-write one globally shared *hot* block,
which manufactures genuine cross-tenant (and cross-lane) lock
conflicts — the contention that exercises wait-die, timestamp
inheritance and the lock-leak fixes under fire.

Deterministic given the seed **in structure** (which tenant, which
blocks, what payload); arrival timing is host wall-clock and shed
counts depend on host speed, which is the nature of an open-loop rig.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import time
from typing import Callable, Dict, List, Optional

from repro.frontend.scheduler import FrontEnd
from repro.ld.types import BlockId


@dataclasses.dataclass
class TenantState:
    """One tenant's provisioned blocks and home placement."""

    name: str
    list_id: int
    blocks: List[BlockId]
    shard: int


@dataclasses.dataclass
class OpenLoopConfig:
    """Shape and rate of one open-loop run."""

    rate: float = 500.0            # offered arrivals per wall second
    n_requests: int = 500          # total arrivals
    n_tenants: int = 16
    blocks_per_tenant: int = 4
    touches_per_request: int = 2   # tenant blocks rewritten per txn
    hot_fraction: float = 0.1      # also hit the shared hot block
    read_fraction: float = 0.25    # pure-read requests
    payload: int = 64
    seed: int = 2026
    pace: bool = True              # False: fire arrivals immediately
    hold_lanes: bool = False       # True: serve only once all are offered

    def validate(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        if self.n_tenants < 1:
            raise ValueError("n_tenants must be >= 1")
        if not 1 <= self.touches_per_request <= self.blocks_per_tenant:
            raise ValueError("touches_per_request out of range")


@dataclasses.dataclass
class OpenLoopResult:
    """What one run offered and what the system did with it."""

    offered: int
    offered_rate: float
    admitted: int
    shed: int
    completed: int
    gave_up: int
    failed: int
    wall_s: float
    achieved_tps: float            # completed per wall second
    hot_value: int                 # final shared-counter value
    frontend: dict                 # FrontEnd.stats() at quiesce


def provision_tenants(
    ld, n_tenants: int, blocks_per_tenant: int, payload: int = 64
) -> Dict[str, TenantState]:
    """Create each tenant's list and blocks (outside any contention).

    The home shard is wherever the volume's round-robin allocator
    placed the tenant's list, so a tenant's private traffic is wholly
    local to one lane.
    """
    from repro.shard.sharded import shard_of

    n_shards = getattr(ld, "n", 1)
    tenants: Dict[str, TenantState] = {}
    for index in range(n_tenants):
        name = f"tenant{index}"
        lst = ld.new_list()
        blocks = [ld.new_block(lst) for _ in range(blocks_per_tenant)]
        for block in blocks:
            ld.write(block, b"\0" * payload)
        tenants[name] = TenantState(
            name=name,
            list_id=int(lst),
            blocks=blocks,
            shard=shard_of(lst, n_shards) if n_shards > 1 else 0,
        )
    ld.flush()
    return tenants


def provision_hot_block(ld, payload: int = 64) -> BlockId:
    """The shared read-modify-write counter every tenant fights over."""
    lst = ld.new_list()
    block = ld.new_block(lst)
    ld.write(block, (0).to_bytes(8, "little").ljust(payload, b"\0"))
    ld.flush()
    return block


def _make_body(
    tenant: TenantState,
    hot_block: Optional[BlockId],
    rng: random.Random,
    config: OpenLoopConfig,
    stamp: int,
) -> Callable:
    """One request's transaction body.  Its structure is drawn from
    the seeded rng here, in a fixed order; the body itself is a pure
    closure, because it may run several times under wait-die retries.
    """
    touched = rng.sample(tenant.blocks, config.touches_per_request)
    is_read = rng.random() < config.read_fraction
    hit_hot = hot_block is not None and rng.random() < config.hot_fraction
    fill = bytes([stamp & 0xFF]) * config.payload
    payload = config.payload

    def body(txn):
        total = 0
        for block in touched:
            data = txn.read(block)
            total += data[0] if data else 0
            if not is_read:
                txn.write(block, fill)
        if hit_hot:
            # Cross-tenant conflict point: exclusive via upgrade.
            counter = int.from_bytes(txn.read(hot_block)[:8], "little")
            txn.write(
                hot_block,
                (counter + 1).to_bytes(8, "little").ljust(payload, b"\0"),
            )
        return total

    return body


def run_openloop(
    frontend: FrontEnd,
    tenants: Dict[str, TenantState],
    config: OpenLoopConfig,
    hot_block: Optional[BlockId] = None,
) -> OpenLoopResult:
    """Offer ``n_requests`` arrivals at ``rate`` and drain.

    Arrivals follow a uniform schedule (arrival *i* at ``i/rate``
    seconds); a generator running behind schedule fires immediately
    rather than stretching the experiment — bursts are part of the
    offered load.  Saturated arrivals are shed, not queued.  With
    ``hold_lanes`` every arrival is offered before the lanes take any
    work (:meth:`~repro.frontend.scheduler.FrontEnd.held`), so what is
    in flight measures admission, not how far the lanes got while the
    generator ran; without it the lanes serve meanwhile, and contend
    with the generator for the interpreter.
    """
    config.validate()
    rng = random.Random(config.seed)
    names = sorted(tenants)
    start = time.monotonic()
    interval = 1.0 / config.rate
    shed = 0
    handles = []
    with frontend.held() if config.hold_lanes else contextlib.nullcontext():
        for index in range(config.n_requests):
            if config.pace:
                due = start + index * interval
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            tenant = tenants[names[rng.randrange(len(names))]]
            handle = frontend.try_submit(
                _make_body(tenant, hot_block, rng, config, index),
                tenant.name,
                shard=tenant.shard,
            )
            if handle is None:
                shed += 1
            else:
                handles.append(handle)
    frontend.drain()
    wall_s = time.monotonic() - start
    stats = frontend.stats()
    hot_value = 0
    if hot_block is not None:
        hot_value = int.from_bytes(
            frontend.ld.read(hot_block)[:8], "little"
        )
    completed = sum(1 for handle in handles if handle.state == "done")
    return OpenLoopResult(
        offered=config.n_requests,
        offered_rate=config.rate,
        admitted=len(handles),
        shed=shed,
        completed=completed,
        gave_up=sum(1 for h in handles if h.state == "gave_up"),
        failed=sum(1 for h in handles if h.state == "failed"),
        wall_s=wall_s,
        achieved_tps=completed / wall_s if wall_s else 0.0,
        hot_value=hot_value,
        frontend=stats,
    )
