"""``crash_recovery``: eager and instant recovery of one crashed log."""

from __future__ import annotations

import dataclasses
import math
import random
import statistics
import time
from typing import Dict, List, Tuple

import repro
from repro import LLD, DiskGeometry, LLDConfig, SimulatedDisk

from ..gen import payload_pool, scaled
from ..probe import stats_layers, volume_stats

NAME = "crash_recovery"
WHY = (
    "recovery + summary/segment decode + batched disk reads, touched by "
    "no other workload: eager and instant recover from the bytes that "
    "survived power_cycle(); also the durability check."
)

BLOCK = 4096
GEOMETRY = DiskGeometry(
    block_size=BLOCK, segment_size=128 * 1024, num_segments=640
)
CONFIG = LLDConfig(checkpoint_slot_segments=8)
#: The log: ARUS committed ARUs of NEW_BLOCKS new blocks each (plus one
#: overwrite every third), ``flush()`` every FLUSH_ARUS, a checkpoint
#: halfway, one ARU left open, a final ``flush()``.
ARUS = 1600
NEW_BLOCKS = 4
FLUSH_ARUS = 100
#: Consecutive ARUs share a list, so a list is touched in one stretch
#: of the log (and by later overwrites of its blocks): reads during an
#: instant restore then need log prefixes of very different lengths.
ARUS_PER_LIST = 10
#: Recoveries per mode per repetition.
ROUNDS = 10
#: Requests served during each instant restore: the first waits for
#: the volume to open — its latency, time to first request, is this
#: workload's latency sample — and the rest replay on demand.
RESTORE_READS = 50
POOL = 64


@dataclasses.dataclass
class Inputs:
    pool: List[bytes]
    #: per ARU: ([payload per new block], overwrite or None) where
    #: overwrite = (ARU number, block position, payload)
    arus: List[Tuple[List[int], object]]
    #: per instant round: block positions (ARU number, position) to read
    reads: List[List[Tuple[int, int]]]


def generate(seed: int, scale: float = 1.0) -> Inputs:
    rng = random.Random(seed)
    pool = payload_pool(rng, POOL, BLOCK)
    arus = []
    for number in range(scaled(ARUS, scale, 2 * FLUSH_ARUS)):
        overwrite = None
        if number % 3 == 2:
            overwrite = (
                # Never ARU 0: its blocks stay as first written, so the
                # first read after an instant open needs no replay.
                rng.randrange(1, number),
                rng.randrange(NEW_BLOCKS),
                rng.randrange(POOL),
            )
        arus.append(
            ([rng.randrange(POOL) for _ in range(NEW_BLOCKS)], overwrite)
        )
    reads = [
        [
            (rng.randrange(len(arus)), rng.randrange(NEW_BLOCKS))
            for _ in range(RESTORE_READS)
        ]
        for _ in range(ROUNDS)
    ]
    return Inputs(pool, arus, reads)


@dataclasses.dataclass
class State:
    disk: SimulatedDisk
    lists: list
    #: block ids by (ARU number, position)
    blocks: List[List[int]]
    #: acknowledged and flushed contents / membership
    contents: Dict[int, bytes]
    members: Dict[int, set]
    open_block: int
    setup_user_bytes: int
    setup_disk_bytes: int
    instant: object = None
    #: simulated ms of every round, per mode (must not vary)
    sim_ms: Tuple[List[float], List[float]] = ((), ())


def setup(inputs: Inputs, ctx, substrate: str = "lld") -> State:
    bytes0 = ctx.disk_bytes.written
    disk = SimulatedDisk(GEOMETRY)
    volume = LLD(disk, config=CONFIG)
    pool = inputs.pool
    n_lists = -(-len(inputs.arus) // ARUS_PER_LIST)
    lists = [volume.new_list() for _ in range(n_lists)]
    volume.flush()
    blocks: List[List[int]] = []
    contents: Dict[int, bytes] = {}
    members: Dict[int, set] = {lst: set() for lst in lists}
    user_bytes = 0
    for number, (payloads, overwrite) in enumerate(inputs.arus):
        list_index = number // ARUS_PER_LIST
        aru = volume.begin_aru()
        mine = []
        for payload in payloads:
            block = volume.new_block(lists[list_index], aru=aru)
            volume.write(block, pool[payload], aru=aru)
            contents[block] = pool[payload]
            members[lists[list_index]].add(block)
            mine.append(block)
        if overwrite is not None:
            target, position, payload = overwrite
            block = blocks[target][position]
            volume.write(block, pool[payload], aru=aru)
            contents[block] = pool[payload]
            user_bytes += BLOCK
        user_bytes += BLOCK * len(payloads)
        volume.end_aru(aru)
        blocks.append(mine)
        if number % FLUSH_ARUS == FLUSH_ARUS - 1:
            volume.flush()
        if number == len(inputs.arus) // 2:
            volume.write_checkpoint()
    # The ARU the crash interrupts: flushed, never ended.
    aru = volume.begin_aru()
    open_block = volume.new_block(lists[0], aru=aru)
    volume.write(open_block, pool[1], aru=aru)
    volume.write(blocks[1][0], pool[1], aru=aru)
    volume.flush()
    return State(
        disk,
        lists,
        blocks,
        contents,
        members,
        open_block,
        user_bytes,
        ctx.disk_bytes.written - bytes0,
    )


class _Platter:
    """Probe target for a region that spans several volumes: every
    power-cycled disk and recovered LLD shares this one clock."""

    def __init__(self, clock) -> None:
        self.clock = clock

    def stats(self) -> dict:
        return {}


def run(state: State, inputs: Inputs, ctx):
    now = time.perf_counter_ns
    recover = repro.recover
    first = state.blocks[0][0]
    reads = [
        [state.blocks[number][position] for number, position in plan]
        for plan in inputs.reads
    ]
    eager_ms, ttfr_ms, restore_ms = [], [], []
    eager_sim, ttfr_sim = [], []
    eager_report = None
    disk = state.disk
    probe = ctx.probe(_Platter(disk.clock))
    samples = probe.latencies_us
    for _ in range(len(reads)):
        disk = disk.power_cycle()
        start = now()
        volume, report = recover(disk, mode="eager", config=CONFIG)
        volume.read(first)
        eager_ms.append((now() - start) / 1e6)
        eager_sim.append(report.recovery_time_us / 1000.0)
        eager_report = eager_report or report
        disk = volume.disk
    eager_stats = volume_stats(volume)
    for plan in reads:
        disk = disk.power_cycle()
        start = now()
        volume, report = recover(disk, mode="instant", config=CONFIG)
        volume.read(first)
        took = now() - start
        ttfr_ms.append(took / 1e6)
        ttfr_sim.append(report.ttfr_us / 1000.0)
        samples.append(took / 1000.0)
        for block in plan[1:]:
            volume.read(block)
        start = now()
        volume.complete_restore()
        restore_ms.append((now() - start) / 1e6)
        disk = volume.disk
    state.instant = volume
    state.disk = disk
    state.sim_ms = (eager_sim, ttfr_sim)
    recoveries = 2 * len(reads)
    timed = probe.finish(ops=recoveries, user_bytes=state.setup_user_bytes)
    # The log being recovered is the set-up's; what recovery itself
    # writes is added to it.
    timed.disk_bytes += state.setup_disk_bytes
    replayed = eager_report.entries_replayed
    # Counters of the last eager volume: a fresh LLD per recovery, so
    # its absolute stats cover exactly one recovery and one read.
    timed.layers.update(stats_layers({}, eager_stats, timed))
    timed.layers.update(
        {
            "recovery.recover_wall_ms": statistics.median(eager_ms),
            "recovery.ttfr_wall_ms": statistics.median(ttfr_ms),
            "recovery.restore_wall_ms": statistics.median(restore_ms),
            "recovery.recover_sim_ms": eager_sim[0],
            "recovery.ttfr_sim_ms": ttfr_sim[0],
            "recovery.segments_scanned": eager_report.segments_scanned,
            "recovery.entries_replayed": replayed,
            "recovery.on_demand_replays": volume.stats()["recovery"][
                "on_demand_replays"
            ],
            "recovery.us_per_entry": (
                statistics.median(eager_ms) * 1000.0 / replayed
                if replayed
                else 0.0
            ),
        }
    )
    return timed


def check(state: State, inputs: Inputs, timed, oracle) -> None:
    for label, values in zip(("eager", "instant"), state.sim_ms):
        oracle.expect(
            all(math.isclose(v, values[0], rel_tol=1e-9) for v in values),
            f"{label}: simulated time differs between rounds: {values}",
        )
    # The last instant volume is still live; one more eager recovery of
    # the same platter gives the volume to compare it with.
    views = {}
    for label in ("instant", "eager"):
        if label == "eager":
            state.disk = state.disk.power_cycle()
            volume, _ = repro.recover(state.disk, mode="eager", config=CONFIG)
        else:
            volume = state.instant
        oracle.volume_sound(volume, label)
        views[label] = oracle.contents_match(
            volume, state.lists, state.contents, state.members, label
        )
        oracle.expect(
            state.open_block not in set(volume.list_blocks(state.lists[0])),
            f"{label}: the interrupted ARU's block is visible",
        )
    oracle.expect(
        views["eager"] == views["instant"],
        "eager and instant recovery expose different contents",
    )
