"""``shard_2pc``: cross-shard ARUs on a replicated four-shard array."""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Dict, List, Tuple

from repro import ArrayConfig, DiskGeometry, LLDConfig
from repro.shard import build_sharded

from ..gen import payload_pool, resolved, scaled

NAME = "shard_2pc"
WHY = (
    "shard does the work (routing, mirrors, PREPARE/DECIDE), frontend/txn "
    "none: each ARU overwrites 3 random blocks on >= 2 shards, a durable "
    "two-phase commit; exposes the 2PC-cleaner interaction."
)

BLOCK = 4096
SHARDS = 4
GEOMETRY = DiskGeometry(
    block_size=BLOCK, segment_size=128 * 1024, num_segments=128
)
CONFIG = LLDConfig(
    checkpoint_slot_segments=2, writeback_depth=4, group_commit=True
)
ARRAY = ArrayConfig(replication_factor=2)
LISTS = 32
BLOCKS_PER_LIST = 8
#: Set-up ARUs of the same kind: every durable PREPARE and DECIDE seals
#: a near-empty segment, so these wrap the four 16 MB logs and the
#: timed ARUs run with the cleaner already cycling.
AGE_ARUS = 120
ARUS = 320
WRITES_PER_ARU = 3
FLUSH_ARUS = 16
POOL = 64


@dataclasses.dataclass
class Inputs:
    pool: List[bytes]
    #: per ARU: WRITES_PER_ARU distinct (block index, pool index)
    age: List[List[Tuple[int, int]]]
    arus: List[List[Tuple[int, int]]]
    shadow: Dict[int, int]


def generate(seed: int, scale: float = 1.0) -> Inputs:
    rng = random.Random(seed)
    pool = payload_pool(rng, POOL, BLOCK)
    n_blocks = LISTS * BLOCKS_PER_LIST
    shadow = {index: 0 for index in range(n_blocks)}

    def script(count: int) -> List[List[Tuple[int, int]]]:
        arus = []
        for _ in range(count):
            writes = [
                (index, rng.randrange(POOL))
                for index in rng.sample(range(n_blocks), WRITES_PER_ARU)
            ]
            shadow.update(writes)
            arus.append(writes)
        return arus

    age = script(scaled(AGE_ARUS, scale, FLUSH_ARUS))
    return Inputs(pool, age, script(scaled(ARUS, scale, 2 * FLUSH_ARUS)), shadow)


@dataclasses.dataclass
class State:
    volume: object
    blocks: list


def setup(inputs: Inputs, ctx, substrate: str = "lld") -> State:
    volume = build_sharded(
        SHARDS, geometry=GEOMETRY, config=CONFIG, array_config=ARRAY
    )
    blocks = []
    for _ in range(LISTS):
        lst = volume.new_list()
        for _ in range(BLOCKS_PER_LIST):
            block = volume.new_block(lst)
            volume.write(block, inputs.pool[0])
            blocks.append(block)
    volume.flush()
    for writes in inputs.age:
        aru = volume.begin_aru()
        for index, payload in writes:
            volume.write(blocks[index], inputs.pool[payload], aru=aru)
        volume.end_aru(aru)
    volume.flush()
    return State(volume, blocks)


def run(state: State, inputs: Inputs, ctx):
    blocks, pool = state.blocks, inputs.pool
    script = [
        [(blocks[index], pool[payload]) for index, payload in writes]
        for writes in inputs.arus
    ]
    volume = state.volume
    begin, end = volume.begin_aru, volume.end_aru
    write, flush = volume.write, volume.flush
    now = time.perf_counter_ns
    cross0 = volume.stats()["sharding"]["commits_cross_shard"]
    probe = ctx.probe(volume)
    samples = probe.latencies_us
    for number, writes in enumerate(script):
        start = now()
        aru = begin()
        for block, data in writes:
            write(block, data, aru=aru)
        end(aru)
        samples.append((now() - start) / 1000.0)
        if number % FLUSH_ARUS == FLUSH_ARUS - 1:
            flush()
    flush()
    timed = probe.finish(
        ops=len(script), user_bytes=len(script) * WRITES_PER_ARU * BLOCK
    )
    timed.layers["shard.two_phase_commits"] = (
        volume.stats()["sharding"]["commits_cross_shard"] - cross0
    )
    return timed


def check(state: State, inputs: Inputs, timed, oracle) -> None:
    oracle.volume_sound(state.volume)
    oracle.blocks_match(
        state.volume, resolved(inputs.shadow, state.blocks, inputs.pool)
    )
