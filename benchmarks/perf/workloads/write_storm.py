"""``write_storm``: uniform-random 4 KB overwrites on a wrapping log."""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Dict, List, Tuple

from repro import LLD, DiskGeometry, LLDConfig, SimulatedDisk

from ..gen import chunked, payload_pool, resolved, scaled

NAME = "write_storm"
WHY = (
    "Bulk write path: write, segment seal + CRC, summary encode, "
    "write-behind, disk, on a wrapped log so the cleaner runs all the "
    "time; working set 16 MB = 2x the block cache."
)

BLOCK = 4096
GEOMETRY = DiskGeometry(
    block_size=BLOCK, segment_size=512 * 1024, num_segments=160
)
PRELOAD_BLOCKS = 4000
#: Set-up overwrites that fill the 80 MB log once, so the timed region
#: starts in steady state (cleaner already cycling) rather than
#: measuring the first fill.
AGE_WRITES = 16_000
OPS = 20_000
#: Writes per timed burst (one latency sample each).
BURST = 32
POOL = 64


@dataclasses.dataclass
class Inputs:
    pool: List[bytes]
    n_blocks: int
    age: List[Tuple[int, int]]
    ops: List[Tuple[int, int]]
    #: block index -> pool index of the last acknowledged write
    shadow: Dict[int, int]


def generate(seed: int, scale: float = 1.0) -> Inputs:
    rng = random.Random(seed)
    pool = payload_pool(rng, POOL, BLOCK)
    n_blocks = scaled(PRELOAD_BLOCKS, scale, 64)

    def burst(count: int) -> List[Tuple[int, int]]:
        return [
            (rng.randrange(n_blocks), rng.randrange(POOL))
            for _ in range(count)
        ]

    age = burst(scaled(AGE_WRITES, scale, 64))
    ops = burst(scaled(OPS, scale, 64))
    shadow = {index: 0 for index in range(n_blocks)}
    shadow.update(age)
    shadow.update(ops)
    return Inputs(pool, n_blocks, age, ops, shadow)


@dataclasses.dataclass
class State:
    volume: LLD
    blocks: list


def setup(inputs: Inputs, ctx, substrate: str = "lld") -> State:
    volume = LLD(SimulatedDisk(GEOMETRY), config=LLDConfig())
    lst = volume.new_list()
    blocks = [volume.new_block(lst) for _ in range(inputs.n_blocks)]
    pool = inputs.pool
    for block in blocks:
        volume.write(block, pool[0])
    for index, payload in inputs.age:
        volume.write(blocks[index], pool[payload])
    volume.flush()
    return State(volume, blocks)


def run(state: State, inputs: Inputs, ctx):
    blocks, pool = state.blocks, inputs.pool
    bursts = chunked(
        [(blocks[index], pool[payload]) for index, payload in inputs.ops],
        BURST,
    )
    volume = state.volume
    write = volume.write
    now = time.perf_counter_ns
    probe = ctx.probe(volume)
    samples = probe.latencies_us
    for burst in bursts:
        start = now()
        for block, data in burst:
            write(block, data)
        samples.append((now() - start) / (1000.0 * len(burst)))
    volume.flush()
    return probe.finish(
        ops=len(inputs.ops), user_bytes=len(inputs.ops) * BLOCK
    )


def check(state: State, inputs: Inputs, timed, oracle) -> None:
    oracle.volume_sound(state.volume)
    oracle.blocks_match(
        state.volume, resolved(inputs.shadow, state.blocks, inputs.pool)
    )
