"""``read_mix``: 90/10 read/write, hot set fits the cache, cold set
does not."""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Dict, List, Tuple

from repro import LLD, DiskGeometry, LLDConfig, SimulatedDisk

from ..gen import chunked, payload_pool, resolved, scaled

NAME = "read_mix"
WHY = (
    "Same lld/cache/disk layers the other way round: 32 MB of data vs "
    "an 8 MB cache, 80 % of accesses to a hot fifth that fits; a write "
    "gain paid for with slower reads shows here."
)

BLOCK = 4096
#: 112 MB of log: preload plus every timed write fit without wrapping,
#: so the cleaner stays out of this workload.
GEOMETRY = DiskGeometry(
    block_size=BLOCK, segment_size=512 * 1024, num_segments=224
)
#: 32 MB = 4x the default 2048-block cache.
PRELOAD_BLOCKS = 8192
LISTS = 16
OPS = 125_000
READ_SHARE = 0.90
HOT_SHARE_OF_BLOCKS = 0.20
HOT_SHARE_OF_ACCESSES = 0.80
BURST = 32
POOL = 64
READ, WRITE = 0, 1


@dataclasses.dataclass
class Inputs:
    pool: List[bytes]
    n_blocks: int
    #: pool index each block is preloaded with
    preload: List[int]
    #: (kind, block index, pool index): the payload to write, or the
    #: payload a read must return
    ops: List[Tuple[int, int, int]]
    shadow: Dict[int, int]


def generate(seed: int, scale: float = 1.0) -> Inputs:
    rng = random.Random(seed)
    pool = payload_pool(rng, POOL, BLOCK)
    n_blocks = scaled(PRELOAD_BLOCKS, scale, 256)
    n_hot = max(1, int(n_blocks * HOT_SHARE_OF_BLOCKS))
    preload = [rng.randrange(POOL) for _ in range(n_blocks)]
    shadow = dict(enumerate(preload))
    ops = []
    for _ in range(scaled(OPS, scale, 256)):
        if rng.random() < HOT_SHARE_OF_ACCESSES:
            index = rng.randrange(n_hot)
        else:
            index = n_hot + rng.randrange(n_blocks - n_hot)
        if rng.random() < READ_SHARE:
            ops.append((READ, index, shadow[index]))
        else:
            payload = rng.randrange(POOL)
            shadow[index] = payload
            ops.append((WRITE, index, payload))
    return Inputs(pool, n_blocks, preload, ops, shadow)


@dataclasses.dataclass
class State:
    volume: LLD
    blocks: list


def setup(inputs: Inputs, ctx, substrate: str = "lld") -> State:
    volume = LLD(SimulatedDisk(GEOMETRY), config=LLDConfig())
    lists = [volume.new_list() for _ in range(LISTS)]
    blocks = [
        volume.new_block(lists[index % LISTS])
        for index in range(inputs.n_blocks)
    ]
    for block, payload in zip(blocks, inputs.preload):
        volume.write(block, inputs.pool[payload])
    volume.flush()
    return State(volume, blocks)


def run(state: State, inputs: Inputs, ctx):
    blocks, pool = state.blocks, inputs.pool
    bursts = chunked(
        [
            (kind, blocks[index], pool[payload])
            for kind, index, payload in inputs.ops
        ],
        BURST,
    )
    written = sum(1 for kind, _, _ in inputs.ops if kind == WRITE)
    volume = state.volume
    read, write = volume.read, volume.write
    now = time.perf_counter_ns
    wrong = 0
    probe = ctx.probe(volume)
    samples = probe.latencies_us
    for burst in bursts:
        start = now()
        for kind, block, data in burst:
            if kind == READ:
                if read(block) != data:
                    wrong += 1
            else:
                write(block, data)
        samples.append((now() - start) / (1000.0 * len(burst)))
    volume.flush()
    return probe.finish(
        ops=len(inputs.ops), user_bytes=written * BLOCK, failed=wrong
    )


def check(state: State, inputs: Inputs, timed, oracle) -> None:
    reads = len(inputs.ops) - timed.user_bytes // BLOCK
    oracle.timed_checks(reads, timed.failed, "timed reads returned wrong data")
    oracle.volume_sound(state.volume)
    oracle.blocks_match(
        state.volume, resolved(inputs.shadow, state.blocks, inputs.pool)
    )
