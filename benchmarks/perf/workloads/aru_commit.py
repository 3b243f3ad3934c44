"""``aru_commit``: eight interleaved ARUs at a time, almost no data."""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Dict, List, Tuple

from repro import JLD, LLD, DiskGeometry, LLDConfig, SimulatedDisk

from ..gen import payload_pool, resolved, scaled

NAME = "aru_commit"
WHY = (
    "The paper's contribution with almost no data: alternative records, "
    "version chains, list-op log, end_aru replay, commit records, group "
    "commit; a core change shows here, not in write_storm."
)

#: 192 MB of log: every commit group writes a segment (~1300 in all),
#: and the log must not wrap inside the timed region or the cleaner,
#: not the ARU machinery, would set the pace.
GEOMETRY = DiskGeometry.small(num_segments=1536)
CONFIG = LLDConfig(
    writeback_depth=4, group_commit=True, group_commit_max_parked=16
)
LISTS = 32
BLOCKS_PER_LIST = 8
#: ARUs open at once; one wave = CONCURRENT ARUs begun, interleaved
#: step by step, then ended (or aborted) in a seeded order.
CONCURRENT = 8
WAVES = 900
ABORT_SHARE = 0.10
#: Every FLUSH_WAVES waves (64 ARUs): one ARU deletes the blocks the
#: previous period's commits created (bounding the volume), then
#: ``flush()``.
FLUSH_WAVES = 8
PAYLOAD = 256
POOL = 64

BEGIN, NEW, WRITE_NEW, OVERWRITE, END, ABORT = range(6)


@dataclasses.dataclass
class Slot:
    list_index: int
    existing: int  # index into the preloaded blocks
    new_payload: int
    over_payload: int
    commit: bool

#: The journaling baseline applies its ring only at a moment no ARU is
#: mid-commit, which here means at a flush; its default 8-segment
#: ring overflows between two flushes of this workload.  These are
#: JLD's own sizing knobs; everything else about it is default.
JLD_SIZING = {"journal_segments": 32, "apply_low_water": 16}


@dataclasses.dataclass
class Inputs:
    pool: List[bytes]
    waves: List[List[Slot]]
    end_orders: List[List[int]]
    #: preloaded block index -> pool index after every committed ARU
    shadow: Dict[int, int]


def generate(seed: int, scale: float = 1.0) -> Inputs:
    rng = random.Random(seed)
    pool = payload_pool(rng, POOL, PAYLOAD)
    shadow = {index: 0 for index in range(LISTS * BLOCKS_PER_LIST)}
    waves, end_orders = [], []
    for _ in range(scaled(WAVES, scale, 2 * FLUSH_WAVES)):
        wave = []
        # Distinct lists per wave: concurrently open ARUs never touch
        # the same list or block, so no operation can conflict.
        for list_index in rng.sample(range(LISTS), CONCURRENT):
            wave.append(
                Slot(
                    list_index,
                    list_index * BLOCKS_PER_LIST
                    + rng.randrange(BLOCKS_PER_LIST),
                    rng.randrange(POOL),
                    rng.randrange(POOL),
                    rng.random() >= ABORT_SHARE,
                )
            )
        order = list(range(CONCURRENT))
        rng.shuffle(order)
        for slot in order:
            if wave[slot].commit:
                shadow[wave[slot].existing] = wave[slot].over_payload
        waves.append(wave)
        end_orders.append(order)
    return Inputs(pool, waves, end_orders, shadow)


@dataclasses.dataclass
class State:
    volume: object
    lists: list
    blocks: list
    #: per wave, the block each slot allocated (filled by ``run``)
    born: List[Tuple[int, ...]] = dataclasses.field(default_factory=list)
    open_block: int = 0


def setup(inputs: Inputs, ctx, substrate: str = "lld") -> State:
    disk = SimulatedDisk(GEOMETRY)
    if substrate == "jld":
        volume = JLD(disk, **JLD_SIZING)
    else:
        volume = LLD(disk, config=CONFIG)
    lists = [volume.new_list() for _ in range(LISTS)]
    blocks = []
    for lst in lists:
        for _ in range(BLOCKS_PER_LIST):
            block = volume.new_block(lst)
            volume.write(block, inputs.pool[0])
            blocks.append(block)
    volume.flush()
    return State(volume, lists, blocks)


def _script(state: State, inputs: Inputs) -> List[List[tuple]]:
    """Each wave as a flat list of interleaved steps."""
    pool, lists, blocks = inputs.pool, state.lists, state.blocks
    script = []
    for wave, order in zip(inputs.waves, inputs.end_orders):
        steps = [(BEGIN, slot, None, None) for slot in range(CONCURRENT)]
        steps += [
            (NEW, slot, lists[spec.list_index], None)
            for slot, spec in enumerate(wave)
        ]
        steps += [
            (WRITE_NEW, slot, pool[spec.new_payload], None)
            for slot, spec in enumerate(wave)
        ]
        steps += [
            (OVERWRITE, slot, blocks[spec.existing], pool[spec.over_payload])
            for slot, spec in enumerate(wave)
        ]
        steps += [
            (END if wave[slot].commit else ABORT, slot, None, None)
            for slot in order
        ]
        script.append(steps)
    return script


def run(state: State, inputs: Inputs, ctx):
    script = _script(state, inputs)
    volume = state.volume
    begin, end, abort = volume.begin_aru, volume.end_aru, volume.abort_aru
    new_block, write = volume.new_block, volume.write
    delete_block, flush = volume.delete_block, volume.flush
    arus = [None] * CONCURRENT
    news = [None] * CONCURRENT
    born = state.born
    doomed: list = []
    fresh: list = []
    deletes = 0
    now = time.perf_counter_ns
    probe = ctx.probe(volume)
    samples = probe.latencies_us
    for number, (steps, wave) in enumerate(zip(script, inputs.waves)):
        start = now()
        for op, slot, a, b in steps:
            if op == OVERWRITE:
                write(a, b, aru=arus[slot])
            elif op == WRITE_NEW:
                write(news[slot], a, aru=arus[slot])
            elif op == NEW:
                news[slot] = new_block(a, aru=arus[slot])
            elif op == BEGIN:
                arus[slot] = begin()
            elif op == END:
                end(arus[slot])
            else:
                abort(arus[slot])
        samples.append((now() - start) / (1000.0 * CONCURRENT))
        born.append(tuple(news))
        fresh.extend(
            news[slot] for slot, spec in enumerate(wave) if spec.commit
        )
        if number % FLUSH_WAVES == FLUSH_WAVES - 1:
            aru = begin()
            for block in doomed:
                delete_block(block, aru=aru)
            end(aru)
            deletes += 1
            doomed, fresh = fresh, []
            flush()
    # One ARU left un-ended: nothing of it may ever be visible.
    aru = begin()
    state.open_block = new_block(state.lists[0], aru=aru)
    write(state.open_block, inputs.pool[1], aru=aru)
    write(state.blocks[0], inputs.pool[1], aru=aru)
    flush()
    n_arus = len(script) * CONCURRENT + deletes
    return probe.finish(
        ops=n_arus,
        user_bytes=len(script) * CONCURRENT * 2 * PAYLOAD,
    )


def check(state: State, inputs: Inputs, timed, oracle) -> None:
    volume = state.volume
    oracle.volume_sound(volume)
    contents = resolved(inputs.shadow, state.blocks, inputs.pool)
    members = {
        lst: set(state.blocks[i * BLOCKS_PER_LIST : (i + 1) * BLOCKS_PER_LIST])
        for i, lst in enumerate(state.lists)
    }
    # Commits of every period but the last two were deleted again; the
    # deleting ARU of period k removes what period k-1 created.
    maintenance_points = len(inputs.waves) // FLUSH_WAVES
    first_alive = (maintenance_points - 1) * FLUSH_WAVES
    for number, (wave, news) in enumerate(zip(inputs.waves, state.born)):
        if number < first_alive:
            continue
        for spec, block in zip(wave, news):
            if spec.commit:
                contents[block] = inputs.pool[spec.new_payload]
                members[state.lists[spec.list_index]].add(block)
    oracle.contents_match(volume, state.lists, contents, members, "read-back")
    oracle.expect(
        state.open_block not in set(volume.list_blocks(state.lists[0])),
        "un-ended ARU's block is visible in its list",
    )
