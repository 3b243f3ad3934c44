"""Property-based differential tests for sharded volumes.

Two properties:

1. **Striping is invisible.** An arbitrary operation sequence applied
   to a single LLD and to ``ShardedLLD(n)`` for several n — tracking
   each system's own identifiers by logical index — reads back
   identically, before and after a clean power-cycle + recovery.
2. **Cross-shard atomicity at random crash points.** A transactional
   workload on a 3-shard array crashed at an arbitrary global write
   index recovers to a state where every shard agrees on the same
   committed-transaction prefix.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import recover
from repro.disk.faults import FaultInjector, FaultPlan, PowerCut
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import DiskCrashedError
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.shard import build_sharded


def build_single(num_segments=48):
    geo = DiskGeometry.small(num_segments=num_segments)
    disk = SimulatedDisk(geo)
    return LLD(disk, config=LLDConfig(checkpoint_slot_segments=2))


def build_array(n, num_segments=48, injector=None):
    return build_sharded(
        n,
        geometry=DiskGeometry.small(num_segments=num_segments),
        injector=injector,
        config=LLDConfig(checkpoint_slot_segments=2),
    )


# ----------------------------------------------------------------------
# Property 1: single volume vs sharded array, identical read-back
# ----------------------------------------------------------------------

ops = st.lists(
    st.one_of(
        st.tuples(st.just("new_list")),
        st.tuples(st.just("new_block"), st.integers(0, 15)),
        st.tuples(
            st.just("write"), st.integers(0, 40), st.binary(min_size=1, max_size=48)
        ),
        st.tuples(st.just("delete_block"), st.integers(0, 40)),
        st.tuples(
            st.just("txn"),
            st.lists(
                st.tuples(st.integers(0, 40), st.binary(min_size=1, max_size=32)),
                min_size=1,
                max_size=5,
            ),
            st.booleans(),  # commit or abort
        ),
    ),
    max_size=30,
)


def apply_ops(ld, op_list):
    """Run an op list against one system, tracking its own ids.

    Operations address lists and blocks by *logical index* into the
    system's allocation history, so the same script drives systems
    whose identifier values differ.
    """
    lists = []
    blocks = []  # logical index -> this system's block id (or None)
    for op in op_list:
        if op[0] == "new_list":
            lists.append(ld.new_list())
        elif op[0] == "new_block":
            if not lists:
                continue
            lst = lists[op[1] % len(lists)]
            blocks.append(ld.new_block(lst))
        elif op[0] == "write":
            live = [b for b in blocks if b is not None]
            if not live:
                continue
            ld.write(live[op[1] % len(live)], op[2])
        elif op[0] == "delete_block":
            live_idx = [i for i, b in enumerate(blocks) if b is not None]
            if not live_idx:
                continue
            index = live_idx[op[1] % len(live_idx)]
            ld.delete_block(blocks[index])
            blocks[index] = None
        elif op[0] == "txn":
            live = [b for b in blocks if b is not None]
            if not live:
                continue
            aru = ld.begin_aru()
            for which, data in op[1]:
                ld.write(live[which % len(live)], data, aru=aru)
            if op[2]:
                ld.end_aru(aru)
            else:
                ld.abort_aru(aru)
    ld.flush()
    return blocks


def readback(ld, blocks):
    return [
        None if b is None else ld.read(b) for b in blocks
    ]


class TestStripingInvisible:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(op_list=ops, n=st.integers(1, 3))
    def test_sharded_matches_single(self, op_list, n):
        single = build_single()
        array = build_array(n)
        single_blocks = apply_ops(single, op_list)
        array_blocks = apply_ops(array, op_list)
        assert len(single_blocks) == len(array_blocks)
        expected = readback(single, single_blocks)
        assert readback(array, array_blocks) == expected

        # ... and still identical after crash + recovery of both.
        single2, _r1 = recover(
            single.disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        array2, _r2 = recover(
            [shard.disk.power_cycle() for shard in array.shards]
        )
        assert readback(single2, single_blocks) == expected
        assert readback(array2, array_blocks) == expected


# ----------------------------------------------------------------------
# Property 2: random crash points stay all-or-nothing across shards
# ----------------------------------------------------------------------

N_SHARDS = 3
ROUNDS = 4


def payload(round_no, list_index):
    return f"r{round_no}-l{list_index}".encode().ljust(24, b".")


def transactional_workload(vol):
    lists = [vol.new_list() for _ in range(N_SHARDS)]
    blocks = [vol.new_block(lst) for lst in lists]
    for list_index, block in enumerate(blocks):
        vol.write(block, payload(0, list_index))
    vol.flush()
    for round_no in range(1, ROUNDS + 1):
        aru = vol.begin_aru()
        for list_index, block in enumerate(blocks):
            vol.write(block, payload(round_no, list_index), aru=aru)
        vol.end_aru(aru)
    return blocks


def baseline_writes():
    injector = FaultInjector()
    vol = build_array(N_SHARDS, num_segments=24, injector=injector)
    lists = [vol.new_list() for _ in range(N_SHARDS)]
    blocks = [vol.new_block(lst) for lst in lists]
    for list_index, block in enumerate(blocks):
        vol.write(block, payload(0, list_index))
    vol.flush()
    return injector.writes_seen, blocks


_BASELINE_WRITES, _BLOCKS = None, None


def baseline():
    global _BASELINE_WRITES, _BLOCKS
    if _BASELINE_WRITES is None:
        _BASELINE_WRITES, _BLOCKS = baseline_writes()
    return _BASELINE_WRITES, _BLOCKS


class TestRandomCrashPoints:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        offset=st.integers(1, 40),
        torn=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_recovers_to_a_consistent_round(self, offset, torn, seed):
        setup_writes, expected_blocks = baseline()
        cut = PowerCut(
            after_writes=setup_writes + offset,
            torn=torn,
            seed=seed,
            granularity="byte",
        )
        injector = FaultInjector(plan=FaultPlan(power_cut=cut))
        vol = build_array(N_SHARDS, num_segments=24, injector=injector)
        crashed = True
        try:
            blocks = transactional_workload(vol)
            crashed = False
        except DiskCrashedError:
            blocks = expected_blocks
        recovered, report = recover(
            [shard.disk.power_cycle() for shard in vol.shards]
        )
        contents = [recovered.read(b)[:24] for b in blocks]
        matching = [
            round_no
            for round_no in range(ROUNDS + 1)
            if contents
            == [payload(round_no, li) for li in range(N_SHARDS)]
        ]
        assert matching, f"shards disagree after crash: {contents}"
        if not crashed:
            assert matching == [ROUNDS]
        # Decided transactions are an upper bound on the visible round.
        assert matching[0] <= len(report.decided_xids)
