"""Property-based tests (hypothesis) for the core invariants.

Three models are checked against reference implementations:

* LD list operations against a plain-Python list model,
* ARU visibility against a dict model with explicit shadow buffers,
* crash recovery against the set of flushed-and-committed operations
  for arbitrary operation interleavings and crash points.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.disk.faults import FaultInjector, FaultPlan, PowerCut
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import DiskCrashedError, LDError
from repro.ld.types import FIRST
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import recover


def build_lld(num_segments=48, injector=None, **kwargs):
    geo = DiskGeometry.small(num_segments=num_segments)
    disk = SimulatedDisk(geo, injector=injector)
    kwargs.setdefault("checkpoint_slot_segments", 1)
    return disk, LLD(disk, config=LLDConfig(**kwargs))


# ----------------------------------------------------------------------
# List operations vs a Python-list model
# ----------------------------------------------------------------------

list_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert_first")),
        st.tuples(st.just("insert_after"), st.integers(0, 30)),
        st.tuples(st.just("delete"), st.integers(0, 30)),
    ),
    max_size=40,
)


class TestListModel:
    @settings(max_examples=60, deadline=None)
    @given(ops=list_ops)
    def test_list_matches_model(self, ops):
        _disk, lld = build_lld()
        lst = lld.new_list()
        model = []
        for op in ops:
            if op[0] == "insert_first":
                block = lld.new_block(lst)
                model.insert(0, block)
            elif op[0] == "insert_after":
                if not model:
                    continue
                pred = model[op[1] % len(model)]
                block = lld.new_block(lst, predecessor=pred)
                model.insert(model.index(pred) + 1, block)
            else:
                if not model:
                    continue
                victim = model[op[1] % len(model)]
                lld.delete_block(victim)
                model.remove(victim)
        assert lld.list_blocks(lst) == model

    @settings(max_examples=30, deadline=None)
    @given(ops=list_ops)
    def test_list_matches_model_inside_aru(self, ops):
        """The same operations inside one ARU, checked through the
        shadow view, then re-checked after commit: the replayed
        committed state must equal the shadow state the client saw."""
        _disk, lld = build_lld()
        lst = lld.new_list()
        aru = lld.begin_aru()
        model = []
        for op in ops:
            if op[0] == "insert_first":
                block = lld.new_block(lst, aru=aru)
                model.insert(0, block)
            elif op[0] == "insert_after":
                if not model:
                    continue
                pred = model[op[1] % len(model)]
                block = lld.new_block(lst, predecessor=pred, aru=aru)
                model.insert(model.index(pred) + 1, block)
            else:
                if not model:
                    continue
                victim = model[op[1] % len(model)]
                lld.delete_block(victim, aru=aru)
                model.remove(victim)
        assert lld.list_blocks(lst, aru=aru) == model
        lld.end_aru(aru)
        assert lld.list_blocks(lst) == model


# ----------------------------------------------------------------------
# Visibility vs a dict model
# ----------------------------------------------------------------------

rw_ops = st.lists(
    st.tuples(
        st.sampled_from(["w0", "w1", "w2", "commit0", "commit1"]),
        st.integers(0, 5),  # which block
        st.binary(min_size=1, max_size=8),
    ),
    max_size=30,
)


class TestVisibilityModel:
    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(ops=rw_ops)
    def test_aru_local_reads_match_model(self, ops):
        """Two ARU streams + one simple stream against a model of
        committed contents + per-ARU shadow overlays."""
        _disk, lld = build_lld()
        lst = lld.new_list()
        blocks = []
        previous = FIRST
        for _ in range(6):
            block = lld.new_block(lst, predecessor=previous)
            previous = block
            blocks.append(block)
        arus = [lld.begin_aru(), lld.begin_aru()]
        alive = [True, True]
        committed = {}
        shadows = [{}, {}]
        block_size = lld.geometry.block_size

        def pad(data):
            return data + b"\x00" * (block_size - len(data))

        for kind, which, data in ops:
            block = blocks[which]
            if kind == "w2":
                lld.write(block, data)
                committed[block] = pad(data)
            elif kind in ("w0", "w1"):
                stream = int(kind[1])
                if not alive[stream]:
                    continue
                lld.write(block, data, aru=arus[stream])
                shadows[stream][block] = pad(data)
            else:
                stream = int(kind[-1])
                if not alive[stream]:
                    continue
                lld.end_aru(arus[stream])
                alive[stream] = False
                committed.update(shadows[stream])
                shadows[stream] = {}
            # Check every view after every operation.
            for block_id in blocks:
                expected_simple = committed.get(block_id, pad(b""))
                assert lld.read(block_id) == expected_simple
                for stream in range(2):
                    if not alive[stream]:
                        continue
                    expected = shadows[stream].get(block_id, expected_simple)
                    assert lld.read(block_id, aru=arus[stream]) == expected


# ----------------------------------------------------------------------
# Crash atomicity for arbitrary schedules and crash points
# ----------------------------------------------------------------------

crash_schedule = st.lists(
    st.sampled_from(["aru_file", "simple_write", "flush", "open_aru"]),
    min_size=1,
    max_size=25,
)


class TestCrashAtomicity:
    @settings(max_examples=40, deadline=None)
    @given(
        schedule=crash_schedule,
        crash_after=st.integers(0, 30),
        torn=st.booleans(),
        seed=st.integers(0, 100),
    )
    def test_all_or_nothing_for_every_crash_point(
        self, schedule, crash_after, torn, seed
    ):
        """Run a schedule of ARU-bracketed multi-block 'files',
        simple writes and flushes under a crash plan; after recovery,
        every ARU that was committed *and* flushed must be complete,
        every other ARU must be invisible, and every flushed simple
        write must hold its last flushed value."""
        cut = PowerCut(after_writes=crash_after, torn=torn, seed=seed)
        injector = FaultInjector(plan=FaultPlan(power_cut=cut))
        disk, lld = build_lld(num_segments=64, injector=injector)
        flushed_files = {}  # aru serial -> [(block, payload)]
        pending_files = {}
        flushed_simple = {}
        pending_simple = {}
        simple_blocks = []
        serial = 0
        try:
            lst = lld.new_list()
            previous = FIRST
            for _ in range(3):
                block = lld.new_block(lst, predecessor=previous)
                simple_blocks.append(block)
                previous = block
            lld.flush()
            flushed_simple = {}
            open_aru = None
            for step, action in enumerate(schedule):
                if action == "aru_file":
                    serial += 1
                    aru = lld.begin_aru()
                    parts = []
                    for part in range(2):
                        block = lld.new_block(lst, aru=aru)
                        payload = f"file-{serial}-part-{part}".encode()
                        lld.write(block, payload, aru=aru)
                        parts.append((block, payload))
                    lld.end_aru(aru)
                    pending_files[serial] = parts
                elif action == "simple_write":
                    block = simple_blocks[step % len(simple_blocks)]
                    payload = f"simple-{step}".encode()
                    lld.write(block, payload)
                    pending_simple[block] = payload
                elif action == "open_aru":
                    serial += 1
                    aru = lld.begin_aru()
                    block = lld.new_block(lst, aru=aru)
                    lld.write(block, f"never-{serial}".encode(), aru=aru)
                    # intentionally never committed
                else:
                    lld.flush()
                    flushed_files.update(pending_files)
                    pending_files.clear()
                    flushed_simple.update(pending_simple)
                    pending_simple.clear()
        except DiskCrashedError:
            pass
        else:
            try:
                lld.flush()
                flushed_files.update(pending_files)
                flushed_simple.update(pending_simple)
            except DiskCrashedError:
                pass

        lld2, _report = recover(
            disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=1),
        )
        # Every flushed committed ARU is complete.
        for parts in flushed_files.values():
            for block, payload in parts:
                assert lld2.read(block).startswith(payload)
        # Every other ARU is all-or-nothing: either every part
        # survived (its commit record made it into an auto-written
        # segment) or no part is visible.
        for parts in pending_files.values():
            survivals = []
            for block, payload in parts:
                try:
                    survivals.append(lld2.read(block).startswith(payload))
                except LDError:
                    survivals.append(False)
            assert all(survivals) or not any(survivals), survivals
        # Every flushed simple write holds its last flushed value —
        # unless a later (unflushed) segment happened to survive; the
        # log can only be *ahead* of what we tracked, never behind,
        # so the value is either the flushed one or a pending one.
        for block, payload in flushed_simple.items():
            data = lld2.read(block)
            acceptable = {payload}
            if block in pending_simple:
                acceptable.add(pending_simple[block])
            assert any(data.startswith(p) for p in acceptable)
