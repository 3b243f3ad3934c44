"""Property-based crash-atomicity tests for JLD.

The same all-or-nothing invariant test the LLD suite runs, against
the journaling substrate: for any schedule and crash point, flushed
committed ARUs are complete and everything else is invisible.

``python -m tests.test_jld_property`` crashes an apply pass at every
write index, tearing the crashing write at sector and at byte
granularity (CI does); tier-1 samples the same space.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.disk.faults import FaultInjector, FaultPlan, PowerCut
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import DiskCrashedError, LDError
from repro.jld import JLD, recover_jld
from repro.ld.types import FIRST

crash_schedule = st.lists(
    st.sampled_from(["aru_file", "simple_write", "flush", "apply", "open_aru"]),
    min_size=1,
    max_size=20,
)


class TestJLDCrashAtomicity:
    @settings(max_examples=35, deadline=None)
    @given(
        schedule=crash_schedule,
        crash_after=st.integers(0, 25),
        torn=st.booleans(),
        seed=st.integers(0, 50),
    )
    def test_all_or_nothing(self, schedule, crash_after, torn, seed):
        cut = PowerCut(after_writes=crash_after, torn=torn, seed=seed)
        injector = FaultInjector(plan=FaultPlan(power_cut=cut))
        geo = DiskGeometry.small(num_segments=64)
        disk = SimulatedDisk(geo, injector=injector)
        jld = JLD(disk, journal_segments=6, checkpoint_slot_segments=1)
        flushed_files = {}
        pending_files = {}
        serial = 0
        try:
            lst = jld.new_list()
            jld.flush()
            for action in schedule:
                if action == "aru_file":
                    serial += 1
                    aru = jld.begin_aru()
                    parts = []
                    for part in range(2):
                        block = jld.new_block(lst, aru=aru)
                        payload = f"f{serial}p{part}".encode()
                        jld.write(block, payload, aru=aru)
                        parts.append((block, payload))
                    jld.end_aru(aru)
                    pending_files[serial] = parts
                elif action == "simple_write":
                    serial += 1
                    block = jld.new_block(lst)
                    jld.write(block, f"s{serial}".encode())
                elif action == "open_aru":
                    serial += 1
                    aru = jld.begin_aru()
                    block = jld.new_block(lst, aru=aru)
                    jld.write(block, b"never", aru=aru)
                elif action == "apply":
                    if not jld.arus.active_count:
                        jld.apply()
                        flushed_files.update(pending_files)
                        pending_files.clear()
                else:
                    jld.flush()
                    flushed_files.update(pending_files)
                    pending_files.clear()
        except DiskCrashedError:
            pass
        else:
            try:
                jld.flush()
                flushed_files.update(pending_files)
                pending_files.clear()
            except DiskCrashedError:
                pass

        jld2, _report = recover_jld(
            disk.power_cycle(), journal_segments=6, checkpoint_slot_segments=1
        )
        for parts in flushed_files.values():
            for block, payload in parts:
                assert jld2.read(block).startswith(payload)
        for parts in pending_files.values():
            survivals = []
            for block, payload in parts:
                try:
                    survivals.append(jld2.read(block).startswith(payload))
                except LDError:
                    survivals.append(False)
            assert all(survivals) or not any(survivals), survivals

    @settings(max_examples=20, deadline=None)
    @given(
        n_blocks=st.integers(1, 25),
        crash_after=st.integers(1, 40),
        seed=st.integers(0, 20),
        torn=st.booleans(),
        granularity=st.sampled_from(["sector", "byte"]),
    )
    def test_apply_crash_never_loses_committed_data(
        self, n_blocks, crash_after, seed, torn, granularity
    ):
        """Crashing anywhere in an apply pass (journal flush, home
        writes, checkpoint), with the crashing write dropped or torn,
        must preserve all previously flushed data."""
        apply_crash(n_blocks, crash_after, seed, torn, granularity)


def apply_crash(n_blocks, crash_after, seed, torn=False, granularity="sector"):
    """Journal ``n_blocks`` single-block writes, applying every third,
    with the power cut at write ``crash_after``; recover and check
    every flushed write."""
    geo = DiskGeometry.small(num_segments=64)
    cut = PowerCut(
        after_writes=crash_after, torn=torn, seed=seed, granularity=granularity
    )
    injector = FaultInjector(plan=FaultPlan(power_cut=cut))
    disk = SimulatedDisk(geo, injector=injector)
    jld = JLD(disk, journal_segments=4, checkpoint_slot_segments=1)
    written = []
    try:
        lst = jld.new_list()
        previous = FIRST
        for index in range(n_blocks):
            block = jld.new_block(lst, predecessor=previous)
            jld.write(block, f"v{index}".encode())
            previous = block
            jld.flush()
            written.append((block, f"v{index}".encode()))
            if index % 3 == 2:
                jld.apply()
    except DiskCrashedError:
        pass
    jld2, _report = recover_jld(
        disk.power_cycle(), journal_segments=4, checkpoint_slot_segments=1
    )
    for block, payload in written:
        assert jld2.read(block).startswith(payload)


if __name__ == "__main__":
    # The exhaustive form: every write index 1-40, torn at sector and
    # at byte granularity, four list sizes, three seeds (960 runs).
    runs = 0
    for n_blocks in (3, 9, 17, 25):
        for granularity in ("sector", "byte"):
            for seed in range(3):
                for crash_after in range(1, 41):
                    apply_crash(n_blocks, crash_after, seed, True, granularity)
                    runs += 1
        print(f"{n_blocks} blocks: torn home writes ok")
    print(f"{runs} crash points ok")
    sys.exit(0)
