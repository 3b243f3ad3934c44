"""Dedicated semantics suite for the old (sequential-ARU) prototype.

The "old" LLD is not just a cost model: it is a real mode with its
own semantics — one ARU at a time, operations applied directly to the
committed state, atomicity provided purely by the commit-record rule
at recovery.  The paper's Minix didn't use ARUs at all on this
prototype, but the mode supports them; this suite pins that behaviour
down, including the combination the paper never measured (sequential
ARUs driving an fsck-free Minix).
"""

import pytest

from repro.disk.faults import FaultInjector, FaultPlan, PowerCut
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import BadListError, ConcurrencyError, DiskCrashedError
from repro.fs import MinixFS, fsck
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import recover


def build(injector=None, num_segments=96):
    geo = DiskGeometry.small(num_segments=num_segments)
    disk = SimulatedDisk(geo, injector=injector)
    return disk, LLD(
        disk,
        config=LLDConfig(aru_mode="sequential", checkpoint_slot_segments=2),
    )


class TestSequentialSemantics:
    def test_direct_application(self, old_lld):
        """No shadow state: effects are visible immediately to all."""
        lst = old_lld.new_list()
        aru = old_lld.begin_aru()
        block = old_lld.new_block(lst, aru=aru)
        old_lld.write(block, b"visible now", aru=aru)
        assert old_lld.read(block).startswith(b"visible now")
        assert old_lld.list_blocks(lst) == [block]
        old_lld.end_aru(aru)

    def test_one_at_a_time(self, old_lld):
        first = old_lld.begin_aru()
        with pytest.raises(ConcurrencyError):
            old_lld.begin_aru()
        old_lld.end_aru(first)
        second = old_lld.begin_aru()
        old_lld.end_aru(second)

    def test_simple_ops_interleave_freely(self, old_lld):
        lst = old_lld.new_list()
        aru = old_lld.begin_aru()
        inside = old_lld.new_block(lst, aru=aru)
        outside = old_lld.new_block(lst)  # simple op mid-ARU
        old_lld.write(inside, b"tagged", aru=aru)
        old_lld.write(outside, b"untagged")
        old_lld.end_aru(aru)
        assert old_lld.read(inside).startswith(b"tagged")
        assert old_lld.read(outside).startswith(b"untagged")

    def test_no_record_machinery_costs(self, old_lld):
        """The old prototype updates tables in place: the concurrent
        machinery's cost categories must not be charged at record
        rates."""
        lst = old_lld.new_list()
        aru = old_lld.begin_aru()
        block = old_lld.new_block(lst, aru=aru)
        old_lld.write(block, b"x", aru=aru)
        old_lld.end_aru(aru)
        counters = old_lld.meter.counters
        assert "record_create_us" not in counters
        assert "record_transition_us" not in counters
        assert "listop_replay_us" not in counters
        assert "aru_alloc_us" not in counters


class TestSequentialRecovery:
    def test_committed_and_flushed_survives(self):
        disk, lld = build()
        lst = lld.new_list()
        aru = lld.begin_aru()
        blocks = [lld.new_block(lst, aru=aru) for _ in range(3)]
        for index, block in enumerate(blocks):
            lld.write(block, f"seq-{index}".encode(), aru=aru)
        lld.end_aru(aru)
        lld.flush()
        lld2, report = recover(
            disk.power_cycle(),
            config=LLDConfig(
                aru_mode="sequential",
                checkpoint_slot_segments=2,
            ),
        )
        assert report.arus_committed >= 1
        for index, block in enumerate(blocks):
            assert lld2.read(block).startswith(f"seq-{index}".encode())

    def test_uncommitted_fully_undone_despite_direct_application(self):
        """The defining property: although operations hit the
        committed state immediately in memory, a crash before the
        commit record still erases all of them."""
        disk, lld = build()
        lst = lld.new_list()
        base = lld.new_block(lst)
        lld.write(base, b"pre-aru")
        lld.flush()
        aru = lld.begin_aru()
        lld.write(base, b"mid-aru-overwrite", aru=aru)
        extra = lld.new_block(lst, aru=aru)
        lld.write(extra, b"mid-aru-new", aru=aru)
        lld.flush()  # tagged entries reach the disk, commit does not
        # In memory the effects are visible (sequential semantics) ...
        assert lld.read(base).startswith(b"mid-aru-overwrite")
        # ... but recovery rolls them back wholesale.
        lld2, report = recover(
            disk.power_cycle(),
            config=LLDConfig(
                aru_mode="sequential",
                checkpoint_slot_segments=2,
            ),
        )
        assert lld2.read(base).startswith(b"pre-aru")
        assert lld2.list_blocks(lst) == [base]
        assert int(extra) in report.orphan_blocks_freed
        assert report.arus_discarded == 1

    @staticmethod
    def rounds(lld, lst, committed, count):
        for round_no in range(count):
            aru = lld.begin_aru()
            block = lld.new_block(lst, aru=aru)
            lld.write(block, f"r{round_no}".encode(), aru=aru)
            lld.end_aru(aru)
            lld.flush()
            committed.append((block, f"r{round_no}".encode()))

    def test_crash_mid_aru_sweep_over_many_points(self):
        # Writes up to and including the first flush's chunk, counted
        # on an uncut run: a cut before it leaves no list.
        uncut = FaultInjector(plan=FaultPlan())
        _disk, lld = build(injector=uncut)
        self.rounds(lld, lld.new_list(), [], 1)
        first_chunk = uncut.writes_seen
        for crash_after in range(1, 12):
            cut = PowerCut(after_writes=crash_after)
            injector = FaultInjector(plan=FaultPlan(power_cut=cut))
            disk, lld = build(injector=injector)
            lst = lld.new_list()
            committed = []
            try:
                self.rounds(lld, lst, committed, 100)
            except DiskCrashedError:
                pass
            lld2, _report = recover(
                disk.power_cycle(),
                config=LLDConfig(
                    aru_mode="sequential",
                    checkpoint_slot_segments=2,
                ),
            )
            if crash_after < first_chunk:
                assert committed == []
                with pytest.raises(BadListError):
                    lld2.list_blocks(lst)
                continue
            survivors = lld2.list_blocks(lst)
            # Survivors are exactly a prefix of the committed rounds.
            expected = [block for block, _p in committed[: len(survivors)]]
            assert sorted(survivors) == sorted(expected)
            for block, payload in committed[: len(survivors)]:
                assert lld2.read(block).startswith(payload)


class TestSequentialARUsWithMinix:
    """The variant the paper never measured: the old prototype's
    sequential ARUs driving an ARU-aware Minix.  Atomicity holds;
    only concurrency is sacrificed."""

    def test_fs_crash_consistency(self):
        for crash_after in (3, 7, 12, 19):
            cut = PowerCut(after_writes=crash_after)
            injector = FaultInjector(plan=FaultPlan(power_cut=cut))
            geo = DiskGeometry.small(num_segments=96)
            disk = SimulatedDisk(geo, injector=injector)
            lld = LLD(
                disk,
                config=LLDConfig(
                    aru_mode="sequential",
                    checkpoint_slot_segments=2,
                ),
            )
            fs = MinixFS.mkfs(lld, n_inodes=256, use_arus=True)
            try:
                for index in range(300):
                    fs.create(f"/f{index}")
                    fs.write_file(f"/f{index}", b"d" * 2000)
                    if index % 2:
                        fs.sync()
                    if index % 5 == 4:
                        fs.unlink(f"/f{index - 2}")
            except DiskCrashedError:
                pass
            lld2, _report = recover(
                disk.power_cycle(),
                config=LLDConfig(
                    aru_mode="sequential",
                    checkpoint_slot_segments=2,
                ),
            )
            mounted = MinixFS.mount(lld2, use_arus=True)
            report = fsck(mounted)
            assert report.clean, (
                crash_after, [str(p) for p in report.problems][:3]
            )
