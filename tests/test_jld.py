"""Tests for JLD, the journaling overwrite-in-place logical disk.

JLD implements the same interface and ARU semantics as LLD with a
completely different on-disk strategy, so these tests mirror the key
LLD semantic tests and then prove the headline property: MinixFS and
the transaction layer run on it unchanged.
"""

import pytest

from repro.core.visibility import Visibility
from repro.disk.faults import FaultInjector, FaultPlan, PowerCut
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import (
    BadBlockError,
    BadListError,
    ConcurrencyError,
    DiskCrashedError,
)
from repro.fs import MinixFS, fsck
from repro.jld import JLD, JournalFullError, recover_jld
from repro.ld.types import FIRST


def make_jld(num_segments=96, injector=None, **kwargs):
    geo = DiskGeometry.small(num_segments=num_segments)
    disk = SimulatedDisk(geo, injector=injector)
    kwargs.setdefault("journal_segments", 6)
    kwargs.setdefault("checkpoint_slot_segments", 2)
    return disk, JLD(disk, **kwargs)


JLD_KW = {"journal_segments": 6, "checkpoint_slot_segments": 2}


class TestBasics:
    def test_write_read_roundtrip(self):
        _d, jld = make_jld()
        lst = jld.new_list()
        block = jld.new_block(lst)
        jld.write(block, b"payload")
        assert jld.read(block).startswith(b"payload")

    def test_fresh_block_reads_zero(self):
        _d, jld = make_jld()
        lst = jld.new_list()
        block = jld.new_block(lst)
        assert jld.read(block) == b"\x00" * jld.geometry.block_size

    def test_list_ordering(self):
        _d, jld = make_jld()
        lst = jld.new_list()
        a = jld.new_block(lst)
        b = jld.new_block(lst, predecessor=a)
        c = jld.new_block(lst)
        assert jld.list_blocks(lst) == [c, a, b]

    def test_delete_block_and_list(self):
        _d, jld = make_jld()
        lst = jld.new_list()
        a = jld.new_block(lst)
        b = jld.new_block(lst, predecessor=a)
        jld.delete_block(a)
        assert jld.list_blocks(lst) == [b]
        jld.delete_list(lst)
        with pytest.raises(BadListError):
            jld.list_blocks(lst)
        with pytest.raises(BadBlockError):
            jld.read(b)

    def test_home_slot_reuse_serves_fresh_data(self):
        """A freed home slot handed to a new block must never serve
        the dead block's cached bytes."""
        _d, jld = make_jld()
        lst = jld.new_list()
        a = jld.new_block(lst)
        jld.write(a, b"old-tenant")
        jld.apply()  # home written, cache warm
        assert jld.read(a).startswith(b"old-tenant")
        home = jld.homes[a]
        jld.delete_block(a)
        b = jld.new_block(lst)
        assert jld.homes[b] == home  # LIFO free list reuses it
        assert jld.read(b) == b"\x00" * jld.geometry.block_size

    def test_reads_after_apply_come_from_home(self):
        _d, jld = make_jld()
        lst = jld.new_list()
        block = jld.new_block(lst)
        jld.write(block, b"homeward")
        applied = jld.apply()
        assert applied == 1
        assert not jld.pending
        jld.cache.invalidate_all()
        assert jld.read(block).startswith(b"homeward")


class TestARUSemantics:
    def test_shadow_isolation(self):
        _d, jld = make_jld()
        lst = jld.new_list()
        block = jld.new_block(lst)
        jld.write(block, b"base")
        a = jld.begin_aru()
        b = jld.begin_aru()
        jld.write(block, b"from-a", aru=a)
        assert jld.read(block, aru=a).startswith(b"from-a")
        assert jld.read(block, aru=b).startswith(b"base")
        assert jld.read(block).startswith(b"base")
        jld.end_aru(a)
        assert jld.read(block).startswith(b"from-a")
        jld.abort_aru(b)

    def test_allocation_commits_immediately(self):
        _d, jld = make_jld()
        lst = jld.new_list()
        a = jld.begin_aru()
        b = jld.begin_aru()
        blocks = {
            jld.new_block(lst, aru=a),
            jld.new_block(lst, aru=b),
            jld.new_block(lst),
        }
        assert len(blocks) == 3
        jld.end_aru(a)
        jld.end_aru(b)

    def test_abort_discards(self):
        _d, jld = make_jld()
        lst = jld.new_list()
        block = jld.new_block(lst)
        jld.write(block, b"keep")
        aru = jld.begin_aru()
        jld.write(block, b"drop", aru=aru)
        jld.delete_block(block, aru=aru)
        jld.abort_aru(aru)
        assert jld.read(block).startswith(b"keep")
        assert jld.list_blocks(lst) == [block]

    def test_conflicting_deletes_raise(self):
        _d, jld = make_jld()
        lst = jld.new_list()
        block = jld.new_block(lst)
        a = jld.begin_aru()
        b = jld.begin_aru()
        jld.delete_block(block, aru=a)
        jld.delete_block(block, aru=b)
        jld.end_aru(a)
        with pytest.raises(ConcurrencyError):
            jld.end_aru(b)

    def test_visibility_options(self):
        for policy, own, other in (
            (Visibility.ARU_LOCAL, b"shadow", b"base"),
            (Visibility.COMMITTED_ONLY, b"base", b"base"),
            (Visibility.MOST_RECENT_SHADOW, b"shadow", b"shadow"),
        ):
            _d, jld = make_jld(visibility=policy)
            lst = jld.new_list()
            block = jld.new_block(lst)
            jld.write(block, b"base")
            writer = jld.begin_aru()
            reader = jld.begin_aru()
            jld.write(block, b"shadow", aru=writer)
            assert jld.read(block, aru=writer).startswith(own), policy
            assert jld.read(block, aru=reader).startswith(other), policy


class TestCrashRecovery:
    def test_committed_flushed_survives(self):
        disk, jld = make_jld()
        lst = jld.new_list()
        aru = jld.begin_aru()
        blocks = [jld.new_block(lst, aru=aru) for _ in range(3)]
        for index, block in enumerate(blocks):
            jld.write(block, f"part-{index}".encode(), aru=aru)
        jld.end_aru(aru)
        jld.flush()
        jld2, report = recover_jld(disk.power_cycle(), **JLD_KW)
        assert report["arus_committed"] == 1
        for index, block in enumerate(blocks):
            assert jld2.read(block).startswith(f"part-{index}".encode())

    def test_uncommitted_undone_and_swept(self):
        disk, jld = make_jld()
        lst = jld.new_list()
        base = jld.new_block(lst)
        jld.write(base, b"base")
        jld.flush()
        aru = jld.begin_aru()
        jld.write(base, b"doomed", aru=aru)
        orphan = jld.new_block(lst, aru=aru)
        jld.flush()
        jld2, report = recover_jld(disk.power_cycle(), **JLD_KW)
        assert jld2.read(base).startswith(b"base")
        assert int(orphan) in report["orphans_freed"]
        assert jld2.list_blocks(lst) == [base]

    def test_recovery_after_apply_and_checkpoint(self):
        disk, jld = make_jld()
        lst = jld.new_list()
        blocks = []
        previous = FIRST
        for index in range(20):
            block = jld.new_block(lst, predecessor=previous)
            jld.write(block, f"v-{index}".encode())
            blocks.append(block)
            previous = block
        jld.apply()
        # Post-checkpoint work.
        jld.write(blocks[0], b"newer")
        jld.flush()
        jld2, report = recover_jld(disk.power_cycle(), **JLD_KW)
        assert report["checkpoint_seq"] >= 1
        assert jld2.read(blocks[0]).startswith(b"newer")
        for index, block in enumerate(blocks[1:], start=1):
            assert jld2.read(block).startswith(f"v-{index}".encode())
        assert jld2.list_blocks(lst) == blocks

    def test_ring_wrap_under_churn(self):
        disk, jld = make_jld(num_segments=128, journal_segments=4)
        lst = jld.new_list()
        blocks = []
        previous = FIRST
        for index in range(30):
            block = jld.new_block(lst, predecessor=previous)
            blocks.append(block)
            previous = block
        # Enough distinct-writes to wrap the 4-segment ring repeatedly.
        for round_no in range(15):
            for index, block in enumerate(blocks):
                jld.write(block, f"r{round_no}-b{index}".encode())
            jld.flush()
        assert jld.applies > 0
        jld2, _report = recover_jld(
            disk.power_cycle(), journal_segments=4, checkpoint_slot_segments=2
        )
        for index, block in enumerate(blocks):
            assert jld2.read(block).startswith(f"r14-b{index}".encode())

    def test_torn_journal_segment_discarded(self):
        cut = PowerCut(after_writes=2, torn=True, seed=3)
        injector = FaultInjector(plan=FaultPlan(power_cut=cut))
        disk, jld = make_jld(injector=injector)
        lst = jld.new_list()
        committed = []
        with pytest.raises(DiskCrashedError):
            previous = FIRST
            for index in range(500):
                block = jld.new_block(lst, predecessor=previous)
                jld.write(block, f"d{index}".encode())
                committed.append(block)
                previous = block
                jld.flush()
        jld2, _report = recover_jld(disk.power_cycle(), **JLD_KW)
        survivors = jld2.list_blocks(lst)
        assert survivors == committed[: len(survivors)]
        for index, block in enumerate(survivors):
            assert jld2.read(block).startswith(f"d{index}".encode())

    def test_write_ahead_ordering_protects_homes(self):
        """Crash during an apply pass: homes may be half-updated, but
        every committed write is still reconstructible from the
        journal."""
        disk, jld = make_jld(num_segments=128, journal_segments=4)
        lst = jld.new_list()
        blocks = []
        previous = FIRST
        for index in range(10):
            block = jld.new_block(lst, predecessor=previous)
            jld.write(block, f"stable-{index}".encode())
            blocks.append(block)
            previous = block
        jld.flush()
        # Crash mid-apply: allow a couple of home writes through.
        disk.injector.crash_plan = PowerCut(after_writes=2)
        disk.injector.writes_seen = 0
        with pytest.raises(DiskCrashedError):
            jld.apply()
        jld2, _report = recover_jld(disk.power_cycle(), **JLD_KW)
        for index, block in enumerate(blocks):
            assert jld2.read(block).startswith(f"stable-{index}".encode())


class TestJournalBounds:
    def test_oversized_aru_rejected(self):
        _d, jld = make_jld(num_segments=128, journal_segments=2)
        lst = jld.new_list()
        blocks = []
        previous = FIRST
        for index in range(64):
            block = jld.new_block(lst, predecessor=previous)
            blocks.append(block)
            previous = block
        jld.apply()
        aru = jld.begin_aru()
        with pytest.raises(JournalFullError):
            for index, block in enumerate(blocks):
                jld.write(block, bytes([index]) * 4096, aru=aru)
            jld.end_aru(aru)


    def test_reported_largest_aru_is_the_largest_that_commits(self):
        """Ablation G's "max ARU" row: on a 2-segment ring an ARU of
        the reported size commits, and one block more does not."""
        from benchmarks.bench_ablation_journal import build, largest_commitable_aru

        def aru_of(size):
            jld = build(2)
            lst = jld.new_list()
            blocks = [jld.new_block(lst) for _ in range(size)]
            jld.apply()
            aru = jld.begin_aru()
            for block in blocks:
                jld.write(block, b"x" * 4096, aru=aru)
            jld.end_aru(aru)

        size = largest_commitable_aru(2)
        aru_of(size)
        with pytest.raises(JournalFullError):
            aru_of(size + 1)


class TestClientsRunUnchanged:
    """The Logical Disk promise: swap the implementation, keep the
    clients."""

    def test_minix_fs_on_jld(self):
        _d, jld = make_jld(num_segments=192)
        fs = MinixFS.mkfs(jld, n_inodes=128)
        fs.mkdir("/docs")
        fs.create("/docs/a.txt")
        fs.write_file("/docs/a.txt", b"same FS, different disk" * 40)
        fs.link("/docs/a.txt", "/docs/b.txt")
        fs.rename("/docs/b.txt", "/top")
        assert fs.read_file("/top").startswith(b"same FS")
        fs.unlink("/docs/a.txt")
        report = fsck(fs)
        assert report.clean, [str(p) for p in report.problems]

    def test_fs_crash_consistency_on_jld(self):
        cut = PowerCut(after_writes=6)
        injector = FaultInjector(plan=FaultPlan(power_cut=cut))
        disk, jld = make_jld(num_segments=192, injector=injector)
        fs = MinixFS.mkfs(jld, n_inodes=256)
        with pytest.raises(DiskCrashedError):
            for index in range(500):
                fs.create(f"/f{index}")
                fs.write_file(f"/f{index}", b"x" * 3000)
                if index % 2:
                    fs.sync()
        jld2, _report = recover_jld(disk.power_cycle(), **JLD_KW)
        mounted = MinixFS.mount(jld2)
        report = fsck(mounted)
        assert report.clean, [str(p) for p in report.problems]

    def test_transactions_on_jld(self):
        from repro.txn import TransactionManager, run_transaction

        _d, jld = make_jld(num_segments=128)
        manager = TransactionManager(jld)
        with manager.begin(durable=False) as txn:
            lst = txn.new_list()
            a = txn.new_block(lst)
            b = txn.new_block(lst, predecessor=a)
            txn.write(a, (100).to_bytes(8, "little"))
            txn.write(b, (50).to_bytes(8, "little"))

        def transfer(txn):
            x = int.from_bytes(txn.read(a)[:8], "little")
            y = int.from_bytes(txn.read(b)[:8], "little")
            txn.write(a, (x - 30).to_bytes(8, "little"))
            txn.write(b, (y + 30).to_bytes(8, "little"))

        run_transaction(manager, transfer, durable=False)
        assert int.from_bytes(jld.read(a)[:8], "little") == 70
        assert int.from_bytes(jld.read(b)[:8], "little") == 80
