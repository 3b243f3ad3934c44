"""Crash-consistency tests for MinixLLD: the "no fsck" property.

The paper's claim (Section 5.1): after a failure, all or none of the
Minix meta-data describing each file is persistent, so no fsck pass
is needed — LD recovery alone restores a consistent file system.
These tests crash the system at systematically chosen write counts
and verify that claim with the (deliberately redundant) checker.
"""

import pytest

from repro.disk.faults import FaultInjector, FaultPlan, PowerCut
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import DiskCrashedError
from repro.fs import MinixFS, fsck
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import recover


def formatted_fs(injector, num_segments=96):
    geo = DiskGeometry.small(num_segments=num_segments)
    disk = SimulatedDisk(geo, injector=injector)
    lld = LLD(disk, config=LLDConfig(checkpoint_slot_segments=2))
    return disk, MinixFS.mkfs(lld, n_inodes=256)


def crashy_fs(after_writes, torn=False, seed=0, num_segments=96):
    """A fresh file system whose power fails at the ``after_writes``-th
    write after the ones ``mkfs`` makes (counted on an uncut run)."""
    uncut = FaultInjector(plan=FaultPlan())
    formatted_fs(uncut, num_segments)
    cut = PowerCut(
        after_writes=uncut.writes_seen + after_writes - 1, torn=torn, seed=seed
    )
    return formatted_fs(FaultInjector(plan=FaultPlan(power_cut=cut)), num_segments)


def recover_and_mount(disk):
    lld, report = recover(
        disk.power_cycle(),
        config=LLDConfig(checkpoint_slot_segments=2),
    )
    return MinixFS.mount(lld), report


def churn(fs, rounds, prefix="f"):
    """A create/write/delete workload that keeps hitting the disk."""
    for index in range(rounds):
        path = f"/{prefix}{index}"
        fs.create(path)
        fs.write_file(path, f"contents-{index}".encode() * 50)
        if index % 3 == 2:
            fs.unlink(f"/{prefix}{index - 1}")
        fs.sync()


class TestCrashConsistency:
    @pytest.mark.parametrize("crash_after", [1, 2, 3, 5, 8, 13, 21])
    def test_fsck_clean_after_any_crash_point(self, crash_after):
        disk, fs = crashy_fs(after_writes=crash_after)
        with pytest.raises(DiskCrashedError):
            churn(fs, rounds=200)
        mounted, _report = recover_and_mount(disk)
        report = fsck(mounted)
        assert report.clean, [str(p) for p in report.problems]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_fsck_clean_after_torn_crash(self, seed):
        disk, fs = crashy_fs(after_writes=4, torn=True, seed=seed)
        with pytest.raises(DiskCrashedError):
            churn(fs, rounds=200)
        mounted, _report = recover_and_mount(disk)
        report = fsck(mounted)
        assert report.clean, [str(p) for p in report.problems]

    def test_files_created_before_sync_survive_whole(self):
        disk, fs = crashy_fs(after_writes=10_000)  # never crashes
        for index in range(20):
            fs.create(f"/keep{index}")
            fs.write_file(f"/keep{index}", b"K" * 500)
        fs.sync()
        # Unsynced extra work that will be lost.
        fs.create("/lost")
        fs.write_file("/lost", b"L")
        mounted, _report = recover_and_mount(disk)
        for index in range(20):
            assert mounted.read_file(f"/keep{index}") == b"K" * 500
        assert not mounted.exists("/lost")
        assert fsck(mounted).clean

    def test_unlink_is_atomic(self):
        """A file is never half-deleted: either still fully present
        or fully gone."""
        disk, fs = crashy_fs(after_writes=6)
        fs.create("/victim")
        fs.write_file("/victim", b"V" * 9000)
        fs.sync()
        with pytest.raises(DiskCrashedError):
            while True:
                if fs.exists("/victim"):
                    fs.unlink("/victim")
                else:
                    fs.create("/victim")
                    fs.write_file("/victim", b"V" * 9000)
                fs.sync()
        mounted, _report = recover_and_mount(disk)
        if mounted.exists("/victim"):
            assert mounted.read_file("/victim") == b"V" * 9000
        assert fsck(mounted).clean

    def test_mkdir_rename_crash_consistency(self):
        disk, fs = crashy_fs(after_writes=7)
        with pytest.raises(DiskCrashedError):
            index = 0
            while True:
                fs.mkdir(f"/dir{index}")
                fs.create(f"/dir{index}/inner")
                fs.rename(f"/dir{index}/inner", f"/dir{index}/renamed")
                fs.sync()
                index += 1
        mounted, _report = recover_and_mount(disk)
        report = fsck(mounted)
        assert report.clean, [str(p) for p in report.problems]
        # Every surviving directory has the renamed file, not the
        # original: rename was atomic.
        for name in mounted.listdir("/"):
            entries = mounted.listdir(f"/{name}")
            assert entries in ([], ["renamed"]), entries

    def test_remount_after_double_crash(self):
        disk, fs = crashy_fs(after_writes=5)
        with pytest.raises(DiskCrashedError):
            churn(fs, rounds=100)
        mounted, _report = recover_and_mount(disk)
        assert fsck(mounted).clean
        # Continue working, then crash again via a new plan.
        disk.injector.crash_plan = PowerCut(after_writes=3)
        disk.injector.writes_seen = 0
        with pytest.raises(DiskCrashedError):
            churn(mounted, rounds=100, prefix="g")
        mounted2, _report = recover_and_mount(disk)
        assert fsck(mounted2).clean


class TestOldVariantLosesAtomicity:
    def test_old_minix_can_be_left_inconsistent(self):
        """Motivation check: without ARUs, a crash between the i-node
        write and the directory write leaves inconsistent meta-data
        (an orphan i-node) — exactly what the paper's design
        eliminates.

        The exposure requires a create's two meta-data writes to
        straddle a segment boundary (within one segment the write is
        atomic anyway), so we pad the segment buffer to every
        possible fill level and require that at least one level
        leaves fsck unhappy after the crash."""
        found_inconsistency = False
        for pad_blocks in range(0, 16):
            geo = DiskGeometry.small(num_segments=96)
            disk = SimulatedDisk(geo)
            lld = LLD(
                disk,
                config=LLDConfig(
                    aru_mode="sequential",
                    checkpoint_slot_segments=2,
                ),
            )
            fs = MinixFS.mkfs(lld, n_inodes=256, use_arus=False)
            fs.create("/pad")
            fs.sync()
            if pad_blocks:
                # Data-only writes (the i-node update is deferred in
                # core), so the buffer fills without holding the
                # i-node or directory blocks.
                fs.write_file("/pad", b"p" * (pad_blocks * fs.block_size))
            # The victim create's i-node write may now trigger a
            # segment write, leaving the dirent write unflushed.
            fs.create("/victim")
            # Power off without syncing: only auto-written segments
            # survive.
            lld2, _report = recover(
                disk.power_cycle(),
                config=LLDConfig(
                    aru_mode="sequential",
                    checkpoint_slot_segments=2,
                ),
            )
            mounted = MinixFS.mount(lld2, use_arus=False)
            if not fsck(mounted).clean:
                found_inconsistency = True
                break
        assert found_inconsistency, (
            "expected some segment-boundary crash point to leave the "
            "no-ARU file system inconsistent"
        )
