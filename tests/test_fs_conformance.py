"""File-system conformance across logical-disk substrates.

MinixFS is written against the abstract LD interface; these tests run
its key behaviours on both LLD and JLD, proving the FS never depends
on substrate internals (the Logical Disk's exchangeability promise,
Section 2)."""

import pytest

from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.fs import MinixFS, fsck
from repro.jld import JLD, recover_jld
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import recover
from repro.workloads.generator import random_fs_ops, verify_against_model


def _make(kind):
    geo = DiskGeometry.small(num_segments=160)
    disk = SimulatedDisk(geo)
    if kind == "lld":
        ld = LLD(disk, config=LLDConfig(checkpoint_slot_segments=2))
    else:
        ld = JLD(disk, journal_segments=8, checkpoint_slot_segments=2)
    return disk, MinixFS.mkfs(ld, n_inodes=256)


def _recover_fs(kind, disk):
    if kind == "lld":
        ld, _ = recover(
            disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=2),
        )
    else:
        ld, _ = recover_jld(
            disk.power_cycle(), journal_segments=8,
            checkpoint_slot_segments=2,
        )
    return MinixFS.mount(ld)


@pytest.fixture(params=["lld", "jld"])
def setup(request):
    disk, fs = _make(request.param)
    return request.param, disk, fs


class TestFSConformance:
    def test_namespace_operations(self, setup):
        _kind, _disk, fs = setup
        fs.mkdir("/docs")
        fs.create("/docs/file.txt")
        fs.write_file("/docs/file.txt", b"portable bytes")
        fs.link("/docs/file.txt", "/docs/alias.txt")
        fs.rename("/docs/file.txt", "/moved.txt")
        fs.truncate("/docs/alias.txt", 8)
        assert fs.read_file("/moved.txt") == b"portable"
        assert fs.stat("/moved.txt").nlinks == 2
        assert sorted(fs.listdir("/")) == ["docs", "moved.txt"]
        assert fsck(fs).clean

    def test_random_ops_match_model(self, setup):
        _kind, _disk, fs = setup
        trace = random_fs_ops(fs, n_ops=120, seed=11)
        assert verify_against_model(fs, trace.expected) == []
        assert fsck(fs).clean

    def test_sync_and_remount(self, setup):
        kind, disk, fs = setup
        trace = random_fs_ops(fs, n_ops=60, seed=3, sync_every=None)
        fs.sync()
        mounted = _recover_fs(kind, disk)
        assert verify_against_model(mounted, trace.expected) == []
        assert fsck(mounted).clean

    def test_statvfs_and_du_agree(self, setup):
        _kind, _disk, fs = setup
        fs.mkdir("/d")
        fs.create("/d/a")
        fs.write_file("/d/a", b"q" * 6000)
        fs.create("/b")
        fs.write_file("/b", b"w" * 1000)
        stats = fs.statvfs()
        assert stats["file_bytes"] == fs.du("/") == 7000
        assert stats["used_bytes"] >= stats["file_bytes"]  # + dir data
        assert stats["files"] == 2

    def test_unsynced_work_lost_whole(self, setup):
        """Crash before sync: files created since the last sync are
        absent entirely — never half-present — on both substrates."""
        kind, disk, fs = setup
        fs.create("/durable")
        fs.write_file("/durable", b"kept")
        fs.sync()
        fs.create("/volatile")
        fs.write_file("/volatile", b"maybe lost")
        mounted = _recover_fs(kind, disk)
        assert mounted.read_file("/durable") == b"kept"
        if mounted.exists("/volatile"):
            assert mounted.read_file("/volatile") == b"maybe lost"
        assert fsck(mounted).clean
