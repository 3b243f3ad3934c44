"""Tests for the command-line entry points and remaining disk APIs."""

import json

import pytest

from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import DiskCrashedError
from repro.fs import MinixFS
from repro.harness.__main__ import main as harness_main
from repro.jld import JLD
from repro.obs.schema import validate_artifact
from repro.tools.lddump import main as lddump_main


class TestHarnessCLI:
    def test_single_experiment(self, capsys, tmp_path):
        assert harness_main(["aru", "--metrics", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ARU begin/end" in out
        assert "78.47" in out
        payload = json.loads((tmp_path / "metrics_aru.json").read_text())
        assert payload["experiment"] == "aru"
        assert validate_artifact(payload) == []

    def test_rejects_unknown_experiment(self):
        # The harness runs the paper's evaluation and nothing else.
        for name in ("figure7", "scrub", "writepath", "shard", "frontend"):
            with pytest.raises(SystemExit):
                harness_main([name])


class TestWriteAt:
    @pytest.fixture
    def disk(self):
        return SimulatedDisk(DiskGeometry.small(num_segments=8))

    def test_in_place_update(self, disk):
        geo = disk.geometry
        disk.write_segment(0, b"\xaa" * geo.segment_size)
        disk.write_at(0, 100, b"patch")
        data = disk.read_segment(0)
        assert data[100:105] == b"patch"
        assert data[99] == 0xAA
        assert data[105] == 0xAA

    def test_write_at_unwritten_segment(self, disk):
        disk.write_at(3, 0, b"fresh")
        assert disk.read(3, 0, 5) == b"fresh"
        assert disk.read(3, 5, 1) == b"\x00"

    def test_bounds_checked(self, disk):
        with pytest.raises(ValueError):
            disk.write_at(0, disk.geometry.segment_size - 2, b"xxx")
        with pytest.raises(ValueError):
            disk.write_at(0, -1, b"x")

    def test_counts_against_crash_plan(self):
        from repro.disk.faults import FaultInjector, FaultPlan, PowerCut

        cut = PowerCut(after_writes=1)
        disk = SimulatedDisk(
            DiskGeometry.small(num_segments=8),
            injector=FaultInjector(plan=FaultPlan(power_cut=cut)),
        )
        disk.write_at(0, 0, b"first")
        with pytest.raises(DiskCrashedError):
            disk.write_at(0, 10, b"second")

    def test_torn_write_at_keeps_prefix(self):
        from repro.disk.faults import FaultInjector, FaultPlan, PowerCut

        # Byte granularity: an 8-byte write is sub-sector, so the
        # default sector-granular model drops it whole.
        cut = PowerCut(after_writes=0, torn=True, seed=4, granularity="byte")
        disk = SimulatedDisk(
            DiskGeometry.small(num_segments=8),
            injector=FaultInjector(plan=FaultPlan(power_cut=cut)),
        )
        with pytest.raises(DiskCrashedError):
            disk.write_at(0, 0, b"abcdefgh")
        survivor = disk.power_cycle()
        data = survivor.read(0, 0, 8)
        assert data[0:1] == b"a"
        assert data != b"abcdefgh"


class TestLddumpJLD:
    def test_fs_dump_of_jld_image(self, tmp_path, capsys):
        geo = DiskGeometry.small(num_segments=64)
        disk = SimulatedDisk(geo)
        jld = JLD(disk, journal_segments=6, checkpoint_slot_segments=2)
        fs = MinixFS.mkfs(jld, n_inodes=64)
        fs.create("/journaled.txt")
        fs.write_file("/journaled.txt", b"via the journal")
        fs.sync()
        image = tmp_path / "jld.img"
        disk.save_image(image)
        code = lddump_main(
            [
                str(image),
                "--fs",
                "--substrate",
                "jld",
                "--ckpt-segments",
                "2",
                "--journal-segments",
                "6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "journaled.txt" in out
        assert "recovered (jld)" in out


class TestStatvfs:
    def test_counts(self):
        from tests.conftest import make_lld

        fs = MinixFS.mkfs(make_lld(num_segments=128), n_inodes=64)
        fs.mkdir("/d")
        fs.create("/d/a")
        fs.write_file("/d/a", b"z" * 5000)
        stats = fs.statvfs()
        assert stats["files"] == 1
        assert stats["directories"] == 2  # root + /d
        assert stats["inodes_used"] == 3
        assert stats["inodes_free"] == 61
        assert stats["used_bytes"] >= 5000
        assert stats["data_blocks"] >= 2

    def test_empty_fs(self):
        from tests.conftest import make_lld

        fs = MinixFS.mkfs(make_lld(num_segments=128), n_inodes=64)
        stats = fs.statvfs()
        assert stats["files"] == 0
        assert stats["directories"] == 1
        assert stats["used_bytes"] == 0
