"""Tests for the workload generators and the experiment harness."""

import pytest

from repro.disk.geometry import DiskGeometry
from repro.fs import MinixFS, fsck
from repro.harness.reporting import (
    format_deltas,
    format_table,
    percent_difference,
)
from repro.harness.variants import VARIANTS, build_variant
from repro.lld.config import LLDConfig
from repro.workloads.arulat import run_aru_latency
from repro.workloads.generator import (
    overwrite_pressure,
    random_fs_ops,
    verify_against_model,
)
from repro.workloads.largefile import run_large_file
from repro.workloads.smallfile import run_small_files

from tests.conftest import make_lld


def small_geometry(num_segments=128):
    return DiskGeometry.small(num_segments=num_segments)


class TestSmallFileWorkload:
    def test_runs_and_reports(self):
        _d, _l, fs = build_variant(
            VARIANTS["new"], geometry=small_geometry(), n_inodes=256
        )
        result = run_small_files(fs, n_files=60, file_size=1024)
        assert result.create_write_fps > 0
        assert result.read_fps > 0
        assert result.delete_fps > 0
        assert result.phase("read") == result.read_fps

    def test_leaves_consistent_fs(self):
        _d, _l, fs = build_variant(
            VARIANTS["new"], geometry=small_geometry(), n_inodes=256
        )
        run_small_files(fs, n_files=40, file_size=1024)
        assert fsck(fs).clean
        # Everything was deleted again.
        assert all(
            fs.listdir(f"/{name}") == [] for name in fs.listdir("/")
        )


class TestLargeFileWorkload:
    def test_phases_and_shapes(self):
        # Cache far below the file size, as the harness arranges.
        _d, _l, fs = build_variant(
            VARIANTS["new"],
            geometry=small_geometry(192),
            n_inodes=16,
            config=LLDConfig(cache_blocks=64),
        )
        result = run_large_file(fs, file_size=2 * 1024 * 1024)
        for phase in ("write1", "read1", "write2", "read2", "read3"):
            assert result.phase(phase) > 0
        # Log-structured shape: random writes stay near sequential
        # write speed; random reads are seek-bound and far slower.
        assert result.phase("write2") > 0.5 * result.phase("write1")
        assert result.phase("read2") < 0.5 * result.phase("read1")

    def test_file_contents_intact(self):
        _d, _l, fs = build_variant(
            VARIANTS["new"], geometry=small_geometry(192), n_inodes=16
        )
        run_large_file(fs, file_size=1024 * 1024, path="/big")
        assert fs.stat("/big").size == 1024 * 1024

    def test_rejects_partial_blocks(self):
        _d, _l, fs = build_variant(
            VARIANTS["new"], geometry=small_geometry(), n_inodes=16
        )
        with pytest.raises(ValueError):
            run_large_file(fs, file_size=1000)


class TestARULatencyWorkload:
    def test_measures_latency(self):
        _d, ld, _fs = build_variant(
            VARIANTS["new"], geometry=small_geometry(), n_inodes=16
        )
        result = run_aru_latency(ld, iterations=2000)
        assert result.iterations == 2000
        assert result.latency_us > 0
        assert result.segments_written >= 1
        assert result.scaled_segments(4000) == result.segments_written * 2


class TestGenerator:
    def test_random_ops_match_model(self):
        fs = MinixFS.mkfs(make_lld(num_segments=192), n_inodes=512)
        trace = random_fs_ops(fs, n_ops=150, seed=3)
        assert verify_against_model(fs, trace.expected) == []
        assert fsck(fs).clean

    def test_random_ops_deterministic(self):
        fs1 = MinixFS.mkfs(make_lld(num_segments=192), n_inodes=512)
        fs2 = MinixFS.mkfs(make_lld(num_segments=192), n_inodes=512)
        t1 = random_fs_ops(fs1, n_ops=80, seed=9)
        t2 = random_fs_ops(fs2, n_ops=80, seed=9)
        assert t1.ops == t2.ops
        assert t1.expected.keys() == t2.expected.keys()

    def test_overwrite_pressure_preserves_contents(self):
        lld = make_lld(num_segments=32, clean_low_water=3, clean_high_water=6)
        blocks = overwrite_pressure(lld, working_set_blocks=20, n_writes=300)
        for index, block in enumerate(blocks):
            assert lld.read(block).startswith(f"block-{index}-".encode())


class TestReporting:
    def test_percent_difference(self):
        assert percent_difference(100.0, 90.0) == pytest.approx(10.0)
        assert percent_difference(100.0, 110.0) == pytest.approx(-10.0)
        assert percent_difference(0.0, 5.0) == 0.0

    def test_format_table(self):
        table = format_table(
            "T", ["a", "b"], {"row": [1.0, 2.0]}, unit="widgets"
        )
        assert "T" in table
        assert "row" in table
        assert "widgets" in table

    def test_format_deltas_excludes_baseline(self):
        table = format_deltas(
            "D", "base", ["c"], {"base": [100.0], "other": [80.0]}
        )
        assert "other" in table
        assert "20.0" in table

