"""Tests for the experiment harness (variants, runners)."""

import pytest

from repro.disk.geometry import DiskGeometry
from repro.harness.runner import (
    run_aru_latency_experiment,
    run_figure5,
    run_figure6,
)
from repro.harness.variants import VARIANTS, build_variant, paper_geometry


class TestVariants:
    def test_table1_variants_exist(self):
        assert set(VARIANTS) == {"old", "new", "new_delete"}

    def test_old_matches_paper_description(self):
        old = VARIANTS["old"]
        assert old.aru_mode == "sequential"
        assert not old.fs_uses_arus

    def test_new_variants_use_concurrent_arus(self):
        for name in ("new", "new_delete"):
            assert VARIANTS[name].aru_mode == "concurrent"
            assert VARIANTS[name].fs_uses_arus

    def test_delete_policies(self):
        assert VARIANTS["new"].delete_policy == "per_block"
        assert VARIANTS["new_delete"].delete_policy == "whole_list"

    def test_paper_geometry_full_scale(self):
        geo = paper_geometry(1.0)
        assert geo.num_segments == 800
        assert geo.segment_size == 512 * 1024
        assert geo.partition_size == 400 * 1024 * 1024

    def test_paper_geometry_scaling(self):
        assert paper_geometry(0.1).num_segments == 80
        assert paper_geometry(0.001).num_segments == 16  # floor

    def test_build_variant_wires_everything(self):
        disk, ld, fs = build_variant(
            VARIANTS["new"], geometry=DiskGeometry.small(96), n_inodes=64
        )
        assert ld.disk is disk
        assert fs.ld is ld
        assert ld.concurrent
        assert fs.use_arus
        fs.create("/works")
        assert fs.exists("/works")

    def test_build_old_variant(self):
        _disk, ld, fs = build_variant(
            VARIANTS["old"], geometry=DiskGeometry.small(96), n_inodes=64
        )
        assert not ld.concurrent
        assert not fs.use_arus


class TestRunners:
    def test_run_figure5_structure(self):
        result = run_figure5(
            size_classes=[{"n_files": 30, "file_size": 1024}],
            variants=("old", "new"),
            geometry=DiskGeometry.small(192),
        )
        assert set(result.results) == {"old", "new"}
        assert 1024 in result.results["old"]
        assert "Figure 5" in result.table
        assert "% slower" in result.table

    def test_run_figure6_structure(self):
        result = run_figure6(
            file_size=1024 * 1024, geometry=DiskGeometry.small(192)
        )
        assert set(result.results) == {"old", "new"}
        for phase in ("write1", "read1", "write2", "read2", "read3"):
            assert result.results["new"].phase(phase) > 0
        assert "Figure 6" in result.table

    def test_run_aru_latency_experiment(self):
        result = run_aru_latency_experiment(
            iterations=1000, geometry=DiskGeometry.small(96)
        )
        assert result.iterations == 1000
        assert result.latency_us > 0
