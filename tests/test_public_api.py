"""Tests for the top-level public API (`repro` package root)."""

import inspect
import pathlib
import re

import pytest

import repro
import repro.disk
from repro import (
    JLD,
    LLD,
    DiskGeometry,
    LLDConfig,
    SimulatedDisk,
    Visibility,
    make_system,
    recover,
)
from repro.harness.variants import build_variant
from repro.lld.recovery import recover as recover_volume
from repro.shard import build_sharded
from repro.shard.recovery import _recover_sharded


class TestMakeSystem:
    def test_defaults(self):
        system = make_system()
        assert isinstance(system.ld, LLD)
        assert system.clock is system.disk.clock
        lst = system.ld.new_list()
        block = system.ld.new_block(lst)
        system.ld.write(block, b"hello")
        assert system.ld.read(block).startswith(b"hello")

    def test_paper_partition_parameters(self):
        system = make_system(
            num_segments=800,
            segment_size=512 * 1024,
            config=LLDConfig(checkpoint_slot_segments=4),
        )
        geo = system.disk.geometry
        assert geo.partition_size == 400 * 1024 * 1024
        assert geo.block_size == 4096

    def test_sequential_mode(self):
        system = make_system(config=LLDConfig(aru_mode="sequential"))
        assert not system.ld.concurrent

    def test_jld_substrate(self):
        system = make_system(substrate="jld", num_segments=64)
        assert isinstance(system.ld, JLD)
        lst = system.ld.new_list()
        block = system.ld.new_block(lst)
        system.ld.write(block, b"journaled")
        assert system.ld.read(block).startswith(b"journaled")

    def test_jld_rejects_sequential(self):
        with pytest.raises(ValueError):
            make_system(
                substrate="jld",
                config=LLDConfig(aru_mode="sequential"),
            )

    def test_unknown_substrate_rejected(self):
        with pytest.raises(ValueError):
            make_system(substrate="raid")

    def test_visibility_option(self):
        system = make_system(
            config=LLDConfig(visibility=Visibility.COMMITTED_ONLY),
        )
        assert system.ld.visibility is Visibility.COMMITTED_ONLY

    def test_recover_roundtrip(self):
        system = make_system(
            num_segments=64,
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        lst = system.ld.new_list()
        block = system.ld.new_block(lst)
        system.ld.write(block, b"public api")
        system.ld.flush()
        recovered, report = recover(
            system.disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        assert recovered.read(block).startswith(b"public api")
        assert report.entries_replayed > 0


class TestExports:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_both_substrates_exported(self):
        assert repro.LLD is LLD
        assert repro.JLD is JLD


class TestOneSpelling:
    """Knobs travel in ``config=`` / ``array_config=`` and faults in
    ``FaultInjector(plan=...)``: the by-name shims are gone and stay
    gone."""

    ROOT = pathlib.Path(__file__).resolve().parents[1]
    #: Written as fragments so this file does not match itself.
    REMOVED = ["from_" + "kwargs", "Crash" + "Plan", "crash_" + "plan="]

    def test_a_knob_by_name_is_a_type_error(self):
        disk = SimulatedDisk(DiskGeometry.small(num_segments=32))
        with pytest.raises(TypeError):
            LLD(disk, cache_blocks=1)
        with pytest.raises(TypeError):
            recover(disk, cache_blocks=1)
        with pytest.raises(TypeError):
            build_sharded(2, replication_factor=2)
        assert not hasattr(repro.disk, "Crash" + "Plan")
        for entry_point in (
            LLD,
            recover_volume,
            recover,
            _recover_sharded,
            build_sharded,
            build_variant,
            make_system,
        ):
            kinds = {
                parameter.kind
                for parameter in inspect.signature(
                    entry_point
                ).parameters.values()
            }
            assert inspect.Parameter.VAR_KEYWORD not in kinds, entry_point

    def test_no_source_spells_a_removed_name(self):
        pattern = re.compile("|".join(map(re.escape, self.REMOVED)))
        hits = []
        for top in (
            "src", "tests", "examples", "benchmarks", "docs", ".github",
            ".claude",
        ):
            for path in sorted((self.ROOT / top).rglob("*")):
                if path.suffix not in (".py", ".md", ".yml"):
                    continue
                text = path.read_text(encoding="utf-8")
                for match in pattern.finditer(text):
                    line = text.count("\n", 0, match.start()) + 1
                    hits.append(f"{path.relative_to(self.ROOT)}:{line}")
        assert hits == []
