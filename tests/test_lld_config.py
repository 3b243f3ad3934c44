"""Tests for the consolidated LLD configuration object.

:class:`~repro.lld.config.LLDConfig` is the only way a knob reaches a
volume and validates itself at construction, so an invalid config
cannot exist.
"""

import dataclasses

import pytest

from repro.core.visibility import Visibility
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import recover
from repro.harness.variants import VARIANTS, build_variant

from tests.conftest import make_lld


def fresh_disk(num_segments=64):
    return SimulatedDisk(DiskGeometry.small(num_segments=num_segments))


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = LLDConfig()
        assert cfg.validate() is cfg
        assert cfg.aru_mode == "concurrent"
        assert cfg.visibility is Visibility.ARU_LOCAL

    @pytest.mark.parametrize(
        "changes",
        [
            {"aru_mode": "quantum"},
            {"cleaner_policy": "wishful"},
            {"cache_blocks": -1},
            {"checkpoint_slot_segments": 0},
            {"clean_low_water": 0},
            {"writeback_depth": -1},
            {"group_commit_max_parked": 0},
            {"group_commit_timeout_us": 0},
            {"restore_drain_segments": -1},
        ],
    )
    def test_bad_knobs_raise_value_error(self, changes):
        with pytest.raises(ValueError):
            LLDConfig(**changes)

    def test_replace_revalidates(self):
        cfg = LLDConfig()
        with pytest.raises(ValueError):
            cfg.replace(aru_mode="quantum")
        assert cfg.replace(cache_blocks=16).cache_blocks == 16

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            LLDConfig().cache_blocks = 1


class TestKwargsShim:
    """What the constructor contract still promises with the keyword
    shim gone (kept under their historical ids)."""

    def test_unknown_kwarg_is_a_type_error(self):
        with pytest.raises(TypeError):
            LLDConfig(cache_blox=17)
        with pytest.raises(TypeError):
            LLD(fresh_disk(), cache_blox=17)

    def test_constructor_still_validates(self):
        # The historical error contract: bad knob values raise
        # ValueError straight from the constructor.
        with pytest.raises(ValueError):
            LLD(fresh_disk(), config=LLDConfig(aru_mode="quantum"))
        with pytest.raises(ValueError):
            LLD(fresh_disk(), config=LLDConfig(writeback_depth=-1))

    def test_lld_records_its_config(self):
        ld = make_lld(group_commit=True, writeback_depth=2,
                      group_commit_timeout_us=1e12)
        assert isinstance(ld.config, LLDConfig)
        assert ld.config.group_commit is True
        assert ld.config.writeback_depth == 2


class TestIntegration:
    def test_build_variant_routes_through_config(self):
        cfg = LLDConfig(cache_blocks=64, metrics=False)
        _disk, ld, _fs = build_variant(
            VARIANTS["old"], n_inodes=64, config=cfg
        )
        # The variant's ARU mode wins over the config's.
        assert ld.config.aru_mode == "sequential"
        assert ld.config.cache_blocks == 64
        assert ld.obs.metrics.enabled is False

    def test_build_variant_still_takes_kwargs(self):
        _disk, ld, _fs = build_variant(
            VARIANTS["new"],
            n_inodes=64,
            config=LLDConfig(cache_blocks=32),
        )
        assert ld.config.cache_blocks == 32
        assert ld.config.aru_mode == "concurrent"

    def test_recover_honours_config(self):
        ld = make_lld()
        lst = ld.new_list()
        ld.write(ld.new_block(lst), b"payload")
        ld.flush()
        ld.write_checkpoint()
        survivor = ld.disk.power_cycle()
        cfg = LLDConfig(checkpoint_slot_segments=2, cache_blocks=64)
        ld2, _report = recover(survivor, config=cfg)
        assert ld2.config is cfg
        assert ld2.read(ld2.list_blocks(lst)[0]).startswith(b"payload")

    def test_recovered_lld_keeps_flight_dump_path(self, tmp_path):
        ld = make_lld()
        ld.write_checkpoint()
        survivor = ld.disk.power_cycle()
        dump = str(tmp_path / "dump.jsonl")
        ld2, _report = recover(
            survivor,
            config=LLDConfig(
                checkpoint_slot_segments=2,
                flight_dump_path=dump,
            ),
        )
        assert ld2.obs.dump_path == dump
