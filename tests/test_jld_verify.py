"""Tests for the JLD invariant verifier (and, via it, JLD health
after every workload shape)."""

import pytest

from repro.core.records import BlockVersion
from repro.core.versions import VersionState
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.fs import MinixFS
from repro.jld import JLD, recover_jld
from repro.jld.verify import verify_jld
from repro.ld.types import FIRST, ARUId, PhysAddr
from repro.workloads.generator import random_fs_ops


def make_jld(num_segments=96, **kwargs):
    geo = DiskGeometry.small(num_segments=num_segments)
    kwargs.setdefault("journal_segments", 6)
    kwargs.setdefault("checkpoint_slot_segments", 2)
    return JLD(SimulatedDisk(geo), **kwargs)


class TestCleanOnHealthy:
    def test_fresh(self):
        assert verify_jld(make_jld()) == []

    def test_after_mixed_workload(self):
        jld = make_jld()
        lst = jld.new_list()
        previous = FIRST
        blocks = []
        for index in range(20):
            block = jld.new_block(lst, predecessor=previous)
            jld.write(block, f"v{index}".encode())
            blocks.append(block)
            previous = block
        jld.delete_block(blocks[3])
        aru = jld.begin_aru()
        jld.write(blocks[5], b"shadow", aru=aru)
        assert verify_jld(jld) == []
        jld.end_aru(aru)
        jld.apply()
        assert verify_jld(jld) == []

    def test_after_fs_and_recovery(self):
        jld = make_jld(num_segments=160)
        fs = MinixFS.mkfs(jld, n_inodes=256)
        random_fs_ops(fs, n_ops=100, seed=2)
        fs.sync()
        assert verify_jld(jld) == []
        jld2, _report = recover_jld(
            jld.disk.power_cycle(), journal_segments=6,
            checkpoint_slot_segments=2,
        )
        assert verify_jld(jld2) == []


class TestDetectsDamage:
    def _ready(self):
        jld = make_jld()
        lst = jld.new_list()
        a = jld.new_block(lst)
        b = jld.new_block(lst, predecessor=a)
        jld.write(a, b"a")
        jld.flush()
        return jld, lst, a, b

    def test_detects_shared_home(self):
        jld, _lst, a, b = self._ready()
        jld.homes[b] = jld.homes[a]
        assert any("share home" in p for p in verify_jld(jld))

    def test_detects_free_list_overlap(self):
        jld, _lst, a, _b = self._ready()
        jld._home_free.append(jld.homes[a])
        assert any("both free and allocated" in p for p in verify_jld(jld))

    def test_detects_home_in_journal_region(self):
        jld, _lst, a, _b = self._ready()
        jld.homes[a] = PhysAddr(0, 0)
        assert any("journal or" in p for p in verify_jld(jld))

    def test_detects_broken_count(self):
        jld, lst, _a, _b = self._ready()
        jld.ltable.persistent[lst].count = 9
        assert any("claims 9" in p for p in verify_jld(jld))

    def test_detects_orphan_pending(self):
        jld, _lst, _a, _b = self._ready()
        from repro.ld.types import BlockId

        jld.pending[BlockId(999)] = (b"x", 0)
        assert any("unallocated block 999" in p for p in verify_jld(jld))

    def test_detects_stale_overlay(self):
        """A shadow version of an ARU that is not active: a stale
        record on the block's chain, which no ARU's shadow chain holds."""
        jld, _lst, a, _b = self._ready()
        jld.bmap.push_alt(a, BlockVersion(a, VersionState.SHADOW, ARUId(42)))
        assert any(
            "shadow record missing from any ARU" in p for p in verify_jld(jld)
        )
