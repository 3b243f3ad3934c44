"""Tests for the internal invariant verifier — and, through it,
whole-system invariant checks after every kind of workload."""

import pytest

from repro.core.records import BlockVersion
from repro.core.versions import VersionState
from repro.fs import MinixFS
from repro.ld.types import BlockId
from repro.lld.config import LLDConfig
from repro.lld.verify import verify_lld
from repro.workloads.generator import overwrite_pressure, random_fs_ops

from tests.conftest import make_lld


class TestVerifierOnHealthySystems:
    def test_fresh_lld(self, lld):
        assert verify_lld(lld) == []

    def test_after_simple_workload(self, lld):
        lst = lld.new_list()
        a = lld.new_block(lst)
        b = lld.new_block(lst, predecessor=a)
        lld.write(a, b"a")
        lld.write(b, b"b")
        lld.delete_block(a)
        assert verify_lld(lld) == []
        lld.flush()
        assert verify_lld(lld) == []

    def test_with_active_arus(self, lld):
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.write(block, b"base")
        a = lld.begin_aru()
        b = lld.begin_aru()
        lld.write(block, b"sa", aru=a)
        extra = lld.new_block(lst, aru=b)
        lld.write(extra, b"sb", aru=b)
        assert verify_lld(lld) == []
        lld.end_aru(a)
        assert verify_lld(lld) == []
        lld.abort_aru(b)
        assert verify_lld(lld) == []

    def test_after_fs_workload(self):
        lld = make_lld(num_segments=192)
        fs = MinixFS.mkfs(lld, n_inodes=256)
        random_fs_ops(fs, n_ops=120, seed=5)
        fs.sync()
        assert verify_lld(lld) == []

    def test_after_cleaning(self):
        lld = make_lld(num_segments=28, clean_low_water=3, clean_high_water=6)
        overwrite_pressure(lld, working_set_blocks=30, n_writes=400)
        assert lld.cleanings > 0
        problems = verify_lld(lld)
        assert problems == [], problems

    def test_after_recovery(self):
        from repro.lld.recovery import recover

        lld = make_lld(num_segments=96)
        fs = MinixFS.mkfs(lld, n_inodes=128)
        random_fs_ops(fs, n_ops=60, seed=1)
        fs.sync()
        lld2, _report = recover(
            lld.disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        assert verify_lld(lld2) == []


class TestVerifierDetectsDamage:
    """Seed each corruption class by hand; the verifier must notice —
    otherwise the clean results above prove nothing."""

    def _ready(self):
        lld = make_lld()
        lst = lld.new_list()
        a = lld.new_block(lst)
        b = lld.new_block(lst, predecessor=a)
        lld.write(a, b"a")
        lld.write(b, b"b")
        lld.flush()
        return lld, lst, a, b

    def test_detects_broken_successor(self):
        lld, _lst, a, _b = self._ready()
        lld.bmap.persistent[a].successor = BlockId(999)
        assert any("broken" in p for p in verify_lld(lld))

    def test_detects_wrong_count(self):
        lld, lst, _a, _b = self._ready()
        lld.ltable.persistent[lst].count = 7
        assert any("claims 7" in p for p in verify_lld(lld))

    def test_detects_wrong_last(self):
        lld, lst, a, _b = self._ready()
        lld.ltable.persistent[lst].last = a
        assert any("last" in p for p in verify_lld(lld))

    def test_detects_cycle(self):
        lld, _lst, a, b = self._ready()
        lld.bmap.persistent[b].successor = a
        lld.bmap.persistent[a].successor = b
        assert any("cyclic" in p or "broken" in p for p in verify_lld(lld))

    def test_detects_usage_mismatch(self):
        lld, _lst, a, _b = self._ready()
        addr = lld.bmap.persistent[a].address
        lld.usage.set_live(addr.segment, 9)
        assert any("usage table" in p for p in verify_lld(lld))

    def test_detects_orphaned_chain_record(self):
        lld, _lst, a, _b = self._ready()
        stray = BlockVersion(a, VersionState.COMMITTED)
        lld.bmap.push_alt(a, stray)  # not on the committed chain
        assert any("missing from" in p for p in verify_lld(lld))

    def test_detects_mislabeled_map_entry(self):
        lld, _lst, a, _b = self._ready()
        lld.bmap.persistent[a].state = VersionState.COMMITTED
        assert any("map entry in state" in p for p in verify_lld(lld))
