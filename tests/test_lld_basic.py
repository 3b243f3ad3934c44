"""Unit tests for LLD's basic (simple-operation) interface."""

import pytest

from repro.errors import BadBlockError, BadListError, DiskCrashedError
from repro.ld.types import FIRST
from repro.lld.config import LLDConfig

from tests.conftest import make_lld


class TestListsAndBlocks:
    def test_new_list_ids_increase(self, lld):
        assert lld.new_list() < lld.new_list() < lld.new_list()

    def test_new_block_in_unknown_list(self, lld):
        with pytest.raises(BadListError):
            lld.new_block(999)

    def test_empty_list_enumerates_empty(self, lld):
        lst = lld.new_list()
        assert lld.list_blocks(lst) == []

    def test_block_placed_first(self, lld):
        lst = lld.new_list()
        a = lld.new_block(lst)
        b = lld.new_block(lst)  # also FIRST: goes before a
        assert lld.list_blocks(lst) == [b, a]

    def test_block_placed_after_predecessor(self, lld):
        lst = lld.new_list()
        a = lld.new_block(lst)
        b = lld.new_block(lst, predecessor=a)
        c = lld.new_block(lst, predecessor=a)
        assert lld.list_blocks(lst) == [a, c, b]

    def test_predecessor_must_be_in_list(self, lld):
        lst1 = lld.new_list()
        lst2 = lld.new_list()
        a = lld.new_block(lst1)
        with pytest.raises(BadBlockError):
            lld.new_block(lst2, predecessor=a)

    def test_block_ids_never_reused(self, lld):
        lst = lld.new_list()
        a = lld.new_block(lst)
        lld.delete_block(a)
        b = lld.new_block(lst)
        assert b != a


class TestReadWrite:
    def test_fresh_block_reads_zeros(self, lld):
        lst = lld.new_list()
        block = lld.new_block(lst)
        assert lld.read(block) == b"\x00" * lld.geometry.block_size

    def test_write_read_roundtrip(self, lld):
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.write(block, b"payload")
        data = lld.read(block)
        assert data.startswith(b"payload")
        assert len(data) == lld.geometry.block_size

    def test_write_pads_short_data(self, lld):
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.write(block, b"x")
        assert lld.read(block)[1] == 0

    def test_write_oversized_rejected(self, lld):
        lst = lld.new_list()
        block = lld.new_block(lst)
        with pytest.raises(ValueError):
            lld.write(block, b"y" * (lld.geometry.block_size + 1))

    def test_overwrite_returns_latest(self, lld):
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.write(block, b"one")
        lld.write(block, b"two")
        assert lld.read(block).startswith(b"two")

    def test_read_unknown_block(self, lld):
        with pytest.raises(BadBlockError):
            lld.read(12345)

    def test_read_deleted_block(self, lld):
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.write(block, b"gone")
        lld.delete_block(block)
        with pytest.raises(BadBlockError):
            lld.read(block)

    def test_write_deleted_block(self, lld):
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.delete_block(block)
        with pytest.raises(BadBlockError):
            lld.write(block, b"zombie")

    def test_read_survives_flush(self, lld):
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.write(block, b"durable")
        lld.flush()
        assert lld.read(block).startswith(b"durable")

    def test_data_survives_many_segments(self, lld):
        """Writes spanning several segment rolls stay readable."""
        lst = lld.new_list()
        blocks = []
        previous = FIRST
        for index in range(64):
            block = lld.new_block(lst, predecessor=previous)
            lld.write(block, f"block-{index}".encode())
            blocks.append(block)
            previous = block
        lld.flush()
        for index, block in enumerate(blocks):
            assert lld.read(block).startswith(f"block-{index}".encode())


class TestDeletes:
    def test_delete_block_removes_from_list(self, lld):
        lst = lld.new_list()
        a = lld.new_block(lst)
        b = lld.new_block(lst, predecessor=a)
        c = lld.new_block(lst, predecessor=b)
        lld.delete_block(b)
        assert lld.list_blocks(lst) == [a, c]

    def test_delete_head_block(self, lld):
        lst = lld.new_list()
        a = lld.new_block(lst)
        b = lld.new_block(lst, predecessor=a)
        lld.delete_block(a)
        assert lld.list_blocks(lst) == [b]

    def test_delete_list_deletes_members(self, lld):
        lst = lld.new_list()
        a = lld.new_block(lst)
        b = lld.new_block(lst, predecessor=a)
        lld.delete_list(lst)
        with pytest.raises(BadListError):
            lld.list_blocks(lst)
        for block in (a, b):
            with pytest.raises(BadBlockError):
                lld.read(block)

    def test_delete_unknown_list(self, lld):
        with pytest.raises(BadListError):
            lld.delete_list(404)

    def test_double_delete_block(self, lld):
        lst = lld.new_list()
        a = lld.new_block(lst)
        lld.delete_block(a)
        with pytest.raises(BadBlockError):
            lld.delete_block(a)


class TestLifecycle:
    def test_dead_after_disk_crash(self):
        from repro.disk.faults import FaultInjector, FaultPlan, PowerCut
        from repro.disk.geometry import DiskGeometry
        from repro.disk.simdisk import SimulatedDisk
        from repro.lld.lld import LLD

        geo = DiskGeometry.small(64)
        cut = PowerCut(after_writes=0)
        disk = SimulatedDisk(
            geo, injector=FaultInjector(plan=FaultPlan(power_cut=cut))
        )
        lld = LLD(disk, config=LLDConfig(checkpoint_slot_segments=2))
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.write(block, b"x")
        with pytest.raises(DiskCrashedError):
            lld.flush()
        with pytest.raises(DiskCrashedError):
            lld.read(block)

    def test_stats_shape(self, lld):
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.write(block, b"s")
        lld.flush()
        stats = lld.stats()
        assert stats["ops"]["write"] == 1
        assert stats["segments_flushed"] == 1
        assert stats["disk"]["writes"] >= 1

    def test_rejects_bad_mode(self, disk):
        from repro.lld.lld import LLD

        with pytest.raises(ValueError):
            LLD(disk, config=LLDConfig(aru_mode="quantum"))
