"""Unit tests for the block-number-map and list-table."""

import pytest

from repro.core.records import BlockVersion, ListVersion
from repro.core.versions import VersionState
from repro.ld.types import BlockId, ListId, PhysAddr
from repro.core.tables import BlockNumberMap, ListTable


class TestBlockNumberMap:
    def test_missing_root(self):
        assert BlockNumberMap().root(BlockId(5)) is None

    def test_create_root(self):
        bmap = BlockNumberMap()
        root = bmap.root(BlockId(5), create=True)
        assert root is not None
        assert bmap.root(BlockId(5)) is root
        assert BlockId(5) in bmap
        assert len(bmap) == 1

    def test_install_persistent(self):
        bmap = BlockNumberMap()
        record = BlockVersion(
            BlockId(7), VersionState.PERSISTENT, address=PhysAddr(1, 2)
        )
        bmap.install_persistent(record)
        assert bmap.root(BlockId(7)).persistent is record

    def test_install_rejects_non_persistent(self):
        bmap = BlockNumberMap()
        with pytest.raises(ValueError):
            bmap.install_persistent(
                BlockVersion(BlockId(1), VersionState.COMMITTED)
            )

    def test_persistent_blocks_iteration(self):
        bmap = BlockNumberMap()
        bmap.install_persistent(BlockVersion(BlockId(1), VersionState.PERSISTENT))
        bmap.root(BlockId(2), create=True)  # alt-only root, no persistent
        ids = [block_id for block_id, _rec in bmap.persistent_blocks()]
        assert ids == [BlockId(1)]

    def test_drop_if_empty(self):
        bmap = BlockNumberMap()
        bmap.root(BlockId(3), create=True)
        bmap.drop_if_empty(BlockId(3))
        assert BlockId(3) not in bmap

    def test_drop_keeps_nonempty(self):
        bmap = BlockNumberMap()
        bmap.install_persistent(BlockVersion(BlockId(3), VersionState.PERSISTENT))
        bmap.drop_if_empty(BlockId(3))
        assert BlockId(3) in bmap

    def test_drop_missing_is_noop(self):
        BlockNumberMap().drop_if_empty(BlockId(9))


class TestListTable:
    def test_roundtrip(self):
        table = ListTable()
        record = ListVersion(
            ListId(4), VersionState.PERSISTENT, first=BlockId(1)
        )
        table.install_persistent(record)
        assert table.root(ListId(4)).persistent is record
        assert [lid for lid, _r in table.persistent_lists()] == [ListId(4)]

    def test_install_rejects_non_persistent(self):
        with pytest.raises(ValueError):
            ListTable().install_persistent(
                ListVersion(ListId(1), VersionState.SHADOW)
            )

    def test_drop_if_empty(self):
        table = ListTable()
        table.root(ListId(2), create=True)
        table.drop_if_empty(ListId(2))
        assert ListId(2) not in table
        assert len(table) == 0
