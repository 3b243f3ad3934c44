"""Unit tests for the block-number-map and list-table."""

import random

import pytest

from repro.core.records import BlockVersion, ListVersion
from repro.core.versions import VersionState
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.ld.types import SYSTEM_ID_BASE, BlockId, ListId, PhysAddr
from repro.core.tables import _DENSE_SLACK, BlockNumberMap, ListTable
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import recover
from repro.lld.recovery_reference import reference_recover

from tests.oracle import state_fingerprint


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


def _same_table(bulk, single, probe_ids):
    assert [ident for ident, _root in bulk.items()] == [
        ident for ident, _root in single.items()
    ]
    assert len(bulk) == len(single)
    assert [(i, id(r)) for i, r in bulk.persistent_items()] == [
        (i, id(r)) for i, r in single.persistent_items()
    ]
    for ident in probe_ids:
        assert (ident in bulk) == (ident in single)


class TestInstallAll:
    """The bulk install gives the table one ``install_persistent`` per
    record, in the same order, would."""

    FAR = 50 + _DENSE_SLACK + 10  # past the dense growth window

    def idents(self):
        dense = list(range(1, 51)) + [300, 1000]
        sparse = [self.FAR, SYSTEM_ID_BASE, SYSTEM_ID_BASE + 3]
        shuffled = dense + sparse
        random.Random(7).shuffle(shuffled)
        return [dense + sparse, sorted(dense + sparse, reverse=True), shuffled]

    @pytest.mark.parametrize(
        "table_type, make",
        [
            (BlockNumberMap, lambda i: BlockVersion(i, VersionState.PERSISTENT)),
            (ListTable, lambda i: ListVersion(i, VersionState.PERSISTENT)),
        ],
    )
    def test_same_table_as_one_install_per_record(self, table_type, make):
        for order in self.idents():
            # Roots with alternatives only; FAR starts out sparse and
            # stays there once the dense range grows to reach it.
            for preset in ([], [3, self.FAR, SYSTEM_ID_BASE + 3]):
                records = [make(ident) for ident in order]
                bulk, single = table_type(), table_type()
                for table in (bulk, single):
                    for ident in preset:
                        table.root(ident, create=True)
                bulk.install_all(records)
                for record in records:
                    single.install_persistent(record)
                probe = order + preset + [0, 51, self.FAR + 1]
                _same_table(bulk, single, probe)

    def test_outliers_land_in_the_sparse_dict(self):
        table = BlockNumberMap()
        ids = [1, 2, self.FAR, SYSTEM_ID_BASE]
        table.install_all(
            BlockVersion(i, VersionState.PERSISTENT) for i in ids
        )
        assert set(table._sparse) == {self.FAR, SYSTEM_ID_BASE}
        assert len(table._dense) == 3
        assert [i for i, _r in table.persistent_items()] == ids

    def test_rejects_non_persistent(self):
        with pytest.raises(ValueError):
            ListTable().install_all([ListVersion(ListId(1), VersionState.SHADOW)])


class TestRecoveryOfSparseIds:
    """Eager, instant and reference recovery install the same tables
    when ids sit past the dense window and in the system range."""

    def test_fingerprints_agree(self):
        config = LLDConfig(checkpoint_slot_segments=2)
        disk = SimulatedDisk(DiskGeometry.small(num_segments=64))
        ld = LLD(disk, config=config)
        lists = [ld.new_list(), ld.new_list(list_id=SYSTEM_ID_BASE + 1)]
        forced = iter(range(100))
        for round_no in range(2):
            for lst in lists:
                for base in (None, 50 + _DENSE_SLACK, SYSTEM_ID_BASE, None):
                    block_id = (
                        None if base is None else base + 10_000 * next(forced)
                    )
                    block = ld.new_block(lst, block_id=block_id)
                    ld.write(block, bytes([round_no + 1]) * 3000)
            ld.flush()
            if round_no == 0:
                ld.write_checkpoint()
        prints = []
        for recover_fn in (
            lambda d: reference_recover(d, config=config),
            lambda d: recover(d, mode="eager", config=config),
            lambda d: recover(d, mode="instant", config=config),
        ):
            disk = disk.power_cycle()
            volume, report = recover_fn(disk)
            volume.complete_restore()
            prints.append(state_fingerprint(volume, report))
            sparse = volume.bmap._sparse
            assert min(sparse) < SYSTEM_ID_BASE < max(sparse)
            assert SYSTEM_ID_BASE + 1 in volume.ltable._sparse
            disk = volume.disk
        assert prints[0] == prints[1] == prints[2]
