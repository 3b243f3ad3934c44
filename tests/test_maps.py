"""Tests for the block-number-map and list-table.

Each table is two dicts, ``persistent`` and ``alts``; the contract the
rest of the system relies on is that any identifier — small, far apart
or in the system range, arriving in any order — is found again, that a
table holds no empty entry, and that checkpoint rows come out in
ascending identifier order through every recovery mode.  The state
machine at the end checks the tables against a plain-dict model of the
committed state; ``python -m tests.test_maps N`` runs it with N
examples.
"""

import random
import sys

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.records import BlockVersion, ListVersion
from repro.core.tables import BlockNumberMap, ListTable
from repro.core.versions import VersionState
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.ld.types import SYSTEM_ID_BASE, BlockId, ListId, PhysAddr
from repro.lld.checkpoint import CheckpointData, pack_block_record, pack_list_record
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import recover
from repro.lld.recovery_reference import reference_recover
from repro.lld.verify import verify_lld
from repro.shard import ArrayConfig, build_sharded
from repro.shard.sharded import shard_of

from tests.oracle import recoveries_agree, state_fingerprint

#: An ordinary-range identifier far past anything the counter hands
#: out in these tests.
FAR = 5000


def _alt(ident, table_type=BlockNumberMap):
    if table_type is BlockNumberMap:
        return BlockVersion(BlockId(ident), VersionState.COMMITTED)
    return ListVersion(ListId(ident), VersionState.COMMITTED)


class TestBlockNumberMap:
    def test_missing_root(self):
        bmap = BlockNumberMap()
        assert BlockId(5) not in bmap.ids()
        assert bmap.persistent.get(BlockId(5)) is None
        assert bmap.alts.get(BlockId(5)) is None

    def test_create_root(self):
        bmap = BlockNumberMap()
        record = _alt(5)
        bmap.push_alt(BlockId(5), record)
        assert bmap.alts[BlockId(5)] is record
        assert BlockId(5) in bmap.ids()
        assert len(bmap.ids()) == 1

    def test_install_persistent(self):
        bmap = BlockNumberMap()
        record = BlockVersion(
            BlockId(7), VersionState.PERSISTENT, address=PhysAddr(1, 2)
        )
        bmap.install_persistent(record)
        assert bmap.persistent[BlockId(7)] is record

    def test_install_rejects_non_persistent(self):
        bmap = BlockNumberMap()
        with pytest.raises(ValueError):
            bmap.install_persistent(
                BlockVersion(BlockId(1), VersionState.COMMITTED)
            )

    def test_persistent_blocks_iteration(self):
        bmap = BlockNumberMap()
        bmap.install_persistent(BlockVersion(BlockId(1), VersionState.PERSISTENT))
        bmap.push_alt(BlockId(2), _alt(2))  # alternatives only
        assert list(bmap.persistent) == [BlockId(1)]
        assert bmap.ids() == [BlockId(1), BlockId(2)]

    def test_drop_if_empty(self):
        bmap = BlockNumberMap()
        record = _alt(3)
        bmap.push_alt(BlockId(3), record)
        bmap.remove_alt(BlockId(3), record)
        assert BlockId(3) not in bmap.ids()
        assert bmap.alts == {}
        assert record.next_same_id is None

    def test_drop_keeps_nonempty(self):
        bmap = BlockNumberMap()
        bmap.install_persistent(BlockVersion(BlockId(3), VersionState.PERSISTENT))
        older, newer = _alt(3), _alt(3)
        bmap.push_alt(BlockId(3), older)
        bmap.push_alt(BlockId(3), newer)
        bmap.remove_alt(BlockId(3), newer)
        assert bmap.alts[BlockId(3)] is older
        bmap.remove_alt(BlockId(3), older)
        assert BlockId(3) in bmap.ids() and BlockId(3) not in bmap.alts

    def test_remove_missing_raises(self):
        bmap = BlockNumberMap()
        with pytest.raises(ValueError):
            bmap.remove_alt(BlockId(9), _alt(9))
        bmap.push_alt(BlockId(9), _alt(9))
        with pytest.raises(ValueError):
            bmap.remove_alt(BlockId(9), _alt(9))
        assert len(bmap.ids()) == 1


class TestListTable:
    def test_roundtrip(self):
        table = ListTable()
        record = ListVersion(
            ListId(4), VersionState.PERSISTENT, first=BlockId(1)
        )
        table.install_persistent(record)
        assert table.persistent[ListId(4)] is record
        assert table.ids() == [ListId(4)]

    def test_install_rejects_non_persistent(self):
        with pytest.raises(ValueError):
            ListTable().install_persistent(
                ListVersion(ListId(1), VersionState.SHADOW)
            )

    def test_drop_if_empty(self):
        table = ListTable()
        record = _alt(2, ListTable)
        table.push_alt(ListId(2), record)
        table.remove_alt(ListId(2), record)
        assert ListId(2) not in table.ids()
        assert len(table.ids()) == 0


def _same_table(bulk, single, probe_ids):
    assert bulk.ids() == single.ids()
    assert len(bulk.ids()) == len(single.ids())
    assert sorted((i, id(r)) for i, r in bulk.persistent.items()) == sorted(
        (i, id(r)) for i, r in single.persistent.items()
    )
    for ident in probe_ids:
        assert (ident in bulk.ids()) == (ident in single.ids())


class TestInstallAll:
    """Handing recovery's dict over (``adopt``) gives the table one
    ``install_persistent`` per record would."""

    def idents(self):
        near = list(range(1, 51)) + [300, 1000]
        far = [FAR, SYSTEM_ID_BASE, SYSTEM_ID_BASE + 3]
        shuffled = near + far
        random.Random(7).shuffle(shuffled)
        return [near + far, sorted(near + far, reverse=True), shuffled]

    @pytest.mark.parametrize(
        "table_type, make",
        [
            (BlockNumberMap, lambda i: BlockVersion(i, VersionState.PERSISTENT)),
            (ListTable, lambda i: ListVersion(i, VersionState.PERSISTENT)),
        ],
    )
    def test_same_table_as_one_install_per_record(self, table_type, make):
        for order in self.idents():
            # Identifiers with alternatives only keep them.
            for preset in ([], [3, FAR, SYSTEM_ID_BASE + 3]):
                records = [make(ident) for ident in order]
                bulk, single = table_type(), table_type()
                for table in (bulk, single):
                    for ident in preset:
                        table.push_alt(ident, _alt(ident, table_type))
                bulk.adopt({table._id_of(r): r for r in records})
                for record in records:
                    single.install_persistent(record)
                probe = order + preset + [0, 51, FAR + 1]
                _same_table(bulk, single, probe)
                assert bulk.changed is None

    def test_far_and_system_ids_keep_their_keys(self):
        table = BlockNumberMap()
        ids = [SYSTEM_ID_BASE, 2, FAR, 1]
        records = {i: BlockVersion(i, VersionState.PERSISTENT) for i in ids}
        table.adopt(records)
        assert table.persistent is records
        assert table.ids() == [1, 2, FAR, SYSTEM_ID_BASE]
        assert all(table.persistent[i].block_id == i for i in ids)

    def test_rejects_non_persistent(self):
        with pytest.raises(ValueError):
            ListTable().adopt({1: ListVersion(ListId(1), VersionState.SHADOW)})


def _full_image(volume):
    """The volume's checkpointable state as one base image, packed
    from its tables: what loading its checkpoint chain must give."""
    return CheckpointData(
        ckpt_seq=volume._ckpt_seq,
        last_log_seq=volume._last_written_seq,
        next_block_id=volume._next_block_id,
        next_list_id=volume._next_list_id,
        next_aru_id=volume.arus.next_id,
        block_rows=b"".join(
            pack_block_record(ident, record)
            for ident, record in sorted(volume.bmap.persistent.items())
        ),
        list_rows=b"".join(
            pack_list_record(ident, record)
            for ident, record in sorted(volume.ltable.persistent.items())
        ),
        segments=volume.usage.snapshot(),
        decided_xids=sorted(volume._decided_xids),
    )


def _assert_rows_ascending(volume):
    loaded = volume.checkpoints.load()
    block_ids = [row[0] for row in loaded.blocks]
    list_ids = [row[0] for row in loaded.lists]
    assert block_ids == sorted(block_ids) == sorted(volume.bmap.persistent)
    assert list_ids == sorted(list_ids) == sorted(volume.ltable.persistent)


class TestRecoveryOfSparseIds:
    """Eager, instant and reference recovery rebuild the same tables
    when ids lie far apart and in the system range, and every
    checkpoint lists them ascending."""

    def test_fingerprints_agree(self):
        config = LLDConfig(checkpoint_slot_segments=2)
        disk = SimulatedDisk(DiskGeometry.small(num_segments=64))
        ld = LLD(disk, config=config)
        lists = [ld.new_list(), ld.new_list(list_id=SYSTEM_ID_BASE + 1)]
        forced = iter(range(100))
        for round_no in range(2):
            for lst in lists:
                for base in (None, FAR, SYSTEM_ID_BASE, None):
                    block_id = (
                        None if base is None else base + 10_000 * next(forced)
                    )
                    block = ld.new_block(lst, block_id=block_id)
                    ld.write(block, bytes([round_no + 1]) * 3000)
            ld.flush()
            if round_no == 0:
                ld.write_checkpoint()
                _assert_rows_ascending(ld)
        prints = []
        for recover_fn in (
            lambda d: reference_recover(d, config=config),
            lambda d: recover(d, mode="eager", config=config),
            lambda d: recover(d, mode="instant", config=config),
        ):
            # A private copy of the platter: the checkpoint below
            # must not reach the next recovery.
            volume, report = recover_fn(disk.snapshot().power_cycle())
            volume.complete_restore()
            prints.append(state_fingerprint(volume, report))
            ids = volume.bmap.ids()
            assert min(ids) < FAR < SYSTEM_ID_BASE < max(ids)
            assert SYSTEM_ID_BASE + 1 in volume.ltable.persistent
            assert verify_lld(volume) == []
            volume.write_checkpoint()
            _assert_rows_ascending(volume)
        assert prints[0] == prints[1] == prints[2]


class TestOutOfOrderIds:
    """Forced identifiers arriving out of order, as shard repair
    re-admits them list by list, stay visible."""

    def test_single_volume_forced_ids_out_of_order(self):
        ld = LLD(SimulatedDisk(DiskGeometry.small(num_segments=64)))
        lst = ld.new_list()
        ld.new_block(lst, block_id=BlockId(3000))
        ld.write(BlockId(3000), b"kept")
        for forced in (1000, 2000, 2900):
            ld.new_block(lst, block_id=BlockId(forced))
        assert ld.new_block(lst) == 3001
        assert ld.read(BlockId(3000)).rstrip(b"\0") == b"kept"
        assert verify_lld(ld) == []

    def test_repaired_shard_keeps_every_block(self):
        arr = build_sharded(
            2,
            DiskGeometry.small(num_segments=256),
            array_config=ArrayConfig(replication_factor=2),
        )
        homed = []
        while len(homed) < 2:
            lst = arr.new_list()
            if shard_of(int(lst), arr.n) == 0:
                homed.append(lst)
        contents = {}
        for _ in range(1100):
            contents[arr.new_block(homed[1])] = b""
        for index in range(20):
            block = arr.new_block(homed[0])
            contents[block] = bytes([index + 1]) * 100
            arr.write(block, contents[block])
        arr.flush()
        arr.lose_shard(0)
        arr.repair(0)
        arr.flush()
        arr.new_block(homed[0])
        for block, data in contents.items():
            assert arr.read(block).rstrip(b"\0") == data, block
        member = arr.shards[0]
        assert verify_lld(member) == []
        recoveries_agree(member.disk, member.config)


# ----------------------------------------------------------------------
# The state machine: the tables against a plain-dict model
# ----------------------------------------------------------------------

CONFIG = LLDConfig(checkpoint_slot_segments=2)

#: Forced identifiers: ordinary ids spread well past the counter, and
#: system-range ones.
FORCED = st.one_of(
    st.none(),
    st.integers(1, 4000),
    st.integers(SYSTEM_ID_BASE, SYSTEM_ID_BASE + 4000),
)


class TableMachine(RuleBasedStateMachine):
    """Allocate (forced or not), delete, commit and abort ARUs, flush,
    checkpoint, and restart through eager or instant recovery; after
    every step each committed block reads back and each list holds
    what the model says, in order."""

    @initialize()
    def format(self):
        self.disk = SimulatedDisk(DiskGeometry.small(num_segments=96))
        self.ld = LLD(self.disk, config=CONFIG)
        #: list id -> its committed members in order.
        self.lists = {self.ld.new_list(): [], self.ld.new_list(): []}
        #: block id -> the bytes its committed version holds.
        self.blocks = {}
        #: Blocks an aborted ARU left allocated outside any list.
        self.orphans = set()
        self.stamp = 0

    def free(self, block_id):
        """Whether ``block_id`` may be forced now."""
        return block_id is None or (
            block_id not in self.blocks and block_id not in self.orphans
        )

    def data(self):
        self.stamp += 1
        return self.stamp.to_bytes(4, "little") * 8

    def allocate(self, lst, block_id, aru=None):
        block = self.ld.new_block(lst, aru=aru, block_id=block_id)
        data = self.data()
        self.ld.write(block, data, aru=aru)
        return block, data

    @rule(pick=st.integers(0, 1), block_id=FORCED)
    def new_block(self, pick, block_id):
        if not self.free(block_id):
            return
        lst = sorted(self.lists)[pick]
        block, data = self.allocate(lst, block_id)
        self.blocks[block] = data
        self.lists[lst].insert(0, block)

    @precondition(lambda self: self.blocks)
    @rule(data=st.data())
    def delete_block(self, data):
        block = data.draw(st.sampled_from(sorted(self.blocks)))
        self.ld.delete_block(block)
        del self.blocks[block]
        for members in self.lists.values():
            if block in members:
                members.remove(block)

    @rule(
        pick=st.integers(0, 1),
        forced=st.lists(FORCED, min_size=1, max_size=3),
        delete=st.booleans(),
        commit=st.booleans(),
    )
    def aru(self, pick, forced, delete, commit):
        lst = sorted(self.lists)[pick]
        aru = self.ld.begin_aru()
        made = {}
        for block_id in forced:
            if self.free(block_id) and block_id not in made:
                block, data = self.allocate(lst, block_id, aru=aru)
                made[block] = data
        victim = None
        if delete and self.lists[lst]:
            victim = self.lists[lst][0]
            self.ld.delete_block(victim, aru=aru)
        if not commit:
            self.ld.abort_aru(aru)
            self.orphans.update(made)
            return
        self.ld.end_aru(aru)
        if victim is not None:
            del self.blocks[victim]
            self.lists[lst].remove(victim)
        self.blocks.update(made)
        self.lists[lst][:0] = list(made)[::-1]

    @rule()
    def flush(self):
        self.ld.flush()

    @rule()
    def checkpoint(self):
        self.ld.write_checkpoint()
        _assert_rows_ascending(self.ld)
        # The loader against an image packed from the tables: rows,
        # deletions, roster, counters and decided xids, whether the
        # checkpoint was a base or a delta of one.
        assert self.ld.checkpoints.load() == _full_image(self.ld)

    @rule(mode=st.sampled_from(["eager", "instant"]))
    def restart(self, mode):
        """Flush, pull the plug, recover: the model holds as it was."""
        self.ld.flush()
        self.ld, _report = recover(self.disk.power_cycle(), mode=mode, config=CONFIG)
        self.disk = self.ld.disk

    @invariant()
    def matches_the_model(self):
        ld = self.ld
        size = ld.geometry.block_size
        for block, data in self.blocks.items():
            assert ld.read(block) == data.ljust(size, b"\0"), block
        for lst, members in self.lists.items():
            assert ld.list_blocks(lst) == members, lst
        assert verify_lld(ld) == []


MACHINE_SETTINGS = settings(
    max_examples=20,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestTableMachine(TableMachine.TestCase):
    settings = MACHINE_SETTINGS


if __name__ == "__main__":
    examples = int(sys.argv[1]) if len(sys.argv) > 1 else 400
    run_state_machine_as_test(
        TableMachine, settings=settings(MACHINE_SETTINGS, max_examples=examples)
    )
    print(f"table state machine: {examples} examples ok")
