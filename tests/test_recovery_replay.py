"""Direct unit tests for the recovery replay rules.

The black-box recovery tests cover whole-system behaviour; these pin
down the per-entry transition function — including the conflict
(return-False) branches a healthy log never exercises but a damaged
one might.  No disk is involved: :class:`ReplayRules` replays into
two dicts, so every case runs twice — on fresh dicts, as eager
recovery replays, and on the persistent dicts of live tables that
chain alternative records off the same ids, as an instant restore
replays.
"""

from types import SimpleNamespace

import pytest

from repro.ld.types import SYSTEM_ID_BASE
from repro.lld.checkpoint import (
    FLAG_HAS_ADDR,
    CheckpointData,
    pack_block_rows,
    pack_list_rows,
)
from repro.core.records import BlockVersion, ListVersion
from repro.core.tables import BlockNumberMap, ListTable
from repro.core.versions import VersionState
from repro.lld.recovery import (
    RecoveryReport,
    ReplayRules,
    _resolve_outcomes,
)
from repro.lld.summary import (
    KIND_ALLOC_BLOCK,
    KIND_COMMIT,
    KIND_DELETE_BLOCK,
    KIND_DELETE_LIST,
    KIND_LINK,
    KIND_NEW_LIST,
    KIND_WRITE,
)


def dicts():
    return ReplayRules({}, {}, set(), RecoveryReport(0))


def live_tables():
    """Rules whose dicts are live tables' persistent dicts, with
    alternative records chained off ids the cases replay."""
    blocks, lists = BlockNumberMap(), ListTable()
    blocks.push_alt(10, BlockVersion(10, VersionState.COMMITTED))
    lists.push_alt(1, ListVersion(1, VersionState.COMMITTED))
    return ReplayRules(blocks.persistent, lists.persistent, set(), RecoveryReport(0))


def apply(rules, kind, tag=0, ts=1, a=0, b=0, c=0, seg=5):
    return rules.apply((kind, tag, ts, a, b, c), seg)


@pytest.fixture
def state(request):
    """Rules over the requesting class's store, holding list 1 =
    [10, 11]."""
    rules = request.cls.make_rules()
    assert apply(rules, KIND_NEW_LIST, a=1)
    assert apply(rules, KIND_ALLOC_BLOCK, a=10, b=1)
    assert apply(rules, KIND_ALLOC_BLOCK, a=11, b=1)
    assert apply(rules, KIND_LINK, a=1, b=10, c=0)   # [10]
    assert apply(rules, KIND_LINK, a=1, b=11, c=10)  # [10, 11]
    return rules


def block(rules, block_id):
    return rules.blocks.get(block_id)


def lst(rules, list_id):
    return rules.lists.get(list_id)


class TestHappyPath:
    make_rules = staticmethod(dicts)

    def test_structure(self, state):
        assert lst(state, 1).first == 10
        assert lst(state, 1).last == 11
        assert lst(state, 1).count == 2
        assert block(state, 10).successor == 11
        assert block(state, 10).list_id == 1

    def test_write_sets_address(self, state):
        assert apply(state, KIND_WRITE, a=10, b=7, seg=9, ts=4)
        address = block(state, 10).address
        assert (address.segment, address.slot) == (9, 7)
        assert block(state, 10).timestamp == 4

    def test_delete_block_unlinks(self, state):
        assert apply(state, KIND_DELETE_BLOCK, a=10)
        assert block(state, 10) is None
        assert lst(state, 1).first == 11
        assert lst(state, 1).count == 1

    def test_delete_last_block_updates_last(self, state):
        assert apply(state, KIND_DELETE_BLOCK, a=11)
        assert lst(state, 1).last == 10
        assert block(state, 10).successor is None

    def test_delete_list_removes_members(self, state):
        assert apply(state, KIND_DELETE_LIST, a=1)
        assert lst(state, 1) is None
        assert block(state, 10) is None
        assert block(state, 11) is None

    def test_link_first_into_populated_list(self, state):
        assert apply(state, KIND_ALLOC_BLOCK, a=12, b=1)
        assert apply(state, KIND_LINK, a=1, b=12, c=0)
        assert lst(state, 1).first == 12
        assert block(state, 12).successor == 10

    def test_commit_is_stateless(self, state):
        before = sorted(bid for bid, _rec in state.blocks.items())
        assert apply(state, KIND_COMMIT, tag=3, a=5)
        assert sorted(bid for bid, _rec in state.blocks.items()) == before

    def test_max_ids_tracked(self):
        """The id counters come from the outcome pass over the log,
        never from replay; forced system-range ids do not move them."""
        log = SimpleNamespace(
            segment_no=9,
            entry_tuples=[
                (KIND_NEW_LIST, 0, 1, 1),
                (KIND_ALLOC_BLOCK, 0, 1, 10, 1),
                (KIND_ALLOC_BLOCK, 0, 1, 11, 1),
                (KIND_ALLOC_BLOCK, 0, 1, SYSTEM_ID_BASE + 5, 1),
                (KIND_WRITE, 4, 1, 10, 0, 0x1234),
                (KIND_COMMIT, 4, 1, 1),
            ],
        )
        outcomes = _resolve_outcomes(
            CheckpointData.empty(), [log], None, RecoveryReport(0)
        )
        assert outcomes.next_block_id == 12
        assert outcomes.next_list_id == 2
        assert outcomes.next_aru_id == 5
        assert outcomes.committed == {4}


class TestConflictBranches:
    make_rules = staticmethod(dicts)

    def test_write_to_unknown_block(self, state):
        assert not apply(state, KIND_WRITE, a=99, b=0)

    def test_delete_unknown_block(self, state):
        assert not apply(state, KIND_DELETE_BLOCK, a=99)

    def test_delete_unknown_list(self, state):
        assert not apply(state, KIND_DELETE_LIST, a=99)

    def test_link_into_unknown_list(self, state):
        assert not apply(state, KIND_LINK, a=99, b=10, c=0)

    def test_link_unknown_block(self, state):
        assert not apply(state, KIND_LINK, a=1, b=99, c=0)

    def test_link_already_member(self, state):
        assert not apply(state, KIND_LINK, a=1, b=10, c=0)

    def test_link_after_foreign_predecessor(self, state):
        assert apply(state, KIND_NEW_LIST, a=2)
        assert apply(state, KIND_ALLOC_BLOCK, a=20, b=2)
        # Predecessor 10 belongs to list 1, not list 2.
        assert not apply(state, KIND_LINK, a=2, b=20, c=10)


class TestSweep:
    make_rules = staticmethod(dicts)

    def test_orphans_freed(self, state):
        assert apply(state, KIND_ALLOC_BLOCK, a=30, b=1)
        orphans = state.sweep_orphans()
        assert orphans == [30]
        assert block(state, 30) is None
        assert block(state, 10) is not None  # members untouched

    def test_sweep_on_consistent_state_is_noop(self, state):
        assert state.sweep_orphans() == []

    def test_sweep_spares_ids_at_or_above_the_bound(self, state):
        """An instant restore sweeps only ids below the block counter
        at open; anything newer belongs to live traffic."""
        assert apply(state, KIND_ALLOC_BLOCK, a=30, b=1)
        assert apply(state, KIND_ALLOC_BLOCK, a=31, b=1)
        assert state.sweep_orphans(below=31) == [30]
        assert block(state, 31) is not None

    def test_checkpoint_loading(self):
        ckpt = CheckpointData(
            ckpt_seq=1,
            last_log_seq=5,
            next_block_id=50,
            next_list_id=9,
            next_aru_id=3,
            block_rows=pack_block_rows([(4, 0, 2, 7, 1, 3, FLAG_HAS_ADDR)]),
            list_rows=pack_list_rows([(2, 4, 4, 1, 7)]),
            segments={},
        )
        state = self.make_rules()
        state.load_checkpoint(ckpt)
        address = block(state, 4).address
        assert (address.segment, address.slot) == (1, 3)
        assert block(state, 4).successor is None
        assert lst(state, 2).first == 4
        # Checkpointed members survive the sweep.
        assert state.sweep_orphans() == []


# The same cases, with the records in live tables' dicts.


class TestHappyPathLiveTables(TestHappyPath):
    make_rules = staticmethod(live_tables)


class TestConflictBranchesLiveTables(TestConflictBranches):
    make_rules = staticmethod(live_tables)


class TestSweepLiveTables(TestSweep):
    make_rules = staticmethod(live_tables)
