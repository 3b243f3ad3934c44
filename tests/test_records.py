"""Unit tests for alternative records and the perpendicular chains."""

import pytest

from repro.core.records import (
    BlockVersion,
    ListVersion,
    StateChain,
    find_alt,
    iter_chain,
    newest_shadow,
)
from repro.core.tables import BlockNumberMap
from repro.core.versions import VersionState
from repro.disk.clock import CostMeter, CostModel, SimClock
from repro.ld.types import ARU_NONE, ARUId, BlockId, ListId, PhysAddr


def _shadow(block_id, aru, ts=0):
    return BlockVersion(
        BlockId(block_id), VersionState.SHADOW, aru_id=ARUId(aru), timestamp=ts
    )


def _committed(block_id, ts=0):
    return BlockVersion(BlockId(block_id), VersionState.COMMITTED, timestamp=ts)


class TestChainRoot:
    """One identifier's entry: the persistent record in the table's
    ``persistent`` dict, the same-identifier chain headed in ``alts``."""

    def test_empty(self):
        table = BlockNumberMap()
        assert BlockId(1) not in table.ids()
        assert find_alt(table.alts.get(BlockId(1)), VersionState.COMMITTED, ARU_NONE) is None

    def test_push_and_find_committed(self):
        table = BlockNumberMap()
        version = _committed(1)
        table.push_alt(BlockId(1), version)
        assert find_alt(table.alts[1], VersionState.COMMITTED, ARU_NONE) is version
        assert BlockId(1) in table.ids()

    def test_find_shadow_by_aru(self):
        table = BlockNumberMap()
        a = _shadow(1, aru=1)
        b = _shadow(1, aru=2)
        table.push_alt(1, a)
        table.push_alt(1, b)
        head = table.alts[1]
        assert find_alt(head, VersionState.SHADOW, ARUId(1)) is a
        assert find_alt(head, VersionState.SHADOW, ARUId(2)) is b
        assert find_alt(head, VersionState.SHADOW, ARUId(3)) is None

    def test_n_plus_2_versions(self):
        """Section 3.3: n active ARUs -> up to n+2 versions coexist."""
        table = BlockNumberMap()
        table.install_persistent(BlockVersion(BlockId(1), VersionState.PERSISTENT))
        table.push_alt(1, _committed(1))
        for aru in range(1, 6):
            table.push_alt(1, _shadow(1, aru=aru))
        assert len(list(iter_chain(table.alts[1]))) == 6  # 5 shadows + 1 committed
        assert 1 in table.persistent  # + persistent = n + 2

    def test_remove_alt(self):
        table = BlockNumberMap()
        a, b, c = _shadow(1, 1), _committed(1), _shadow(1, 2)
        for version in (a, b, c):
            table.push_alt(1, version)
        table.remove_alt(1, b)
        assert list(iter_chain(table.alts[1])) == [c, a]
        table.remove_alt(1, c)
        table.remove_alt(1, a)
        assert 1 not in table.ids()

    def test_remove_missing_raises(self):
        table = BlockNumberMap()
        with pytest.raises(ValueError):
            table.remove_alt(1, _committed(1))

    def test_newest_shadow_by_timestamp(self):
        old = _shadow(1, aru=1, ts=5)
        new = _shadow(1, aru=2, ts=9)
        table = BlockNumberMap()
        table.push_alt(1, new)
        table.push_alt(1, old)
        assert newest_shadow(table.alts[1]) is new

    def test_find_charges_chain_hops(self):
        meter = CostMeter(SimClock(), CostModel(chain_hop_us=1.0))
        table = BlockNumberMap()
        for aru in range(1, 4):
            table.push_alt(1, _shadow(1, aru=aru))
        find_alt(table.alts[1], VersionState.COMMITTED, ARU_NONE, meter)
        assert meter.counters["chain_hop_us"] == 3


class TestStateChain:
    def test_push_and_iterate(self):
        chain = StateChain()
        versions = [_committed(index) for index in range(3)]
        for version in versions:
            chain.push(version)
        assert list(chain) == list(reversed(versions))
        assert len(chain) == 3

    def test_drain_empties(self):
        chain = StateChain()
        for index in range(4):
            chain.push(_committed(index))
        drained = list(chain.drain())
        assert len(drained) == 4
        assert len(chain) == 0
        assert all(v.next_same_state is None for v in drained)

    def test_remove_middle(self):
        chain = StateChain()
        a, b, c = _committed(1), _committed(2), _committed(3)
        for version in (a, b, c):
            chain.push(version)
        chain.remove(b)
        assert list(chain) == [c, a]
        assert len(chain) == 2

    def test_remove_while_iterating(self):
        chain = StateChain()
        versions = [_committed(index) for index in range(5)]
        for version in versions:
            chain.push(version)
        for version in chain:
            chain.remove(version)
        assert len(chain) == 0

    def test_remove_missing_raises(self):
        chain = StateChain()
        with pytest.raises(ValueError):
            chain.remove(_committed(9))


class TestVersionRecords:
    def test_block_copy_from(self):
        src = _committed(1)
        src.allocated = True
        src.address = PhysAddr(3, 4)
        src.successor = BlockId(9)
        src.list_id = ListId(2)
        src.timestamp = 77
        dst = _shadow(1, aru=1)
        dst.copy_from(src)
        assert dst.address == PhysAddr(3, 4)
        assert dst.successor == BlockId(9)
        assert dst.list_id == ListId(2)
        assert dst.timestamp == 77
        assert dst.state is VersionState.SHADOW  # state not copied

    def test_list_copy_from(self):
        src = ListVersion(ListId(1), VersionState.COMMITTED)
        src.first = BlockId(5)
        src.last = BlockId(7)
        src.count = 3
        dst = ListVersion(ListId(1), VersionState.SHADOW, aru_id=ARUId(2))
        dst.copy_from(src)
        assert (dst.first, dst.last, dst.count) == (BlockId(5), BlockId(7), 3)
        assert dst.aru_id == ARUId(2)
