"""Unit tests for the block read cache: its segmented-LRU policy on
its own, then the standing a block keeps across rewrites in a volume."""

import pytest

from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.ld.types import PhysAddr
from repro.lld.cache import BlockCache
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD


class TestBlockCache:
    def test_miss_then_hit(self):
        cache = BlockCache(4)
        addr = PhysAddr(1, 2)
        assert cache.get(addr) is None
        cache.put(addr, b"data")
        assert cache.get(addr) == b"data"
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_eviction(self):
        cache = BlockCache(2)
        a, b, c = PhysAddr(0, 0), PhysAddr(0, 1), PhysAddr(0, 2)
        cache.put(a, b"a")
        cache.put(b, b"b")
        cache.get(a)  # refresh a
        cache.put(c, b"c")  # evicts b
        assert cache.get(b) is None
        assert cache.get(a) == b"a"
        assert cache.get(c) == b"c"

    def test_put_refreshes(self):
        cache = BlockCache(2)
        a, b, c = PhysAddr(0, 0), PhysAddr(0, 1), PhysAddr(0, 2)
        cache.put(a, b"a1")
        cache.put(b, b"b")
        cache.put(a, b"a2")  # refresh + replace
        cache.put(c, b"c")  # evicts b
        assert cache.get(a) == b"a2"
        assert cache.get(b) is None

    def test_invalidate_segment(self):
        cache = BlockCache(8)
        cache.put(PhysAddr(1, 0), b"x")
        cache.put(PhysAddr(1, 1), b"y")
        cache.put(PhysAddr(2, 0), b"z")
        assert cache.invalidate_segment(1) == 2
        assert cache.get(PhysAddr(1, 0)) is None
        assert cache.get(PhysAddr(2, 0)) == b"z"

    def test_invalidate_segment_drops_exactly_that_segment(self):
        cache = BlockCache(64)
        for segment in (3, 4, 5):
            for slot in range(6):
                cache.put(PhysAddr(segment, slot), bytes([segment, slot]))
        cache.get(PhysAddr(4, 2))
        assert cache.invalidate(PhysAddr(4, 5)) is True
        assert cache.invalidate_segment(4) == 5
        assert cache.invalidate_segment(4) == 0
        assert len(cache) == 12
        for segment in (3, 5):
            for slot in range(6):
                assert cache.get(PhysAddr(segment, slot)) == bytes(
                    [segment, slot]
                )
        assert all(cache.get(PhysAddr(4, slot)) is None for slot in range(6))
        # The address is its own key: a fresh, equal address finds it.
        cache.put(PhysAddr(4, 1), b"again")
        assert cache.get(PhysAddr(4, 1)) == b"again"
        assert cache.invalidate_segment(4) == 1

    def test_invalidate_all(self):
        cache = BlockCache(8)
        cache.put(PhysAddr(1, 0), b"x")
        cache.invalidate_all()
        assert len(cache) == 0

    def test_zero_capacity_never_stores(self):
        cache = BlockCache(0)
        cache.put(PhysAddr(0, 0), b"x")
        assert cache.get(PhysAddr(0, 0)) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            BlockCache(-1)

    def test_hit_rate(self):
        cache = BlockCache(4)
        addr = PhysAddr(0, 0)
        cache.put(addr, b"x")
        cache.get(addr)
        cache.get(PhysAddr(9, 9))
        assert cache.hit_rate == pytest.approx(0.5)

    def test_hit_rate_empty(self):
        assert BlockCache(4).hit_rate == 0.0

    def test_capacity_bound_holds(self):
        cache = BlockCache(3)
        for index in range(10):
            cache.put(PhysAddr(0, index), bytes([index]))
        assert len(cache) == 3


def read_through(cache, addr):
    """What a read does: look up, and on a miss fetch and insert."""
    if cache.get(addr) is None:
        cache.put(addr, bytes(addr))


class TestSegmentedLRU:
    def test_a_hot_set_survives_a_scan(self):
        cache = BlockCache(10)
        hot = [PhysAddr(0, slot) for slot in range(cache.protected_capacity)]
        for _ in range(3):  # a miss, then two hits
            for addr in hot:
                read_through(cache, addr)
        for slot in range(2 * cache.capacity):  # one pass, read once
            read_through(cache, PhysAddr(1, slot))
        hits = cache.hits
        for addr in hot:
            assert cache.get(addr) == bytes(addr)
        assert cache.hits == hits + len(hot)

    def test_protected_overflow_is_demoted_not_dropped(self):
        cache = BlockCache(6)
        assert cache.protected_capacity == 4
        older = PhysAddr(9, 0)
        cache.put(older, b"older")
        promoted = [PhysAddr(0, slot) for slot in range(5)]
        for addr in promoted:
            read_through(cache, addr)
            cache.get(addr)
        # The first promoted overflowed protected: demoted to
        # probation's MRU end, behind the entry that was already there.
        assert len(cache) == 6
        cache.put(PhysAddr(1, 0), b"new")
        assert cache.peek(older) is None
        assert cache.peek(promoted[0]) == bytes(promoted[0])
        cache.put(PhysAddr(1, 1), b"newer")
        assert cache.peek(promoted[0]) is None
        assert all(cache.peek(addr) is not None for addr in promoted[1:])

    def test_invalidation_covers_both_segments(self):
        cache = BlockCache(8)
        for slot in range(4):
            cache.put(PhysAddr(1, slot), b"x")
            cache.put(PhysAddr(2, slot), b"y")
        cache.get(PhysAddr(1, 0))
        cache.get(PhysAddr(2, 0))  # one protected entry per segment
        assert cache.invalidate_segment(1) == 4
        assert all(PhysAddr(1, slot) not in cache for slot in range(4))
        assert cache.invalidate(PhysAddr(2, 0)) is True
        assert cache.invalidate(PhysAddr(2, 1)) is True
        assert cache.invalidate(PhysAddr(2, 1)) is False
        assert len(cache) == 2
        cache.get(PhysAddr(2, 2))
        cache.invalidate_all()
        assert len(cache) == 0
        assert cache.peek(PhysAddr(2, 2)) is None
        assert cache.invalidate_segment(2) == 0

    def test_capacity_zero(self):
        cache = BlockCache(0)
        read_through(cache, PhysAddr(0, 0))
        read_through(cache, PhysAddr(0, 0))
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 2)

    def test_capacity_one(self):
        cache = BlockCache(1)
        a, b = PhysAddr(0, 0), PhysAddr(0, 1)
        read_through(cache, a)
        read_through(cache, a)
        read_through(cache, a)
        assert (cache.hits, cache.misses, len(cache)) == (2, 1, 1)
        read_through(cache, b)
        assert a not in cache and cache.peek(b) == bytes(b)

    def test_peek_neither_counts_nor_promotes(self):
        cache = BlockCache(5)  # four protected at most
        for slot in range(4):
            read_through(cache, PhysAddr(9, slot))
            read_through(cache, PhysAddr(9, slot))
        probed = PhysAddr(0, 0)
        cache.put(probed, b"p")
        hits, misses = cache.hits, cache.misses
        assert cache.peek(probed) == b"p"
        assert cache.peek(PhysAddr(0, 9)) is None
        assert (cache.hits, cache.misses) == (hits, misses)
        cache.put(PhysAddr(0, 1), b"q")  # evicts probation's LRU end
        assert probed not in cache

    @pytest.mark.parametrize("protected", [True, False])
    def test_standing_follows_a_superseded_address(self, protected):
        cache = BlockCache(5)  # four protected at most
        for slot in range(3):
            read_through(cache, PhysAddr(9, slot))
            read_through(cache, PhysAddr(9, slot))
        old, new = PhysAddr(0, 0), PhysAddr(1, 0)
        read_through(cache, old)
        if protected:
            cache.get(old)
        cache.put(new, b"new")
        assert cache.invalidate(old, successor=new) is True
        assert old not in cache
        cache.put(PhysAddr(2, 0), b"x")
        cache.put(PhysAddr(2, 1), b"y")  # evicts probation's LRU end
        assert (new in cache) is protected


class TestStandingInAVolume:
    """A block's cache standing follows it across rewrites, and a
    retired address leaves the cache."""

    def volume(self):
        disk = SimulatedDisk(DiskGeometry.small(num_segments=64))
        ld = LLD(disk, config=LLDConfig(cache_blocks=10))
        lst = ld.new_list()
        blocks = [ld.new_block(lst) for _ in range(40)]
        for number, block in enumerate(blocks):
            ld.write(block, bytes([number]) * 64)
        ld.flush()
        ld.cache.invalidate_all()
        return disk, ld, blocks

    def test_a_hot_block_keeps_its_standing_when_rewritten(self):
        disk, ld, blocks = self.volume()
        hot, cold = blocks[0], blocks[1:]
        ld.read(hot)
        ld.read(hot)  # a hit: protected
        old = ld.bmap.persistent[hot].address
        ld.write(hot, b"hot again")
        ld.flush()
        new = ld.bmap.persistent[hot].address
        assert new != old and new in ld.cache
        # A scan far larger than probation, run backwards: a forward
        # one opens readahead windows whose slots it then hits, and a
        # hit promotes.
        for block in reversed(cold):
            ld.read(block)
        reads = disk.stats()["reads"]
        for _ in range(3):
            assert ld.read(hot).startswith(b"hot again")
        assert disk.stats()["reads"] == reads

    def test_a_retired_address_is_not_cached(self):
        _disk, ld, blocks = self.volume()
        ld.read(blocks[0])
        old = ld.bmap.persistent[blocks[0]].address
        assert old in ld.cache
        ld.write(blocks[0], b"moved")
        ld.flush()
        assert old not in ld.cache
        moved = ld.bmap.persistent[blocks[0]].address
        assert moved in ld.cache  # write-behind
        ld.delete_block(blocks[0])
        ld.flush()
        assert moved not in ld.cache
