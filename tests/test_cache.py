"""Unit tests for the block read cache."""

import pytest

from repro.ld.types import PhysAddr
from repro.lld.cache import BlockCache


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
