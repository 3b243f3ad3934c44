"""Unit tests for LD identifier and address types."""

import pytest

from repro.ld.types import ARU_NONE, FIRST, PhysAddr, _First


class TestFirstSentinel:
    def test_singleton(self):
        assert _First() is FIRST
        assert _First() is _First()

    def test_repr(self):
        assert repr(FIRST) == "FIRST"

    def test_not_equal_to_block_ids(self):
        assert FIRST != 0
        assert FIRST != 1


class TestPhysAddr:
    def test_fields(self):
        addr = PhysAddr(3, 7)
        assert addr.segment == 3
        assert addr.slot == 7

    def test_equality_and_hash(self):
        assert PhysAddr(1, 2) == PhysAddr(1, 2)
        assert PhysAddr(1, 2) != PhysAddr(1, 3)
        assert len({PhysAddr(1, 2), PhysAddr(1, 2)}) == 1

    def test_ordering(self):
        assert PhysAddr(1, 5) < PhysAddr(2, 0)
        assert PhysAddr(1, 1) < PhysAddr(1, 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PhysAddr(-1, 0)
        with pytest.raises(ValueError):
            PhysAddr(0, -1)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            PhysAddr(0, 0).slot = 5
        # A frozen dataclass of (segment, slot) hashes the tuple of
        # its fields; the address hashes as that same tuple, so sets
        # and dicts of addresses iterate in the order they did when
        # PhysAddr was such a dataclass.
        for segment, slot in ((0, 0), (3, 7), (511, 126), (1 << 20, 5)):
            assert hash(PhysAddr(segment, slot)) == hash((segment, slot))

    def test_repr(self):
        assert repr(PhysAddr(2, 9)) == "PhysAddr(seg=2, slot=9)"


class TestARUNone:
    def test_is_falsy_zero(self):
        assert ARU_NONE == 0
        assert not ARU_NONE
