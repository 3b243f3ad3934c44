"""Identifier and address types of the logical-disk interface.

Logical block and list identifiers are plain integers handed out by
the logical disk; clients never see physical addresses.  The
:class:`PhysAddr` type is internal to LD implementations (a segment
number and a data-block slot within it) but lives here because the
segment summaries serialize it.
"""

from __future__ import annotations

from typing import NamedTuple, NewType, Optional, Union

#: Logical block identifier (assigned by NewBlock, never reused).
BlockId = NewType("BlockId", int)

#: Logical list identifier (assigned by NewList, never reused).
ListId = NewType("ListId", int)

#: Atomic-recovery-unit identifier (assigned by BeginARU).
ARUId = NewType("ARUId", int)

#: The ARU tag meaning "simple operation, not part of any ARU".
ARU_NONE: ARUId = ARUId(0)

#: First identifier of the *system* id range.  Ordinary allocations
#: hand out dense ids from 1; infrastructure the storage system
#: creates for itself — replica mirrors on peer shards of an array —
#: uses forced ids at or above this base so it never collides with
#: (or perturbs the striping arithmetic of) client-visible ids.
#: Summaries and checkpoints carry 64-bit ids, so the range is safe
#: on disk.
SYSTEM_ID_BASE = 1 << 40


class _First:
    """Sentinel: insert a new block at the beginning of its list."""

    _instance: Optional["_First"] = None

    def __new__(cls) -> "_First":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "FIRST"


#: Predecessor sentinel for NewBlock: place the block first in the list.
FIRST = _First()

#: A block's insertion point: FIRST or the BlockId to insert after.
Predecessor = Union[_First, BlockId]


class _PhysAddrFields(NamedTuple):
    segment: int
    slot: int


class PhysAddr(_PhysAddrFields):
    """Physical location of a block: (segment number, data slot).

    An immutable tuple: it hashes, compares and orders as ``(segment,
    slot)``, so it is its own key in the read cache.
    """

    __slots__ = ()

    def __new__(cls, segment: int, slot: int) -> "PhysAddr":
        if segment < 0 or slot < 0:
            raise ValueError(
                f"negative physical address PhysAddr(seg={segment}, slot={slot})"
            )
        return tuple.__new__(cls, (segment, slot))

    def __repr__(self) -> str:
        return f"PhysAddr(seg={self.segment}, slot={self.slot})"
