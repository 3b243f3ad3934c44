"""Alternative block/list records and the perpendicular chain mesh.

Section 4 of the paper: the persistent tables (block-number-map and
list-table) are augmented with in-memory singly-linked lists of
*alternative records* describing blocks and lists in the committed
and shadow states.  Each record is a member of two chains:

* a **same-state** chain — one per active ARU for shadow records,
  plus one for all committed records — used to transition a whole
  state at once (commit, flush), and
* a **same-identifier** chain rooted at the table entry for that
  logical identifier, used to look up the right version of a block
  or list efficiently.

The resulting mesh makes both lookups by state and by identifier
cheap, which the paper credits for the low overhead of concurrent
ARUs.  We keep the singly-linked structure faithful to the paper and
charge traversal costs through the
:class:`~repro.disk.clock.CostMeter`.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.versions import VersionState
from repro.ld.types import ARU_NONE, ARUId, BlockId, ListId, PhysAddr


class BlockVersion:
    """One version of a logical block (one record in the mesh).

    A persistent version is the block-number-map entry itself; shadow
    and committed versions are alternative records chained off it.

    Attributes:
        block_id: Logical identifier.
        state: Which version class this record describes.
        aru_id: Owning ARU for shadow records, ``ARU_NONE`` otherwise.
        allocated: False once the block is deallocated in this version.
        address: Physical location of the data, or None if the block
            was never written (or this is a shadow version holding
            data in memory).
        successor: Next block in this block's list, or None.
        list_id: The list this block belongs to, or None.
        timestamp: Logical time of the last operation that produced
            this version (orders replace-or-discard transitions).
        data: In-memory data for shadow versions; None otherwise.
        origin_aru: For committed records, the ARU whose commit
            produced this version (``ARU_NONE`` for simple
            operations).  A committed record only folds into the
            persistent state once its origin's commit record is on
            disk.
        pending_segment: Sequence number of the segment buffer that
            holds this record's latest data/summary entry; the record
            folds when that segment has been written.
    """

    __slots__ = (
        "block_id",
        "state",
        "aru_id",
        "allocated",
        "address",
        "successor",
        "list_id",
        "timestamp",
        "data",
        "origin_aru",
        "pending_segment",
        "next_same_id",
        "next_same_state",
    )

    def __init__(
        self,
        block_id: BlockId,
        state: VersionState,
        aru_id: ARUId = ARU_NONE,
        allocated: bool = True,
        address: Optional[PhysAddr] = None,
        successor: Optional[BlockId] = None,
        list_id: Optional[ListId] = None,
        timestamp: int = 0,
    ) -> None:
        self.block_id = block_id
        self.state = state
        self.aru_id = aru_id
        self.allocated = allocated
        self.address = address
        self.successor = successor
        self.list_id = list_id
        self.timestamp = timestamp
        self.data: Optional[bytes] = None
        self.origin_aru: ARUId = ARU_NONE
        self.pending_segment: int = -1
        self.next_same_id: Optional[BlockVersion] = None
        self.next_same_state: Optional[BlockVersion] = None

    def copy_from(self, other: "BlockVersion") -> None:
        """Copy the logical content (not chain links) of ``other``."""
        self.allocated = other.allocated
        self.address = other.address
        self.successor = other.successor
        self.list_id = other.list_id
        self.timestamp = other.timestamp

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BlockVersion {self.block_id} {self.state.name} aru={self.aru_id} "
            f"alloc={self.allocated} addr={self.address} succ={self.successor} "
            f"list={self.list_id} ts={self.timestamp}>"
        )


class ListVersion:
    """One version of a block list (list-table entry or alternative).

    The list-table records the first and last block of each list
    (Section 4); block order within the list is carried by the
    ``successor`` fields of the member block versions in the same
    state.
    """

    __slots__ = (
        "list_id",
        "state",
        "aru_id",
        "allocated",
        "first",
        "last",
        "count",
        "timestamp",
        "origin_aru",
        "pending_segment",
        "next_same_id",
        "next_same_state",
    )

    def __init__(
        self,
        list_id: ListId,
        state: VersionState,
        aru_id: ARUId = ARU_NONE,
        allocated: bool = True,
        first: Optional[BlockId] = None,
        last: Optional[BlockId] = None,
        count: int = 0,
        timestamp: int = 0,
    ) -> None:
        self.list_id = list_id
        self.state = state
        self.aru_id = aru_id
        self.allocated = allocated
        self.first = first
        self.last = last
        self.count = count
        self.timestamp = timestamp
        self.origin_aru: ARUId = ARU_NONE
        self.pending_segment: int = -1
        self.next_same_id: Optional[ListVersion] = None
        self.next_same_state: Optional[ListVersion] = None

    def copy_from(self, other: "ListVersion") -> None:
        """Copy the logical content (not chain links) of ``other``."""
        self.allocated = other.allocated
        self.first = other.first
        self.last = other.last
        self.count = other.count
        self.timestamp = other.timestamp

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ListVersion {self.list_id} {self.state.name} aru={self.aru_id} "
            f"alloc={self.allocated} first={self.first} last={self.last} "
            f"count={self.count}>"
        )


# A same-identifier chain is reached through its head, the newest
# alternative record (a table's ``alts`` entry); the walks below are
# generic over BlockVersion/ListVersion, which carry the same chain
# attributes.


def iter_chain(head) -> Iterator:
    """Yield the records of a same-identifier chain, newest first (no
    cost charging)."""
    node = head
    while node is not None:
        yield node
        node = node.next_same_id


def find_alt(head, state: VersionState, aru_id: ARUId, meter=None):
    """Find the alternative record in ``state`` (for ``aru_id``) on the
    chain starting at ``head``.

    For shadow lookups ``aru_id`` selects whose shadow; for committed
    lookups ``aru_id`` is ignored.  Charges one chain hop per record
    visited when a meter is supplied.  ``VersionEngine.view`` and
    ``for_update`` write this walk out inline and must charge exactly
    as it does.
    """
    node = head
    while node is not None:
        if meter is not None:
            meter.charge("chain_hop_us")
        if node.state is state and (
            state is not VersionState.SHADOW or node.aru_id == aru_id
        ):
            return node
        node = node.next_same_id
    return None


def newest_shadow(head, meter=None):
    """The most recent shadow record across all ARUs (option 1)."""
    best = None
    node = head
    while node is not None:
        if meter is not None:
            meter.charge("chain_hop_us")
        if node.state is VersionState.SHADOW and (
            best is None or node.timestamp > best.timestamp
        ):
            best = node
        node = node.next_same_id
    return best


class StateChain:
    """A same-state chain: all records currently in one state.

    One instance exists per active ARU (its shadow records) and one
    for the committed state.  Records are pushed at the head; commit
    and flush consume the chain, so the singly-linked structure never
    needs mid-chain removal on the hot path (removal is provided for
    in-place supersession and aborts).
    """

    __slots__ = ("head", "length")

    def __init__(self) -> None:
        self.head = None
        self.length = 0

    def push(self, version) -> None:
        """Insert a record at the head of the chain."""
        version.next_same_state = self.head
        self.head = version
        self.length += 1

    def remove(self, version) -> None:
        """Unlink a record from the chain (O(length))."""
        prev = None
        node = self.head
        while node is not None:
            if node is version:
                if prev is None:
                    self.head = node.next_same_state
                else:
                    prev.next_same_state = node.next_same_state
                node.next_same_state = None
                self.length -= 1
                return
            prev = node
            node = node.next_same_state
        raise ValueError(f"record {version!r} not on its state chain")

    def __iter__(self) -> Iterator:
        node = self.head
        while node is not None:
            # Capture the successor first so callers may unlink node.
            nxt = node.next_same_state
            yield node
            node = nxt

    def drain(self) -> Iterator:
        """Yield and unlink every record, oldest state intact.

        Records come off newest-first (push order).  The chain is
        empty afterwards.
        """
        node = self.head
        self.head = None
        self.length = 0
        while node is not None:
            nxt = node.next_same_state
            node.next_same_state = None
            yield node
            node = nxt

    def __len__(self) -> int:
        return self.length
