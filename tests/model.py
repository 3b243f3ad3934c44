"""The logical disk with ARUs as plain dicts: an executable reading of
docs/SEMANTICS.md, and the differential test's independent partner.

No disk, no costs, no version chains.  Committed blocks and lists are
records in two dicts; a record is there while it is allocated.  Each
active ARU has an overlay of its own per table, filled on first
touch with a copy of the committed record (§ 2's copy-on-write), and
a log of its list operations.  Allocation is committed at once
(§ 4).  EndARU re-executes the log against the committed state
(§ 5); if any step fails, or a block the ARU wrote is gone, the ARU
is refused whole: :class:`~repro.errors.ConcurrencyError`, and the
committed state is as it was.  Durability is not modelled: ``flush``
does nothing.

The three visibility options of § 3 are the three functions in
``VISIBLE``.  A shadow block carries data only where its ARU wrote
it; where it does not, a read takes the committed block's data.
"""

import dataclasses
from typing import Optional

from repro.core.visibility import Visibility
from repro.errors import (
    BadARUError,
    BadBlockError,
    BadListError,
    ConcurrencyError,
    LDError,
)
from repro.ld.types import FIRST, ARUId, BlockId, ListId


@dataclasses.dataclass
class BlockRecord:
    """A block: allocated, its list, its successor, its data."""

    alive: bool = True
    list_id: Optional[int] = None
    successor: Optional[int] = None
    data: Optional[bytes] = None
    stamp: int = 0  # the operation that last changed it


@dataclasses.dataclass
class ListRecord:
    """A list: allocated, its first and last block, its length."""

    alive: bool = True
    first: Optional[int] = None
    last: Optional[int] = None
    count: int = 0
    stamp: int = 0


RECORD = {"blocks": BlockRecord, "lists": ListRecord}


def _copy(record, table):
    """First touch in an overlay: the committed record, or a dead one.
    The copy of a block holds no data: that is the ARU's own writes."""
    if record is None:
        return RECORD[table](alive=False)
    if table == "blocks":
        return dataclasses.replace(record, data=None)
    return dataclasses.replace(record)


def aru_local(model, table, ident, aru):
    """Option 3: the ARU's own shadow, else committed."""
    if aru is not None:
        shadow = getattr(model.arus[aru], table).get(ident)
        if shadow is not None:
            return shadow
    return getattr(model, table).get(ident)


def committed_only(model, table, ident, aru):
    """Option 2: committed, even for the ARU that wrote the block."""
    return getattr(model, table).get(ident)


def most_recent_shadow(model, table, ident, aru):
    """Option 1: the newest shadow of any ARU, else committed."""
    shadows = [
        getattr(overlay, table)[ident]
        for overlay in model.arus.values()
        if ident in getattr(overlay, table)
    ]
    if shadows:
        return max(shadows, key=lambda record: record.stamp)
    return getattr(model, table).get(ident)


VISIBLE = {
    Visibility.ARU_LOCAL: aru_local,
    Visibility.COMMITTED_ONLY: committed_only,
    Visibility.MOST_RECENT_SHADOW: most_recent_shadow,
}


class _Overlay:
    def __init__(self):
        self.blocks = {}
        self.lists = {}
        self.log = []


class Model:
    """The LD operations over dicts.  ``block_size`` pads what is
    written, as a logical disk does."""

    def __init__(self, block_size, visibility=Visibility.ARU_LOCAL):
        self.block_size = block_size
        self.visible = VISIBLE[visibility]
        self.blocks = {}
        self.lists = {}
        self.arus = {}
        self._next = {"block": 1, "list": 1, "aru": 1}
        self._clock = 0

    # -- the state an operation runs in --------------------------------

    def _overlay(self, aru):
        if aru is None:
            return None
        try:
            return self.arus[aru]
        except KeyError:
            raise BadARUError(int(aru)) from None

    def _get(self, overlay, table, ident):
        """Lookup: the overlay's record, else the committed one."""
        if overlay is not None and ident in getattr(overlay, table):
            return getattr(overlay, table)[ident]
        return getattr(self, table).get(ident)

    def _touch(self, overlay, table, ident):
        """The record to modify, stamped with this operation."""
        if overlay is None:
            record = getattr(self, table).get(ident) or _copy(None, table)
        else:
            shadows = getattr(overlay, table)
            if ident not in shadows:
                shadows[ident] = _copy(getattr(self, table).get(ident), table)
            record = shadows[ident]
        record.stamp = self._clock
        return record

    def _kill(self, overlay, table, ident):
        if overlay is None:
            getattr(self, table).pop(ident, None)
        else:
            getattr(overlay, table)[ident] = RECORD[table](False, stamp=self._clock)

    def _alive(self, overlay, table, ident):
        record = self._get(overlay, table, ident)
        if record is None or not record.alive:
            raise (BadBlockError if table == "blocks" else BadListError)(int(ident))
        return record

    def _allocate(self, kind, record):
        ident = self._next[kind]
        self._next[kind] += 1
        getattr(self, kind + "s")[ident] = record
        return ident

    # -- list operations (§ 5), in the committed state or an overlay ---

    def _run(self, overlay, op):
        self._clock += 1
        getattr(self, "_" + op[0])(overlay, *op[1:])
        if overlay is not None:
            overlay.log.append(op)

    def _insert(self, overlay, list_id, block_id, pred):
        self._alive(overlay, "lists", list_id)
        if self._alive(overlay, "blocks", block_id).list_id is not None:
            raise ConcurrencyError(f"block {block_id} is already in a list")
        if pred is not None:
            if self._alive(overlay, "blocks", pred).list_id != list_id:
                raise BadBlockError(int(pred), f"not a member of list {list_id}")
        lst = self._touch(overlay, "lists", list_id)
        blk = self._touch(overlay, "blocks", block_id)
        if pred is None:
            blk.successor = lst.first
            if lst.first is None:
                lst.last = block_id
            lst.first = block_id
        else:
            before = self._touch(overlay, "blocks", pred)
            blk.successor = before.successor
            before.successor = block_id
            if lst.last == pred:
                lst.last = block_id
        blk.list_id = list_id
        lst.count += 1

    def _delete_block(self, overlay, block_id):
        list_id = self._alive(overlay, "blocks", block_id).list_id
        if list_id is not None:
            pred = self._predecessor(overlay, list_id, block_id)
            lst = self._touch(overlay, "lists", list_id)
            successor = self._touch(overlay, "blocks", block_id).successor
            if pred is None:
                lst.first = successor
            else:
                self._touch(overlay, "blocks", pred).successor = successor
            if lst.last == block_id:
                lst.last = pred
            lst.count -= 1
        self._kill(overlay, "blocks", block_id)

    def _predecessor(self, overlay, list_id, block_id):
        """DeleteBlock walks the list from its first block (§ 5)."""
        cursor = self._alive(overlay, "lists", list_id).first
        if cursor == block_id:
            return None
        while cursor is not None:
            node = self._get(overlay, "blocks", cursor)
            if node is None:
                break
            if node.successor == block_id:
                return cursor
            cursor = node.successor
        raise BadBlockError(int(block_id), f"not found in list {list_id}")

    def _delete_list(self, overlay, list_id):
        """DeleteList deallocates the members from the head (§ 5)."""
        self._alive(overlay, "lists", list_id)
        cursor = self._touch(overlay, "lists", list_id).first
        while cursor is not None:
            successor = self._touch(overlay, "blocks", cursor).successor
            self._kill(overlay, "blocks", cursor)
            cursor = successor
        self._kill(overlay, "lists", list_id)

    # -- the LD interface ----------------------------------------------

    def begin_aru(self):
        aru = ARUId(self._next["aru"])
        self._next["aru"] += 1
        self.arus[aru] = _Overlay()
        return aru

    def end_aru(self, aru):
        overlay = self._overlay(aru)
        del self.arus[aru]
        blocks = {i: dataclasses.replace(r) for i, r in self.blocks.items()}
        lists = {i: dataclasses.replace(r) for i, r in self.lists.items()}
        try:
            for block_id, shadow in overlay.blocks.items():
                if shadow.alive and shadow.data is not None:
                    if block_id not in self.blocks:
                        raise LDError(f"block {block_id} disappeared")
                    self.blocks[block_id].data = shadow.data
            for op in overlay.log:
                self._run(None, op)
        except LDError as exc:
            self.blocks, self.lists = blocks, lists
            raise ConcurrencyError(f"ARU {aru} refused: {exc}") from exc

    def abort_aru(self, aru):
        self._overlay(aru)
        del self.arus[aru]

    def new_list(self, aru=None):
        self._overlay(aru)
        return ListId(self._allocate("list", ListRecord()))

    def new_block(self, list_id, predecessor=FIRST, aru=None):
        overlay = self._overlay(aru)
        self._alive(overlay, "lists", list_id)
        pred = None if predecessor is FIRST else predecessor
        if pred is not None:
            if self._alive(overlay, "blocks", pred).list_id != list_id:
                raise BadBlockError(int(pred), f"not a member of list {list_id}")
        block_id = BlockId(self._allocate("block", BlockRecord()))
        self._run(overlay, ("insert", list_id, block_id, pred))
        return block_id

    def delete_block(self, block_id, aru=None):
        self._run(self._overlay(aru), ("delete_block", block_id))

    def delete_list(self, list_id, aru=None):
        self._run(self._overlay(aru), ("delete_list", list_id))

    def write(self, block_id, data, aru=None):
        overlay = self._overlay(aru)
        if len(data) > self.block_size:
            raise ValueError("data exceeds block size")
        self._alive(overlay, "blocks", block_id)
        self._clock += 1
        if overlay is None:
            record = self.blocks[block_id]
        else:
            record = self._touch(overlay, "blocks", block_id)
        record.data = bytes(data).ljust(self.block_size, b"\x00")

    def read(self, block_id, aru=None):
        self._overlay(aru)
        record = self.visible(self, "blocks", block_id, aru)
        if record is None or not record.alive:
            raise BadBlockError(int(block_id))
        if record.data is None:
            # A shadow the ARU did not write: the committed data.
            record = self.blocks.get(block_id, record)
        return record.data or b"\x00" * self.block_size

    def list_blocks(self, list_id, aru=None):
        self._overlay(aru)
        record = self.visible(self, "lists", list_id, aru)
        if record is None or not record.alive:
            raise BadListError(int(list_id))
        members = []
        cursor = record.first
        while cursor is not None:
            if cursor in members:
                raise LDError(f"cycle in list {list_id}")
            members.append(cursor)
            block = self.visible(self, "blocks", cursor, aru)
            if block is None or not block.alive:
                raise BadBlockError(int(cursor), f"missing from list {list_id}")
            cursor = block.successor
        return members

    def flush(self):
        """Durability is not modelled."""
