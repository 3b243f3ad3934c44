"""The persistent-state tables: block-number-map and list-table.

For each logical block the block-number-map records the physical
address, allocation state, position within its list (the successor),
and the time-stamp of the last write; the list-table records the
first and last block of each list (Section 4, Figure 3).  Both
double as the roots of the same-identifier chains of alternative
(shadow/committed) records.

Wall-clock layout: LLD allocates block and list identifiers densely
from 1, so both tables keep their chain roots in a flat list indexed
by identifier — one bounds check and one list index on the hot
lookup path instead of hashing — with a spill dict for any sparse
identifiers outside the dense range (imported images, adversarial
ids).  Iteration is in ascending identifier order, deterministic and
identical across every scan/replay variant, which the differential
recovery tests rely on.

Each table also records which identifiers' persistent records changed
since the last checkpoint (:attr:`_RootTable.changed`), so a checkpoint
repacks only those rows (:class:`repro.lld.checkpoint.PackedRows`).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.records import ChainRoot
from repro.core.versions import VersionState

#: How far past the current dense range an identifier may land while
#: still being stored densely (the gap is filled with None).  Beyond
#: this, the identifier goes to the sparse spill dict.
_DENSE_SLACK = 1024


class _RootTable:
    """Chain-root storage shared by the block map and the list table.

    A flat list ``_dense`` holds roots for identifiers ``0 ..
    len-1`` (identifier 0 is never used; the slot is a sacrificial
    placeholder that keeps indexing offset-free); ``_sparse`` catches
    outliers.  ``_count`` tracks live roots so ``__len__`` stays O(1).

    ``changed`` holds the identifiers whose persistent record changed
    since a checkpoint last packed the table, or None when every one
    counts as changed: before the first checkpoint, and after recovery
    installed the table (an instant restore replays into it in place
    until the checkpoint that ends the restore).  On a live volume
    exactly three places change a persistent record, and each calls
    :meth:`mark_changed`: the version engine's fold, and the
    relocations of the cleaner and of the scrubber.
    """

    __slots__ = ("_dense", "_sparse", "_count", "changed")

    #: Reads a record's identifier (set per table).
    _id_of = None

    def __init__(self) -> None:
        self._dense: List[Optional[ChainRoot]] = []
        self._sparse: Dict[int, ChainRoot] = {}
        self._count = 0
        self.changed: Optional[Set[int]] = None

    def mark_changed(self, ident: int) -> None:
        """Note that ``ident``'s persistent record changed (or went)."""
        changed = self.changed
        if changed is not None:
            changed.add(ident)

    @property
    def dense_size(self) -> int:
        """Identifiers ``0 .. dense_size - 1`` live in the dense range,
        the part :meth:`items` walks first."""
        return len(self._dense)

    def root(self, ident: int, create: bool = False) -> Optional[ChainRoot]:
        """Return the chain root for ``ident``.

        With ``create=True`` a fresh empty root is installed when the
        identifier has never been seen.
        """
        dense = self._dense
        if 0 <= ident < len(dense):
            found = dense[ident]
            if found is None and create:
                found = ChainRoot()
                dense[ident] = found
                self._count += 1
            return found
        found = self._sparse.get(ident)
        if found is None and create:
            found = ChainRoot()
            if 0 <= ident < len(dense) + _DENSE_SLACK:
                dense.extend([None] * (ident + 1 - len(dense)))
                dense[ident] = found
            else:
                self._sparse[ident] = found
            self._count += 1
        return found

    def install_persistent(self, record) -> None:
        """Install a persistent record (recovery / checkpoint load)."""
        if record.state is not VersionState.PERSISTENT:
            raise ValueError("only persistent records belong in the table directly")
        self.root(self._id_of(record), create=True).persistent = record
        self.changed = None

    def install_all(self, records: Iterable) -> None:
        """Install persistent records (recovery, checkpoint load) in one
        pass.

        The same table as one ``install_persistent`` per record in the
        same order: each identifier goes dense or sparse by the rule
        :meth:`root` would apply at that point.  But the dense list
        grows once, to its final size, not a slot at a time.
        """
        id_of = self._id_of
        persistent = VersionState.PERSISTENT
        sparse = self._sparse
        size = len(self._dense)
        placed = []
        for record in records:
            if record.state is not persistent:
                raise ValueError("only persistent records belong in the table directly")
            ident = id_of(record)
            if 0 <= ident < size or (
                0 <= ident < size + _DENSE_SLACK and ident not in sparse
            ):
                if ident >= size:
                    size = ident + 1
                placed.append((ident, record))
                continue
            root = sparse.get(ident)
            if root is None:
                root = sparse[ident] = ChainRoot()
                self._count += 1
            root.persistent = record
        dense = self._dense
        dense.extend([None] * (size - len(dense)))
        created = 0
        for ident, record in placed:
            root = dense[ident]
            if root is None:
                root = dense[ident] = ChainRoot()
                created += 1
            root.persistent = record
        self._count += created
        self.changed = None

    def drop_if_empty(self, ident: int) -> None:
        """Remove the table entry once no version remains."""
        dense = self._dense
        if 0 <= ident < len(dense):
            root = dense[ident]
            if root is not None and root.empty:
                dense[ident] = None
                self._count -= 1
            return
        root = self._sparse.get(ident)
        if root is not None and root.empty:
            del self._sparse[ident]
            self._count -= 1

    def __len__(self) -> int:
        return self._count

    def __contains__(self, ident: int) -> bool:
        dense = self._dense
        if 0 <= ident < len(dense):
            return dense[ident] is not None
        return ident in self._sparse

    def items(self) -> Iterator[Tuple[int, ChainRoot]]:
        """Iterate (identifier, root), ascending through the dense
        range, then any sparse outliers in ascending order."""
        for ident, root in enumerate(self._dense):
            if root is not None:
                yield ident, root
        if self._sparse:
            for ident in sorted(self._sparse):
                yield ident, self._sparse[ident]

    def persistent_items(self) -> Iterator[Tuple[int, object]]:
        """Iterate (id, persistent record) for every id that has one,
        in :meth:`items` order (walked flat: every checkpoint visits
        every record)."""
        for ident, root in enumerate(self._dense):
            if root is not None and root.persistent is not None:
                yield ident, root.persistent
        for ident in sorted(self._sparse):
            record = self._sparse[ident].persistent
            if record is not None:
                yield ident, record


class BlockNumberMap(_RootTable):
    """Logical block id -> chain root (persistent record + alternatives)."""

    __slots__ = ()

    _id_of = attrgetter("block_id")
    persistent_blocks = _RootTable.persistent_items


class ListTable(_RootTable):
    """Logical list id -> chain root (persistent record + alternatives)."""

    __slots__ = ()

    _id_of = attrgetter("list_id")
    persistent_lists = _RootTable.persistent_items
