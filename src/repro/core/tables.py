"""The persistent-state tables: block-number-map and list-table.

For each logical block the block-number-map records the physical
address, allocation state, position within its list (the successor),
and the time-stamp of the last write; the list-table records the
first and last block of each list (Section 4, Figure 3).  Both
double as the roots of the same-identifier chains of alternative
(shadow/committed) records.

Each table is two dicts keyed by identifier: ``persistent`` holds the
PERSISTENT record, ``alts`` the newest alternative record, whose
older siblings hang off it through ``next_same_id``.  An identifier
is in ``persistent`` while its persistent record is allocated (a fold
that deallocates removes it) and in ``alts`` while its chain is
non-empty (the unlink that empties it removes it), so neither dict
ever holds an empty entry.  Recovery builds ``persistent`` dicts and
hands them over as they are (:meth:`_RootTable.adopt`); nothing wraps
them.  A dict iterates in insertion order: whatever puts the order of
identifiers into the log, a checkpoint or a report walks
:meth:`_RootTable.ids`, ascending.

Each table also records which identifiers' persistent records changed
since the last checkpoint (:attr:`_RootTable.changed`), so a checkpoint
repacks only those rows (:class:`repro.lld.checkpoint.PackedRows`).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional, Set

from repro.core.versions import VersionState


class _RootTable:
    """The two dicts shared by the block map and the list table.

    ``changed`` holds the identifiers whose persistent record changed
    since a checkpoint last packed the table, or None when every one
    counts as changed: before the first checkpoint, and after recovery
    handed the table over (an instant restore replays into it in place
    until the checkpoint that ends the restore).  On a live volume
    exactly three places change a persistent record, and each calls
    :meth:`mark_changed`: the version engine's fold, and the
    relocations of the cleaner and of the scrubber.
    """

    __slots__ = ("persistent", "alts", "changed")

    #: Reads a record's identifier (set per table).
    _id_of = None

    def __init__(self) -> None:
        #: id -> the PERSISTENT record.
        self.persistent: Dict[int, object] = {}
        #: id -> the newest alternative record (the chain head).
        self.alts: Dict[int, object] = {}
        self.changed: Optional[Set[int]] = None

    def mark_changed(self, ident: int) -> None:
        """Note that ``ident``'s persistent record changed (or went)."""
        changed = self.changed
        if changed is not None:
            changed.add(ident)

    def adopt(self, records: Dict[int, object]) -> None:
        """Take ``records`` (id -> persistent record), as recovery
        built them, as this table's persistent dict."""
        persistent = VersionState.PERSISTENT
        for record in records.values():
            if record.state is not persistent:
                raise ValueError("only persistent records belong in the table directly")
        self.persistent = records
        self.changed = None

    def install_persistent(self, record) -> None:
        """Install one persistent record (the reference recovery)."""
        if record.state is not VersionState.PERSISTENT:
            raise ValueError("only persistent records belong in the table directly")
        self.persistent[self._id_of(record)] = record
        self.changed = None

    def push_alt(self, ident: int, version) -> None:
        """Insert an alternative record at the head of ``ident``'s chain."""
        alts = self.alts
        version.next_same_id = alts.get(ident)
        alts[ident] = version

    def remove_alt(self, ident: int, version) -> None:
        """Unlink an alternative record from ``ident``'s chain; the
        entry goes with the chain's last record."""
        alts = self.alts
        node = alts.get(ident)
        if node is version:
            if version.next_same_id is None:
                del alts[ident]
            else:
                alts[ident] = version.next_same_id
                version.next_same_id = None
            return
        while node is not None:
            nxt = node.next_same_id
            if nxt is version:
                node.next_same_id = version.next_same_id
                version.next_same_id = None
                return
            node = nxt
        raise ValueError(f"record {version!r} not on its id chain")

    def ids(self) -> List[int]:
        """Every identifier with a persistent record or an alternative,
        ascending."""
        return sorted(self.persistent.keys() | self.alts.keys())


class BlockNumberMap(_RootTable):
    """Logical block id -> persistent record, and -> alternatives."""

    __slots__ = ()

    _id_of = attrgetter("block_id")


class ListTable(_RootTable):
    """Logical list id -> persistent record, and -> alternatives."""

    __slots__ = ()

    _id_of = attrgetter("list_id")
