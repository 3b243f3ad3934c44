"""One volume's half of the array's two-phase commit.

:class:`Participant` is a base of :class:`~repro.lld.lld.LLD`, as
:class:`~repro.lld.logwriter.LogWriter` is; :mod:`repro.shard.twophase`
is the coordinator that calls it and states the protocol.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.errors import DiskFullError
from repro.ld.types import ARUId
from repro.lld.summary import EntryKind, SummaryEntry


class Participant:
    """Owns ``_prepared_xids`` (ARU tag -> xid of a PREPARE awaiting
    its decision) and ``_decided_xids`` (the xids this volume logged a
    DECIDE for; checkpoints carry them, so cleaning the segment that
    holds a DECIDE never loses it).  :class:`LLD` supplies the rest.
    """

    def __init__(self) -> None:
        self._prepared_xids: Dict[int, int] = {}
        self._decided_xids: Set[int] = set()

    def _log_in_reserve(
        self, reason: str, kind: EntryKind, tag: int, a: int, b: int = 0,
        merge=None,
    ) -> None:
        """The one way a COMMIT, PREPARE or DECIDE reaches the log:
        merge the ARU record ``merge``, if given, then append one
        ``kind`` entry stamped now.  Both may use the segment reserve,
        since a half-merged commit cannot be unwound in memory; a full
        disk fails the volume with ``reason``, and recovery restores
        the state before, since no record was written."""
        self._emergency = True
        try:
            if merge is not None and self.concurrent:
                self.engine.merge(merge)
            self._emit_entry(SummaryEntry(kind, tag, self.clock.tick(), a, b))
        except DiskFullError:
            self._mark_dead(reason)
            raise
        finally:
            self._emergency = False

    def prepare_commit(self, aru: ARUId, xid: int) -> None:
        """Phase 1: merge the ARU as :meth:`end_aru` does, but log a
        PREPARE carrying ``xid``, never counted into a commit group.
        The caller flushes this volume before any DECIDE is logged."""
        self._commit(aru, int(xid))

    def log_decision(self, xid: int) -> None:
        """Phase 2, on a decision shard: log a DECIDE for ``xid`` and
        remember it; the caller's flush is the commit point."""
        with self._lock:
            self._check_alive()
            self._charge("ld_call_us")
            self._ops["log_decision"].inc()
            self._log_in_reserve(
                "decide_disk_full", EntryKind.DECIDE, 0, int(xid)
            )
            self._decided_xids.add(int(xid))
            self._charge("summary_entry_us")
            self.obs.record("aru.decide", xid=int(xid))

    def finish_prepared(self, aru_tag: int) -> None:
        """Phase 3, once a DECIDE is durable: the tag joins
        ``_commit_on_disk`` — what recovery computes when it rolls a
        decided PREPARE forward — and folding proceeds."""
        with self._lock:
            self._check_alive()
            self._charge("ld_call_us")
            self._ops["finish_prepared"].inc()
            tag = int(aru_tag)
            self._prepared_xids.pop(tag, None)
            self._commit_on_disk.add(tag)
            self._pending_commit_arus.discard(tag)
            self.engine.fold(self._last_written_seq, self._commit_on_disk)
            # The release is when checkpointing becomes safe again
            # (no pending commits), so space reclaimed here — unlike
            # during prepare_commit — can actually be freed.
            self._clean_if_low()

    def clear_decisions(self) -> None:
        """Forget the decided xids: only where the coordinator's
        checkpoint order calls it.  Until this volume's next
        checkpoint, the old one's superset stays on disk."""
        with self._lock:
            self._decided_xids.clear()
