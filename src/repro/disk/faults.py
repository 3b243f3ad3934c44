"""Fault injection for the simulated disk.

ARUs exist to protect clients against power failures and partial
media failures (Section 3 of the paper).  This module provides the
failure machinery the tests and torture examples use, behind one
declarative surface — ``FaultInjector(plan=FaultPlan(...))`` is the
only way a fault is scheduled (a bare ``FaultInjector()`` injects
none until one is armed on it):

* :class:`FaultPlan` is the fault schedule: an optional
  :class:`PowerCut`, any number of :class:`MediaFault` entries
  (optionally scoped to one shard of an array), and any number of
  :class:`ShardLoss` entries (whole-shard media destruction).
* :class:`PowerCut` cuts power after a chosen number of writes,
  optionally *tearing* the final write so only a prefix of it
  reaches the platter — the classic interrupted-write failure a
  log-structured recovery scan must tolerate.
* :class:`MediaFault` marks individual segments as unreadable or
  silently corrupted, modelling partial media failures.  With a
  ``shard`` it applies to one member disk of a sharded array only.
  A segment keeps every fault it is given: an unreadable one wins,
  else every corrupt span is flipped.
* :class:`ShardLoss` destroys one member disk of an array outright:
  every subsequent read or write of that disk raises
  :class:`~repro.errors.ShardLostError`, and — unlike a power cut —
  a :meth:`FaultInjector.power_cycle` does *not* bring it back.  A
  lost shard only returns via :meth:`FaultInjector.replace_shard`
  (fresh hardware, empty platter), which is what the array's repair
  path models.

A sharded array shares one :class:`FaultInjector` across its member
disks; each :class:`~repro.disk.simdisk.SimulatedDisk` identifies
itself by its ``shard_index`` on every read and write, which is what
gives the plan its per-shard scoping.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.disk.geometry import SECTOR_SIZE
from repro.errors import DiskCrashedError, MediaError, ShardLostError


@dataclasses.dataclass(frozen=True)
class PowerCut:
    """Deterministic power-failure schedule.

    Attributes:
        after_writes: Crash when this many writes (byte ranges, see
            :meth:`FaultInjector.on_write`) have completed.  The write that crosses the budget is the
            *crashing* write.
        torn: If True, the crashing write is partially applied (a
            random prefix survives); if False it is dropped whole.
        seed: Seed for the tear-point RNG, so failures replay
            identically.
        granularity: ``"sector"`` (default) tears on sector
            boundaries, the way real disks fail — a write that fits
            in a single sector is all-or-nothing.  ``"byte"`` keeps
            the old arbitrary-byte-prefix model, which is strictly
            more adversarial (it can cut mid-field) and is what the
            exhaustive crash sweeps use.
        sector_size: Sector size for ``"sector"`` granularity.
    """

    after_writes: int
    torn: bool = False
    seed: int = 0
    granularity: str = "sector"
    sector_size: int = SECTOR_SIZE

    def __post_init__(self) -> None:
        if self.after_writes < 0:
            raise ValueError("after_writes must be >= 0")
        if self.granularity not in ("sector", "byte"):
            raise ValueError(f"unknown tear granularity {self.granularity!r}")
        if self.sector_size < 1:
            raise ValueError("sector_size must be >= 1")


@dataclasses.dataclass(frozen=True)
class MediaFault:
    """A per-segment media failure.

    ``kind`` is ``"unreadable"`` (reads raise :class:`MediaError`) or
    ``"corrupt"`` (reads return bit-flipped data, exercising checksum
    validation during recovery; ``span`` = ``(start, end)`` confines
    the rot to those bytes of the segment, e.g. to one summary chunk,
    instead of the whole of it).  ``shard`` scopes the fault to one
    member disk of a sharded array; ``None`` (the default, and the
    only sensible value for a single disk) applies it to every disk
    sharing the injector.
    """

    segment_no: int
    kind: str = "unreadable"
    shard: Optional[int] = None
    span: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("unreadable", "corrupt"):
            raise ValueError(f"unknown media fault kind {self.kind!r}")


@dataclasses.dataclass(frozen=True)
class ShardLoss:
    """Whole-shard media destruction.

    Attributes:
        shard: The member disk (by ``shard_index``) to destroy.
        after_writes: Destroy the shard once this many segment writes
            (counted globally across every disk sharing the injector)
            have completed; ``None`` loses it immediately.
    """

    shard: int
    after_writes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ValueError("shard must be >= 0")
        if self.after_writes is not None and self.after_writes < 0:
            raise ValueError("after_writes must be >= 0")


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """The declarative fault schedule.

    One object describes everything the injector can do to a disk (or
    a shard array sharing one injector): at most one power cut, any
    number of per-segment media faults (each optionally scoped to one
    shard), and any number of whole-shard losses.
    """

    power_cut: Optional[PowerCut] = None
    media_faults: Sequence[MediaFault] = ()
    shard_losses: Sequence[ShardLoss] = ()

    def __post_init__(self) -> None:
        seen: Set[int] = set()
        for loss in self.shard_losses:
            if loss.shard in seen:
                raise ValueError(
                    f"duplicate ShardLoss for shard {loss.shard}"
                )
            seen.add(loss.shard)


class FaultInjector:
    """Applies a fault plan to one or more simulated disks.

    The injector is consulted by :class:`repro.disk.simdisk.
    SimulatedDisk` on every segment read and write; disks pass their
    ``shard_index`` so shard-scoped faults hit the right member of an
    array.  It never touches disk contents itself; it tells the disk
    what to do.
    """

    def __init__(self, *, plan: Optional[FaultPlan] = None) -> None:
        plan = plan or FaultPlan()
        #: The armed power cut (None: none, or already spent).  Tests
        #: re-arm a running disk by assigning a new :class:`PowerCut`.
        self.crash_plan: Optional[PowerCut] = plan.power_cut
        #: Unscoped media faults, every one of a segment under its
        #: number (shard-scoped faults live in ``_scoped_faults``).
        self.media_faults: Dict[int, List[MediaFault]] = {}
        self._scoped_faults: Dict[Tuple[int, int], List[MediaFault]] = {}
        #: Shard losses not yet triggered, keyed by shard.
        self._pending_losses: Dict[int, ShardLoss] = {}
        #: Shards whose media is destroyed; survives power_cycle().
        self.lost_shards: Set[int] = set()
        for fault in plan.media_faults:
            self.add_media_fault(fault)
        for loss in plan.shard_losses:
            if loss.after_writes is None:
                self.lost_shards.add(loss.shard)
            else:
                self._pending_losses[loss.shard] = loss
        self.writes_seen = 0
        self.crashed = False
        self._rng = random.Random(
            plan.power_cut.seed if plan.power_cut else 0
        )

    # ------------------------------------------------------------------
    # Media faults
    # ------------------------------------------------------------------

    def add_media_fault(self, fault: MediaFault) -> None:
        """Register a media fault for one segment (shard-scoped if the
        fault carries a shard), beside any it already has."""
        if fault.shard is None:
            self.media_faults.setdefault(fault.segment_no, []).append(fault)
        else:
            key = (fault.shard, fault.segment_no)
            self._scoped_faults.setdefault(key, []).append(fault)

    def clear_media_fault(
        self, segment_no: int, shard: Optional[int] = None
    ) -> None:
        """Remove every media fault of a segment (repaired sectors)."""
        if shard is None:
            self.media_faults.pop(segment_no, None)
        else:
            self._scoped_faults.pop((shard, segment_no), None)

    def _faults_for(
        self, segment_no: int, shard: Optional[int]
    ) -> Sequence[MediaFault]:
        faults = self.media_faults.get(segment_no, ())
        if shard is not None:
            scoped = self._scoped_faults.get((shard, segment_no))
            if scoped:
                faults = [*scoped, *faults]
        return faults

    # ------------------------------------------------------------------
    # Shard loss
    # ------------------------------------------------------------------

    def lose_shard(self, shard: int) -> None:
        """Destroy one member disk's media, effective immediately."""
        self._pending_losses.pop(shard, None)
        self.lost_shards.add(shard)

    def replace_shard(self, shard: int) -> None:
        """Install replacement hardware for a lost shard.

        Clears the loss so a *fresh* disk registered under that shard
        index works again.  The destroyed platter's contents are gone
        either way; only the array's repair path, which rebuilds the
        shard from its peers, should call this.
        """
        self.lost_shards.discard(shard)
        self._pending_losses.pop(shard, None)

    def _check_shard(self, segment_no: int, shard: Optional[int],
                     what: str) -> None:
        """Trigger due shard losses, then gate I/O on a lost shard."""
        if self._pending_losses:
            due = [
                loss.shard
                for loss in self._pending_losses.values()
                if loss.after_writes is not None
                and self.writes_seen >= loss.after_writes
            ]
            for s in due:
                del self._pending_losses[s]
                self.lost_shards.add(s)
        if shard is not None and shard in self.lost_shards:
            raise ShardLostError(shard, f"{what} of segment {segment_no}")

    # ------------------------------------------------------------------
    # I/O gates
    # ------------------------------------------------------------------

    def on_write(
        self, segment_no: int, nbytes: int, shard: Optional[int] = None
    ) -> Optional[int]:
        """Gate one write: one byte range of one segment.

        Every write the disk is handed calls this once, in submission
        order, batched (:meth:`~repro.disk.simdisk.SimulatedDisk.batch`)
        or not: a closed log segment is two ticks, its data slots and
        then its chunk, so ``after_writes`` can cut between them, and
        counts identically whether the log is written one segment at a
        time or drained through the write-behind queue — crash sweeps
        enumerate the same tear points either way.

        Returns:
            None for a normal write; otherwise the number of bytes of
            the write that survive (0 for a fully dropped write, or a
            positive prefix length for a torn write).

        Raises:
            DiskCrashedError: If the disk already crashed.
            ShardLostError: If this disk's shard has been destroyed.
        """
        self._check_shard(segment_no, shard, "write")
        if self.crashed:
            raise DiskCrashedError(f"write to segment {segment_no} after crash")
        if self.crash_plan is None:
            self.writes_seen += 1
            return None
        if self.writes_seen >= self.crash_plan.after_writes:
            self.crashed = True
            if self.crash_plan.torn:
                return self._tear_point(nbytes)
            return 0
        self.writes_seen += 1
        return None

    def _tear_point(self, nbytes: int) -> int:
        """Pick how many bytes of the crashing write survive.

        Sector granularity: some strict prefix of whole sectors makes
        it to the platter; a write within one sector is dropped whole
        (sectors are the unit of atomicity).  Byte granularity: any
        strict prefix, maximally adversarial.
        """
        plan = self.crash_plan
        if plan.granularity == "sector":
            sectors = -(-nbytes // plan.sector_size)  # ceil
            if sectors <= 1:
                return 0
            return self._rng.randrange(1, sectors) * plan.sector_size
        if nbytes > 1:
            return self._rng.randrange(1, nbytes)
        return 0

    def on_read(
        self, segment_no: int, data: bytes, shard: Optional[int] = None
    ) -> bytes:
        """Gate one segment read, applying media faults.

        Raises:
            DiskCrashedError: If the disk has crashed (power is off).
            ShardLostError: If this disk's shard has been destroyed.
            MediaError: If the segment is marked unreadable.
        """
        self._check_shard(segment_no, shard, "read")
        if self.crashed:
            raise DiskCrashedError(f"read of segment {segment_no} after crash")
        faults = self._faults_for(segment_no, shard)
        if not faults:
            return data
        if any(fault.kind == "unreadable" for fault in faults):
            raise MediaError(f"segment {segment_no} is unreadable")
        spans = sorted((0, len(data)) if f.span is None else f.span for f in faults)
        # Overlapping spans are merged, so every byte in one flips once.
        merged = [list(spans[0])]
        for start, end in spans[1:]:
            if start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        rotten = bytearray(data)
        for start, end in merged:
            rotten[start:end] = _flip_bits(data[start:end])
        return bytes(rotten)

    def power_cycle(self) -> None:
        """Restore power after a crash (the recovery path may now read).

        Power restoration does not resurrect lost shards: a
        :class:`ShardLoss` destroys media, not electricity, and only
        :meth:`replace_shard` undoes it.
        """
        self.crashed = False
        self.crash_plan = None


def _flip_bits(data: bytes) -> bytes:
    """Return ``data`` with every byte bit-flipped (detectably corrupt)."""
    return bytes(b ^ 0xFF for b in data)
