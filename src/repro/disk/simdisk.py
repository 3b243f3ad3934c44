"""A segment-granular simulated disk.

LLD's write path is segment-at-a-time by construction ("segments that
are filled in main memory and written to disk in single disk
operations"), so the simulated disk is segment-addressed: whole-segment
writes, byte-range writes within a segment
(:meth:`SimulatedDisk.write_at`, what LLD's log uses: a segment's data
slots and then its summary chunk, never the free gap between them),
whole-segment or intra-segment reads.  The three write calls share one
range writer; a :meth:`SimulatedDisk.batch` groups writes into one
scatter-gather operation, which defers only their timing charge.
Contents are stored sparsely per segment: a segment last written whole
is one immutable ``bytes`` snapshot, so a whole-segment read hands it
out without a copy; the first range written into a segment turns it
into a ``bytearray`` that this and every later range write update
where they land, so a write costs the bytes it writes and the bytes it
skips keep whatever an earlier write left there.  Reads always return
``bytes``; a whole-segment read turns a ``bytearray`` entry back into
a ``bytes`` snapshot first, so later whole reads are uncopied, and
:meth:`~SimulatedDisk.snapshot` copies ``bytes`` entries only.  Latency
is charged to the shared :class:`~repro.disk.clock.SimClock` through a
:class:`~repro.disk.timing.DiskTimer`.

Failure injection is delegated to a
:class:`~repro.disk.faults.FaultInjector`: power failures drop or
tear in-flight segment writes, media faults corrupt reads.  After a
simulated crash, :meth:`power_cycle` returns a *new* disk view of the
surviving bytes, which is what the recovery scan reads.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.disk.clock import SimClock
from repro.disk.faults import FaultInjector
from repro.disk.geometry import DiskGeometry
from repro.disk.timing import DiskModel, DiskTimer, HP_C3010
from repro.obs.registry import NULL_HISTOGRAM


class SimulatedDisk:
    """Simulated segment-addressed disk with timing and faults.

    Args:
        geometry: Partition layout.
        clock: Shared simulated clock; a private one is created if
            omitted (convenient in unit tests).
        model: Mechanical timing model; defaults to the paper's
            HP C3010.
        injector: Fault injector; defaults to a fault-free one.
        shard_index: This disk's position in a sharded array, if any.
            Passed to the injector on every read and write so
            shard-scoped faults (per-shard media faults, whole-shard
            loss) hit the right member disk.  ``None`` for a
            standalone disk.
    """

    def __init__(
        self,
        geometry: DiskGeometry,
        clock: Optional[SimClock] = None,
        model: DiskModel = HP_C3010,
        injector: Optional[FaultInjector] = None,
        shard_index: Optional[int] = None,
    ) -> None:
        self.geometry = geometry
        self.clock = clock if clock is not None else SimClock()
        self.timer = DiskTimer(self.clock, model)
        self.injector = injector if injector is not None else FaultInjector()
        self.shard_index = shard_index
        #: Written segments: ``bytes`` if last written whole, a
        #: ``bytearray`` once a smaller range was written into it.
        self._segments: Dict[int, Union[bytes, bytearray]] = {}
        self.write_count = 0
        self.read_count = 0
        #: Open :meth:`batch` contexts, and the ranges written inside
        #: them, charged when the outermost one ends.
        self._batch_depth = 0
        self._batch: List[Tuple[int, int]] = []
        self._batcher = _WriteBatch(self)
        #: Set when :meth:`power_cycle` hands the platter to a
        #: successor disk; all I/O through this handle then raises.
        self._retired = False
        # Per-op latency histograms; no-ops until an owning system
        # calls :meth:`attach_observability`.  Observing a latency
        # never touches the clock (the timer already charged it), so
        # instrumentation cannot change simulated results.
        self._h_read_us = NULL_HISTOGRAM
        self._h_write_us = NULL_HISTOGRAM
        self._h_batch_read_us = NULL_HISTOGRAM
        self._h_batch_write_us = NULL_HISTOGRAM

    def attach_observability(self, obs) -> None:
        """Register per-op latency histograms against ``obs``.

        Called by the owning logical disk; a disabled registry hands
        back null instruments, keeping the hot path free.
        """
        metrics = obs.metrics
        self._h_read_us = metrics.histogram("disk.read_us")
        self._h_write_us = metrics.histogram("disk.write_us")
        self._h_batch_read_us = metrics.histogram("disk.batch_read_us")
        self._h_batch_write_us = metrics.histogram("disk.batch_write_us")

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------

    def write_segment(self, segment_no: int, data: bytes) -> None:
        """Write one whole segment.

        The write is synchronous: when this returns normally the
        bytes are durable.  Under an active crash plan the write may
        be dropped or torn, in which case :class:`DiskCrashedError`
        is raised *after* the surviving prefix is recorded — exactly
        the situation recovery must cope with.
        """
        if len(data) != self.geometry.segment_size:
            raise ValueError(
                f"segment write must be exactly {self.geometry.segment_size} "
                f"bytes, got {len(data)}"
            )
        self._write_range(segment_no, 0, data)

    def write_many(self, writes: Sequence[Tuple[int, bytes]]) -> None:
        """Scatter-gather write: many whole segments in one batch.

        Mirrors :meth:`read_many`: each element of ``writes`` is a
        ``(segment_no, data)`` pair of one full segment image.  The
        segments are written as one :meth:`batch`: adjacent segments
        cost one seek plus a single streamed transfer.
        """
        segment_size = self.geometry.segment_size
        for segment_no, data in writes:
            self.geometry.segment_offset(segment_no)  # bounds-check segment
            if len(data) != segment_size:
                raise ValueError(
                    f"segment write must be exactly {segment_size} bytes, "
                    f"got {len(data)} for segment {segment_no}"
                )
        with self.batch():
            for segment_no, data in writes:
                self._write_range(segment_no, 0, data)

    def write_at(self, segment_no: int, offset: int, data: bytes) -> None:
        """Write a byte range within a segment, in place.

        LLD writes its log this way, a segment's new data slots and
        then its summary chunk, never the free gap between them; a
        checkpoint writes its tail this way; overwrite-in-place
        clients such as :class:`repro.jld.JLD` update home locations
        at block granularity.  The write counts against crash plans
        like any other; a torn write keeps a prefix.  Only the bytes
        written are copied: they are assigned into the segment's
        ``bytearray``.
        """
        end = offset + len(data)
        if offset < 0 or end > self.geometry.segment_size:
            raise ValueError(f"write [{offset}, {end}) out of segment bounds")
        self._write_range(segment_no, offset, data)

    def batch(self) -> "_WriteBatch":
        """Issue every write made inside (``with disk.batch(): ...``)
        as one scatter-gather batch.

        A batch defers only the timing charge: the writes are charged
        together, when the batch ends, as one
        :meth:`~repro.disk.timing.DiskTimer.access_batch` (adjacent
        ranges coalesce, and a gap cheaper to stream past than to seek
        over is streamed).  Everything else happens at each write, in
        submission order: the fault injector gates every range
        individually, so an active
        :class:`~repro.disk.faults.PowerCut` ticks once per range, and
        a range submitted before another reaches the platter before it.
        Writes earlier in the batch are durable (and charged) before a
        power loss is reported; later ones never reach the platter.  A
        batch opened inside another joins it.
        """
        return self._batcher

    def _write_range(self, segment_no: int, offset: int, data) -> None:
        """The one write path under the three public write calls: gate
        the range through the fault injector, land it (or the torn
        prefix that survives) on the platter, charge it — now, or at
        the end of the open :meth:`batch`."""
        start = self.geometry.segment_offset(segment_no) + offset
        self._check_retired(f"write to segment {segment_no}")
        nbytes = len(data)
        surviving = self.injector.on_write(
            segment_no, nbytes, shard=self.shard_index
        )
        if surviving is None:
            self._land(segment_no, offset, data)
            self.write_count += 1
            if self._batch_depth:
                self._batch.append((start, nbytes))
            else:
                self._h_write_us.observe(self.timer.access(start, nbytes, True))
            return
        if surviving > 0:
            self._land(segment_no, offset, data[:surviving])
        from repro.errors import DiskCrashedError

        raise DiskCrashedError(
            f"power failure during write to segment {segment_no}"
        )

    def _land(self, segment_no: int, offset: int, data) -> None:
        """Put ``data`` on the platter at ``offset``: a whole segment
        as an immutable ``bytes`` snapshot, anything smaller into the
        segment's ``bytearray``, made (zero-filled if never written) by
        the first such write."""
        size = self.geometry.segment_size
        if offset == 0 and len(data) == size:
            self._segments[segment_no] = bytes(data)
            return
        raw = self._segments.get(segment_no)
        if raw.__class__ is not bytearray:
            raw = bytearray(size if raw is None else raw)
            self._segments[segment_no] = raw
        raw[offset : offset + len(data)] = data

    def read_segment(self, segment_no: int) -> bytes:
        """Read one whole segment (zero-filled if never written)."""
        return self.read(segment_no, 0, self.geometry.segment_size)

    def read(self, segment_no: int, offset: int, nbytes: int) -> bytes:
        """Read ``nbytes`` at byte ``offset`` within a segment."""
        if offset < 0 or nbytes < 0 or offset + nbytes > self.geometry.segment_size:
            raise ValueError(
                f"read [{offset}, {offset + nbytes}) out of segment bounds"
            )
        self._check_retired(f"read of segment {segment_no}")
        base = self.geometry.segment_offset(segment_no)
        raw = self._segments.get(segment_no)
        if raw is None:
            raw = b"\x00" * self.geometry.segment_size
        elif nbytes == self.geometry.segment_size:
            raw = self._snapshot_entry(segment_no, raw)
        raw = self.injector.on_read(segment_no, raw, shard=self.shard_index)
        self._h_read_us.observe(self.timer.access(base + offset, nbytes))
        self.read_count += 1
        chunk = raw[offset : offset + nbytes]
        # ``bytes`` whatever the entry: a slice of a ``bytes`` entry is
        # one already (a whole-segment slice is the entry itself), a
        # slice of a ``bytearray`` entry is copied out.
        return chunk if chunk.__class__ is bytes else bytes(chunk)

    def _snapshot_entry(self, segment_no: int, raw):
        """A segment read whole: a ``bytearray`` entry becomes an
        immutable ``bytes`` snapshot, once, so this read and every later
        whole read until the next range write hand it out uncopied."""
        if raw.__class__ is bytearray:
            raw = self._segments[segment_no] = bytes(raw)
        return raw

    def read_many(
        self,
        requests: Sequence[Tuple[int, int, int]],
        errors: str = "raise",
    ) -> List[Optional[bytes]]:
        """Scatter-gather read: many ranges in one batched operation.

        Each request is a ``(segment_no, offset, nbytes)`` triple (a
        range may not cross a segment boundary).  The batch is charged
        to the timing model as coalesced contiguous runs — adjacent
        ranges cost one seek plus a single sequential transfer, which
        is what makes the recovery scan and readahead run at media
        bandwidth instead of seek-bound.

        Results come back in request order.  ``errors`` controls media
        faults: ``"raise"`` propagates :class:`MediaError` like
        :meth:`read` does; ``"none"`` returns ``None`` for requests on
        unreadable segments so one bad segment does not abort the
        batch (recovery classifies those as unreadable).  A crashed
        disk always raises.
        """
        if errors not in ("raise", "none"):
            raise ValueError(f"unknown errors policy {errors!r}")
        self._check_retired("batched read")
        from repro.errors import MediaError

        geometry = self.geometry
        segment_size = geometry.segment_size
        for segment_no, offset, nbytes in requests:
            geometry.segment_offset(segment_no)  # bounds-check segment
            if offset < 0 or nbytes < 0 or offset + nbytes > segment_size:
                raise ValueError(
                    f"read [{offset}, {offset + nbytes}) out of segment bounds"
                )
        results: List[Optional[bytes]] = []
        ranges: List[Tuple[int, int]] = []
        zeros: Optional[bytes] = None
        for segment_no, offset, nbytes in requests:
            raw = self._segments.get(segment_no)
            if raw is None:
                if zeros is None:
                    zeros = b"\x00" * segment_size
                raw = zeros
            elif nbytes == segment_size:
                raw = self._snapshot_entry(segment_no, raw)
            try:
                raw = self.injector.on_read(segment_no, raw, shard=self.shard_index)
            except MediaError:
                if errors == "raise":
                    raise
                results.append(None)
                continue
            chunk = raw[offset : offset + nbytes]
            results.append(chunk if chunk.__class__ is bytes else bytes(chunk))
            ranges.append((geometry.segment_offset(segment_no) + offset, nbytes))
            self.read_count += 1
        if ranges:
            self._h_batch_read_us.observe(
                self.timer.access_batch(ranges, requests=len(ranges))
            )
        return results

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------

    @property
    def crashed(self) -> bool:
        """True while simulated power is off (or this handle was
        retired by a :meth:`power_cycle`)."""
        return self._retired or self.injector.crashed

    def _check_retired(self, what: str) -> None:
        """Reject I/O through a handle superseded by power_cycle.

        The survivor shares this handle's platter dict and injector;
        without this gate, clearing the injector's ``crashed`` flag
        for the survivor would silently resurrect the pre-crash
        handle, and writes through it would corrupt the survivor's
        platter underneath it.
        """
        if self._retired:
            from repro.errors import DiskCrashedError

            raise DiskCrashedError(
                f"{what} through a disk handle retired by power_cycle()"
            )

    def power_cycle(self) -> "SimulatedDisk":
        """Restore power after a crash.

        Returns a fresh :class:`SimulatedDisk` over the *same*
        surviving bytes with a fresh clock position, modelling a
        reboot: all in-memory state of the logical disk is gone, only
        platter contents remain.  This handle is *retired*: it shares
        the survivor's platter and fault injector, so any further I/O
        through it raises :class:`DiskCrashedError` (power-cycling it
        again is allowed and yields another fresh view).

        A segment written by ranges stays a ``bytearray`` in the shared
        dict until something reads it whole (:meth:`_snapshot_entry`):
        recovery reads only the segments it needs whole, so a reboot
        copies only those, once.
        """
        self.injector.power_cycle()
        survivor = self._view(self.clock, self._segments)
        self._retired = True
        return survivor

    def snapshot(self) -> "SimulatedDisk":
        """A live copy of this platter, as a reboot onto it would see
        it, that leaves this handle live too.

        The copy has a clock of its own and a platter of its own, and
        shares the fault injector, so media faults read the same.
        Writes through either handle do not reach the other: segments
        written in place are copied, the immutable rest is shared.
        """
        return self._view(
            SimClock(), {seg: bytes(raw) for seg, raw in self._segments.items()}
        )

    def _view(
        self, clock: SimClock, segments: Dict[int, Union[bytes, bytearray]]
    ) -> "SimulatedDisk":
        """A new handle like this one over ``segments``."""
        view = SimulatedDisk(
            self.geometry,
            clock=clock,
            model=self.timer.model,
            injector=self.injector,
            shard_index=self.shard_index,
        )
        view._segments = segments
        return view

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def head_offset(self) -> int:
        """Where the head is: the partition byte offset at which the
        last request of any kind ended (-1 before the first)."""
        return self.timer.head_offset

    def stats(self) -> dict:
        """I/O statistics snapshot for the harness."""
        return {
            "requests": self.timer.requests,
            "sequential_requests": self.timer.sequential_requests,
            "bytes_transferred": self.timer.bytes_transferred,
            "bytes_read": self.timer.bytes_read,
            "bytes_written": self.timer.bytes_written,
            "busy_us": self.timer.busy_us,
            "writes": self.write_count,
            "reads": self.read_count,
            "read_batches": self.timer.batches,
            "batched_requests": self.timer.batched_requests,
            "batched_runs": self.timer.batched_runs,
            "write_batches": self.timer.write_batches,
            "write_batched_requests": self.timer.write_batched_requests,
            "write_batched_runs": self.timer.write_batched_runs,
        }

    # ------------------------------------------------------------------
    # Image persistence
    # ------------------------------------------------------------------

    _IMAGE_MAGIC = b"LDIM"
    _IMAGE_HEADER = "<4sHHIIII"

    def save_image(self, path) -> int:
        """Persist the disk contents to an image file.

        Only written segments are stored, so images of mostly-empty
        disks stay small.  Returns the number of segments saved.
        Saving does not charge simulated time (it is a host-side
        operation, like dd-ing a real disk).
        """
        import struct

        geo = self.geometry
        written = sorted(self._segments)
        with open(path, "wb") as image:
            image.write(
                struct.pack(
                    self._IMAGE_HEADER,
                    self._IMAGE_MAGIC,
                    1,
                    0,
                    geo.block_size,
                    geo.segment_size,
                    geo.num_segments,
                    len(written),
                )
            )
            for seg in written:
                image.write(struct.pack("<I", seg))
                image.write(self._segments[seg])
        return len(written)

    @classmethod
    def load_image(
        cls,
        path,
        clock: Optional[SimClock] = None,
        model: DiskModel = HP_C3010,
    ) -> "SimulatedDisk":
        """Reconstruct a disk from an image written by
        :meth:`save_image`."""
        import struct

        from repro.errors import CorruptionError

        header_size = struct.calcsize(cls._IMAGE_HEADER)
        with open(path, "rb") as image:
            header = image.read(header_size)
            if len(header) < header_size:
                raise CorruptionError(f"{path}: truncated image header")
            magic, version, _pad, block_size, segment_size, num, count = (
                struct.unpack(cls._IMAGE_HEADER, header)
            )
            if magic != cls._IMAGE_MAGIC or version != 1:
                raise CorruptionError(f"{path}: not an LD disk image")
            geometry = DiskGeometry(
                block_size=block_size,
                segment_size=segment_size,
                num_segments=num,
            )
            disk = cls(geometry, clock=clock, model=model)
            for _ in range(count):
                entry = image.read(4)
                if len(entry) != 4:
                    raise CorruptionError(f"{path}: truncated segment index")
                (seg,) = struct.unpack("<I", entry)
                data = image.read(segment_size)
                if len(data) != segment_size:
                    raise CorruptionError(f"{path}: truncated segment {seg}")
                disk._segments[seg] = data
        return disk


class _WriteBatch:
    """The context :meth:`SimulatedDisk.batch` hands out, one per disk
    (opening a batch allocates nothing): the outermost exit charges
    the ranges written inside, crash or not."""

    __slots__ = ("_disk",)

    def __init__(self, disk: SimulatedDisk) -> None:
        self._disk = disk

    def __enter__(self) -> None:
        self._disk._batch_depth += 1

    def __exit__(self, *_exc) -> None:
        disk = self._disk
        disk._batch_depth -= 1
        ranges = disk._batch
        if disk._batch_depth or not ranges:
            return
        disk._h_batch_write_us.observe(
            disk.timer.access_batch(ranges, requests=len(ranges), is_write=True)
        )
        ranges.clear()
