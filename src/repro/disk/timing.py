"""Mechanical disk timing model.

Parameterized after the HP C3010 used in the paper's evaluation:
SCSI-II, 5400 rpm, 11.5 ms average seek.  The sustained transfer rate
is calibrated so that LLD's large sequential writes land around
2 MB/s, matching the scale of Figure 6 (the paper reports LLD using
85 % of the available bandwidth).

The model distinguishes sequential from random access: an I/O that
starts where the previous one ended pays no seek and no rotational
latency.  That is the property log-structured storage exploits, and
it is what makes write1/write2 fast and read2/read3 slow in Figure 6.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

from repro.disk.clock import SimClock


@dataclasses.dataclass(frozen=True)
class DiskModel:
    """Latency model for one disk.

    Attributes:
        avg_seek_us: Average seek time in microseconds.
        rpm: Spindle speed, used for average rotational latency
            (half a revolution).
        transfer_rate_bps: Sustained media transfer rate in
            bytes/second.
        controller_overhead_us: Fixed per-request command overhead
            (SCSI command processing, interrupt handling).
    """

    avg_seek_us: float = 11_500.0
    rpm: float = 5400.0
    transfer_rate_bps: float = 2_400_000.0
    controller_overhead_us: float = 500.0

    @property
    def avg_rotational_us(self) -> float:
        """Average rotational latency (half a revolution)."""
        return (60.0 / self.rpm) * 1e6 / 2.0

    def transfer_us(self, nbytes: int) -> float:
        """Media transfer time for ``nbytes``."""
        return nbytes / self.transfer_rate_bps * 1e6

    def request_us(self, nbytes: int, sequential: bool) -> float:
        """Total service time of one request.

        Args:
            nbytes: Request size in bytes.
            sequential: True if the request starts where the previous
                request on this disk ended (no seek, no rotation).
        """
        latency = self.controller_overhead_us + self.transfer_us(nbytes)
        if not sequential:
            latency += self.avg_seek_us + self.avg_rotational_us
        return latency

    def batch_us(self, ranges: Sequence[Tuple[int, int]]) -> float:
        """Service time of a batch of byte ranges that starts away
        from the head: each of its runs (:meth:`batch_runs`) positioned."""
        return sum(
            self.request_us(nbytes, sequential=False)
            for _offset, nbytes in self.batch_runs(ranges)
        )

    def batch_runs(self, ranges: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
        """The requests a scatter-gather batch of byte ranges is
        serviced as: maximal contiguous runs (:func:`coalesce_runs`),
        and runs separated by a gap cheaper to stream past than to seek
        over fused too."""
        seek_cost = (
            self.avg_seek_us + self.avg_rotational_us + self.controller_overhead_us
        )
        runs: List[Tuple[int, int]] = []
        for offset, nbytes in coalesce_runs(ranges):
            if runs:
                prev_offset, prev_len = runs[-1]
                gap = offset - (prev_offset + prev_len)
                if self.transfer_us(gap) <= seek_cost:
                    runs[-1] = (prev_offset, offset + nbytes - prev_offset)
                    continue
            runs.append((offset, nbytes))
        return runs


def coalesce_runs(
    ranges: Sequence[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """Merge byte ranges into maximal contiguous runs.

    ``ranges`` are (absolute offset, nbytes) pairs.  The result is
    sorted by offset; ranges that touch or overlap are fused into one
    run, so a scatter-gather batch over adjacent segments costs one
    seek plus a single sequential transfer instead of one seek per
    request.
    """
    if not ranges:
        return []
    ordered = sorted(ranges)
    runs: List[Tuple[int, int]] = []
    run_start, run_len = ordered[0]
    for offset, nbytes in ordered[1:]:
        if offset <= run_start + run_len:
            run_len = max(run_len, offset + nbytes - run_start)
        else:
            runs.append((run_start, run_len))
            run_start, run_len = offset, nbytes
    runs.append((run_start, run_len))
    return runs


#: The disk used in the paper's evaluation (Section 5.2).
HP_C3010 = DiskModel(
    avg_seek_us=11_500.0,
    rpm=5400.0,
    transfer_rate_bps=2_400_000.0,
    controller_overhead_us=500.0,
)


class DiskTimer:
    """Tracks head position and charges request latencies to a clock."""

    def __init__(self, clock: SimClock, model: DiskModel) -> None:
        self.clock = clock
        self.model = model
        self._head_offset: int = -1
        self.requests = 0
        self.sequential_requests = 0
        #: Bytes the head moved over, by direction: a read request's
        #: bytes, or a write request's (the gaps a write batch streams
        #: past included).
        self.bytes_read = 0
        self.bytes_written = 0
        self.busy_us = 0.0
        self.batches = 0
        self.batched_requests = 0
        self.batched_runs = 0
        self.write_batches = 0
        self.write_batched_requests = 0
        self.write_batched_runs = 0

    @property
    def head_offset(self) -> int:
        """Byte offset at which the last request ended (-1 before the
        first): a request that starts here pays no positioning."""
        return self._head_offset

    @property
    def bytes_transferred(self) -> int:
        """Bytes read and written."""
        return self.bytes_read + self.bytes_written

    def access(self, offset: int, nbytes: int, is_write: bool = False) -> float:
        """Charge one request at byte ``offset`` of size ``nbytes``
        (a write if ``is_write``).

        Returns the simulated service time in microseconds.
        """
        sequential = offset == self._head_offset
        latency = self.model.request_us(nbytes, sequential)
        self.clock.advance_us(latency)
        self._head_offset = offset + nbytes
        self.requests += 1
        if sequential:
            self.sequential_requests += 1
        if is_write:
            self.bytes_written += nbytes
        else:
            self.bytes_read += nbytes
        self.busy_us += latency
        return latency

    def access_batch(
        self,
        ranges: Sequence[Tuple[int, int]],
        requests: int = 0,
        is_write: bool = False,
    ) -> float:
        """Charge one scatter-gather batch of byte ranges.

        The ranges are coalesced into maximal contiguous runs first:
        each run is serviced as a single request (one seek at most —
        a run that starts at the head position pays none), so batched
        I/O over adjacent segments costs one seek plus one sequential
        transfer.  Runs separated by a gap that is cheaper to stream
        past than to seek over are fused too (read-through: the gap
        bytes are transferred and discarded, as real scatter-gather
        controllers do; on the write side this models a controller
        streaming a queue of segment writes past an already-positioned
        head).  ``requests`` is the number of logical requests the
        batch carries (for accounting); it defaults to
        ``len(ranges)``.  ``is_write`` selects the write-side batch
        counters so read and write pipelines are visible separately
        in :meth:`SimulatedDisk.stats`.

        Returns the total simulated service time in microseconds.
        """
        runs = self.model.batch_runs(ranges)
        total = 0.0
        for offset, nbytes in runs:
            total += self.access(offset, nbytes, is_write)
        if is_write:
            self.write_batches += 1
            self.write_batched_requests += requests if requests else len(ranges)
            self.write_batched_runs += len(runs)
        else:
            self.batches += 1
            self.batched_requests += requests if requests else len(ranges)
            self.batched_runs += len(runs)
        return total
