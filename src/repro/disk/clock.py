"""Simulated time and the CPU cost model.

The evaluation in the paper measures wall-clock time on a 70 MHz
SPARC-5.  The dominant costs are (a) disk I/O and (b) CPU time spent
manipulating LLD meta-data records (the shadow/committed/persistent
machinery).  We reproduce both with a deterministic simulated clock:
the disk model charges I/O time and the :class:`CostModel` charges a
calibrated number of simulated microseconds for each meta-data
operation the implementation actually performs.

Because both the old (sequential-ARU) and the new (concurrent-ARU)
logical disks run against the same clock and cost model, the paper's
*relative* results — who is faster and by roughly what factor — come
out of genuine differences in the number of operations each version
performs, not out of hard-coded percentages.
"""

from __future__ import annotations

import dataclasses
import math


class SimClock:
    """A monotonically advancing simulated clock with microsecond units.

    The clock is shared by every component of a simulated machine:
    the disk charges I/O latencies, the logical disk charges CPU
    costs, and the benchmark harness reads elapsed time.  Timestamps
    handed out by :meth:`tick` are unique, which the logical disk
    relies on to order block versions.
    """

    def __init__(self, start_us: float = 0.0) -> None:
        self._now_us = float(start_us)
        self._tick_serial = 0

    @property
    def now_us(self) -> float:
        """Current simulated time in microseconds."""
        return self._now_us

    @property
    def now_s(self) -> float:
        """Current simulated time in seconds."""
        return self._now_us / 1e6

    def advance_us(self, delta_us: float) -> None:
        """Advance the clock by ``delta_us`` microseconds (finite, >= 0)."""
        if not 0 <= delta_us < math.inf:
            raise ValueError(f"cannot advance clock by {delta_us}")
        self._now_us += delta_us

    def tick(self) -> int:
        """Return a unique, strictly increasing logical timestamp.

        Logical timestamps order operations within the stream of
        blocks; they advance even when no simulated time passes so
        that two operations never share a timestamp.
        """
        self._tick_serial += 1
        return self._tick_serial

    def elapsed_since_us(self, mark_us: float) -> float:
        """Microseconds elapsed since ``mark_us``."""
        return self._now_us - mark_us


@dataclasses.dataclass(frozen=True)
class CostModel:
    """Per-operation CPU costs, in simulated microseconds.

    The default values are calibrated so that the combined system
    (Minix-style FS on LLD, driven by the simulated HP C3010 disk)
    lands in the paper's reported bands:

    * ARU begin+end pair: ~78 us (Section 5.3 reports 78.47 us),
    * small-file create overhead of concurrent ARUs: ~4-7 %,
    * small-file delete overhead: ~18-25 %,
    * large read/write overhead: < 3 %.

    Every field names one primitive the implementation performs; the
    logical disk charges the cost at the point the work happens.
    """

    #: Fixed entry cost of any LD call (argument checks, dispatch).
    ld_call_us: float = 2.0
    #: Starting an ARU: allocating the ARU record and stream state.
    aru_begin_us: float = 18.0
    #: Committing an ARU: stream merge bookkeeping and commit record.
    aru_commit_us: float = 30.0
    #: Creating an alternative (shadow or committed) block/list record.
    record_create_us: float = 8.0
    #: Transitioning a record between states (shadow->committed,
    #: committed->persistent), including unlinking from chains.
    record_transition_us: float = 6.0
    #: One hop while walking a same-identifier version chain.
    chain_hop_us: float = 1.5
    #: Appending one entry to an ARU's list-operation log.
    listop_log_us: float = 3.0
    #: Re-executing one logged list operation at commit time.
    listop_replay_us: float = 6.0
    #: Generating one segment-summary entry.
    summary_entry_us: float = 3.0
    #: One hop of a predecessor search along a block list.
    pred_search_step_us: float = 4.0
    #: Deallocating one block: free-space bookkeeping and cache
    #: invalidation (paid by every variant, old and new alike).
    block_dealloc_us: float = 15.0
    #: Surcharge for allocating a block or list from *inside* an ARU
    #: in the concurrent prototype: the allocation must be reserved
    #: synchronously in the merged stream while the insertion stays
    #: in the shadow stream (Section 3.3 — the paper names "block
    #: allocation in the committed state" as a main source of the
    #: create overhead).
    aru_alloc_us: float = 80.0
    #: Per-block CPU cost of moving 4 KB of data (copy into the
    #: segment buffer, checksumming).  ~55 us/4 KB approximates a
    #: 70 MHz SPARC's copy bandwidth.
    block_copy_us: float = 55.0
    #: Per-block CPU cost on the read path (cache lookup, copy out).
    block_read_us: float = 40.0
    #: Map/table lookup or update that is a plain hash access.
    table_access_us: float = 1.0
    #: Software CRC-32 over 1 KB of segment data on the read/validate
    #: path (~25 MB/s on the 70 MHz SPARC).  The write-side checksum
    #: is already folded into ``block_copy_us``.
    crc_kb_us: float = 40.0
    #: Parsing one segment-summary entry back out of its on-disk
    #: encoding (recovery scan, cleaner salvage).
    decode_entry_us: float = 2.0
    #: Completion bookkeeping for one segment retired from the
    #: write-behind queue (usage transition, cache install, commit
    #: tracking).  Charged at drain time with ``lanes`` equal to the
    #: batch size: the drainer overlaps completion processing with
    #: the streamed transfer of the remaining queue, so only the
    #: critical-path share advances the clock.
    writeback_us: float = 12.0
    #: File-system level per-call overhead (path parsing, inode ops).
    fs_call_us: float = 25.0
    #: Scanning one directory entry out of the buffer cache.
    dirent_scan_us: float = 0.5

    def __post_init__(self) -> None:
        """Every cost is a finite, non-negative number of µs: a
        single-unit charge adds its unit to the clock unchecked
        (:meth:`CostMeter.charge`), so this is where the rule that
        simulated time only goes forward holds for it."""
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(
                    f"CostModel.{field.name} must be a number, got {value!r}"
                )
            if not 0 <= value < math.inf:
                raise ValueError(
                    f"CostModel.{field.name} must be finite and >= 0, "
                    f"got {value!r}"
                )

    def scaled(self, factor: float) -> "CostModel":
        """Return a copy with every cost multiplied by ``factor``
        (validated like any other model).

        Useful for modelling faster or slower CPUs relative to the
        paper's 70 MHz SPARC baseline.
        """
        return CostModel(
            **{
                field.name: getattr(self, field.name) * factor
                for field in dataclasses.fields(self)
            }
        )


class _Units(dict):
    """Cost category -> simulated µs per occurrence: every field of a
    :class:`CostModel`, nothing else.  An unknown category raises
    ``AttributeError``, as the ``getattr`` on the model once did."""

    __slots__ = ()

    def __missing__(self, category: str):
        raise AttributeError(f"CostModel has no cost category {category!r}")


class _Cells(dict):
    """Cost category -> its cell ``[unit µs, count, charged µs]``.

    A cell is made on the category's first charge, so the meter's
    views list exactly the categories charged so far, in the order
    they were first charged."""

    __slots__ = ("_units",)

    def __init__(self, units: _Units) -> None:
        super().__init__()
        self._units = units

    def __missing__(self, category: str) -> list:
        cell = self[category] = [self._units[category], 0, 0.0]
        return cell


class CostMeter:
    """Charges :class:`CostModel` costs to a :class:`SimClock`.

    The meter also keeps per-category counters so tests and the
    harness can assert *which* work dominates, not just how long it
    took.

    Every simulated CPU microsecond passes through :meth:`charge`, so
    it is kept to the arithmetic the model prescribes.  Each category
    has one cell holding its unit (read out of the frozen model once),
    its count and its charged µs; :attr:`counters` and
    :attr:`charged_us` are read-only views of the cells.
    """

    def __init__(self, clock: SimClock, model: CostModel) -> None:
        self.clock = clock
        self.model = model
        self._units = _Units(
            (field.name, getattr(model, field.name))
            for field in dataclasses.fields(model)
        )
        self._cells = _Cells(self._units)

    def charge(self, category: str, count: float = 1, lanes: int = 1) -> None:
        """Charge ``count`` occurrences of the named cost category.

        ``category`` must be a field name of :class:`CostModel`
        (anything else raises ``AttributeError``).

        ``lanes`` models work overlapped across parallel workers (the
        pipelined recovery scan): the full ``count`` is recorded in
        the counters — the work really happened — but the clock only
        advances by the critical-path share ``count / lanes``.

        A single-unit charge, nearly every one, adds the unit to the
        clock's field and to its cell: ``unit * 1`` is ``unit``, and
        :class:`CostModel` has proved every unit finite and
        non-negative.  Any other charge advances the clock through
        :meth:`SimClock.advance_us` by ``unit * count``, divided by
        ``lanes`` when there is more than one.
        """
        if count == 1 and lanes == 1:
            cell = self._cells[category]
            unit = cell[0]
            self.clock._now_us += unit
            cell[1] += count
            cell[2] += unit
            return
        unit = self._units[category]
        if lanes == 1:
            elapsed = unit * count
        elif lanes > 1:
            elapsed = unit * count / lanes
        else:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        self.clock.advance_us(elapsed)
        cell = self._cells[category]
        cell[1] += count
        cell[2] += elapsed

    @property
    def counters(self) -> dict:
        """Category -> occurrences charged, for every category charged
        since construction or the last :meth:`reset_counters` (a copy)."""
        return {category: cell[1] for category, cell in self._cells.items()}

    @property
    def charged_us(self) -> dict:
        """Category -> simulated µs charged, over the same categories
        as :attr:`counters` (a copy)."""
        return {category: cell[2] for category, cell in self._cells.items()}

    def total_charged_us(self) -> float:
        """Total CPU microseconds charged so far."""
        return sum(cell[2] for cell in self._cells.values())

    def reset_counters(self) -> None:
        """Zero the counters (does not rewind the clock)."""
        self._cells.clear()
