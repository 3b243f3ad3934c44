"""Wall-clock fast-path benchmarks: real ops/sec, not simulated time.

Every other bench in this directory measures *simulated* time (the
cost model's clock).  This one holds the Python itself accountable:
it times the hot paths with ``time.perf_counter`` and gates the fast
implementations against the reference implementations kept in-tree —

* summary decode: :func:`repro.lld.summary.decode_entry_tuples`
  (batch, tuple-based) vs :func:`repro.lld.summary.decode_entries`
  (the reference object codec) — **gated at >= 2x entries/sec**;
* segment assembly: zero-copy :meth:`SegmentBuffer.seal` (image
  filled at ``append_write``, finished in place) vs
  :func:`repro.lld.segment.reference_seal` over an old-style
  copy-at-seal buffer — gated non-regressing, images byte-identical;
* recovery: ``recover`` vs the serial, object-based
  :func:`~repro.lld.recovery_reference.reference_recover` on the same
  platter — gated non-regressing, state identical;
* write-storm / read-scan ops/sec — recorded for the trajectory.

Results accumulate in ``benchmarks/results/BENCH_wallclock.json``;
``PERF_NOTES.md`` tracks the trajectory every future PR must not
regress.  All timings are best-of-``REPEATS`` to shrug off scheduler
noise; gates still keep a safety margin because CI machines are
shared.
"""

import time

import pytest

from repro.disk.geometry import TRAILER_SIZE, DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.harness.reporting import format_table
from repro.ld.types import FIRST, PhysAddr
from repro.lld.checkpoint import snapshot_checkpoint
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import recover
from repro.lld.recovery_reference import reference_recover
from repro.lld.segment import SegmentBuffer, decode_segment, reference_seal
from repro.lld.summary import (
    EntryKind,
    SummaryEntry,
    decode_entries,
    decode_entry_tuples,
    encode_entries,
)

from benchmarks.conftest import full_scale, report_json, report_table

#: Enforced gates (acceptance criteria for the fast paths).
DECODE_SPEEDUP_GATE = 2.0
ASSEMBLY_SPEEDUP_GATE = 0.9  # non-regression (expected ~1.3-1.5x)
RECOVERY_SPEEDUP_GATE = 0.95  # non-regression (expected > 1x)

REPEATS = 5
N_DECODE_ENTRIES = 20_000 if full_scale() else 6_000
N_ASSEMBLY_SEGMENTS = 24 if full_scale() else 8
N_STORM_BLOCKS = 4_000 if full_scale() else 1_200
RECOVERY_SEGMENTS = 400 if full_scale() else 160

#: Collected by the tests below; whichever runs last writes the file
#: with everything gathered so far.
_RESULTS: dict = {}


def _save() -> None:
    report_json("wallclock", _RESULTS)


def _best_seconds(fn, repeats: int = REPEATS) -> float:
    """Best-of-N wall time of ``fn()`` (minimum over repeats)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


# ----------------------------------------------------------------------
# Summary decode: the >= 2x gate
# ----------------------------------------------------------------------


def _mixed_summary(n_entries: int) -> bytes:
    """A realistic summary: mostly WRITEs, sprinkled list ops/commits."""
    entries = []
    for i in range(n_entries):
        r = i % 10
        if r < 6:
            entries.append(
                SummaryEntry(EntryKind.WRITE, i % 7, i, i % 500 + 1, i % 120)
            )
        elif r < 7:
            entries.append(
                SummaryEntry(EntryKind.ALLOC_BLOCK, 0, i, i % 500 + 1, i % 9 + 1)
            )
        elif r < 8:
            entries.append(
                SummaryEntry(
                    EntryKind.LINK, i % 7, i, i % 9 + 1, i % 500 + 1, i % 500
                )
            )
        elif r < 9:
            entries.append(SummaryEntry(EntryKind.COMMIT, i % 7 + 1, i, 12))
        else:
            entries.append(SummaryEntry(EntryKind.NEW_LIST, 0, i, i % 9 + 1))
    return encode_entries(entries)


@pytest.mark.benchmark(group="wallclock")
def test_summary_decode_speedup(benchmark):
    """Batch tuple decode must beat the object codec >= 2x (and agree)."""
    raw = _mixed_summary(N_DECODE_ENTRIES)

    # Field-for-field identity first: the fast path is only admissible
    # while it reads the stream exactly like the reference codec.
    objects = list(decode_entries(raw))
    tuples = decode_entry_tuples(raw)
    assert len(objects) == len(tuples) == N_DECODE_ENTRIES
    identical = all(
        int(o.kind) == t[0]
        and o.aru_tag == t[1]
        and o.timestamp == t[2]
        and (o.a, o.b, o.c)[: len(t) - 3] == t[3:]
        for o, t in zip(objects, tuples)
    )
    assert identical, "tuple decode diverges from the reference codec"

    ref_s = _best_seconds(lambda: list(decode_entries(raw)))
    fast_s = _best_seconds(lambda: decode_entry_tuples(raw))
    benchmark.pedantic(lambda: decode_entry_tuples(raw), rounds=1, iterations=1)

    ref_ops = N_DECODE_ENTRIES / ref_s
    fast_ops = N_DECODE_ENTRIES / fast_s
    speedup = fast_ops / ref_ops

    table = format_table(
        f"Wall clock — summary decode, {N_DECODE_ENTRIES} entries "
        "(best-of-%d)" % REPEATS,
        ["ms", "entries/sec"],
        {
            "object codec (reference)": [ref_s * 1000.0, ref_ops],
            "tuple batch decode": [fast_s * 1000.0, fast_ops],
        },
    )
    report_table("wallclock_decode", table)

    _RESULTS["summary_decode"] = {
        "entries": N_DECODE_ENTRIES,
        "reference_ms": round(ref_s * 1000.0, 3),
        "fast_ms": round(fast_s * 1000.0, 3),
        "reference_entries_per_sec": round(ref_ops),
        "fast_entries_per_sec": round(fast_ops),
        "speedup": round(speedup, 2),
        "gate": DECODE_SPEEDUP_GATE,
        "identical": identical,
    }
    _save()
    benchmark.extra_info["decode_speedup"] = round(speedup, 2)
    assert speedup >= DECODE_SPEEDUP_GATE, (
        f"tuple decode only {speedup:.2f}x over the object codec "
        f"(gate {DECODE_SPEEDUP_GATE}x)"
    )


# ----------------------------------------------------------------------
# Segment assembly: zero-copy fill + in-place seal
# ----------------------------------------------------------------------


class _OldStyleBuffer:
    """A faithful replica of the pre-fast-path buffer.

    Same bookkeeping as the original ``SegmentBuffer`` (length check,
    dedup dict, room check, owner list, ``PhysAddr`` result) but data
    is only *referenced* at ``add_block`` and copied into a fresh
    image at seal time — the copy-at-seal baseline the zero-copy path
    is measured against.  Duck-types what :func:`reference_seal`
    needs.
    """

    def __init__(self, geometry: DiskGeometry, seq: int, segment_no: int):
        self.geometry = geometry
        self.seq = seq
        self.segment_no = segment_no
        self._slots = []
        self._slot_owner = []
        self._block_slot = {}
        self.entries = []
        self.summary_bytes = 0

    @property
    def block_count(self):
        return len(self._slots)

    def bytes_free(self):
        used = len(self._slots) * self.geometry.block_size + self.summary_bytes
        return self.geometry.usable_size - used

    def has_room(self, new_blocks, entry_bytes):
        need = new_blocks * self.geometry.block_size + entry_bytes
        return need <= self.bytes_free()

    def add_block(self, block_id, data):
        if len(data) != self.geometry.block_size:
            raise ValueError("bad block size")
        slot = self._block_slot.get(block_id)
        if slot is None:
            slot = len(self._slots)
            if not self.has_room(1, 0):
                raise RuntimeError("overflow")
            self._slots.append(data)
            self._slot_owner.append(block_id)
            self._block_slot[block_id] = slot
        else:
            self._slots[slot] = data
        return PhysAddr(self.segment_no, slot)

    def add_entry(self, entry):
        size = entry.encoded_size()
        if size > self.bytes_free():
            raise RuntimeError("overflow")
        self.entries.append(entry)
        self.summary_bytes += size

    def _slot_bytes(self, slot):
        return self._slots[slot]


def _segment_workload(geometry: DiskGeometry):
    """(block payloads, summary entries) filling most of one segment."""
    usable = geometry.segment_size - TRAILER_SIZE
    entry_size = SummaryEntry(EntryKind.WRITE, 0, 0, 1, 0).encoded_size()
    n_blocks = (usable - 64 * entry_size) // (geometry.block_size + entry_size)
    payloads = [
        bytes([i % 251]) * geometry.block_size for i in range(n_blocks)
    ]
    entries = [
        SummaryEntry(EntryKind.WRITE, i % 5, i, i + 1, i)
        for i in range(n_blocks)
    ] + [SummaryEntry(EntryKind.COMMIT, tag, n_blocks + tag, 7) for tag in (1, 2)]
    return payloads, entries


@pytest.mark.benchmark(group="wallclock")
def test_segment_assembly_throughput(benchmark):
    """Zero-copy assembly: byte-identical images, non-regressing MB/s."""
    geometry = DiskGeometry()
    payloads, entries = _segment_workload(geometry)

    def fill_fast():
        images = []
        for seg in range(N_ASSEMBLY_SEGMENTS):
            buf = SegmentBuffer(geometry, seq=seg + 1, segment_no=seg)
            for i, data in enumerate(payloads):
                buf.append_write(i + 1, data, i % 5, i)
            for entry in entries[len(payloads) :]:
                buf.add_entry(entry)
            images.append(buf.seal())
        return images

    def fill_reference():
        images = []
        for seg in range(N_ASSEMBLY_SEGMENTS):
            buf = _OldStyleBuffer(geometry, seq=seg + 1, segment_no=seg)
            for i, data in enumerate(payloads):
                buf.add_block(i + 1, data)
            for entry in entries:
                buf.add_entry(entry)
            images.append(reference_seal(buf))
        return images

    # Byte identity before speed: same blocks + entries must produce
    # exactly the same on-platter image.
    identical = [bytes(i) for i in fill_fast()] == fill_reference()
    assert identical, "zero-copy assembly diverges from reference images"

    ref_s = _best_seconds(fill_reference)
    fast_s = _best_seconds(fill_fast)
    benchmark.pedantic(fill_fast, rounds=1, iterations=1)

    seg_mb = geometry.segment_size / (1024.0 * 1024.0)
    ref_mbps = N_ASSEMBLY_SEGMENTS * seg_mb / ref_s
    fast_mbps = N_ASSEMBLY_SEGMENTS * seg_mb / fast_s
    speedup = fast_mbps / ref_mbps

    table = format_table(
        f"Wall clock — segment assembly, {N_ASSEMBLY_SEGMENTS} segments "
        f"of {len(payloads)} blocks (best-of-{REPEATS})",
        ["ms", "MB/s", "segments/sec"],
        {
            "copy-at-seal (reference)": [
                ref_s * 1000.0,
                ref_mbps,
                N_ASSEMBLY_SEGMENTS / ref_s,
            ],
            "zero-copy fill+seal": [
                fast_s * 1000.0,
                fast_mbps,
                N_ASSEMBLY_SEGMENTS / fast_s,
            ],
        },
    )
    report_table("wallclock_assembly", table)

    _RESULTS["segment_assembly"] = {
        "segments": N_ASSEMBLY_SEGMENTS,
        "blocks_per_segment": len(payloads),
        "reference_ms": round(ref_s * 1000.0, 3),
        "fast_ms": round(fast_s * 1000.0, 3),
        "reference_mb_per_sec": round(ref_mbps, 1),
        "fast_mb_per_sec": round(fast_mbps, 1),
        "speedup": round(speedup, 2),
        "gate": ASSEMBLY_SPEEDUP_GATE,
        "identical": identical,
    }
    _save()
    benchmark.extra_info["assembly_speedup"] = round(speedup, 2)
    assert speedup >= ASSEMBLY_SPEEDUP_GATE, (
        f"zero-copy assembly regressed to {speedup:.2f}x of reference "
        f"(gate {ASSEMBLY_SPEEDUP_GATE}x)"
    )


# ----------------------------------------------------------------------
# Recovery: the production pipeline vs the reference, real seconds
# ----------------------------------------------------------------------


def _build_log(target_segments: int) -> SimulatedDisk:
    geo = DiskGeometry.small(num_segments=target_segments + 36, block_size=1024)
    disk = SimulatedDisk(geo)
    lld = LLD(
        disk,
        config=LLDConfig(
            checkpoint_slot_segments=2,
            clean_low_water=2,
            clean_high_water=4,
        ),
    )
    lst = lld.new_list()
    previous = FIRST
    index = 0
    while lld.segments_flushed < target_segments:
        block = lld.new_block(lst, predecessor=previous)
        lld.write(block, f"payload-{index}".encode())
        previous = block
        index += 1
    lld.flush()
    return disk


@pytest.mark.benchmark(group="wallclock")
def test_recovery_scan_wallclock(benchmark):
    """Production recovery must not be slower than the reference.

    Both recoveries run over the same platter; the rebuilt persistent
    state must serialize identically (the fast path earns no speed by
    dropping correctness).
    """
    disk = _build_log(RECOVERY_SEGMENTS)
    config = LLDConfig(checkpoint_slot_segments=2)

    def run(recover_fn):
        return recover_fn(disk.power_cycle(), config=config)

    ref_lld, ref_report = run(reference_recover)
    fast_lld, fast_report = run(recover)
    identical = ref_lld.checkpoints._serialize(
        snapshot_checkpoint(ref_lld)
    ) == fast_lld.checkpoints._serialize(snapshot_checkpoint(fast_lld))
    assert identical, "production recovery rebuilt different state"
    assert fast_report.entries_replayed == ref_report.entries_replayed

    ref_s = _best_seconds(lambda: run(reference_recover), repeats=3)
    fast_s = _best_seconds(lambda: run(recover), repeats=3)
    benchmark.pedantic(lambda: run(recover), rounds=1, iterations=1)

    segs = fast_report.segments_replayed
    speedup = ref_s / fast_s

    table = format_table(
        f"Wall clock — recovery of a {segs}-segment log (best-of-3)",
        ["wall ms", "segments/sec"],
        {
            "reference_recover": [ref_s * 1000.0, segs / ref_s],
            "recover": [fast_s * 1000.0, segs / fast_s],
        },
    )
    report_table("wallclock_recovery", table)

    _RESULTS["recovery_scan"] = {
        "log_segments": segs,
        "entries_replayed": fast_report.entries_replayed,
        "reference_wall_ms": round(ref_s * 1000.0, 2),
        "fast_wall_ms": round(fast_s * 1000.0, 2),
        "reference_segments_per_sec": round(segs / ref_s),
        "fast_segments_per_sec": round(segs / fast_s),
        "speedup": round(speedup, 2),
        "gate": RECOVERY_SPEEDUP_GATE,
        "identical": identical,
    }
    _save()
    benchmark.extra_info["recovery_speedup"] = round(speedup, 2)
    assert speedup >= RECOVERY_SPEEDUP_GATE, (
        f"recovery regressed to {speedup:.2f}x of reference_recover "
        f"(gate {RECOVERY_SPEEDUP_GATE}x)"
    )


# ----------------------------------------------------------------------
# Write storm / read scan: trajectory numbers (recorded, not gated)
# ----------------------------------------------------------------------


@pytest.mark.benchmark(group="wallclock")
def test_write_storm_and_read_scan_ops(benchmark):
    """End-to-end ops/sec through the whole stack, for the record.

    No in-run reference exists for these (the whole stack *is* the
    fast path), so they are recorded as the trajectory every future
    PR's numbers are compared against in PERF_NOTES.md.
    """
    geo = DiskGeometry.small(num_segments=256)

    def storm():
        disk = SimulatedDisk(geo)
        lld = LLD(disk, config=LLDConfig(checkpoint_slot_segments=2))
        lst = lld.new_list()
        blocks = []
        payload = b"w" * 900
        for _ in range(N_STORM_BLOCKS):
            block = lld.new_block(lst)
            lld.write(block, payload)
            blocks.append(block)
        lld.flush()
        return lld, blocks

    lld, blocks = storm()
    storm_s = _best_seconds(storm, repeats=3)

    def scan():
        for block in blocks:
            lld.read(block)

    scan_s = _best_seconds(scan, repeats=3)
    benchmark.pedantic(scan, rounds=1, iterations=1)

    write_ops = N_STORM_BLOCKS / storm_s
    read_ops = len(blocks) / scan_s
    block_mb = geo.block_size / (1024.0 * 1024.0)

    table = format_table(
        f"Wall clock — {N_STORM_BLOCKS}-block write storm and read scan "
        "(best-of-3)",
        ["wall ms", "ops/sec", "MB/s"],
        {
            "write storm": [
                storm_s * 1000.0,
                write_ops,
                write_ops * block_mb,
            ],
            "read scan": [scan_s * 1000.0, read_ops, read_ops * block_mb],
        },
    )
    report_table("wallclock_ops", table)

    _RESULTS["write_storm"] = {
        "blocks": N_STORM_BLOCKS,
        "wall_ms": round(storm_s * 1000.0, 2),
        "writes_per_sec": round(write_ops),
        "mb_per_sec": round(write_ops * block_mb, 2),
    }
    _RESULTS["read_scan"] = {
        "blocks": len(blocks),
        "wall_ms": round(scan_s * 1000.0, 2),
        "reads_per_sec": round(read_ops),
        "mb_per_sec": round(read_ops * block_mb, 2),
    }
    _save()
    benchmark.extra_info["writes_per_sec"] = round(write_ops)
    benchmark.extra_info["reads_per_sec"] = round(read_ops)
    assert write_ops > 0 and read_ops > 0
