"""Regression tests pinning the wall-clock fast paths to their
reference implementations.

The fast paths (zero-copy segment assembly, the tuple summary
decoder, tuple-dispatch replay) exist purely
for wall-clock speed; every observable — platter bytes, decoded
fields, recovered state — must be byte-identical to the original
code, which is kept in-tree as oracles
(:func:`repro.lld.segment.reference_seal`,
:func:`repro.lld.summary.decode_entries`,
:func:`repro.lld.recovery_reference.reference_recover`).
"""

import random
import zlib

import pytest

from repro.core.records import BlockVersion, ListVersion
from repro.core.versions import VersionState
from repro.disk.faults import FaultInjector, FaultPlan, PowerCut
from repro.disk.geometry import DiskGeometry
from repro.errors import DiskCrashedError
from repro.fs import MinixFS
from repro.ld.types import BlockId
from repro.lld.config import LLDConfig
from repro.core.tables import BlockNumberMap, ListTable
from repro.lld.recovery import recover
from repro.lld.segment import SegmentBuffer, decode_segment, reference_seal
from repro.lld.summary import (
    EntryKind,
    SummaryEntry,
    decode_entries,
    decode_entry_tuples,
    encode_entries,
)

from tests.oracle import recoveries_agree
from tests.test_recovery_parallel import CONFIG, build, workload, write_span


# ----------------------------------------------------------------------
# Zero-copy assembly vs the copy-at-seal oracle
# ----------------------------------------------------------------------


def _filled_buffer(geometry, seed=7):
    """A buffer with a representative mix of payloads and entries."""
    rng = random.Random(seed)
    buf = SegmentBuffer(geometry, seq=42, segment_no=3)
    block_id = 1
    while buf.has_room(1, 64):
        data = bytes(rng.randrange(256) for _ in range(8)) * (
            geometry.block_size // 8
        )
        # Exercise all three input flavors the write path hands over:
        # bytes, bytearray, and a borrowed memoryview.
        flavor = block_id % 3
        if flavor == 1:
            payload = data
        elif flavor == 2:
            payload = bytearray(data)
        else:
            payload = memoryview(data)
        buf.append_write(BlockId(block_id), payload, block_id % 5, block_id * 10)
        if block_id % 7 == 0:
            buf.add_entry(
                SummaryEntry(EntryKind.COMMIT, block_id % 5, block_id * 10 + 1, 3)
            )
        if block_id % 11 == 0:
            # Overwrite-in-place of an earlier block (dedup path).
            buf.append_write(
                BlockId(max(1, block_id // 2)), memoryview(data), 0, block_id
            )
        block_id += 1
    return buf


class TestZeroCopyAssembly:
    def test_seal_matches_reference_assembly(self):
        geometry = DiskGeometry.small(block_size=1024)
        buf = _filled_buffer(geometry)
        reference = reference_seal(buf)  # before seal(); does not mutate
        image = buf.seal()
        assert isinstance(image, bytearray)
        assert bytes(image) == reference
        # Both images must decode, and identically.
        fast = decode_segment(bytes(image), geometry, 3)
        ref = decode_segment(reference, geometry, 3)
        assert fast is not None and ref is not None
        assert fast.entry_tuples == ref.entry_tuples
        assert fast.seq == ref.seq == 42

    def test_every_write_carries_its_slots_final_crc(self):
        """Both assemblies put the CRC-32 of a slot's final bytes in
        every WRITE entry naming it, those of a block rewritten in its
        unpublished slot included, and stay byte-identical."""
        geometry = DiskGeometry.small(block_size=1024)
        buf = _filled_buffer(geometry, seed=3)
        rewritten = BlockId(1)
        buf.append_write(rewritten, b"\x5a" * geometry.block_size, 0, 999)
        reference = reference_seal(buf)
        image = buf.seal()
        assert bytes(image) == reference
        decoded = decode_segment(reference, geometry, 3)
        writes = [e for e in decoded.entries if e.kind is EntryKind.WRITE]
        assert [e for e in buf.entries if e.kind is EntryKind.WRITE] == writes
        for entry in writes:
            assert entry.c == zlib.crc32(decoded.slot_data(entry.b))
        slot = buf._block_slot[rewritten]
        assert sum(1 for e in writes if e.b == slot) >= 2

    def test_sealed_buffer_is_frozen_and_not_aliased(self):
        """seal() returns the internal bytearray; safety of that alias
        rests on the buffer refusing every mutation afterwards."""
        geometry = DiskGeometry.small(block_size=1024)
        buf = _filled_buffer(geometry, seed=11)
        reference = reference_seal(buf)
        image = buf.seal()
        snapshot = bytes(image)
        assert buf.is_sealed
        block = bytes(geometry.block_size)
        with pytest.raises(RuntimeError):
            buf.append_write(BlockId(1), block, 0, 1)
        with pytest.raises(RuntimeError):
            buf.append_write(BlockId(10_000), block, 0, 1)  # new block too
        with pytest.raises(RuntimeError):
            buf.add_entry(SummaryEntry(EntryKind.COMMIT, 1, 2, 3))
        with pytest.raises(RuntimeError):
            buf.seal()
        # The rejected mutations must not have touched the image.
        assert bytes(image) == snapshot == reference

    def test_borrowed_views_are_consumed_not_retained(self):
        """A memoryview handed to append_write must be fully consumed
        before return: mutating the source afterwards cannot reach the
        buffer or the sealed image."""
        geometry = DiskGeometry.small(block_size=1024)
        buf = SegmentBuffer(geometry, seq=1, segment_no=0)
        source = bytearray(b"\xaa" * geometry.block_size)
        buf.append_write(BlockId(1), memoryview(source), 0, 1)
        source[:] = b"\xbb" * geometry.block_size  # mutate after handoff
        assert buf.get_block(BlockId(1)) == b"\xaa" * geometry.block_size
        image = buf.seal()
        assert bytes(image[: geometry.block_size]) == (
            b"\xaa" * geometry.block_size
        )


# ----------------------------------------------------------------------
# Tuple decoder vs the reference object codec
# ----------------------------------------------------------------------


_PAYLOAD_FIELD_COUNT = {
    EntryKind.WRITE: 3,
    EntryKind.ALLOC_BLOCK: 2,
    EntryKind.DELETE_BLOCK: 2,
    EntryKind.NEW_LIST: 1,
    EntryKind.DELETE_LIST: 1,
    EntryKind.LINK: 3,
    EntryKind.COMMIT: 1,
    EntryKind.PREPARE: 2,
    EntryKind.DECIDE: 1,
}


def _random_entries(rng, count):
    entries = []
    for _ in range(count):
        kind = rng.choice(list(EntryKind))
        # WRITE's second payload field is a 16-bit slot and its third
        # a 32-bit slot CRC; everything else is 64-bit.
        write = kind is EntryKind.WRITE
        entries.append(
            SummaryEntry(
                kind,
                aru_tag=rng.randrange(2**63),
                timestamp=rng.randrange(2**63),
                a=rng.randrange(2**63),
                b=rng.randrange(2**16 if write else 2**63),
                c=rng.randrange(2**32 if write else 2**63),
            )
        )
    return entries


class TestDecoderDifferential:
    def test_random_streams_decode_identically(self):
        rng = random.Random(1234)
        for trial in range(25):
            entries = _random_entries(rng, rng.randrange(1, 120))
            raw = encode_entries(entries)
            objects = list(decode_entries(raw))
            tuples = decode_entry_tuples(raw)
            assert len(objects) == len(tuples) == len(entries)
            for original, obj, fields in zip(entries, objects, tuples):
                count = _PAYLOAD_FIELD_COUNT[original.kind]
                expected = (original.a, original.b, original.c)[:count]
                assert obj.kind is original.kind
                assert fields[0] == int(original.kind)
                assert fields[1] == obj.aru_tag == original.aru_tag
                assert fields[2] == obj.timestamp == original.timestamp
                assert fields[3:] == expected
                assert (obj.a, obj.b, obj.c)[:count] == expected

    def test_memoryview_input(self):
        rng = random.Random(9)
        raw = encode_entries(_random_entries(rng, 40))
        view = memoryview(raw)
        assert decode_entry_tuples(view) == decode_entry_tuples(raw)
        assert list(decode_entries(view)) == list(decode_entries(raw))

    @pytest.mark.parametrize("cut", [1, 5, 16, 17, 24])
    def test_truncated_streams_raise_in_both(self, cut):
        entry = SummaryEntry(EntryKind.LINK, 1, 2, 3, 4, 5)
        raw = entry.encode()
        assert cut < len(raw)
        with pytest.raises(ValueError):
            decode_entry_tuples(raw[:cut])
        with pytest.raises(ValueError):
            list(decode_entries(raw[:cut]))

    def test_unknown_kind_raises_in_both(self):
        raw = b"\x7f" + b"\x00" * 24
        with pytest.raises(ValueError):
            decode_entry_tuples(raw)
        with pytest.raises(ValueError):
            list(decode_entries(raw))

    def test_empty_stream(self):
        assert decode_entry_tuples(b"") == []
        assert list(decode_entries(b"")) == []


# ----------------------------------------------------------------------
# Root tables: ids allocated densely from 1, plus far outliers
# ----------------------------------------------------------------------


def _alt(ident):
    return BlockVersion(BlockId(ident), VersionState.COMMITTED)


class TestDenseRootTables:
    def test_create_lookup_len_contains(self):
        table = BlockNumberMap()
        assert len(table.ids()) == 0
        assert 5 not in table.ids()
        record = _alt(5)
        table.push_alt(5, record)
        assert table.alts[5] is record
        assert len(table.ids()) == 1
        assert 5 in table.ids() and 4 not in table.ids()

    def test_sparse_spill_for_huge_identifiers(self):
        table = ListTable()
        far_id = 2**40 + 100
        for ident in (10, far_id):
            table.install_persistent(ListVersion(ident, VersionState.PERSISTENT))
        assert far_id in table.ids() and 10 in table.ids()
        assert len(table.ids()) == 2
        assert table.persistent[far_id].list_id == far_id

    def test_iteration_is_ascending_across_dense_and_sparse(self):
        table = BlockNumberMap()
        huge = [2**40 + 7, 2**40 + 3]
        idents = [9, 2, 5, *huge, 1]
        for ident in idents[::2]:
            table.push_alt(ident, _alt(ident))
        for ident in idents[1::2]:
            table.install_persistent(BlockVersion(ident, VersionState.PERSISTENT))
        assert table.ids() == [1, 2, 5, 9, *sorted(huge)]

    def test_drop_if_empty(self):
        table = BlockNumberMap()
        near_id, far_id = 3, 2**40
        for ident in (near_id, far_id):
            table.push_alt(ident, _alt(ident))
        assert len(table.ids()) == 2
        for ident in (near_id, far_id):
            table.remove_alt(ident, table.alts[ident])  # chain empties: entry goes
            assert ident not in table.ids()
        assert len(table.ids()) == 0 and table.alts == {}

    def test_drop_keeps_nonempty_roots(self):
        table = BlockNumberMap()
        table.install_persistent(BlockVersion(4, VersionState.PERSISTENT))
        table.push_alt(4, _alt(4))
        table.remove_alt(4, table.alts[4])
        assert 4 in table.ids() and len(table.ids()) == 1


# ----------------------------------------------------------------------
# Recovery: the production pipeline vs the reference recovery
# ----------------------------------------------------------------------


class TestReplayByteIdentity:
    def test_clean_shutdown_tuple_vs_object(self):
        disk, ld = build()
        fs = MinixFS.mkfs(ld, n_inodes=256)
        workload(fs)
        recoveries_agree(disk, CONFIG)

    @pytest.mark.parametrize("torn", [False, True])
    def test_crash_sweep_tuple_vs_object(self, torn):
        """Sampled crash sweep: at every sampled crash point,
        production (tuple replay) and the reference (object replay)
        rebuild identical state from the same platter
        (test_recovery_parallel.py runs the exhaustive sweep over the
        same workload)."""
        formatted, limit = write_span()
        assert limit - formatted > 10, "workload too small to be interesting"
        for crash_after in range(formatted, limit + 1, 7):
            cut = PowerCut(
                after_writes=crash_after, torn=torn, seed=crash_after
            )
            injector = FaultInjector(plan=FaultPlan(power_cut=cut))
            disk, ld = build(injector=injector)
            fs = MinixFS.mkfs(ld, n_inodes=256)
            try:
                workload(fs)
                continue  # the budget outlived the workload
            except DiskCrashedError:
                pass
            recoveries_agree(disk, CONFIG)

    def test_data_readable_after_tuple_replay(self):
        disk, ld = build()
        fs = MinixFS.mkfs(ld, n_inodes=256)
        workload(fs)
        lld, _report = recover(disk.power_cycle(), config=CONFIG)
        mounted = MinixFS.mount(lld)
        for name in mounted.listdir("/"):
            mounted.read_file(f"/{name}")

    def test_invalid_replay_and_executor_rejected(self):
        """The scan/replay/pool selectors are gone: recovery has one
        pipeline, and asking for another is a ``TypeError``."""
        disk, ld = build()
        ld.flush()
        for removed in (
            {"parallel": False},
            {"replay": "object"},
            {"executor": "process"},
            {"recovery_parallel": False},
            {"recovery_executor": "process"},
        ):
            with pytest.raises(TypeError):
                recover(disk.power_cycle(), **removed)
        with pytest.raises(TypeError):
            LLDConfig(recovery_executor="process")
        with pytest.raises(TypeError):
            LLDConfig(recovery_parallel=False)
