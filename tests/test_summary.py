"""Unit and property tests for segment-summary entries."""

import pytest
from hypothesis import given, strategies as st

from repro.lld.summary import (
    COMMIT_ENTRY_SIZE,
    EntryKind,
    SummaryEntry,
    decode_entries,
    encode_entries,
    entry_size,
)


class TestEntrySizes:
    def test_commit_entry_matches_paper_arithmetic(self):
        """Section 5.3: 500,000 commits fill ~24 x 0.5 MB segments,
        i.e. ~25 bytes per commit record."""
        assert COMMIT_ENTRY_SIZE == 25
        segments = 500_000 * COMMIT_ENTRY_SIZE / (512 * 1024)
        assert 20 <= segments <= 28

    def test_encoded_size_matches_encode(self):
        for kind in EntryKind:
            entry = SummaryEntry(kind, 1, 2, 3, 4, 5)
            assert len(entry.encode()) == entry.encoded_size() == entry_size(kind)


class TestRoundTrip:
    def test_single_entry(self):
        entry = SummaryEntry(EntryKind.WRITE, 7, 99, 12, 3)
        (decoded,) = list(decode_entries(entry.encode()))
        assert decoded.kind is EntryKind.WRITE
        assert decoded.aru_tag == 7
        assert decoded.timestamp == 99
        assert decoded.a == 12
        assert decoded.b == 3

    def test_mixed_entries_preserve_order(self):
        entries = [
            SummaryEntry(EntryKind.NEW_LIST, 0, 1, 5),
            SummaryEntry(EntryKind.ALLOC_BLOCK, 0, 2, 10, 5),
            SummaryEntry(EntryKind.LINK, 3, 4, 5, 10, 0),
            SummaryEntry(EntryKind.WRITE, 3, 5, 10, 0),
            SummaryEntry(EntryKind.COMMIT, 3, 6, 4),
            SummaryEntry(EntryKind.DELETE_BLOCK, 0, 7, 10),
            SummaryEntry(EntryKind.DELETE_LIST, 0, 8, 5),
        ]
        decoded = list(decode_entries(encode_entries(entries)))
        assert decoded == entries

    def test_empty_summary(self):
        assert list(decode_entries(b"")) == []

    def test_truncated_header_rejected(self):
        raw = SummaryEntry(EntryKind.COMMIT, 1, 1, 1).encode()
        with pytest.raises(ValueError):
            list(decode_entries(raw[:10]))

    def test_truncated_payload_rejected(self):
        raw = SummaryEntry(EntryKind.LINK, 1, 1, 1, 2, 3).encode()
        with pytest.raises(ValueError):
            list(decode_entries(raw[:-4]))

    def test_unknown_kind_rejected(self):
        raw = bytearray(SummaryEntry(EntryKind.COMMIT, 1, 1, 1).encode())
        raw[0] = 200
        with pytest.raises(ValueError):
            list(decode_entries(bytes(raw)))


def _entries_of(kind: EntryKind):
    """Entries of ``kind`` with every field in its encoded range: a
    WRITE's slot is a u16 and its slot CRC a u32."""
    write = kind is EntryKind.WRITE
    return st.builds(
        SummaryEntry,
        kind=st.just(kind),
        aru_tag=st.integers(min_value=0, max_value=2**64 - 1),
        timestamp=st.integers(min_value=0, max_value=2**64 - 1),
        a=st.integers(min_value=0, max_value=2**64 - 1),
        b=st.integers(min_value=0, max_value=2**16 - 1 if write else 2**32 - 1),
        c=st.integers(min_value=0, max_value=2**32 - 1 if write else 2**64 - 1),
    )


_entry_strategy = st.one_of([_entries_of(kind) for kind in EntryKind])


def _canonical(entry: SummaryEntry) -> tuple:
    """Fields that actually survive encoding for this entry kind."""
    from repro.lld.summary import _PAYLOAD_FIELDS  # test-only peek

    n_fields = _PAYLOAD_FIELDS[entry.kind]
    fields = (entry.a, entry.b, entry.c)[:n_fields]
    return (entry.kind, entry.aru_tag, entry.timestamp) + fields


class TestProperties:
    @given(st.lists(_entry_strategy, max_size=50))
    def test_roundtrip_any_entry_list(self, entries):
        decoded = list(decode_entries(encode_entries(entries)))
        assert [_canonical(e) for e in decoded] == [
            _canonical(e) for e in entries
        ]

    @given(_entry_strategy)
    def test_size_always_matches(self, entry):
        assert len(entry.encode()) == entry.encoded_size()


class TestEntryRecord:
    def test_fields_by_name_and_immutable(self):
        entry = SummaryEntry(EntryKind.LINK, 3, 9, 1, 2)
        assert (entry.kind, entry.aru_tag, entry.timestamp) == (
            EntryKind.LINK,
            3,
            9,
        )
        assert (entry.a, entry.b, entry.c) == (1, 2, 0)
        with pytest.raises(AttributeError):
            entry.a = 5
        assert entry == SummaryEntry(EntryKind.LINK, 3, 9, 1, 2, 0)
