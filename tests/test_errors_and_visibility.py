"""Unit tests for the error hierarchy and the visibility helper."""

import pytest

from repro import errors
from repro.core.records import BlockVersion
from repro.core.tables import BlockNumberMap
from repro.core.versions import VersionState
from repro.core.visibility import Visibility, read_versions
from repro.ld.types import ARU_NONE, ARUId, BlockId


class TestErrorHierarchy:
    def test_everything_is_an_lderror(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.LDError), name

    def test_fs_errors_group(self):
        for cls in (
            errors.FileNotFoundFSError,
            errors.FileExistsFSError,
            errors.NotADirectoryFSError,
            errors.IsADirectoryFSError,
            errors.DirectoryNotEmptyFSError,
            errors.NoSpaceFSError,
        ):
            assert issubclass(cls, errors.FSError)

    def test_lock_errors_group(self):
        assert issubclass(errors.DeadlockError, errors.LockError)

    def test_messages_carry_identifiers(self):
        assert "42" in str(errors.BadBlockError(42))
        assert "7" in str(errors.BadListError(7, "extra detail"))
        assert "extra detail" in str(errors.BadListError(7, "extra detail"))
        assert "9" in str(errors.BadARUError(9))

    def test_error_attributes(self):
        assert errors.BadBlockError(42).block_id == 42
        assert errors.BadListError(7).list_id == 7
        assert errors.BadARUError(9).aru_id == 9


def _root_with(persistent=False, committed=False, shadows=()):
    """``(head, persistent)`` of one block id: its chain of alternative
    records as the table's ``alts`` entry heads it, and its persistent
    record."""
    table = BlockNumberMap()
    if persistent:
        table.install_persistent(BlockVersion(BlockId(1), VersionState.PERSISTENT))
    if committed:
        table.push_alt(1, BlockVersion(BlockId(1), VersionState.COMMITTED))
    for aru, timestamp in shadows:
        version = BlockVersion(
            BlockId(1), VersionState.SHADOW, aru_id=ARUId(aru),
            timestamp=timestamp,
        )
        table.push_alt(1, version)
    return table.alts.get(1), table.persistent.get(1)


class TestReadVersions:
    def test_empty_root(self):
        assert read_versions(None, None, None, Visibility.ARU_LOCAL) == []

    def test_persistent_always_last(self):
        root = _root_with(persistent=True, committed=True, shadows=[(1, 5)])
        candidates = read_versions(*root, ARUId(1), Visibility.ARU_LOCAL)
        assert [c.state for c in candidates] == [
            VersionState.SHADOW,
            VersionState.COMMITTED,
            VersionState.PERSISTENT,
        ]

    def test_aru_local_without_aru_skips_shadows(self):
        root = _root_with(persistent=True, shadows=[(1, 5)])
        candidates = read_versions(*root, None, Visibility.ARU_LOCAL)
        assert [c.state for c in candidates] == [VersionState.PERSISTENT]

    def test_aru_local_foreign_shadow_invisible(self):
        root = _root_with(persistent=True, shadows=[(1, 5)])
        candidates = read_versions(*root, ARUId(2), Visibility.ARU_LOCAL)
        assert [c.state for c in candidates] == [VersionState.PERSISTENT]

    def test_committed_only_ignores_own_shadow(self):
        root = _root_with(committed=True, shadows=[(1, 5)])
        candidates = read_versions(*root, ARUId(1), Visibility.COMMITTED_ONLY)
        assert [c.state for c in candidates] == [VersionState.COMMITTED]

    def test_most_recent_shadow_orders_by_timestamp(self):
        root = _root_with(persistent=True, shadows=[(1, 5), (2, 9), (3, 2)])
        candidates = read_versions(
            *root, None, Visibility.MOST_RECENT_SHADOW
        )
        assert candidates[0].aru_id == ARUId(2)

    def test_charges_meter(self):
        from repro.disk.clock import CostMeter, CostModel, SimClock

        meter = CostMeter(SimClock(), CostModel(chain_hop_us=1.0))
        root = _root_with(committed=True, shadows=[(1, 5), (2, 6)])
        read_versions(*root, ARUId(1), Visibility.ARU_LOCAL, meter)
        assert meter.counters["chain_hop_us"] > 0
