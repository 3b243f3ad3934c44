"""Tests for the committed -> persistent transition machinery.

These exercise LLD internals deliberately (underscore access): the
fold rules are the heart of the durability ordering argument, so we
pin them down directly in addition to the black-box recovery tests.
"""

import pytest

from repro.core.records import find_alt
from repro.core.versions import VersionState
from repro.ld.types import ARU_NONE

from tests.conftest import make_lld


class TestFolding:
    def test_committed_records_fold_at_flush(self, lld):
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.write(block, b"x")
        assert len(lld.committed_blocks) > 0
        lld.flush()
        assert len(lld.committed_blocks) == 0
        assert len(lld.committed_lists) == 0

    def test_persistent_record_installed(self, lld):
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.write(block, b"x")
        lld.flush()
        persistent = lld.bmap.persistent[block]
        assert persistent.allocated
        assert persistent.address is not None
        assert block not in lld.bmap.alts

    def test_shadow_state_not_written_by_flush(self, lld):
        """Section 3: 'Shadow state (uncommitted ARUs) is not
        written.'"""
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.write(block, b"committed")
        aru = lld.begin_aru()
        lld.write(block, b"shadow", aru=aru)
        lld.flush()
        shadow = find_alt(lld.bmap.alts.get(block), VersionState.SHADOW, aru)
        assert shadow is not None  # survived the flush, in memory only
        assert block in lld.bmap.persistent
        lld.abort_aru(aru)

    def test_deleted_block_leaves_no_persistent_record(self, lld):
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.write(block, b"x")
        lld.flush()
        lld.delete_block(block)
        lld.flush()
        assert block not in lld.bmap.ids()

    def test_usage_retired_on_overwrite(self, lld):
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.write(block, b"v1")
        lld.flush()
        old_segment = lld.bmap.persistent[block].address.segment
        assert lld.usage.live_slots(old_segment) == 1
        lld.write(block, b"v2")
        lld.flush()
        assert lld.usage.live_slots(old_segment) == 0

    def test_usage_retired_on_delete(self, lld):
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.write(block, b"x")
        lld.flush()
        segment = lld.bmap.persistent[block].address.segment
        lld.delete_block(block)
        lld.flush()
        assert lld.usage.live_slots(segment) == 0

    def test_checkpoint_safe_after_flush(self, lld):
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.write(block, b"x")
        assert not lld.checkpoint_safe()  # unflushed committed state
        lld.flush()
        assert lld.checkpoint_safe()

    def test_checkpoint_unsafe_with_open_sequential_aru(self, old_lld):
        lst = old_lld.new_list()
        aru = old_lld.begin_aru()
        block = old_lld.new_block(lst, aru=aru)
        old_lld.write(block, b"x", aru=aru)
        old_lld.flush()
        assert not old_lld.checkpoint_safe()
        old_lld.end_aru(aru)
        old_lld.flush()
        assert old_lld.checkpoint_safe()

    def test_write_checkpoint_guards(self, old_lld):
        from repro.errors import ConcurrencyError

        lst = old_lld.new_list()
        aru = old_lld.begin_aru()
        block = old_lld.new_block(lst, aru=aru)
        old_lld.write(block, b"x", aru=aru)
        with pytest.raises(ConcurrencyError):
            old_lld.write_checkpoint()
        old_lld.end_aru(aru)
        old_lld.write_checkpoint()  # now fine

    def test_deferred_fold_waits_for_commit_record(self, lld):
        """An ARU whose data filled a segment before its commit record
        was written must not fold until the commit record is on disk."""
        block_size = lld.geometry.block_size
        lst = lld.new_list()
        seed = lld.new_block(lst)
        lld.write(seed, b"seed")
        aru = lld.begin_aru()
        blocks = []
        previous = seed
        # Enough shadow data to force a segment roll during commit.
        for index in range(lld.geometry.max_data_blocks + 4):
            block = lld.new_block(lst, predecessor=previous, aru=aru)
            lld.write(block, bytes([index % 251]) * block_size, aru=aru)
            blocks.append(block)
            previous = block
        lld.end_aru(aru)
        # Some segments were written mid-commit; records belonging to
        # the ARU whose commit record is still buffered must remain
        # committed (deferred), not persistent.
        deferred = [
            record
            for record in lld.committed_blocks
            if int(record.origin_aru) == int(aru)
        ]
        assert deferred, "expected deferred committed records"
        lld.flush()
        assert len(lld.committed_blocks) == 0
        for block in blocks:
            assert lld.bmap.persistent[block] is not None
