"""Semantic tests for concurrent atomic recovery units (Section 3)."""

import pytest

from repro.core.visibility import Visibility
from repro.errors import (
    BadARUError,
    BadBlockError,
    ConcurrencyError,
    DiskCrashedError,
)
from repro.lld.config import LLDConfig
from repro.lld.recovery import recover
from repro.lld.verify import verify_lld

from tests.conftest import make_lld


@pytest.fixture
def setup(lld):
    """A committed list with one committed block holding 'base'."""
    lst = lld.new_list()
    block = lld.new_block(lst)
    lld.write(block, b"base")
    return lld, lst, block


class TestShadowIsolation:
    """Option 3 (the prototype's choice): shadow state is strictly
    local to its ARU and becomes visible atomically at commit."""

    def test_aru_sees_own_writes(self, setup):
        lld, _lst, block = setup
        aru = lld.begin_aru()
        lld.write(block, b"shadow", aru=aru)
        assert lld.read(block, aru=aru).startswith(b"shadow")

    def test_simple_read_does_not_see_shadow(self, setup):
        lld, _lst, block = setup
        aru = lld.begin_aru()
        lld.write(block, b"shadow", aru=aru)
        assert lld.read(block).startswith(b"base")

    def test_other_aru_does_not_see_shadow(self, setup):
        lld, _lst, block = setup
        a = lld.begin_aru()
        b = lld.begin_aru()
        lld.write(block, b"from-a", aru=a)
        assert lld.read(block, aru=b).startswith(b"base")

    def test_two_arus_keep_separate_shadows(self, setup):
        lld, _lst, block = setup
        a = lld.begin_aru()
        b = lld.begin_aru()
        lld.write(block, b"from-a", aru=a)
        lld.write(block, b"from-b", aru=b)
        assert lld.read(block, aru=a).startswith(b"from-a")
        assert lld.read(block, aru=b).startswith(b"from-b")

    def test_commit_publishes_atomically(self, setup):
        lld, _lst, block = setup
        aru = lld.begin_aru()
        lld.write(block, b"published", aru=aru)
        lld.end_aru(aru)
        assert lld.read(block).startswith(b"published")

    def test_shadow_delete_hidden_until_commit(self, setup):
        lld, _lst, block = setup
        aru = lld.begin_aru()
        lld.delete_block(block, aru=aru)
        # Within the ARU the block is gone...
        with pytest.raises(BadBlockError):
            lld.read(block, aru=aru)
        # ...but the committed state still has it.
        assert lld.read(block).startswith(b"base")
        lld.end_aru(aru)
        with pytest.raises(BadBlockError):
            lld.read(block)

    def test_list_ops_are_shadowed(self, setup):
        lld, lst, block = setup
        aru = lld.begin_aru()
        extra = lld.new_block(lst, predecessor=block, aru=aru)
        assert lld.list_blocks(lst, aru=aru) == [block, extra]
        assert lld.list_blocks(lst) == [block]  # invisible outside
        lld.end_aru(aru)
        assert lld.list_blocks(lst) == [block, extra]


class TestAllocationSemantics:
    """NewBlock/NewList commit immediately even inside ARUs
    (Section 3.3), so concurrent ARUs never collide on identifiers."""

    def test_concurrent_arus_get_distinct_blocks(self, setup):
        lld, lst, _block = setup
        a = lld.begin_aru()
        b = lld.begin_aru()
        blocks = {
            lld.new_block(lst, aru=a),
            lld.new_block(lst, aru=b),
            lld.new_block(lst, aru=a),
            lld.new_block(lst, aru=b),
        }
        assert len(blocks) == 4

    def test_allocation_reserves_id_for_others(self, setup):
        lld, lst, _block = setup
        aru = lld.begin_aru()
        mine = lld.new_block(lst, aru=aru)
        other = lld.new_block(lst)  # simple op: must skip `mine`
        assert other != mine

    def test_allocation_not_in_any_list_for_others(self, setup):
        lld, lst, block = setup
        aru = lld.begin_aru()
        lld.new_block(lst, aru=aru)
        assert lld.list_blocks(lst) == [block]

    def test_allocation_survives_abort(self, setup):
        """Aborted ARUs leave their allocations behind; the
        consistency sweep reclaims them (Section 3.3)."""
        lld, lst, block = setup
        aru = lld.begin_aru()
        orphan = lld.new_block(lst, aru=aru)
        lld.abort_aru(aru)
        assert lld.list_blocks(lst) == [block]
        freed = lld.sweep_orphan_blocks()
        assert orphan in freed


class TestAbort:
    def test_abort_discards_writes(self, setup):
        lld, _lst, block = setup
        aru = lld.begin_aru()
        lld.write(block, b"discarded", aru=aru)
        lld.abort_aru(aru)
        assert lld.read(block).startswith(b"base")

    def test_abort_discards_deletes(self, setup):
        lld, lst, block = setup
        aru = lld.begin_aru()
        lld.delete_block(block, aru=aru)
        lld.abort_aru(aru)
        assert lld.list_blocks(lst) == [block]
        assert lld.read(block).startswith(b"base")

    def test_aborted_aru_unusable(self, setup):
        lld, _lst, block = setup
        aru = lld.begin_aru()
        lld.abort_aru(aru)
        with pytest.raises(BadARUError):
            lld.write(block, b"x", aru=aru)

    def test_commit_after_abort_fails(self, setup):
        lld, _lst, _block = setup
        aru = lld.begin_aru()
        lld.abort_aru(aru)
        with pytest.raises(BadARUError):
            lld.end_aru(aru)


class TestCommitSemantics:
    def test_serialized_by_end_aru_time(self, setup):
        """ARUs are serialized by the time of the EndARU operation:
        the later commit wins."""
        lld, _lst, block = setup
        a = lld.begin_aru()
        b = lld.begin_aru()
        lld.write(block, b"from-a", aru=a)
        lld.write(block, b"from-b", aru=b)
        lld.end_aru(b)
        lld.end_aru(a)  # a commits later -> a's version wins
        assert lld.read(block).startswith(b"from-a")

    def test_empty_aru_commit(self, lld):
        aru = lld.begin_aru()
        lld.end_aru(aru)  # no operations: still fine

    def test_unknown_aru_operations(self, setup):
        lld, _lst, block = setup
        with pytest.raises(BadARUError):
            lld.write(block, b"x", aru=999)
        with pytest.raises(BadARUError):
            lld.end_aru(999)

    def test_commit_then_flush_persists(self, setup):
        lld, _lst, block = setup
        aru = lld.begin_aru()
        lld.write(block, b"persist-me", aru=aru)
        lld.end_aru(aru)
        lld.flush()
        assert lld.read(block).startswith(b"persist-me")

    def test_many_interleaved_arus(self, lld):
        lst = lld.new_list()
        arus = [lld.begin_aru() for _ in range(8)]
        blocks = {}
        for index, aru in enumerate(arus):
            block = lld.new_block(lst, aru=aru)
            lld.write(block, f"aru-{index}".encode(), aru=aru)
            blocks[aru] = block
        for index, aru in enumerate(arus):
            lld.end_aru(aru)
        lld.flush()
        for index, aru in enumerate(arus):
            assert lld.read(blocks[aru]).startswith(f"aru-{index}".encode())
        assert len(lld.list_blocks(lst)) == 8


class TestConflicts:
    def test_replay_conflict_raises_by_default(self, setup):
        """Two ARUs deleting the same block: clients must lock, and
        without locks the replay surfaces the conflict."""
        lld, _lst, block = setup
        a = lld.begin_aru()
        b = lld.begin_aru()
        lld.delete_block(block, aru=a)
        lld.delete_block(block, aru=b)
        lld.end_aru(a)
        with pytest.raises(ConcurrencyError):
            lld.end_aru(b)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1(c): ConcurrencyError leaves the merge half "
        "done — the loser's writes show and the volume never checkpoints",
    )
    def test_conflict_at_commit_shows_no_half_aru(self, setup):
        """The loser of a conflict is refused *whole*.  B's write is
        merged before the replay of its delete meets A's; whichever
        way that is fixed (fail-stop, validate first, unwind), nothing
        of B may show afterwards and the volume must stay sound."""
        lld, lst, block = setup
        other = lld.new_block(lst)
        lld.write(other, b"before")
        lld.flush()
        a = lld.begin_aru()
        b = lld.begin_aru()
        lld.delete_block(block, aru=a)
        lld.write(other, b"half of B", aru=b)
        lld.delete_block(block, aru=b)
        lld.end_aru(a)
        with pytest.raises(ConcurrencyError):
            lld.end_aru(b)
        try:
            seen = lld.read(other)
        except DiskCrashedError:
            # A fail-stop fix: recovery speaks for the volume.
            lld, _report = recover(
                lld.disk.power_cycle(),
                config=LLDConfig(checkpoint_slot_segments=2),
            )
            seen = lld.read(other)
        assert seen.startswith(b"before")
        lld.flush()
        assert verify_lld(lld) == []
        lld.write_checkpoint()


class TestSequentialMode:
    """The "old" prototype: one ARU at a time, applied directly."""

    def test_only_one_active_aru(self, old_lld):
        aru = old_lld.begin_aru()
        with pytest.raises(ConcurrencyError):
            old_lld.begin_aru()
        old_lld.end_aru(aru)
        old_lld.begin_aru()

    def test_operations_apply_directly(self, old_lld):
        lst = old_lld.new_list()
        aru = old_lld.begin_aru()
        block = old_lld.new_block(lst, aru=aru)
        old_lld.write(block, b"direct", aru=aru)
        # Sequential mode has no shadow state: visible immediately.
        assert old_lld.read(block).startswith(b"direct")
        old_lld.end_aru(aru)

    def test_abort_unsupported(self, old_lld):
        aru = old_lld.begin_aru()
        with pytest.raises(ConcurrencyError):
            old_lld.abort_aru(aru)
        old_lld.end_aru(aru)


class TestVisibilityOptions:
    """The three Read-visibility options of Section 3.3."""

    def _prepared(self, visibility):
        lld = make_lld(visibility=visibility)
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.write(block, b"committed")
        return lld, block

    def test_option1_sees_any_shadow(self):
        lld, block = self._prepared(Visibility.MOST_RECENT_SHADOW)
        aru = lld.begin_aru()
        lld.write(block, b"shadow", aru=aru)
        # Even a simple read sees the most recent shadow version.
        assert lld.read(block).startswith(b"shadow")

    def test_option1_picks_most_recent_shadow(self):
        lld, block = self._prepared(Visibility.MOST_RECENT_SHADOW)
        a = lld.begin_aru()
        b = lld.begin_aru()
        lld.write(block, b"first", aru=a)
        lld.write(block, b"second", aru=b)
        assert lld.read(block).startswith(b"second")

    def test_option2_never_sees_shadow(self):
        lld, block = self._prepared(Visibility.COMMITTED_ONLY)
        aru = lld.begin_aru()
        lld.write(block, b"shadow", aru=aru)
        # Not even the writing ARU sees its own shadow version.
        assert lld.read(block, aru=aru).startswith(b"committed")
        lld.end_aru(aru)
        assert lld.read(block, aru=None).startswith(b"shadow")

    def test_option3_is_aru_local(self):
        lld, block = self._prepared(Visibility.ARU_LOCAL)
        a = lld.begin_aru()
        b = lld.begin_aru()
        lld.write(block, b"mine", aru=a)
        assert lld.read(block, aru=a).startswith(b"mine")
        assert lld.read(block, aru=b).startswith(b"committed")
        assert lld.read(block).startswith(b"committed")
