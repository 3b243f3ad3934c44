"""Logical-Disk interface conformance suite.

One set of semantic requirements, executed against every
implementation (LLD concurrent, JLD).  Anything added here is
automatically enforced on both substrates; the sequential-ARU LLD is
excluded because concurrency semantics differ by design (it has its
own tests).
"""

import pytest

from repro.core.visibility import Visibility
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import (
    BadARUError,
    BadBlockError,
    BadListError,
    ConcurrencyError,
)
from repro.jld import JLD
from repro.ld.types import FIRST
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD


def _lld(**kwargs):
    geo = DiskGeometry.small(num_segments=96)
    kwargs.setdefault("checkpoint_slot_segments", 2)
    return LLD(SimulatedDisk(geo), config=LLDConfig(**kwargs))


def _jld(**kwargs):
    geo = DiskGeometry.small(num_segments=96)
    kwargs.setdefault("checkpoint_slot_segments", 2)
    kwargs.setdefault("journal_segments", 6)
    return JLD(SimulatedDisk(geo), **kwargs)


@pytest.fixture(params=["lld", "jld"])
def make(request):
    return {"lld": _lld, "jld": _jld}[request.param]


class TestBlockSemantics:
    def test_fresh_blocks_read_zero(self, make):
        ld = make()
        lst = ld.new_list()
        block = ld.new_block(lst)
        assert ld.read(block) == b"\x00" * ld.geometry.block_size

    def test_write_is_padded(self, make):
        ld = make()
        lst = ld.new_list()
        block = ld.new_block(lst)
        ld.write(block, b"ab")
        data = ld.read(block)
        assert data[:2] == b"ab" and set(data[2:]) == {0}

    @pytest.mark.parametrize("in_aru", [False, True])
    def test_buffer_changed_after_write_is_not_written(self, make, in_aru):
        """A write takes the bytes the caller's buffer held at the
        call: changing the buffer afterwards, before the ARU commits
        or the data reaches the disk, changes nothing."""
        ld = make()
        lst = ld.new_list()
        block = ld.new_block(lst)
        size = ld.geometry.block_size
        buf = bytearray(b"A" * size)
        aru = ld.begin_aru() if in_aru else None
        ld.write(block, buf, aru=aru)
        buf[:4] = b"ZZZZ"
        if aru is not None:
            ld.end_aru(aru)
        assert ld.read(block) == b"A" * size
        ld.flush()
        assert ld.read(block) == b"A" * size

    def test_short_memoryview_is_padded(self, make):
        ld = make()
        lst = ld.new_list()
        block = ld.new_block(lst)
        ld.write(block, memoryview(b"ab"))
        assert ld.read(block) == b"ab" + bytes(ld.geometry.block_size - 2)

    def test_last_write_wins(self, make):
        ld = make()
        lst = ld.new_list()
        block = ld.new_block(lst)
        for value in (b"v1", b"v2", b"v3"):
            ld.write(block, value)
        assert ld.read(block).startswith(b"v3")

    def test_identifiers_start_at_one_and_increase(self, make):
        ld = make()
        lst = ld.new_list()
        assert int(lst) == 1
        a = ld.new_block(lst)
        b = ld.new_block(lst)
        assert int(a) == 1 and int(b) == 2

    def test_identifiers_never_reused(self, make):
        ld = make()
        lst = ld.new_list()
        a = ld.new_block(lst)
        ld.delete_block(a)
        assert ld.new_block(lst) != a

    def test_errors_on_unknown_ids(self, make):
        ld = make()
        with pytest.raises(BadBlockError):
            ld.read(404)
        with pytest.raises(BadListError):
            ld.list_blocks(404)
        with pytest.raises(BadListError):
            ld.new_block(404)
        with pytest.raises(BadARUError):
            ld.end_aru(404)


class TestListSemantics:
    def test_insertion_positions(self, make):
        ld = make()
        lst = ld.new_list()
        a = ld.new_block(lst)                      # [a]
        b = ld.new_block(lst, predecessor=a)       # [a, b]
        c = ld.new_block(lst)                      # [c, a, b]
        d = ld.new_block(lst, predecessor=a)       # [c, a, d, b]
        assert ld.list_blocks(lst) == [c, a, d, b]

    def test_predecessor_must_belong_to_list(self, make):
        ld = make()
        one = ld.new_list()
        two = ld.new_list()
        block = ld.new_block(one)
        with pytest.raises(BadBlockError):
            ld.new_block(two, predecessor=block)

    def test_delete_middle_relinks(self, make):
        ld = make()
        lst = ld.new_list()
        a = ld.new_block(lst)
        b = ld.new_block(lst, predecessor=a)
        c = ld.new_block(lst, predecessor=b)
        ld.delete_block(b)
        assert ld.list_blocks(lst) == [a, c]
        d = ld.new_block(lst, predecessor=a)
        assert ld.list_blocks(lst) == [a, d, c]

    def test_delete_list_removes_members(self, make):
        ld = make()
        lst = ld.new_list()
        members = [ld.new_block(lst) for _ in range(4)]
        ld.delete_list(lst)
        for block in members:
            with pytest.raises(BadBlockError):
                ld.read(block)


class TestARUConformance:
    def test_option3_visibility_matrix(self, make):
        ld = make()
        lst = ld.new_list()
        block = ld.new_block(lst)
        ld.write(block, b"committed")
        writer = ld.begin_aru()
        observer = ld.begin_aru()
        ld.write(block, b"mine", aru=writer)
        assert ld.read(block, aru=writer).startswith(b"mine")
        assert ld.read(block, aru=observer).startswith(b"committed")
        assert ld.read(block).startswith(b"committed")
        ld.end_aru(writer)
        assert ld.read(block, aru=observer).startswith(b"mine")
        ld.abort_aru(observer)

    def test_structural_shadowing(self, make):
        ld = make()
        lst = ld.new_list()
        base = ld.new_block(lst)
        aru = ld.begin_aru()
        extra = ld.new_block(lst, predecessor=base, aru=aru)
        ld.delete_block(base, aru=aru)
        assert ld.list_blocks(lst, aru=aru) == [extra]
        assert ld.list_blocks(lst) == [base]
        ld.end_aru(aru)
        assert ld.list_blocks(lst) == [extra]

    def test_abort_restores_everything(self, make):
        ld = make()
        lst = ld.new_list()
        block = ld.new_block(lst)
        ld.write(block, b"original")
        aru = ld.begin_aru()
        ld.write(block, b"mutant", aru=aru)
        extra = ld.new_block(lst, aru=aru)
        ld.delete_block(block, aru=aru)
        ld.abort_aru(aru)
        assert ld.read(block).startswith(b"original")
        assert ld.list_blocks(lst) == [block]
        # The aborted ARU's allocation lingers until swept.
        assert extra in ld.sweep_orphan_blocks()

    def test_commit_order_is_end_aru_order(self, make):
        ld = make()
        lst = ld.new_list()
        block = ld.new_block(lst)
        first = ld.begin_aru()
        second = ld.begin_aru()
        ld.write(block, b"from-first", aru=first)
        ld.write(block, b"from-second", aru=second)
        ld.end_aru(second)
        ld.end_aru(first)
        assert ld.read(block).startswith(b"from-first")

    def test_operations_on_finished_aru_rejected(self, make):
        ld = make()
        lst = ld.new_list()
        block = ld.new_block(lst)
        aru = ld.begin_aru()
        ld.end_aru(aru)
        with pytest.raises(BadARUError):
            ld.write(block, b"late", aru=aru)
        with pytest.raises(BadARUError):
            ld.end_aru(aru)

    def test_conflicting_structural_commits_surface(self, make):
        ld = make()
        lst = ld.new_list()
        block = ld.new_block(lst)
        a = ld.begin_aru()
        b = ld.begin_aru()
        ld.delete_block(block, aru=a)
        ld.delete_block(block, aru=b)
        ld.end_aru(a)
        with pytest.raises(ConcurrencyError):
            ld.end_aru(b)

    def test_deep_interleaving(self, make):
        ld = make()
        lst = ld.new_list()
        arus = [ld.begin_aru() for _ in range(6)]
        blocks = []
        for index, aru in enumerate(arus):
            block = ld.new_block(lst, aru=aru)
            ld.write(block, f"stream-{index}".encode(), aru=aru)
            blocks.append(block)
        for index in (1, 3, 5):
            ld.abort_aru(arus[index])
        for index in (0, 2, 4):
            ld.end_aru(arus[index])
        ld.flush()
        members = ld.list_blocks(lst)
        assert set(members) == {blocks[0], blocks[2], blocks[4]}
        for index in (0, 2, 4):
            assert ld.read(blocks[index]).startswith(
                f"stream-{index}".encode()
            )


class TestDurabilityConformance:
    def _recover(self, kind, disk):
        if kind == "lld":
            from repro.lld.recovery import recover

            ld, _ = recover(
                disk.power_cycle(),
                config=LLDConfig(checkpoint_slot_segments=2),
            )
        else:
            from repro.jld import recover_jld

            ld, _ = recover_jld(
                disk.power_cycle(),
                journal_segments=6,
                checkpoint_slot_segments=2,
            )
        return ld

    @pytest.mark.parametrize("kind", ["lld", "jld"])
    def test_flush_is_a_durability_barrier(self, kind):
        ld = {"lld": _lld, "jld": _jld}[kind]()
        disk = ld.disk
        lst = ld.new_list()
        durable = ld.new_block(lst)
        ld.write(durable, b"durable")
        ld.flush()
        volatile = ld.new_block(lst, predecessor=durable)
        ld.write(volatile, b"volatile")  # never flushed
        recovered = self._recover(kind, disk)
        assert recovered.read(durable).startswith(b"durable")
        members = recovered.list_blocks(lst)
        assert members[0] == durable

    @pytest.mark.parametrize("kind", ["lld", "jld"])
    def test_commit_without_flush_is_not_durable_by_itself(self, kind):
        ld = {"lld": _lld, "jld": _jld}[kind]()
        disk = ld.disk
        lst = ld.new_list()
        block = ld.new_block(lst)
        ld.write(block, b"base")
        ld.flush()
        aru = ld.begin_aru()
        ld.write(block, b"committed-in-memory", aru=aru)
        ld.end_aru(aru)  # commit record still in the buffer
        recovered = self._recover(kind, disk)
        assert recovered.read(block).startswith(b"base")


class TestEdgeConformance:
    """Corner semantics both implementations must share."""

    def test_empty_write_and_full_block_write(self, make):
        ld = make()
        lst = ld.new_list()
        block = ld.new_block(lst)
        ld.write(block, b"")
        assert ld.read(block) == b"\x00" * ld.geometry.block_size
        full = bytes(range(256)) * (ld.geometry.block_size // 256)
        ld.write(block, full)
        assert ld.read(block) == full

    def test_oversized_write_rejected(self, make):
        ld = make()
        lst = ld.new_list()
        block = ld.new_block(lst)
        with pytest.raises(ValueError):
            ld.write(block, b"x" * (ld.geometry.block_size + 1))

    def test_delete_list_inside_aru_is_shadowed(self, make):
        ld = make()
        lst = ld.new_list()
        block = ld.new_block(lst)
        ld.write(block, b"content")
        aru = ld.begin_aru()
        ld.delete_list(lst, aru=aru)
        with pytest.raises(BadListError):
            ld.list_blocks(lst, aru=aru)
        # Outside the ARU the list is intact until commit.
        assert ld.list_blocks(lst) == [block]
        assert ld.read(block).startswith(b"content")
        ld.end_aru(aru)
        with pytest.raises(BadListError):
            ld.list_blocks(lst)
        with pytest.raises(BadBlockError):
            ld.read(block)

    def test_new_list_inside_aru_is_globally_visible(self, make):
        """List allocation commits immediately: other streams can see
        the (empty) list at once."""
        ld = make()
        aru = ld.begin_aru()
        lst = ld.new_list(aru=aru)
        assert ld.list_blocks(lst) == []
        ld.end_aru(aru)

    def test_flush_is_idempotent(self, make):
        ld = make()
        lst = ld.new_list()
        block = ld.new_block(lst)
        ld.write(block, b"once")
        ld.flush()
        ld.flush()
        ld.flush()
        assert ld.read(block).startswith(b"once")

    def test_interleaved_list_edits_from_two_arus(self, make):
        """Two ARUs append to the same list; both commits merge (the
        list-operation replay's whole purpose)."""
        ld = make()
        lst = ld.new_list()
        anchor = ld.new_block(lst)
        a = ld.begin_aru()
        b = ld.begin_aru()
        from_a = ld.new_block(lst, predecessor=anchor, aru=a)
        from_b = ld.new_block(lst, predecessor=anchor, aru=b)
        ld.end_aru(a)
        ld.end_aru(b)
        members = ld.list_blocks(lst)
        assert members[0] == anchor
        assert set(members[1:]) == {from_a, from_b}
        # b committed later, so its insert-after-anchor lands closest.
        assert members[1] == from_b

    def test_write_then_delete_then_fresh_alloc_in_one_aru(self, make):
        ld = make()
        lst = ld.new_list()
        aru = ld.begin_aru()
        doomed = ld.new_block(lst, aru=aru)
        ld.write(doomed, b"never seen", aru=aru)
        ld.delete_block(doomed, aru=aru)
        keeper = ld.new_block(lst, aru=aru)
        ld.write(keeper, b"kept", aru=aru)
        ld.end_aru(aru)
        assert ld.list_blocks(lst) == [keeper]
        assert ld.read(keeper).startswith(b"kept")
        with pytest.raises(BadBlockError):
            ld.read(doomed)

    def test_sweep_refused_with_active_arus(self, make):
        ld = make()
        ld.begin_aru()
        with pytest.raises(ConcurrencyError):
            ld.sweep_orphan_blocks()

    def test_stats_have_common_fields(self, make):
        ld = make()
        lst = ld.new_list()
        block = ld.new_block(lst)
        ld.write(block, b"s")
        ld.flush()
        stats = ld.stats()
        assert stats["ops"]["write"] == 1
        assert "disk" in stats
