"""Media-fault matrix: damage every kind of on-disk region and
verify graceful degradation.

Crash tests cover interrupted writes; this matrix covers *latent*
damage discovered at recovery time — unreadable or silently corrupted
segments in each structural role (checkpoint slots, log segments,
journal segments) on both substrates.
"""

import pytest

from repro.disk.faults import MediaFault
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.jld import JLD, recover_jld
from repro.ld.types import FIRST
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import recover


def populated_lld():
    geo = DiskGeometry.small(num_segments=64)
    disk = SimulatedDisk(geo)
    lld = LLD(disk, config=LLDConfig(checkpoint_slot_segments=1))
    lst = lld.new_list()
    blocks = []
    previous = FIRST
    for index in range(10):
        block = lld.new_block(lst, predecessor=previous)
        lld.write(block, f"ckpt-era-{index}".encode())
        blocks.append(block)
        previous = block
    lld.write_checkpoint()
    post = lld.new_block(lst, predecessor=previous)
    lld.write(post, f"log-era".encode())
    lld.flush()
    return disk, lld, lst, blocks, post


class TestLLDFaultMatrix:
    @pytest.mark.parametrize("kind", ["unreadable", "corrupt"])
    def test_damaged_stale_checkpoint_slot_is_harmless(self, kind):
        disk, lld, lst, blocks, post = populated_lld()
        # Slot for the *next* checkpoint (the stale one) is slot 0 for
        # ckpt_seq 1 -> it wrote slot 1; damage slot 0.
        victim = lld.checkpoints._slot_base(lld._ckpt_seq + 1)
        disk.injector.add_media_fault(MediaFault(victim, kind))
        lld2, report = recover(
            disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=1),
        )
        assert report.checkpoint_seq == 1
        assert lld2.list_blocks(lst) == blocks + [post]

    @pytest.mark.parametrize("kind", ["unreadable", "corrupt"])
    def test_damaged_live_checkpoint_falls_back_to_log(self, kind):
        """Losing the only checkpoint loses the checkpointed tables
        (their log segments may be cleaned), but recovery must still
        come up and serve the post-checkpoint log."""
        disk, lld, lst, blocks, post = populated_lld()
        live_slot = lld.checkpoints._slot_base(lld._ckpt_seq)
        disk.injector.add_media_fault(MediaFault(live_slot, kind))
        lld2, report = recover(
            disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=1),
        )
        assert report.checkpoint_seq == 0  # fell back to empty
        # Pre-checkpoint history is still in the (uncleaned) log in
        # this scenario, so everything actually survives — the point
        # is that recovery proceeds rather than failing.
        assert report.segments_replayed > 0
        members = lld2.list_blocks(lst)
        assert post in members

    @pytest.mark.parametrize("kind", ["unreadable", "corrupt"])
    def test_damaged_log_segment_drops_only_its_history(self, kind):
        disk, lld, lst, blocks, post = populated_lld()
        # Find the post-checkpoint log segment that holds `post`.
        victim = lld.bmap.persistent[post].address.segment
        disk.injector.add_media_fault(MediaFault(victim, kind))
        lld2, report = recover(
            disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=1),
        )
        assert (
            report.segments_unreadable + report.segments_invalid >= 1
        )
        # The checkpointed files are intact; the damaged segment's
        # additions are gone.
        assert lld2.list_blocks(lst) == blocks
        from repro.errors import LDError

        with pytest.raises(LDError):
            lld2.read(post)


class TestJLDFaultMatrix:
    def _populated(self):
        geo = DiskGeometry.small(num_segments=64)
        disk = SimulatedDisk(geo)
        jld = JLD(disk, journal_segments=4, checkpoint_slot_segments=1)
        lst = jld.new_list()
        blocks = []
        previous = FIRST
        for index in range(6):
            block = jld.new_block(lst, predecessor=previous)
            jld.write(block, f"applied-{index}".encode())
            blocks.append(block)
            previous = block
        jld.apply()  # homes written + checkpoint
        post = jld.new_block(lst, predecessor=previous)
        jld.write(post, b"journal-only")
        jld.flush()
        return disk, jld, lst, blocks, post

    @pytest.mark.parametrize("kind", ["unreadable", "corrupt"])
    def test_damaged_journal_segment(self, kind):
        disk, jld, lst, blocks, post = self._populated()
        # Damage the journal segment carrying the post-apply records.
        victim = None
        for index in range(jld.journal_segments):
            if jld._journal_seq[index] > jld._ckpt_log_seq:
                victim = jld.journal_base + index
        assert victim is not None
        disk.injector.add_media_fault(MediaFault(victim, kind))
        jld2, report = recover_jld(
            disk.power_cycle(), journal_segments=4,
            checkpoint_slot_segments=1,
        )
        # Checkpoint-era data intact; the damaged journal's additions
        # are gone.
        assert jld2.list_blocks(lst) == blocks
        for index, block in enumerate(blocks):
            assert jld2.read(block).startswith(f"applied-{index}".encode())

    def test_damaged_home_segment_loses_only_those_blocks(self):
        disk, jld, lst, blocks, post = self._populated()
        victim = jld.homes[blocks[0]].segment
        disk.injector.add_media_fault(MediaFault(victim, "unreadable"))
        jld2, _report = recover_jld(
            disk.power_cycle(), journal_segments=4,
            checkpoint_slot_segments=1,
        )
        # Structure (from the checkpoint) is fine; reading a block on
        # the bad platter surfaces the media error, others still work.
        from repro.errors import MediaError

        affected = [
            b for b in blocks if jld2.homes[b].segment == victim
        ]
        unaffected = [b for b in blocks if b not in affected]
        assert affected
        with pytest.raises(MediaError):
            jld2.read(affected[0])
        for block in unaffected:
            assert jld2.read(block).startswith(b"applied")
