"""Stress tests: the interactions that only show up under load.

These target the hairiest interleavings: the segment cleaner firing
in the middle of ARU commits, deferred folds racing buffer rolls,
many ARUs spanning cleaning passes, and long crash/recover/checkpoint
lifecycles on a nearly-full disk.
"""

import pytest

from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import DiskFullError
from repro.fs import MinixFS, fsck
from repro.ld.types import FIRST
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import recover
from repro.lld.verify import verify_lld


def tight_lld(num_segments=28, **kwargs):
    geo = DiskGeometry.small(num_segments=num_segments)
    disk = SimulatedDisk(geo)
    kwargs.setdefault("checkpoint_slot_segments", 1)
    kwargs.setdefault("clean_low_water", 3)
    kwargs.setdefault("clean_high_water", 6)
    return disk, LLD(disk, config=LLDConfig(**kwargs))


class TestCleanerDuringARUs:
    def test_cleaning_fires_while_arus_commit(self):
        """Big ARUs on a tiny disk: commits roll segments, rolls
        trigger cleaning, cleaning must neither lose committed data
        nor leak uncommitted data."""
        disk, lld = tight_lld(num_segments=24)
        lst = lld.new_list()
        survivors = {}
        for round_no in range(60):
            aru = lld.begin_aru()
            blocks = []
            previous = FIRST
            for index in range(8):
                block = lld.new_block(lst, predecessor=previous, aru=aru)
                payload = f"r{round_no}i{index}".encode()
                lld.write(block, payload, aru=aru)
                blocks.append((block, payload))
                previous = block
            lld.end_aru(aru)
            # Overwrite the previous round's blocks to create garbage.
            for block, _payload in survivors.get(round_no - 1, []):
                lld.delete_block(block)
            survivors[round_no] = blocks
        assert lld.cleanings > 0
        lld.flush()
        problems = verify_lld(lld)
        assert problems == [], problems[:5]
        # The last round's data is intact.
        for block, payload in survivors[59]:
            assert lld.read(block).startswith(payload)

    def test_cleaning_preserves_other_arus_shadow_state(self):
        """An open ARU's shadow data must survive cleaning passes
        triggered by other activity (shadow data is memory-only, but
        the persistent versions it shadows must not be lost)."""
        disk, lld = tight_lld(num_segments=30)
        lst = lld.new_list()
        block = lld.new_block(lst)
        lld.write(block, b"precious-base")
        lld.flush()
        aru = lld.begin_aru()
        lld.write(block, b"precious-shadow", aru=aru)
        # Hammer the disk with other traffic until cleaning happens.
        churn_list = lld.new_list()
        victim = lld.new_block(churn_list)
        for round_no in range(600):
            lld.write(victim, f"junk-{round_no}".encode() * 200)
            if round_no % 10 == 9:
                lld.flush()
        assert lld.cleanings > 0
        assert lld.read(block, aru=aru).startswith(b"precious-shadow")
        assert lld.read(block).startswith(b"precious-base")
        lld.end_aru(aru)
        lld.flush()
        assert lld.read(block).startswith(b"precious-shadow")
        # Crash check: the committed shadow survived all the churn.
        lld2, _report = recover(
            disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=1, clean_low_water=3),
        )
        assert lld2.read(block).startswith(b"precious-shadow")


class TestNearFullDisk:
    def test_fill_until_full_then_recover_space(self):
        disk, lld = tight_lld(num_segments=24)
        lst = lld.new_list()
        blocks = []
        previous = FIRST
        with pytest.raises(DiskFullError):
            for index in range(10_000):
                block = lld.new_block(lst, predecessor=previous)
                lld.write(block, f"fill-{index}".encode())
                blocks.append(block)
                previous = block
        # Everything written before the failure is still readable.
        written = len(blocks) - 1  # the last may have failed mid-op
        for index in range(written):
            assert lld.read(blocks[index]).startswith(f"fill-{index}".encode())
        # Deleting half frees space for new work (via cleaning).
        for block in blocks[: written // 2]:
            lld.delete_block(block)
        lld.flush()
        fresh = lld.new_block(lst)
        lld.write(fresh, b"room again")
        lld.flush()
        assert lld.read(fresh).startswith(b"room again")

    def test_repeated_lifecycles_converge(self):
        """Ten generations of work + crash + recover on one disk;
        state stays consistent and bounded."""
        geo = DiskGeometry.small(num_segments=48)
        disk = SimulatedDisk(geo)
        lld = LLD(
            disk,
            config=LLDConfig(checkpoint_slot_segments=1, clean_low_water=3),
        )
        fs = MinixFS.mkfs(lld, n_inodes=64)
        fs.create("/cycle")
        for generation in range(10):
            fs.write_file("/cycle", f"generation-{generation}".encode() * 150)
            fs.sync()
            if generation % 3 == 2:
                lld.write_checkpoint()
            lld2, _report = recover(
                disk.power_cycle(),
                config=LLDConfig(
                    checkpoint_slot_segments=1,
                    clean_low_water=3,
                ),
            )
            lld = lld2
            fs = MinixFS.mount(lld)
            expected = f"generation-{generation}".encode()
            assert fs.read_file("/cycle").startswith(expected)
            assert fsck(fs).clean
            assert verify_lld(lld) == []


class TestManyARUs:
    def test_hundred_concurrent_arus(self):
        disk, lld = tight_lld(num_segments=64)
        lst = lld.new_list()
        arus = [lld.begin_aru() for _ in range(100)]
        blocks = {}
        for index, aru in enumerate(arus):
            block = lld.new_block(lst, aru=aru)
            lld.write(block, f"aru{index}".encode(), aru=aru)
            blocks[index] = block
        # Commit evens, abort odds.
        for index, aru in enumerate(arus):
            if index % 2 == 0:
                lld.end_aru(aru)
            else:
                lld.abort_aru(aru)
        lld.flush()
        orphans = lld.sweep_orphan_blocks()
        assert len(orphans) == 50
        members = lld.list_blocks(lst)
        assert len(members) == 50
        for index in range(0, 100, 2):
            assert lld.read(blocks[index]).startswith(f"aru{index}".encode())
        assert verify_lld(lld) == []
