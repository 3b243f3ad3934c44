#!/usr/bin/env python3
"""Randomized crash torture: hammer the invariants, thousands of ways.

Runs many rounds of a random file-system workload, each with a crash
(possibly a torn segment write) at a random point, recovers, and
checks four things every time:

1. the file system is structurally consistent (fsck finds nothing),
2. everything that was synced before the crash is present and
   byte-identical to the model,
3. media faults injected after recovery are survived: a scrub pass
   salvages every live block, quarantines the failed segments, and
   the file system stays intact,
4. a fresh workload runs cleanly on the recovered system — and never
   reuses a quarantined segment.

Run:  python examples/crash_torture.py [rounds]
"""

import random
import sys

from repro.disk.faults import FaultInjector, FaultPlan, MediaFault, PowerCut
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import DiskCrashedError
from repro.fs import MinixFS, fsck
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import recover
from repro.lld.usage import SegmentState
from repro.lld.verify import verify_lld
from repro.workloads.generator import random_fs_ops, verify_against_model


def torture_round(round_no: int) -> dict:
    rng = random.Random(round_no)
    crash_after = rng.randrange(1, 40)
    torn = rng.random() < 0.5
    geometry = DiskGeometry.small(num_segments=128)
    cut = PowerCut(after_writes=crash_after, torn=torn, seed=round_no)
    injector = FaultInjector(plan=FaultPlan(power_cut=cut))
    disk = SimulatedDisk(geometry, injector=injector)
    ld = LLD(disk, config=LLDConfig(checkpoint_slot_segments=2))
    fs = MinixFS.mkfs(ld, n_inodes=512)

    synced_model = {}
    crashed = False
    try:
        # Several bursts; the model snapshot advances at each sync.
        for burst in range(20):
            trace = random_fs_ops(
                fs, n_ops=15, seed=round_no * 100 + burst,
                sync_every=None, name_prefix=f"b{burst}_",
            )
            fs.sync()
            synced_model = dict(trace.expected)
    except DiskCrashedError:
        crashed = True

    ld2, report = recover(
        disk.power_cycle(),
        config=LLDConfig(checkpoint_slot_segments=2),
    )
    fs2 = MinixFS.mount(ld2)

    check = fsck(fs2)
    assert check.clean, (
        f"round {round_no}: fsck found {[str(p) for p in check.problems]}"
    )
    if crashed:
        # Only data synced before the crash is guaranteed; later
        # bursts may partially exist as *whole files* (never halves).
        mismatches = [
            problem
            for problem in verify_against_model(fs2, synced_model)
            if "differ" in problem
        ]
    else:
        mismatches = verify_against_model(fs2, synced_model)
    assert not mismatches, f"round {round_no}: {mismatches[:3]}"

    # Media-fault phase: fail the most-live segments under the
    # recovered system, then scrub.  The cache is warmed first, so
    # every live block has a byte-identical salvage source.
    victims = []
    if rng.random() < 0.7:
        live_blocks = sorted(ld2.bmap.persistent)
        ld2.read_many(live_blocks)
        dirty = sorted(
            (seg for seg, _live, _seq in ld2.usage.dirty_segments()),
            key=lambda seg: ld2.usage.live_slots(seg),
            reverse=True,
        )
        victims = dirty[:2]
        for index, seg in enumerate(victims):
            kind = "corrupt" if index % 2 == 0 else "unreadable"
            ld2.disk.injector.add_media_fault(MediaFault(seg, kind))
        scrub = ld2.scrub()
        assert sorted(scrub.damaged) == sorted(victims)
        assert scrub.blocks_lost == 0, (
            f"round {round_no}: lost {scrub.lost_blocks} despite warm cache"
        )
        assert verify_lld(ld2) == [], f"round {round_no}: verify after scrub"
        check = fsck(fs2)
        assert check.clean, f"round {round_no}: fsck after scrub"
        mismatches = [
            problem
            for problem in verify_against_model(fs2, synced_model)
            if "differ" in problem
        ]
        assert not mismatches, f"round {round_no}: data after scrub"

    # The recovered system keeps working.
    post = random_fs_ops(
        fs2, n_ops=10, seed=round_no, sync_every=None, name_prefix="post_"
    )
    fs2.sync()
    assert verify_against_model(fs2, post.expected) == []
    for seg in victims:
        assert ld2.usage.state(seg) is SegmentState.QUARANTINED, (
            f"round {round_no}: quarantined segment {seg} was reused"
        )
    return {
        "crashed": crashed,
        "torn": torn,
        "orphans": len(report.orphan_blocks_freed),
        "invalid_segments": report.segments_invalid,
        "quarantined": len(victims),
    }


def main() -> None:
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 60
    crashes = torn_crashes = orphans = quarantined = 0
    for round_no in range(rounds):
        outcome = torture_round(round_no)
        crashes += outcome["crashed"]
        torn_crashes += outcome["crashed"] and outcome["torn"]
        orphans += outcome["orphans"]
        quarantined += outcome["quarantined"]
        if (round_no + 1) % 10 == 0:
            print(f"  {round_no + 1}/{rounds} rounds, "
                  f"{crashes} crashes survived so far")
    print(f"\n{rounds} torture rounds: {crashes} crashes "
          f"({torn_crashes} with torn segments), "
          f"{orphans} orphan blocks reclaimed, "
          f"{quarantined} segments quarantined by scrub, "
          "zero inconsistencies.")


if __name__ == "__main__":
    main()
