#!/usr/bin/env python3
"""MinixLLD: a file system that needs no fsck (Section 5.1).

Every file/directory creation and every deletion runs inside its own
atomic recovery unit, so the i-node and the directory data can never
disagree after a crash.  This example crashes the machine in the
middle of a metadata-heavy workload, recovers, and runs a (redundant)
consistency checker to prove the point — then shows that the same
workload *without* ARUs can be left inconsistent.

Run:  python examples/filesystem_no_fsck.py
"""

from repro.disk.faults import FaultInjector, FaultPlan, PowerCut
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import DiskCrashedError
from repro.fs import MinixFS, fsck
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import recover


def build(crash_after_writes, use_arus):
    geometry = DiskGeometry.small(num_segments=128)
    cut = PowerCut(after_writes=crash_after_writes)
    injector = FaultInjector(plan=FaultPlan(power_cut=cut))
    disk = SimulatedDisk(geometry, injector=injector)
    mode = "concurrent" if use_arus else "sequential"
    ld = LLD(disk, config=LLDConfig(aru_mode=mode, checkpoint_slot_segments=2))
    return disk, MinixFS.mkfs(ld, n_inodes=512, use_arus=use_arus)


def metadata_storm(fs) -> None:
    """Creations, writes, deletions and renames with *no* explicit
    syncs: data reaches the disk only as segments fill, so meta-data
    update pairs regularly straddle segment boundaries — the exposure
    ARUs exist to close."""
    block = fs.block_size
    for index in range(10_000):
        path = f"/file{index}"
        fs.create(path)
        fs.write_file(path, b"d" * ((index % 7 + 1) * block))
        if index % 3 == 2 and fs.exists(f"/file{index - 2}"):
            fs.unlink(f"/file{index - 2}")
        if index % 11 == 10:
            fs.mkdir(f"/dir{index}")
            fs.rename(path, f"/dir{index}/moved")


def crash_and_check(use_arus, crash_after) -> bool:
    """Returns True when the recovered file system is consistent."""
    disk, fs = build(crash_after, use_arus)
    try:
        metadata_storm(fs)
    except DiskCrashedError:
        pass
    mode = "concurrent" if use_arus else "sequential"
    ld, _report = recover(
        disk.power_cycle(),
        config=LLDConfig(aru_mode=mode, checkpoint_slot_segments=2),
    )
    mounted = MinixFS.mount(ld, use_arus=use_arus)
    report = fsck(mounted)
    label = "with ARUs" if use_arus else "without ARUs"
    verdict = "CONSISTENT" if report.clean else "INCONSISTENT"
    print(f"  crash after {crash_after:3d} writes, {label:12s}: {verdict}")
    for problem in report.problems[:3]:
        print(f"      {problem}")
    return report.clean


def main() -> None:
    print("With ARUs, every crash point leaves a consistent file system:")
    aru_results = [
        crash_and_check(use_arus=True, crash_after=n)
        for n in range(2, 62, 6)
    ]
    assert all(aru_results)

    print("\nWithout ARUs, meta-data updates can straddle a segment")
    print("boundary, and some crash points corrupt the file system:")
    plain_results = [
        crash_and_check(use_arus=False, crash_after=n)
        for n in range(2, 62, 2)
    ]
    broken = plain_results.count(False)
    print(f"\n=> {broken} of {len(plain_results)} crash points left the "
          "no-ARU file system needing repair;")
    print("   the ARU file system survived every one — no fsck required.")


if __name__ == "__main__":
    main()
