"""Differential test: production recovery (batched scan, pooled decode,
tuple replay) must rebuild byte-identical logical-disk state to
:func:`~repro.lld.recovery_reference.reference_recover` (serial scan,
object replay, no shared rule code).

Recovery performs no disk writes, so the same crashed platter can be
recovered repeatedly; we recover it once with each implementation and
compare the serialized persistent state, the rebuilt usage table, and
the report's replay counters (``tests/oracle.py``) at every crash point
of a canonical meta-data-heavy workload (whole-write drops and torn
writes alike).  How much of the disk each read to get there is not
compared: the reference reads every segment, production rolls forward
from the checkpoint.
"""

import pytest

from repro.disk.faults import FaultInjector, FaultPlan, MediaFault, PowerCut
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import DiskCrashedError
from repro.fs import MinixFS
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import recover
from repro.lld.recovery_reference import reference_recover

from tests.oracle import state_fingerprint

CONFIG = LLDConfig(checkpoint_slot_segments=2)


def build(injector=None, num_segments=96):
    geo = DiskGeometry.small(num_segments=num_segments)
    disk = SimulatedDisk(geo, injector=injector)
    return disk, LLD(disk, config=LLDConfig(checkpoint_slot_segments=2))


def workload(fs):
    for index in range(60):
        path = f"/f{index}"
        fs.create(path)
        fs.write_file(path, f"payload-{index}".encode() * (index % 4 + 1))
        if index % 4 == 1:
            fs.rename(path, f"/r{index}")
        if index % 5 == 2:
            try:
                fs.unlink(f"/f{index - 1}")
            except Exception:
                pass
        if index % 3 == 0:
            fs.sync()
    fs.sync()


def assert_equivalent(disk):
    """Recover twice (reference, production) and compare the rebuilt
    state."""
    reference_lld, reference_report = reference_recover(
        disk.power_cycle(), config=CONFIG
    )
    lld, report = recover(disk.power_cycle(), config=CONFIG)
    assert state_fingerprint(lld, report) == state_fingerprint(
        reference_lld, reference_report
    )
    return reference_lld, lld


def total_writes():
    disk, ld = build()
    fs = MinixFS.mkfs(ld, n_inodes=256)
    workload(fs)
    return disk.write_count


class TestParallelSerialEquivalence:
    def test_clean_shutdown(self):
        disk, ld = build()
        fs = MinixFS.mkfs(ld, n_inodes=256)
        workload(fs)
        assert_equivalent(disk)

    @pytest.mark.parametrize("torn", [False, True])
    def test_every_crash_point(self, torn):
        limit = total_writes()
        assert limit > 10, "workload too small to be interesting"
        for crash_after in range(1, limit + 1):
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
            assert_equivalent(disk)

    def test_media_faulted_segments_classified_identically(self):
        disk, ld = build()
        fs = MinixFS.mkfs(ld, n_inodes=256)
        workload(fs)
        # Knock out a few written segments behind recovery's back.
        written = sorted(
            seg for seg in disk._segments if seg >= ld.checkpoints.reserved_segments
        )
        for seg in written[-3:]:
            disk.injector.add_media_fault(
                MediaFault(segment_no=seg, kind="unreadable")
            )
        disk.injector.add_media_fault(
            MediaFault(segment_no=written[len(written) // 2], kind="corrupt")
        )
        assert_equivalent(disk)

    def test_parallel_data_readable(self):
        disk, ld = build()
        fs = MinixFS.mkfs(ld, n_inodes=256)
        workload(fs)
        _reference, lld = assert_equivalent(disk)
        mounted = MinixFS.mount(lld)
        for name in mounted.listdir("/"):
            mounted.read_file(f"/{name}")

    def test_worker_count_does_not_change_state(self):
        disk, ld = build()
        fs = MinixFS.mkfs(ld, n_inodes=256)
        workload(fs)
        states = []
        for workers in (1, 2, 8):
            lld, report = recover(
                disk.power_cycle(), workers=workers, config=CONFIG
            )
            states.append(state_fingerprint(lld, report))
        assert states[0] == states[1] == states[2]

    def test_invalid_workers_rejected(self):
        disk, ld = build()
        ld.flush()
        with pytest.raises(ValueError):
            recover(disk.power_cycle(), workers=0)
