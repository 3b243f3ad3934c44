"""Differential test: production recovery (batched scan, decode charged
at the critical-path share of ``workers`` simulated lanes, tuple replay)
must rebuild byte-identical logical-disk state to
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

``TestHostCost`` holds what recovery must not spend host time on: the
recovery starts no thread, and the cyclic garbage collector stays off
while the tables are built — and comes back as the caller left it.
"""

import gc
import threading

import pytest

import repro
from repro.disk.faults import FaultInjector, FaultPlan, MediaFault, PowerCut
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import DiskCrashedError
from repro.fs import MinixFS
from repro.lld import recovery as lld_recovery
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import recover
from repro.lld.recovery_reference import reference_recover
from repro.shard.sharded import build_sharded

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


def crashed_array(shards=3, blocks=2, flushes=1):
    """A flushed array of ``shards`` members: shard 0 decides, the
    others recover as participants.  ``blocks`` per member are written
    in ``flushes`` rounds, each ending in a flush."""
    volume = build_sharded(
        shards, DiskGeometry.small(num_segments=32), config=CONFIG
    )
    lists = [volume.new_list() for _ in range(shards)]
    for index in range(blocks * shards):
        block = volume.new_block(lists[index % shards])
        volume.write(block, b"block-%d" % index)
        if (index + 1) % (blocks * shards // flushes) == 0:
            volume.flush()
    volume.flush()
    return [shard.disk.power_cycle() for shard in volume.shards]


@pytest.fixture(scope="module")
def platter():
    """The canonical workload's platter, recovered many times over."""
    disk, ld = build()
    workload(MinixFS.mkfs(ld, n_inodes=256))
    return disk


@pytest.fixture
def scans(monkeypatch):
    """Record, per recovery scan, whether it ran on the main thread and
    whether the collector was on."""
    seen = []
    real_scan = lld_recovery._scan

    def spy(*args, **kwargs):
        seen.append(
            (threading.current_thread() is threading.main_thread(),
             gc.isenabled())
        )
        return real_scan(*args, **kwargs)

    monkeypatch.setattr(lld_recovery, "_scan", spy)
    return seen


class TestHostCost:
    @pytest.mark.parametrize("mode", ["eager", "instant"])
    def test_collector_paused_while_one_volume_recovers(
        self, platter, scans, mode
    ):
        before = gc.isenabled()
        volume, _report = repro.recover(
            platter.power_cycle(), mode=mode, config=CONFIG
        )
        assert gc.isenabled() == before
        assert scans == [(True, False)]
        volume.complete_restore()

    def test_collector_paused_while_an_array_recovers(self, scans):
        before = gc.isenabled()
        repro.recover(crashed_array(), config=CONFIG)
        assert gc.isenabled() == before
        # Every member, one after another on the calling thread.
        assert scans == [(True, False)] * 3

    def test_collector_restored_when_the_scan_raises(self, monkeypatch):
        disk, ld = build()
        ld.flush()

        def failing_scan(*args, **kwargs):
            raise RuntimeError("scan failed")

        monkeypatch.setattr(lld_recovery, "_scan", failing_scan)
        before = gc.isenabled()
        with pytest.raises(RuntimeError, match="scan failed"):
            repro.recover(disk.power_cycle(), config=CONFIG)
        assert gc.isenabled() == before

    def test_caller_disabled_collector_stays_disabled(self, platter):
        enabled = gc.isenabled()
        gc.disable()
        try:
            repro.recover(platter.power_cycle(), config=CONFIG)
            repro.recover(crashed_array(), config=CONFIG)
            assert not gc.isenabled()
        finally:
            if enabled:
                gc.enable()

    def test_pause_is_reentrant(self):
        pause = lld_recovery._collector_paused
        before = gc.isenabled()
        with pause:
            with pause:
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() == before

    def test_single_volume_starts_no_thread(self, platter, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"recovery started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        for workers in (1, 4, 8):
            _lld, report = recover(
                platter.power_cycle(), workers=workers, config=CONFIG
            )
            assert report.segments_replayed > workers

    def test_decode_lanes_are_charged_as_before(self, platter):
        """``workers`` keeps its simulated meaning: the decode phase is
        charged at ``1 / lanes``.  Values captured while the decode
        still ran on a thread pool."""
        decode = {}
        for workers in (1, 4):
            _lld, report = recover(
                platter.power_cycle(), workers=workers, config=CONFIG
            )
            decode[workers] = report.phase_us["decode"].hex()
        assert decode == {
            1: "0x1.c0ec000000000p+15",
            4: "0x1.c0ec000000000p+13",
        }

    def test_array_members_decode_at_the_share_of_workers(self):
        """For an array ``workers`` means what it means for one volume:
        every member's decode phase is charged at ``1 / workers``."""
        platters = crashed_array(blocks=40, flushes=8)
        decode = {}
        for workers in (1, 4):
            _volume, report = repro.recover(
                [platter.power_cycle() for platter in platters],
                workers=workers,
                config=CONFIG,
            )
            assert [member.workers for member in report.reports] == [workers] * 3
            decode[workers] = [m.phase_us["decode"] for m in report.reports]
        assert all(share > 0 for share in decode[4])
        assert decode[1] == [4 * share for share in decode[4]]

    def test_invalid_workers_rejected_for_both_shapes(self):
        disk, ld = build()
        ld.flush()
        with pytest.raises(ValueError, match="workers"):
            repro.recover(disk.power_cycle(), workers=0)
        with pytest.raises(ValueError, match="workers"):
            repro.recover(crashed_array(), workers=0)
