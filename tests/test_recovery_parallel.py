"""Differential test: production recovery, eager and instant (batched
tail scan, CRCs charged at the critical-path share of four simulated
lanes, tuple replay), must rebuild byte-identical logical-disk state to
:func:`~repro.lld.recovery_reference.reference_recover` (serial scan,
object replay, no shared rule code).

Recovery performs no disk writes, so the same crashed platter can be
recovered repeatedly; ``tests/oracle.py``'s ``recoveries_agree``
recovers it with each and compares the serialized persistent state,
the rebuilt usage table, and the report's replay counters at every crash point
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
from repro.disk.clock import CostMeter, CostModel
from repro.disk.faults import FaultInjector, FaultPlan, MediaFault, PowerCut
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import DiskCrashedError
from repro.fs import MinixFS
from repro.lld import recovery as lld_recovery
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import recover
from repro.shard.sharded import build_sharded

from tests.oracle import recoveries_agree

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


def write_span():
    """Writes ``mkfs`` makes, and writes in all once the workload is
    done, counted on a run with no crash plan."""
    injector = FaultInjector(plan=FaultPlan())
    _disk, ld = build(injector=injector)
    fs = MinixFS.mkfs(ld, n_inodes=256)
    formatted = injector.writes_seen
    workload(fs)
    return formatted, injector.writes_seen


class TestParallelSerialEquivalence:
    def test_clean_shutdown(self):
        disk, ld = build()
        fs = MinixFS.mkfs(ld, n_inodes=256)
        workload(fs)
        recoveries_agree(disk, CONFIG)

    @pytest.mark.parametrize("torn", [False, True])
    def test_every_crash_point(self, torn):
        formatted, limit = write_span()
        assert limit - formatted > 10, "workload too small to be interesting"
        for crash_after in range(formatted, limit + 1):
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
            recoveries_agree(disk, CONFIG)

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
        recoveries_agree(disk, CONFIG)

    def test_parallel_data_readable(self):
        disk, ld = build()
        fs = MinixFS.mkfs(ld, n_inodes=256)
        workload(fs)
        lld, _report = recoveries_agree(disk, CONFIG)
        mounted = MinixFS.mount(lld)
        for name in mounted.listdir("/"):
            mounted.read_file(f"/{name}")


def crashed_array(shards=3):
    """A flushed array of ``shards`` members, two blocks each: shard 0
    decides, the others recover as participants."""
    volume = build_sharded(
        shards, DiskGeometry.small(num_segments=32), config=CONFIG
    )
    lists = [volume.new_list() for _ in range(shards)]
    for index in range(2 * shards):
        block = volume.new_block(lists[index % shards])
        volume.write(block, b"block-%d" % index)
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
        _lld, report = recover(platter.power_cycle(), config=CONFIG)
        assert report.segments_replayed > 4

    def test_decode_lanes_are_charged_as_before(self, platter, monkeypatch):
        """The scan's summary CRCs are charged at the share of four
        lanes, as the whole-body decode they replaced was (captured
        while that decode still ran on a thread pool of four).  Since
        no recovery reads a data slot, they are an eager recovery's one
        CRC charge: 178.45 µs for the 22 pending segments' stacks, where
        the body audit that went with the slot reads charged 4,458.45."""
        charges = []
        charge = CostMeter.charge

        def recording(meter, category, count=1, lanes=1):
            charges.append((category, count, lanes))
            charge(meter, category, count, lanes)

        monkeypatch.setattr(CostMeter, "charge", recording)
        _volume, report = recover(platter.power_cycle(), config=CONFIG)
        assert report.segments_replayed == 22
        ((_crc, kb, lanes),) = [c for c in charges if c[0] == "crc_kb_us"]
        assert lanes == 4
        assert (CostModel().crc_kb_us * kb / lanes).hex() == "0x1.64e5000000000p+7"
