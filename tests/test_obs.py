"""Tests for the unified observability subsystem (repro.obs).

Covers the metrics registry and flight recorder in isolation, their
integration into a live LLD, and the crash-dump contract: after a
torn-write power failure the recorder's tail survives as a JSON-lines
dump, and neither recording nor dumping perturbs a single simulated
byte (the instrumented and uninstrumented runs leave byte-identical
platters and recover identically).
"""

import json

import pytest

from repro.disk.faults import FaultInjector, FaultPlan, PowerCut
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import DiskCrashedError
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import recover
from repro.lld.verify import verify_lld
from repro.obs import (
    DISABLED_REGISTRY,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    FlightRecorder,
    MetricsRegistry,
    Observability,
)

from tests.conftest import make_lld


class TestRegistry:
    def test_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("a.b")
        counter.inc()
        counter.add(4)
        assert counter.value == 5
        assert registry.value("a.b") == 5

    def test_gauge(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g", initial=None)
        assert gauge.value is None
        gauge.update_min(3.5)
        gauge.update_min(7.0)
        assert gauge.value == 3.5
        peak = registry.gauge("peak")
        peak.update_max(2)
        peak.update_max(1)
        assert peak.value == 2
        peak.set(9)
        assert peak.value == 9

    def test_histogram(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for value in (1.0, 3.0, 1000.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 3
        assert snap["max_us"] == 1000.0
        assert snap["mean_us"] == pytest.approx((1 + 3 + 1000) / 3)
        assert sum(bucket["count"] for bucket in snap["buckets"]) == 3

    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("y") is registry.gauge("y")
        assert registry.histogram("z") is registry.histogram("z")

    def test_cross_kind_name_reuse_rejected(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(ValueError):
            registry.gauge("name")
        with pytest.raises(ValueError):
            registry.histogram("name")

    def test_group_values(self):
        registry = MetricsRegistry()
        registry.counter("ops.read").add(2)
        registry.counter("ops.write").add(3)
        registry.counter("other").inc()
        assert registry.group_values("ops.") == {"read": 2, "write": 3}

    def test_disabled_registry_hands_out_nulls(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("anything") is NULL_COUNTER
        assert registry.gauge("anything") is NULL_GAUGE
        assert registry.histogram("anything") is NULL_HISTOGRAM
        NULL_COUNTER.inc()
        NULL_GAUGE.set(5)
        NULL_HISTOGRAM.observe(1.0)
        assert NULL_COUNTER.value == 0
        assert registry.value("anything") == 0
        assert registry.snapshot()["enabled"] is False
        assert DISABLED_REGISTRY.counter("x") is NULL_COUNTER

    def test_snapshot_is_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2)
        registry.histogram("h").observe(10.0)
        json.dumps(registry.snapshot())  # must not raise


class TestFlightRecorder:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_ring_keeps_newest(self):
        recorder = FlightRecorder(capacity=3)
        for index in range(5):
            recorder.record("tick", index=index)
        events = list(recorder.events())
        assert [event["index"] for event in events] == [2, 3, 4]
        assert [event["seq"] for event in events] == [3, 4, 5]
        assert recorder.recorded == 5
        assert recorder.dropped == 2

    def test_field_named_kind_and_seq_do_not_clash(self):
        recorder = FlightRecorder()
        recorder.record("quarantine", kind="corrupt", seq=999)
        event = next(recorder.events())
        assert event["event"] == "quarantine"
        assert event["kind"] == "corrupt"
        assert event["seq"] == 1  # recorder's own sequence wins

    def test_dump_jsonl_roundtrip(self, tmp_path):
        recorder = FlightRecorder(capacity=4)
        for index in range(6):
            recorder.record("tick", index=index)
        path = tmp_path / "events.jsonl"
        written = recorder.dump_jsonl(str(path))
        lines = path.read_text().splitlines()
        assert written == len(lines) == 4
        parsed = [json.loads(line) for line in lines]
        assert [event["index"] for event in parsed] == [2, 3, 4, 5]

    def test_observability_crash_dump_swallows_io_errors(self, tmp_path):
        obs = Observability(dump_path=str(tmp_path / "no" / "dir" / "x"))
        assert obs.crash_dump("test") is None  # bad path, no raise
        good = Observability(dump_path=str(tmp_path / "dump.jsonl"))
        good.record("before")
        assert good.crash_dump("test") == str(tmp_path / "dump.jsonl")
        events = [
            json.loads(line)
            for line in (tmp_path / "dump.jsonl").read_text().splitlines()
        ]
        assert events[-1]["event"] == "crash_dump"
        assert events[-1]["reason"] == "test"


class TestLLDIntegration:
    def workload(self, ld):
        lst = ld.new_list()
        aru = ld.begin_aru()
        block = ld.new_block(lst, aru=aru)
        ld.write(block, b"payload", aru=aru)
        ld.end_aru(aru)
        doomed = ld.begin_aru()
        ld.abort_aru(doomed)
        ld.flush()
        return block

    def test_events_cover_the_lifecycle(self):
        ld = make_lld()
        self.workload(ld)
        kinds = {event["event"] for event in ld.obs.recorder.events()}
        assert {"aru.begin", "aru.commit", "aru.abort", "segment.seal"} \
            <= kinds

    def test_registry_backs_the_counters(self):
        ld = make_lld()
        self.workload(ld)
        assert ld.obs.metrics.value("lld.ops.write") == 1
        assert ld.op_counts["write"] == 1
        assert ld.segments_flushed == ld.obs.metrics.value(
            "lld.segments.flushed"
        )

    def test_commit_latency_histogram_observes_commits(self):
        ld = make_lld()
        self.workload(ld)
        hist = ld.obs.metrics.histogram("lld.commit_us")
        assert hist.count == 1
        assert hist.snapshot()["max_us"] >= 0.0

    def test_metrics_off_is_invisible_to_simulation(self):
        on = make_lld()
        off = make_lld(metrics=False)
        for ld in (on, off):
            self.workload(ld)
        assert on.clock.now_us == off.clock.now_us
        assert off.obs.metrics.enabled is False
        assert off.op_counts == {}
        assert off.segments_flushed == 0  # documented trade-off
        # The recorder still runs with metrics off.
        assert off.obs.recorder.recorded > 0

    def test_stats_obs_section(self):
        ld = make_lld()
        self.workload(ld)
        obs = ld.stats()["obs"]
        assert obs["metrics_enabled"] is True
        assert obs["events_recorded"] == ld.obs.recorder.recorded
        assert obs["events_capacity"] == ld.obs.recorder.capacity

    def test_scrub_and_cleaner_events(self):
        from repro.workloads.generator import overwrite_pressure

        ld = make_lld(
            num_segments=24, clean_low_water=3, clean_high_water=6
        )
        overwrite_pressure(ld, working_set_blocks=40, n_writes=600)
        assert ld.cleanings > 0
        ld.scrub()
        kinds = {event["event"] for event in ld.obs.recorder.events()}
        assert "cleaner.pass" in kinds
        assert "scrub.pass" in kinds
        assert ld.obs.metrics.value("lld.scrub.scrubs") == 1
        assert ld.obs.metrics.value("lld.cleaner.runs") == ld.cleanings

    def test_recovery_events_and_phase_counters(self):
        ld = make_lld()
        self.workload(ld)
        ld.write_checkpoint()
        survivor = ld.disk.power_cycle()
        ld2, report = recover(
            survivor,
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        kinds = [event["event"] for event in ld2.obs.recorder.events()]
        assert kinds[0] == "recovery.start"
        assert "recovery.done" in kinds
        assert ld2.obs.metrics.value("lld.recovery.recoveries") == 1
        for phase in report.phase_us:
            assert ld2.obs.metrics.value(f"lld.recovery.{phase}_us") == \
                pytest.approx(report.phase_us[phase])


def crash_workload(ld):
    """Deterministic ARU-per-block stream with periodic flushes and a
    mid-stream checkpoint, so the sweep crosses data, summary and
    checkpoint writes alike."""
    lst = ld.new_list()
    for index in range(40):
        aru = ld.begin_aru()
        block = ld.new_block(lst, aru=aru)
        ld.write(block, bytes([index + 1]) * 256, aru=aru)
        ld.end_aru(aru)
        if index % 3 == 0:
            ld.flush()
        if index == 20:
            ld.write_checkpoint()
    ld.flush()


def run_to_crash(crash_after, tmp_path=None, **lld_kwargs):
    """Run the workload into a torn-write crash; returns (disk, ld)."""
    cut = PowerCut(
        after_writes=crash_after,
        torn=True,
        seed=crash_after,
        granularity="byte",
    )
    injector = FaultInjector(plan=FaultPlan(power_cut=cut))
    disk = SimulatedDisk(
        DiskGeometry.small(num_segments=96), injector=injector
    )
    if tmp_path is not None:
        lld_kwargs["flight_dump_path"] = str(
            tmp_path / f"crash_{crash_after}.jsonl"
        )
    ld = LLD(
        disk, config=LLDConfig(checkpoint_slot_segments=2, **lld_kwargs)
    )
    crashed = False
    try:
        crash_workload(ld)
    except DiskCrashedError:
        crashed = True
    return disk, ld, crashed


def crash_budget():
    """(total segment writes, the workload's list id) with no crash."""
    disk = SimulatedDisk(DiskGeometry.small(num_segments=96))
    ld = LLD(disk, config=LLDConfig(checkpoint_slot_segments=2))
    crash_workload(ld)
    list_id = min(ld.ltable.persistent)
    return disk.write_count, list_id


class TestCrashDump:
    def test_torn_crash_sweep_dumps_event_tail(self, tmp_path):
        """At every torn-write crash point, the flight recorder dumps
        its last-N-events tail, and observability never perturbs the
        platter: the instrumented run and a metrics-off run leave
        byte-identical disks and recover identically."""
        limit, list_id = crash_budget()
        assert limit > 5, "workload too small to be interesting"
        for crash_after in range(1, limit + 1):
            disk_a, ld_a, crashed = run_to_crash(crash_after, tmp_path=tmp_path)
            disk_b, _ld_b, crashed_b = run_to_crash(
                crash_after, metrics=False
            )
            assert crashed == crashed_b, crash_after
            if not crashed:
                continue  # the budget outlived the workload

            # Byte-identical platters: metrics and the dump changed
            # nothing the disk can see.
            assert disk_a._segments == disk_b._segments, crash_after

            # The dump exists and holds the recorder's tail.
            dump = tmp_path / f"crash_{crash_after}.jsonl"
            events = [
                json.loads(line)
                for line in dump.read_text().splitlines()
            ]
            assert 0 < len(events) <= ld_a.obs.recorder.capacity, crash_after
            assert events[-1]["event"] == "crash_dump"
            seqs = [event["seq"] for event in events]
            assert seqs == list(
                range(seqs[0], seqs[0] + len(seqs))
            ), crash_after
            assert seqs[-1] == ld_a.obs.recorder.recorded

            # Both survivors recover to the same state.
            rec_a, report_a = recover(
                disk_a.power_cycle(),
                config=LLDConfig(checkpoint_slot_segments=2),
            )
            rec_b, report_b = recover(
                disk_b.power_cycle(),
                config=LLDConfig(checkpoint_slot_segments=2),
            )
            assert verify_lld(rec_a) == []
            assert report_a.segments_replayed == report_b.segments_replayed
            assert report_a.arus_committed == report_b.arus_committed
            surviving_a = rec_a.ltable.persistent
            surviving_b = rec_b.ltable.persistent
            assert surviving_a.keys() == surviving_b.keys(), crash_after
            if list_id in surviving_a:
                blocks_a = rec_a.list_blocks(list_id)
                assert blocks_a == rec_b.list_blocks(list_id)
                for block in blocks_a:
                    assert rec_a.read(block) == rec_b.read(block)

    def test_dumping_does_not_perturb_recovery(self, tmp_path):
        """Dumping the ring mid-flight is a pure read: the platter is
        unchanged and a subsequent recovery is byte-identical to one
        without the dump."""
        limit, _list_id = crash_budget()
        disk, ld, crashed = run_to_crash(limit // 2)
        assert crashed
        before = {
            seg: bytes(data) for seg, data in disk._segments.items()
        }
        ld.obs.recorder.dump_jsonl(str(tmp_path / "manual.jsonl"))
        after = {seg: bytes(data) for seg, data in disk._segments.items()}
        assert before == after
        recovered, _report = recover(
            disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        assert verify_lld(recovered) == []

    def test_verify_failure_triggers_crash_dump(self, tmp_path):
        from repro.ld.types import BlockId

        dump = tmp_path / "verify.jsonl"
        ld = make_lld(flight_dump_path=str(dump))
        lst = ld.new_list()
        block = ld.new_block(lst)
        ld.write(block, b"data")
        ld.flush()
        # Seed a mesh corruption so verification fails.
        ld.bmap.persistent[block].successor = BlockId(999)
        problems = verify_lld(ld)
        assert problems
        events = [
            json.loads(line)
            for line in dump.read_text().splitlines()
        ]
        assert events[-1]["event"] == "crash_dump"
        assert events[-1]["reason"] == "verify_failed"
        failed = [e for e in events if e["event"] == "verify.failed"]
        assert failed and failed[-1]["problems"] == len(problems)
