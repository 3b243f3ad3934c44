"""Instant restore: redo-on-demand recovery vs the eager scan.

``recover(mode="instant")`` opens the volume right after the
checkpoint + summary-index pass and replays pending log segments on
demand (per touched block/list) plus a background sweep.  The claims
pinned here:

1. After the sweep completes, the rebuilt state is byte-identical to
   eager recovery — at every crash point of the canonical workload,
   whole-write drops and torn writes alike, media faults included
   (``tests/test_recovery_parallel.py`` checks that through
   ``tests.oracle.recoveries_agree``).
2. Requests served *during* the restore return exactly what eager
   recovery would have served, and the watermark invariant (no id
   served while a pending segment still names it) holds throughout.
3. Restore performs no disk writes, so a second crash mid-sweep
   recovers byte-identically to a single recovery of the original
   crash — including after live traffic flushed new segments.
4. The whole machinery composes with sharded volumes (2PC decisions
   are resolved before any shard opens) and with a concurrent
   front-end storm hitting a recovering array.
"""

import pytest

from repro import recover
from repro.disk.faults import FaultInjector, FaultPlan, PowerCut
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import DiskCrashedError
from repro.fs import MinixFS
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.verify import verify_lld
from repro.obs.schema import validate_stats

from tests.oracle import state_fingerprint
from tests.test_recovery_parallel import CONFIG, build, workload


def recover_eager(disk):
    return recover(disk.power_cycle(), config=CONFIG)


def recover_instant(disk, **kwargs):
    config = CONFIG.replace(**kwargs)
    return recover(disk.power_cycle(), mode="instant", config=config)


class TestInstantEagerIdentity:
    def test_reads_during_restore_match_eager(self):
        """Every file readable mid-restore, byte-for-byte."""
        disk, ld = build()
        fs = MinixFS.mkfs(ld, n_inodes=256)
        workload(fs)
        eager_lld, _ = recover_eager(disk)
        eager_fs = MinixFS.mount(eager_lld)
        expected = {
            name: eager_fs.read_file(f"/{name}")
            for name in eager_fs.listdir("/")
        }
        instant_lld, report = recover_instant(
            disk, restore_drain_segments=0
        )
        assert instant_lld.restore_active
        instant_fs = MinixFS.mount(instant_lld)
        got = {
            name: instant_fs.read_file(f"/{name}")
            for name in instant_fs.listdir("/")
        }
        assert got == expected
        assert report.on_demand_replays > 0
        assert verify_lld(instant_lld) == []

    def test_ttfr_smaller_than_eager_recovery_time(self):
        disk, ld = build()
        fs = MinixFS.mkfs(ld, n_inodes=256)
        workload(fs)
        _eager_lld, eager_report = recover_eager(disk)
        _instant_lld, instant_report = recover_instant(disk)
        assert eager_report.ttfr_us == eager_report.recovery_time_us
        assert instant_report.ttfr_us < eager_report.ttfr_us
        assert instant_report.ttfr_us == instant_report.recovery_time_us


class TestOnDemandReplay:
    def build_lists(self):
        """A few multi-segment lists written directly through LLD."""
        geo = DiskGeometry.small(num_segments=64)
        disk = SimulatedDisk(geo)
        ld = LLD(disk, config=CONFIG)
        lists, blocks = [], {}
        for l_index in range(4):
            lst = ld.new_list()
            lists.append(lst)
            blocks[lst] = []
            for b_index in range(24):
                block = ld.new_block(lst)
                ld.write(block, bytes([l_index * 25 + b_index + 1]) * 64)
                blocks[lst].append(block)
        ld.flush()
        return disk, lists, blocks

    def test_on_demand_is_charged_and_idempotent(self):
        disk, lists, blocks = self.build_lists()
        ld, report = recover_instant(disk, restore_drain_segments=0)
        assert ld.restore_active
        assert validate_stats(ld.stats()) == []  # mid-restore, too
        stats = ld.stats()["recovery"]
        assert stats["restoring"] and stats["watermark"] == 0
        assert stats["pending_segments"] > 0
        # Nothing touched yet: the open itself replayed nothing, and
        # the per-id indexes wait for the first request.
        assert report.on_demand_replays == 0
        assert "_indexes" not in vars(ld._restore)
        target = blocks[lists[-1]][-1]
        before_us = ld.clock.now_us
        first = ld.read(target)
        assert report.on_demand_replays == 1
        assert "_indexes" in vars(ld._restore)
        paid_us = ld.clock.now_us - before_us
        assert paid_us > 0  # the requester paid for its replay
        # Same id again: covered by the watermark, no further replay.
        assert ld.read(target) == first
        assert report.on_demand_replays == 1
        assert verify_lld(ld) == []
        ld.complete_restore()
        assert verify_lld(ld) == []
        assert ld.stats()["recovery"]["pending_segments"] == 0
        assert validate_stats(ld.stats()) == []

    def test_background_sweep_drains_without_traffic(self):
        disk, lists, _blocks = self.build_lists()
        ld, _report = recover_instant(disk, restore_drain_segments=2)
        pending = ld._restore.pending_count
        assert pending > 0
        # Each public operation drains two segments; enough no-op
        # ticks (new_list is hooked) retire the whole suffix.
        for _ in range(pending):
            ld.new_list()
        assert not ld.restore_active
        assert verify_lld(ld) == []

    def test_explicit_drain_reports_progress(self):
        disk, _lists, _blocks = self.build_lists()
        ld, _report = recover_instant(disk, restore_drain_segments=0)
        pending = ld._restore.pending_count
        assert pending >= 3
        assert ld.restore_drain(2) == 2
        assert ld._restore.pending_count == pending - 2
        assert ld.restore_drain() == pending - 2
        # Drained but not completed: the consistency sweep still owed.
        assert ld.restore_active
        ld.complete_restore()
        assert not ld.restore_active
        assert ld.restore_drain(4) == 0

    def test_checkpoint_forces_completion(self):
        disk, _lists, _blocks = self.build_lists()
        ld, _report = recover_instant(disk, restore_drain_segments=0)
        assert ld.restore_active
        assert not ld.checkpoint_safe()
        ld.write_checkpoint()
        assert not ld.restore_active
        assert ld.checkpoint_safe()

    def test_scrub_forces_completion(self):
        disk, _lists, _blocks = self.build_lists()
        ld, _report = recover_instant(disk, restore_drain_segments=0)
        assert ld.restore_active
        ld.scrub()
        assert not ld.restore_active
        assert verify_lld(ld) == []


class TestSecondCrashDuringSweep:
    """Restore performs no disk writes, so crashing mid-sweep must
    leave the platter exactly as the first crash did."""

    def crashed_disk(self, crash_after, torn=True):
        cut = PowerCut(after_writes=crash_after, torn=torn, seed=crash_after)
        injector = FaultInjector(plan=FaultPlan(power_cut=cut))
        disk, ld = build(injector=injector)
        fs = MinixFS.mkfs(ld, n_inodes=256)
        try:
            workload(fs)
        except DiskCrashedError:
            pass
        return disk

    def test_crash_mid_sweep_recovers_like_single_recovery(self):
        for crash_after in (20, 45, 80):
            disk = self.crashed_disk(crash_after)
            baseline_lld, baseline_report = recover_eager(disk)
            baseline = state_fingerprint(baseline_lld, baseline_report)
            survivor = disk.power_cycle()
            mid, _report = recover(
                survivor,
                mode="instant",
                config=LLDConfig(
                    checkpoint_slot_segments=2,
                    restore_drain_segments=0,
                ),
            )
            if mid.restore_active:
                mid.restore_drain(max(1, mid._restore.pending_count // 2))
            # Second crash, mid-sweep: power-cycle the half-restored
            # volume's disk and recover it eagerly.
            again_lld, again_report = recover(survivor.power_cycle(), config=CONFIG)
            assert state_fingerprint(again_lld, again_report) == baseline

    def test_traffic_then_crash_matches_eager_plus_same_traffic(self):
        """Writes accepted during the restore survive a second crash
        exactly as they would on an eagerly recovered volume."""

        def traffic(ld):
            lst = ld.new_list()
            fresh = []
            for index in range(12):
                block = ld.new_block(lst)
                ld.write(block, bytes([index + 1]) * 128)
                fresh.append(block)
            ld.flush()
            return fresh

        disk = self.crashed_disk(60)

        eager_side = disk.power_cycle()
        eager_lld, _ = recover(eager_side, config=CONFIG)
        traffic(eager_lld)

        instant_side = disk.power_cycle()
        instant_lld, _ = recover(
            instant_side,
            mode="instant",
            config=LLDConfig(
                checkpoint_slot_segments=2,
                restore_drain_segments=1,
            ),
        )
        traffic(instant_lld)

        final_eager, re1 = recover(eager_side.power_cycle(), config=CONFIG)
        final_instant, re2 = recover(instant_side.power_cycle(), config=CONFIG)
        assert state_fingerprint(final_instant, re2) == state_fingerprint(
            final_eager, re1
        )


class TestShardedInstantRestore:
    def crashed_array(self, crash_after, torn=True):
        from tests.test_shard import (
            build_swept,
            run_rounds,
            setup_baseline,
        )

        cut = PowerCut(
            after_writes=crash_after,
            torn=torn,
            seed=crash_after,
            granularity="byte",
        )
        injector = FaultInjector(plan=FaultPlan(power_cut=cut))
        vol = build_swept(injector)
        blocks = setup_baseline(vol)
        try:
            run_rounds(vol, blocks)
        except DiskCrashedError:
            pass
        return vol, blocks

    def test_cross_shard_decisions_resolved_before_open(self):
        probe = FaultInjector()
        from tests.test_shard import build_swept, run_rounds, setup_baseline

        vol = build_swept(probe)
        run_rounds(vol, setup_baseline(vol))
        total = probe.writes_seen
        for crash_after in range(total // 3, total + 1, 7):
            vol, blocks = self.crashed_array(crash_after)
            disks = [shard.disk.power_cycle() for shard in vol.shards]
            eager_vol, eager_report = recover(
                [disk.power_cycle() for disk in disks]
            )
            instant_vol, instant_report = recover(
                [disk.power_cycle() for disk in disks], mode="instant"
            )
            assert instant_report.ttfr_us <= instant_report.parallel_us
            assert eager_report.ttfr_us == eager_report.parallel_us
            # Participants must never surface an undecided PREPARE:
            # the decided sets agree before any on-demand replay runs.
            assert instant_report.decided_xids == eager_report.decided_xids
            # Served during restore == served after eager recovery.
            instant_reads = [instant_vol.read(b) for b in blocks]
            eager_reads = [eager_vol.read(b) for b in blocks]
            assert instant_reads == eager_reads
            instant_vol.complete_restore()
            assert not instant_vol.restore_active
            for eager_shard, instant_shard, er, ir in zip(
                eager_vol.shards,
                instant_vol.shards,
                eager_report.reports,
                instant_report.reports,
            ):
                assert state_fingerprint(instant_shard, ir) == (
                    state_fingerprint(eager_shard, er)
                )

    def test_frontend_storm_into_recovering_array(self):
        """A concurrent front-end storm against a volume that is
        still restoring: every request serves correct data, nothing
        violates the watermark, and the sweep completes under load."""
        from repro.frontend.scheduler import FrontEnd, FrontendConfig
        from repro.shard import build_sharded

        shards = 3
        vol = build_sharded(
            shards,
            geometry=DiskGeometry.small(num_segments=48),
            config=CONFIG,
        )
        lists = [vol.new_list() for _ in range(6)]
        blocks = [vol.new_block(lst) for lst in lists]
        for index, block in enumerate(blocks):
            vol.write(block, bytes([index + 1]) * 32)
        vol.flush()

        recovered, report = recover(
            [shard.disk.power_cycle() for shard in vol.shards],
            mode="instant",
            config=LLDConfig(restore_drain_segments=0),
        )
        assert recovered.restore_active
        frontend = FrontEnd(
            recovered,
            FrontendConfig(workers_per_lane=2, max_inflight=32),
        )
        handles = []
        for round_no in range(40):
            block = blocks[round_no % len(blocks)]

            def body(txn, block=block, fill=bytes([round_no % 250 + 1])):
                current = txn.read(block)
                txn.write(block, fill * 32 + current[:1])

            handles.append(
                frontend.submit(body, tenant=f"t{round_no % 4}")
            )
        frontend.drain()
        stats = frontend.stats()
        frontend.close()
        assert stats["failed"] == 0
        recovered.complete_restore()
        for shard in recovered.shards:
            assert verify_lld(shard) == []
        agg = recovered.stats()["aggregate"]["recovery"]
        assert agg["on_demand_replays"] > 0
        assert agg["pending_segments"] == 0
