"""Front-end scheduler tests: admission, fairness, crash-mid-storm,
maintenance interference, the removed second scheduler.

The unit half exercises the scheduler machinery on a single small
volume: submit/wait plumbing, the in-flight cap, per-tenant queue
caps, storage-signal backpressure, failure propagation, lifecycle.

The crash half is the PR's proof obligation: a 4-shard array dies
mid-storm under the concurrent front end, every in-flight failure
still releases its locks, and recovery yields an all-or-nothing,
byte-identical image — twice, from the same saved disks.
"""

from __future__ import annotations

import dataclasses
import pathlib
import subprocess
import sys
import threading
import time

import pytest

import repro.frontend
import repro.txn
from repro import recover
from repro.disk.faults import FaultInjector, FaultPlan, PowerCut
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.errors import DeadlockError, DiskCrashedError, TransactionAborted
from repro.lld.config import LLDConfig
from repro.frontend import (
    FrontEnd,
    FrontendConfig,
    MaintenanceDriver,
    RequestRejected,
)
from repro.lld.verify import verify_lld
from repro.obs.schema import validate_frontend_stats
from repro.shard.sharded import build_sharded
from repro.workloads.openloop import (
    OpenLoopConfig,
    provision_hot_block,
    provision_tenants,
    run_openloop,
)
from tests.conftest import make_lld


def assert_no_leaks(stats: dict) -> None:
    locks = stats["txn"]["locks"]
    assert locks["owners_registered"] == 0, locks
    assert locks["resources_locked"] == 0, locks
    assert locks["locks_held"] == 0, locks
    assert locks["waiters"] == 0, locks


def provisioned_frontend(config: FrontendConfig = None):
    ld = make_lld(num_segments=96)
    frontend = FrontEnd(ld, config)
    lst = ld.new_list()
    block = ld.new_block(lst)
    ld.write(block, b"\0" * 16)
    ld.flush()
    return frontend, block


def wait_until(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class TestSchedulerBasics:
    def test_submit_runs_a_transaction(self):
        frontend, block = provisioned_frontend()
        with frontend:
            def body(txn):
                txn.write(block, b"hi")
                return txn.read(block)

            handle = frontend.submit(body, "tenant0")
            assert handle.wait(5.0)[:2] == b"hi"
            assert handle.state == "done"
            assert handle.done()
        stats = frontend.stats()
        assert stats["completed"] == 1
        assert stats["per_tenant_completed"] == {"tenant0": 1}
        assert_no_leaks(stats)

    def test_single_volume_gets_one_lane(self):
        frontend, _block = provisioned_frontend(
            FrontendConfig(workers_per_lane=3)
        )
        with frontend:
            assert frontend.n_lanes == 1
            assert frontend.stats()["workers"] == 3

    def test_sharded_volume_gets_one_lane_per_shard(self):
        volume = build_sharded(
            4,
            geometry=DiskGeometry.small(num_segments=24),
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        with FrontEnd(volume) as frontend:
            assert frontend.n_lanes == 4
            home = frontend.shard_for_tenant("alice")
            assert 0 <= home < 4
            # Stable routing, and explicit out-of-range lanes rejected.
            assert frontend.shard_for_tenant("alice") == home
            with pytest.raises(ValueError, match="no lane"):
                frontend.submit(lambda txn: None, "alice", shard=7)

    def test_bad_lane_raises_and_moves_no_counter(self):
        frontend, _block = provisioned_frontend()
        with frontend:
            with pytest.raises(ValueError, match="no lane"):
                frontend.submit(lambda txn: None, shard=99)
            stats = frontend.stats()
        assert stats["submitted"] == 0
        assert stats["submitted"] == stats["admitted"] + stats["shed"]

    def test_config_validation(self):
        for bad in (
            FrontendConfig(workers_per_lane=0),
            FrontendConfig(max_inflight=0),
            FrontendConfig(max_tenant_queue=0),
            FrontendConfig(max_attempts=0),
        ):
            with pytest.raises(ValueError):
                bad.validate()

    def test_submit_after_close_is_an_error(self):
        frontend, block = provisioned_frontend()
        frontend.close()
        frontend.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            frontend.submit(lambda txn: txn.read(block))


class TestAdmissionControl:
    def test_inflight_cap_sheds_and_recovers(self):
        frontend, block = provisioned_frontend(
            FrontendConfig(workers_per_lane=1, max_inflight=1)
        )
        gate = threading.Event()

        def blocker(txn):
            gate.wait(10.0)
            return txn.read(block)

        blocked = frontend.submit(blocker, "a")
        # The cap counts admitted work: the blocker alone fills it.
        assert frontend.try_submit(lambda txn: None, "a") is None
        with pytest.raises(RequestRejected, match="timed out"):
            frontend.submit(lambda txn: None, "a", timeout=0.05)
        assert frontend.stats()["shed"] == 2
        gate.set()
        blocked.wait(5.0)
        # Capacity freed: the next submit sails through.
        frontend.submit(lambda txn: None, "a").wait(5.0)
        frontend.close()
        assert_no_leaks(frontend.stats())

    def test_tenant_queue_cap_does_not_punish_neighbours(self):
        frontend, block = provisioned_frontend(
            FrontendConfig(
                workers_per_lane=1, max_inflight=16, max_tenant_queue=2
            )
        )
        gate = threading.Event()

        def blocker(txn):
            gate.wait(10.0)

        running = frontend.submit(blocker, "greedy")
        wait_until(lambda: running.state == "running")
        queued = [
            frontend.submit(blocker, "greedy") for _ in range(2)
        ]
        # The greedy tenant's queue is full; its neighbour's is not.
        assert frontend.try_submit(blocker, "greedy") is None
        other = frontend.try_submit(blocker, "polite")
        assert other is not None
        gate.set()
        for handle in (running, *queued, other):
            handle.wait(5.0)
        frontend.close()
        assert_no_leaks(frontend.stats())


    def test_held_lanes_admit_without_serving(self):
        """Inside ``held()`` everything admitted waits queued; the lanes
        start on it when the block ends."""
        frontend, block = provisioned_frontend()
        with frontend:
            with frontend.held():
                handles = [
                    frontend.submit(
                        lambda txn: txn.write(block, b"x"), f"tenant{i % 3}"
                    )
                    for i in range(12)
                ]
                time.sleep(0.02)
                assert [h.state for h in handles] == ["queued"] * 12
                assert frontend.stats()["inflight_max"] == 12
            frontend.drain(timeout=5.0)
            assert all(h.state == "done" for h in handles)
        assert_no_leaks(frontend.stats())


class TestFailurePropagation:
    def test_body_exception_fails_the_request_only(self):
        frontend, block = provisioned_frontend()

        def broken(txn):
            txn.write(block, b"never")
            raise ValueError("application bug")

        handle = frontend.submit(broken, "t")
        with pytest.raises(ValueError, match="application bug"):
            handle.wait(5.0)
        assert handle.state == "failed"
        # The front end survives and the write never landed.
        survivor = frontend.submit(lambda txn: txn.read(block), "t")
        assert survivor.wait(5.0)[:5] != b"never"
        frontend.close()
        stats = frontend.stats()
        assert stats["failed"] == 1
        assert stats["completed"] == 1
        assert_no_leaks(stats)

    def test_exhausted_retry_budget_is_gave_up(self):
        frontend, _block = provisioned_frontend(
            FrontendConfig(max_attempts=2)
        )

        def dies(_txn):
            raise DeadlockError("synthetic death")

        handle = frontend.submit(dies, "t")
        with pytest.raises(TransactionAborted):
            handle.wait(5.0)
        assert handle.state == "gave_up"
        frontend.close()
        stats = frontend.stats()
        assert stats["gave_up"] == 1
        assert_no_leaks(stats)

    def test_request_wait_timeout(self):
        frontend, _block = provisioned_frontend()
        gate = threading.Event()
        handle = frontend.submit(lambda txn: gate.wait(10.0), "t")
        with pytest.raises(TimeoutError):
            handle.wait(0.02)
        gate.set()
        frontend.close()


class CrashStorm:
    """One crash-mid-storm run: provision, arm, storm, recover."""

    SHARDS = 4
    N_TENANTS = 12
    BLOCKS_PER_TENANT = 3
    N_REQUESTS = 240
    PAYLOAD = 64

    def build(self, injector):
        return build_sharded(
            self.SHARDS,
            geometry=DiskGeometry.small(num_segments=96),
            injector=injector,
            config=LLDConfig(checkpoint_slot_segments=2, writeback_depth=4),
        )

    def provision(self, volume):
        tenants = provision_tenants(
            volume,
            self.N_TENANTS,
            blocks_per_tenant=self.BLOCKS_PER_TENANT,
            payload=self.PAYLOAD,
        )
        hot = provision_hot_block(volume, payload=self.PAYLOAD)
        return tenants, hot

    def setup_writes(self) -> int:
        """Deterministic disk-write count of provisioning alone."""
        injector = FaultInjector()
        self.provision(self.build(injector))
        return injector.writes_seen

    def storm(self, volume, tenants, hot):
        """Uniform-fill rewrite storm through the front end.

        Request ``i`` rewrites every block of one tenant with the
        single byte ``1 + i % 255`` and bumps the shared hot counter,
        so each recovered block is checkably all-or-nothing.
        """
        frontend = FrontEnd(
            volume,
            FrontendConfig(
                workers_per_lane=2,
                max_inflight=64,
                lock_timeout_s=1.0,
                max_attempts=16,
            ),
        )
        names = sorted(tenants)
        handles = []
        for index in range(self.N_REQUESTS):
            tenant = tenants[names[index % len(names)]]
            fill = bytes([1 + index % 255]) * self.PAYLOAD

            def body(txn, tenant=tenant, fill=fill):
                for block in tenant.blocks:
                    txn.write(block, fill)
                counter = int.from_bytes(txn.read(hot)[:8], "little")
                txn.write(
                    hot,
                    (counter + 1)
                    .to_bytes(8, "little")
                    .ljust(self.PAYLOAD, b"\0"),
                )

            handle = frontend.try_submit(body, tenant.name, shard=tenant.shard)
            if handle is not None:
                handles.append(handle)
        frontend.drain()
        stats = frontend.stats()
        frontend.close(flush=False)  # the disks are (probably) dead
        return handles, stats

    def check_recovered(self, recovered, tenants, hot, max_commits):
        for shard in recovered.shards:
            assert verify_lld(shard) == []
        for tenant in tenants.values():
            contents = [
                recovered.read(block)[: self.PAYLOAD]
                for block in tenant.blocks
            ]
            for data in contents:
                assert len(set(data)) == 1, (
                    f"torn block for {tenant.name}: {data[:8]!r}"
                )
            # One request rewrites ALL of a tenant's blocks in one
            # transaction, so a mixed-stamp tenant means a torn ARU.
            stamps = {data[0] for data in contents}
            assert len(stamps) == 1, (
                f"torn transaction for {tenant.name}: {stamps}"
            )
        counter = int.from_bytes(recovered.read(hot)[:8], "little")
        assert 0 <= counter <= max_commits
        return counter


class TestCrashDuringLoad(CrashStorm):
    @pytest.mark.parametrize("delta", [5, 23])
    def test_crash_mid_storm_recovers_all_or_nothing(self, delta, tmp_path):
        """Kill the array a few disk writes into the storm; the locks
        must quiesce, and recovery (run twice from the same saved
        disks) must be all-or-nothing and byte-identical."""
        cut = PowerCut(
            after_writes=self.setup_writes() + delta,
            torn=True,
            seed=delta,
            granularity="byte",
        )
        injector = FaultInjector(plan=FaultPlan(power_cut=cut))
        volume = self.build(injector)
        tenants, hot = self.provision(volume)
        handles, stats = self.storm(volume, tenants, hot)

        crashed = [h for h in handles if h.state == "failed"]
        assert crashed, "the crash plan never fired mid-storm"
        assert all(
            isinstance(h.error, DiskCrashedError) for h in crashed
        ), [type(h.error) for h in crashed]
        # THE regression: a storm of failed commits must leak
        # nothing — no held locks, no waiters, no stale timestamps.
        assert_no_leaks(stats)
        assert stats["inflight"] == 0

        # Save the post-crash disks and recover twice from the same
        # images: recovery must be deterministic to the byte.
        cycled = [shard.disk.power_cycle() for shard in volume.shards]
        paths = []
        for index, disk in enumerate(cycled):
            path = tmp_path / f"shard{index}.img"
            disk.save_image(path)
            paths.append(path)

        readings = []
        for _attempt in range(2):
            disks = [SimulatedDisk.load_image(path) for path in paths]
            recovered, _report = recover(disks)
            self.check_recovered(
                recovered, tenants, hot, max_commits=len(handles)
            )
            readings.append(
                {
                    "tenants": {
                        name: [
                            bytes(recovered.read(block))
                            for block in tenant.blocks
                        ]
                        for name, tenant in tenants.items()
                    },
                    "hot": bytes(recovered.read(hot)),
                }
            )
        assert readings[0] == readings[1], "recovery is not deterministic"

    def test_clean_storm_commits_everything(self):
        """Control run: no crash plan, same storm — every request
        commits, the hot counter is exact, nothing leaks."""
        volume = self.build(FaultInjector())
        tenants, hot = self.provision(volume)
        handles, stats = self.storm(volume, tenants, hot)
        assert stats["failed"] == 0
        assert stats["gave_up"] == 0
        assert len(handles) == stats["admitted"]
        assert stats["completed"] == len(handles)
        assert_no_leaks(stats)
        volume.flush()
        counter = int.from_bytes(volume.read(hot)[:8], "little")
        assert counter == stats["completed"]


class TestOpenLoopIntegration:
    def test_openloop_run_quiesces_clean(self):
        """A paced open-loop run end to end on a sharded volume:
        bounded shape, conserved counts, no leaks."""
        volume = build_sharded(
            2,
            geometry=DiskGeometry.small(num_segments=64),
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        frontend = FrontEnd(
            volume,
            FrontendConfig(workers_per_lane=2, max_inflight=32),
        )
        tenants = provision_tenants(volume, 4, blocks_per_tenant=2)
        hot = provision_hot_block(volume)
        result = run_openloop(
            frontend,
            tenants,
            OpenLoopConfig(
                rate=2000.0,
                n_requests=80,
                n_tenants=4,
                blocks_per_tenant=2,
                hot_fraction=0.5,
                seed=7,
            ),
            hot_block=hot,
        )
        frontend.close()
        assert result.offered == 80
        assert result.admitted + result.shed == result.offered
        assert result.completed == result.admitted
        assert result.gave_up == 0
        assert result.failed == 0
        assert result.hot_value >= 1
        assert_no_leaks(result.frontend)


class TestMaintenanceInterference:
    def test_cleaner_and_scrubber_mid_storm(self):
        """Cleaner + scrubber passes *during* an open-loop storm:
        every shard stays ``verify_lld``-clean, every request still
        commits leak-free, and the decomposed latency stats remain
        schema-valid (the exact surface ``python -m repro.obs.schema``
        checks)."""
        volume = build_sharded(
            2,
            geometry=DiskGeometry.small(num_segments=96),
            config=LLDConfig(checkpoint_slot_segments=2, writeback_depth=4),
        )
        frontend = FrontEnd(
            volume, FrontendConfig(max_inflight=256, max_tenant_queue=64)
        )
        tenants = provision_tenants(volume, 8, blocks_per_tenant=3)
        hot = provision_hot_block(volume)
        config = OpenLoopConfig(
            rate=1e9,
            n_requests=200,
            n_tenants=8,
            blocks_per_tenant=3,
            hot_fraction=0.1,
            seed=11,
            pace=False,
        )
        with MaintenanceDriver(volume, interval_s=0.01) as driver:
            result = run_openloop(frontend, tenants, config, hot_block=hot)
        stats = frontend.stats()
        frontend.close()
        assert driver.error is None, driver.error
        assert result.failed == 0
        assert result.completed == result.admitted
        assert_no_leaks(stats)
        for shard in volume.shards:
            assert verify_lld(shard) == []
        assert validate_frontend_stats(stats) == []
        # The decomposition genuinely covered the storm.
        assert stats["latency"]["storage"]["count"] == result.completed

    def test_driver_records_a_crashed_volume_and_stops(self, monkeypatch):
        """A volume that dies under the driver ends maintenance: the
        failure lands in ``driver.error``, the thread exits on its
        own, and nothing reaches ``threading.excepthook``."""
        escaped = []
        monkeypatch.setattr(threading, "excepthook", escaped.append)
        ld = make_lld(num_segments=96)
        lst = ld.new_list()
        for stamp in range(8):
            ld.write(ld.new_block(lst), bytes([stamp]) * 64)
        ld.flush()
        driver = MaintenanceDriver(ld, interval_s=0.002).start()
        try:
            wait_until(lambda: driver.passes >= 1)
            ld.disk.power_cycle()  # retires the handle under the driver
            wait_until(lambda: driver.error is not None)
            wait_until(
                lambda: "frontend-maintenance"
                not in {thread.name for thread in threading.enumerate()}
            )
        finally:
            driver.stop()
        assert isinstance(driver.error, DiskCrashedError), driver.error
        assert escaped == []


def test_second_scheduler_stays_removed():
    """There is one lane implementation: the options that selected
    the other are ``TypeError``s, the names that served it are gone,
    and the front-end and transaction layers never import asyncio."""
    for removed in (
        {"lane_impl": "async"},
        {"async_txns_per_lane": 1},
        {"storage_threads": 1},
        {"retry_backoff_s": 0.0},
        {"writeback_high_water": 8},
        {"parked_high_water": 16},
    ):
        with pytest.raises(TypeError):
            FrontendConfig(**removed)
    assert len(dataclasses.fields(FrontendConfig)) == 5
    assert "AsyncFrontEnd" not in repro.frontend.__all__
    assert not {
        "AsyncTransaction",
        "begin_async",
        "run_transaction_async",
    } & set(repro.txn.__all__)
    for owner, name in (
        (repro.frontend.Request, "wait_async"),
        (repro.txn.LockManager, "acquire_async"),
        (repro.txn.TransactionManager, "next_txn_id"),
    ):
        assert not hasattr(owner, name), name
    probe = (
        "import sys, repro.frontend, repro.txn; "
        "sys.exit('asyncio' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={"PYTHONPATH": str(pathlib.Path(repro.__file__).parents[1])},
        timeout=60,
    )
    assert done.returncode == 0
