"""Sharded multi-volume LLD: striping, 2PC hooks, and the cross-shard
crash sweep.

The sweep is the point of this file: a workload of cross-shard ARUs
(every transaction rewrites one block on *each* of three shards) is
crashed at every global segment-write index it produces — with whole
writes dropped and with byte-granularity torn writes, so the
coordinator's DECIDE record itself gets cut mid-record — and after
:func:`repro.recover` every shard must read back the *same*
transaction's payload: all-or-nothing across volumes at every crash
point.
"""

import pytest

from repro import recover
from repro.disk.faults import FaultInjector, FaultPlan, PowerCut
from repro.disk.geometry import DiskGeometry
from repro.errors import BadARUError, DiskCrashedError
from repro.lld.config import LLDConfig
from repro.lld.recovery import recover as recover_volume
from repro.shard import (
    ArrayConfig,
    ShardedLLD,
    build_sharded,
    shard_of,
    to_global,
    to_local,
)

from tests.conftest import make_lld


class TestIdMapping:
    def test_round_trip(self):
        for n in (1, 2, 3, 4, 7):
            for gid in range(1, 200):
                shard = shard_of(gid, n)
                local = to_local(gid, n)
                assert 0 <= shard < n
                assert local >= 1
                assert to_global(local, shard, n) == gid

    def test_globals_are_dense_per_shard(self):
        # Locals 1,2,3... on one shard map to distinct globals that
        # come back to the same shard.
        n = 3
        for shard in range(n):
            globals_ = [to_global(local, shard, n) for local in range(1, 20)]
            assert len(set(globals_)) == len(globals_)
            assert all(shard_of(g, n) == shard for g in globals_)

    def test_single_shard_is_identity(self):
        for gid in range(1, 50):
            assert shard_of(gid, 1) == 0
            assert to_local(gid, 1) == gid
            assert to_global(gid, 0, 1) == gid


class TestShardedBasics:
    def make(self, n=3, num_segments=32):
        return build_sharded(
            n,
            geometry=DiskGeometry.small(num_segments=num_segments),
            config=LLDConfig(checkpoint_slot_segments=2),
        )

    def test_lists_round_robin(self):
        vol = self.make(3)
        lists = [vol.new_list() for _ in range(6)]
        assert [shard_of(lst, 3) for lst in lists] == [0, 1, 2, 0, 1, 2]
        # Bootstrap ids stay stable for any shard count: the k-th
        # new_list call returns global id k.
        assert [int(lst) for lst in lists] == [1, 2, 3, 4, 5, 6]

    def test_blocks_live_on_their_lists_shard(self):
        vol = self.make(3)
        lists = [vol.new_list() for _ in range(3)]
        for lst in lists:
            for _ in range(4):
                block = vol.new_block(lst)
                assert shard_of(block, 3) == shard_of(lst, 3)

    def test_write_read_delete_routing(self):
        vol = self.make(3)
        lst = vol.new_list()
        blocks = [vol.new_block(lst)]
        for _ in range(3):
            blocks.append(vol.new_block(lst, predecessor=blocks[-1]))
        for index, block in enumerate(blocks):
            vol.write(block, f"payload-{index}".encode())
        assert vol.list_blocks(lst) == blocks
        got = vol.read_many(blocks)
        for index, payload in enumerate(got):
            assert payload.startswith(f"payload-{index}".encode())
        vol.delete_block(blocks[1])
        assert vol.list_blocks(lst) == [blocks[0], blocks[2], blocks[3]]

    def test_single_shard_aru_takes_fast_path(self):
        vol = self.make(3)
        lst = vol.new_list()  # shard 0
        block = vol.new_block(lst)
        aru = vol.begin_aru()
        vol.write(block, b"one-shard", aru=aru)
        vol.end_aru(aru)
        info = vol.sharding_info()
        assert info["commits_single_shard"] == 1
        assert info["commits_cross_shard"] == 0
        assert info["xids_issued"] == 0  # no coordinator transaction

    def test_cross_shard_aru_runs_two_phase(self):
        vol = self.make(3)
        lists = [vol.new_list() for _ in range(3)]
        blocks = [vol.new_block(lst) for lst in lists]
        aru = vol.begin_aru()
        for block in blocks:
            vol.write(block, b"everywhere", aru=aru)
        vol.end_aru(aru)
        info = vol.sharding_info()
        assert info["commits_cross_shard"] == 1
        assert info["xids_issued"] == 1
        # 2PC returns durable: a crash right now keeps the writes.
        vol2, _report = recover(
            [shard.disk.power_cycle() for shard in vol.shards]
        )
        for block in blocks:
            assert vol2.read(block).startswith(b"everywhere")

    def test_abort_spans_shards(self):
        vol = self.make(3)
        lists = [vol.new_list() for _ in range(3)]
        blocks = [vol.new_block(lst) for lst in lists]
        for block in blocks:
            vol.write(block, b"base")
        vol.flush()
        aru = vol.begin_aru()
        for block in blocks:
            vol.write(block, b"undone", aru=aru)
        vol.abort_aru(aru)
        for block in blocks:
            assert vol.read(block).startswith(b"base")
        with pytest.raises(BadARUError):
            vol.end_aru(aru)

    def test_unknown_aru_raises(self):
        vol = self.make(2)
        with pytest.raises(BadARUError):
            vol.end_aru(999)
        with pytest.raises(BadARUError):
            vol.write(1, b"x", aru=999)

    def test_reads_never_enroll_participants(self):
        vol = self.make(3)
        lists = [vol.new_list() for _ in range(3)]
        blocks = [vol.new_block(lst) for lst in lists]
        for block in blocks:
            vol.write(block, b"visible")
        aru = vol.begin_aru()
        for block in blocks:
            assert vol.read(block, aru=aru).startswith(b"visible")
        vol.end_aru(aru)
        assert vol.sharding_info()["xids_issued"] == 0

    def test_stats_shape_validates(self):
        from repro.obs.schema import validate_any_stats

        vol = self.make(3)
        lst = vol.new_list()
        block = vol.new_block(lst)
        vol.write(block, b"stats")
        vol.flush()
        assert validate_any_stats(vol.stats()) == []

    def test_checkpoint_clears_decided_set(self):
        vol = self.make(3)
        lists = [vol.new_list() for _ in range(3)]
        blocks = [vol.new_block(lst) for lst in lists]
        aru = vol.begin_aru()
        for block in blocks:
            vol.write(block, b"decided", aru=aru)
        vol.end_aru(aru)
        assert vol.sharding_info()["decided_pending"] == 1
        vol.write_checkpoint()
        assert vol.sharding_info()["decided_pending"] == 0
        # Still recoverable after the global checkpoint.
        vol2, _report = recover(
            [shard.disk.power_cycle() for shard in vol.shards]
        )
        for block in blocks:
            assert vol2.read(block).startswith(b"decided")


class TestCallerBuffers:
    """A sharded write takes the bytes the caller's buffer held at the
    call, on the home shard and on its mirror alike."""

    def test_buffer_changed_after_an_aru_write(self):
        vol = build_sharded(
            2,
            geometry=DiskGeometry.small(num_segments=32),
            config=LLDConfig(checkpoint_slot_segments=2),
            array_config=ArrayConfig(replication_factor=2),
        )
        lst = vol.new_list()
        block = vol.new_block(lst)
        size = DiskGeometry.small().block_size
        buf = bytearray(b"A" * size)
        aru = vol.begin_aru()
        vol.write(block, buf, aru=aru)
        buf[:4] = b"ZZZZ"
        vol.end_aru(aru)
        vol.flush()
        assert vol.read(block) == b"A" * size
        vol.write(block, memoryview(b"short"))
        assert vol.read(block) == b"short" + bytes(size - 5)


class TestPrepareDecideHooks:
    """The LLD-level 2PC hooks, exercised on single volumes."""

    def make_pair(self):
        participant = make_lld(num_segments=32)
        lst = participant.new_list()
        block = participant.new_block(lst)
        participant.write(block, b"before")
        participant.flush()
        return participant, block

    def test_undecided_prepare_is_discarded(self):
        participant, block = self.make_pair()
        aru = participant.begin_aru()
        participant.write(block, b"torn-tx", aru=aru)
        participant.prepare_commit(aru, xid=7)
        participant.flush()
        # Crash without any decision anywhere: presumed abort.
        recovered, report = recover(
            participant.disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        assert recovered.read(block).startswith(b"before")
        assert report.arus_prepared == 1
        assert report.xids_discarded == [7]
        assert report.xids_rolled_forward == []

    def test_decided_prepare_rolls_forward_via_param(self):
        participant, block = self.make_pair()
        aru = participant.begin_aru()
        participant.write(block, b"decided", aru=aru)
        participant.prepare_commit(aru, xid=7)
        participant.flush()
        recovered, report = recover_volume(
            participant.disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=2),
            decided_xids={7},
        )
        assert recovered.read(block).startswith(b"decided")
        assert report.xids_rolled_forward == [7]

    def test_own_log_decision_rolls_forward(self):
        # Coordinator volume: PREPARE and DECIDE in the same log.
        coordinator, block = self.make_pair()
        aru = coordinator.begin_aru()
        coordinator.write(block, b"self-decided", aru=aru)
        coordinator.prepare_commit(aru, xid=3)
        coordinator.flush()
        coordinator.log_decision(3)
        coordinator.flush()
        recovered, report = recover(
            coordinator.disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        assert recovered.read(block).startswith(b"self-decided")
        assert report.xids_decided == [3]
        assert report.xids_rolled_forward == [3]
        assert 3 in recovered._decided_xids

    def test_decisions_survive_coordinator_checkpoint(self):
        # Regression: the coordinator's own checkpoint supersedes the
        # log segment holding a DECIDE record, but a participant may
        # still need the decision — it must ride in the checkpoint.
        coordinator, block = self.make_pair()
        coordinator.log_decision(11)
        coordinator.flush()
        coordinator.write_checkpoint()
        recovered, report = recover(
            coordinator.disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        assert 11 in recovered._decided_xids
        assert report.xids_decided == [11]

    def test_finish_prepared_folds_to_persistent(self):
        participant, block = self.make_pair()
        aru = participant.begin_aru()
        participant.write(block, b"released", aru=aru)
        participant.prepare_commit(aru, xid=5)
        participant.flush()
        participant.finish_prepared(int(aru))
        assert participant.read(block).startswith(b"released")
        # And the volume checkpoints cleanly afterwards.
        participant.write_checkpoint()
        recovered, _report = recover(
            participant.disk.power_cycle(),
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        assert recovered.read(block).startswith(b"released")


# ----------------------------------------------------------------------
# The cross-shard crash sweep
# ----------------------------------------------------------------------

N_SHARDS = 3
ROUNDS = 4
PAYLOAD_LEN = 32


def payload(round_no: int, list_index: int) -> bytes:
    return f"round-{round_no}-list-{list_index}".encode().ljust(
        PAYLOAD_LEN, b"."
    )


def build_swept(injector=None) -> ShardedLLD:
    return build_sharded(
        N_SHARDS,
        geometry=DiskGeometry.small(num_segments=24),
        injector=injector,
        config=LLDConfig(checkpoint_slot_segments=2),
    )


def setup_baseline(vol):
    """Lists and blocks, one per shard, committed at round 0."""
    lists = [vol.new_list() for _ in range(N_SHARDS)]
    blocks = [vol.new_block(lst) for lst in lists]
    for list_index, block in enumerate(blocks):
        vol.write(block, payload(0, list_index))
    vol.flush()
    return blocks


def run_rounds(vol, blocks):
    """Every round rewrites one block on each shard in one ARU."""
    for round_no in range(1, ROUNDS + 1):
        aru = vol.begin_aru()
        for list_index, block in enumerate(blocks):
            vol.write(block, payload(round_no, list_index), aru=aru)
        vol.end_aru(aru)


class TestCrossShardCrashSweep:
    def probe(self):
        """Write counts of the uncrashed workload (deterministic)."""
        injector = FaultInjector()
        vol = build_swept(injector)
        blocks = setup_baseline(vol)
        setup_writes = injector.writes_seen
        run_rounds(vol, blocks)
        return blocks, setup_writes, injector.writes_seen

    def recovered_round(self, vol, blocks):
        """The round every shard agrees on — the atomicity assertion.

        Reads each block and requires all of them to carry the same
        round's payload; anything mixed is a torn cross-shard ARU.
        """
        contents = [
            vol.read(block)[:PAYLOAD_LEN] for block in blocks
        ]
        for round_no in range(ROUNDS + 1):
            if contents == [
                payload(round_no, list_index)
                for list_index in range(N_SHARDS)
            ]:
                return round_no
        raise AssertionError(
            f"shards disagree (torn cross-shard ARU): {contents}"
        )

    @pytest.mark.parametrize("torn", [False, True])
    def test_every_crash_point_is_all_or_nothing(self, torn):
        expected_blocks, setup_writes, total = self.probe()
        assert total - setup_writes > 10, "sweep too small to mean much"
        rounds_seen = set()
        previous_round = 0
        # Crashing inside the baseline setup is single-volume
        # territory (covered by test_crash_sweep); the cross-shard
        # claim starts at the first transactional write.
        for crash_after in range(setup_writes + 1, total + 1):
            cut = PowerCut(
                after_writes=crash_after,
                torn=torn,
                seed=crash_after,
                granularity="byte",
            )
            injector = FaultInjector(plan=FaultPlan(power_cut=cut))
            vol = build_swept(injector)
            blocks = setup_baseline(vol)
            assert blocks == expected_blocks
            crashed = True
            try:
                run_rounds(vol, blocks)
                crashed = False
            except DiskCrashedError:
                pass
            # When the budget outlives the workload there is no crash,
            # but recovering the cleanly powered-off array must yield
            # the fully committed state — check it, then stop.
            recovered, report = recover(
                [shard.disk.power_cycle() for shard in vol.shards]
            )
            round_no = self.recovered_round(recovered, blocks)
            assert round_no >= previous_round, (
                torn,
                crash_after,
                f"recovery went backwards: {previous_round} -> {round_no}",
            )
            # A transaction the coordinator decided must be complete
            # everywhere; one it never decided must be invisible.
            assert round_no <= len(report.decided_xids) , (
                torn,
                crash_after,
                report.decided_xids,
            )
            previous_round = round_no
            rounds_seen.add(round_no)
            if not crashed:
                assert round_no == ROUNDS
                break
        # The sweep must actually traverse the interesting states:
        # nothing committed, some middle round, everything committed.
        assert 0 in rounds_seen
        assert ROUNDS in rounds_seen
        assert len(rounds_seen) >= 3


class TestParallelShardRecovery:
    def test_parallel_beats_serial_simulated_time(self):
        vol = build_sharded(
            4,
            geometry=DiskGeometry.small(num_segments=48),
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        lists = [vol.new_list() for _ in range(8)]
        blocks = [vol.new_block(lst) for lst in lists]
        for round_no in range(6):
            aru = vol.begin_aru()
            for list_index, block in enumerate(blocks):
                vol.write(block, payload(round_no, list_index), aru=aru)
            vol.end_aru(aru)
        vol.flush()
        recovered, report = recover(
            [shard.disk.power_cycle() for shard in vol.shards]
        )
        assert report.shards == 4
        assert report.parallel_us < report.serial_us
        assert report.speedup > 1.5
        for list_index, block in enumerate(blocks):
            assert recovered.read(block)[:PAYLOAD_LEN] == payload(
                5, list_index
            )

    def test_xid_counter_restored(self):
        vol = build_sharded(
            3,
            geometry=DiskGeometry.small(num_segments=32),
            config=LLDConfig(checkpoint_slot_segments=2),
        )
        lists = [vol.new_list() for _ in range(3)]
        blocks = [vol.new_block(lst) for lst in lists]
        for round_no in range(3):
            aru = vol.begin_aru()
            for block in blocks:
                vol.write(block, b"x" * 8, aru=aru)
            vol.end_aru(aru)
        next_xid = vol._next_xid
        recovered, _report = recover(
            [shard.disk.power_cycle() for shard in vol.shards]
        )
        assert recovered._next_xid == next_xid
        # The coordinator's decisions survived the crash with it.
        info = recovered.sharding_info()
        assert info["xids_issued"] > 0
        assert info["decided_pending"] > 0
        # And new transactions keep working after recovery.
        aru = recovered.begin_aru()
        for block in blocks:
            recovered.write(block, b"post-recovery", aru=aru)
        recovered.end_aru(aru)
        for block in blocks:
            assert recovered.read(block).startswith(b"post-recovery")


class TestFilesystemOnShardedVolume:
    def test_minix_fs_end_to_end_with_crash(self):
        from repro.fs import MinixFS, fsck

        vol = build_sharded(
            4,
            geometry=DiskGeometry(
                block_size=4096,
                segment_size=512 * 1024,
                num_segments=24,
            ),
        )
        fs = MinixFS.mkfs(vol, n_inodes=256)
        for index in range(20):
            fs.create(f"/f{index}")
            fs.write_file(f"/f{index}", f"content-{index}".encode() * 10)
        fs.sync()
        fs.unlink("/f3")
        fs.sync()
        # The filesystem's ARUs span shards (an inode, its data list
        # and the directory land on different members).
        assert vol.sharding_info()["commits_cross_shard"] > 0
        assert fsck(fs).clean

        recovered, report = recover(
            [shard.disk.power_cycle() for shard in vol.shards]
        )
        assert report.shards == 4
        mounted = MinixFS.mount(recovered)
        assert mounted.read_file("/f7").startswith(b"content-7")
        assert not mounted.exists("/f3")
        assert fsck(mounted).clean
