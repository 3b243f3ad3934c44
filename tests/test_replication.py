"""Replicated, self-healing shard arrays.

The contract under test (docs/SHARDING.md, "Replication and
repair"): with ``replication_factor`` k, no committed ARU is lost
while at most k-1 shards fail — reads and writes keep working
degraded, served from the ring-peer mirrors — and background repair
rebuilds a lost member from the newest *committed* peer copies until
``redundancy_full`` is true again.  Whole-shard loss is a
first-class injectable fault (:class:`repro.disk.faults.ShardLoss`),
so the crash-sweep style used for power cuts extends to it: the
matrix below kills a shard at every interesting write index of a
transactional storm — including during 2PC PREPARE flushes, mid
repair, and mid instant restore — and asserts byte identity of every
acknowledged ARU after failover and again after heal.
"""

import copy
import random
import sys

import pytest

from repro.disk.faults import (
    FaultInjector,
    FaultPlan,
    PowerCut,
    ShardLoss,
)
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.lld.config import LLDConfig
from repro.errors import (
    BadARUError,
    ConcurrencyError,
    DiskFullError,
    ShardLostError,
    UnrecoverableBlockError,
)
from repro.ld.types import SYSTEM_ID_BASE
from repro.lld.lld import LLD
from repro.lld.verify import verify_lld
from repro.obs.schema import validate_sharded_stats
from repro.recovery import recover
from repro.shard import ArrayConfig, ShardedLLD, build_sharded, mirror_id
from repro.shard.sharded import shard_of, to_global, to_local

from tests.oracle import assert_replicas_agree


def build_array(n=3, rf=2, num_segments=48, injector=None):
    return build_sharded(
        n,
        geometry=DiskGeometry.small(num_segments=num_segments),
        injector=injector,
        config=LLDConfig(checkpoint_slot_segments=2),
        array_config=ArrayConfig(replication_factor=rf),
    )


def populate(arr, lists=2, blocks_per_list=3):
    """A few committed ARUs; returns {block: payload}."""
    contents = {}
    for li in range(lists):
        aru = arr.begin_aru()
        lst = arr.new_list(aru=aru)
        prev = None
        for bi in range(blocks_per_list):
            blk = (
                arr.new_block(lst, aru=aru)
                if prev is None
                else arr.new_block(lst, predecessor=prev, aru=aru)
            )
            payload = f"l{li}-b{bi}".encode()
            arr.write(blk, payload, aru=aru)
            contents[blk] = payload
            prev = blk
        arr.end_aru(aru)
    arr.flush()
    return contents


def assert_contents(arr, contents):
    for blk, payload in contents.items():
        assert arr.read(blk).startswith(payload), blk


def recover_survivors(arr):
    """Power-cycle the live members and reassemble the array around
    the lost ones."""
    disks = [
        shard.disk.power_cycle() if shard is not None else None
        for shard in arr.shards
    ]
    return recover(disks, array_config=arr.config)[0]


def assert_all_sound(arr):
    for index, shard in enumerate(arr.shards):
        problems = verify_lld(shard)
        assert not problems, (index, problems)


def repair_and_check(arr, shard_index=None):
    """A synchronous repair, then the replica oracle and
    ``verify_lld`` on every member."""
    counts = arr.repair(shard_index)
    assert_replicas_agree(arr)
    assert_all_sound(arr)
    return counts


def diverge(arr):
    """Write four divergences straight onto the members of a
    populated rf = 2 array, behind the router's back, and make them
    durable: a mirror block with other bytes, a mirror list missing a
    member, a stray mirror list of a list that does not exist and an
    orphan mirror block (allocated by an ARU that aborted)."""
    n = arr.n
    lists = sorted(
        to_global(local, home, n)
        for home, shard in enumerate(arr.shards)
        for local in shard.ltable.ids()
        if local < SYSTEM_ID_BASE
    )

    def peer(gid):
        return arr.shards[(shard_of(gid, n) + 1) % n]

    first, second = (arr.list_blocks(lst) for lst in lists[:2])
    peer(first[0]).write(mirror_id(first[0]), b"other bytes")
    peer(second[-1]).delete_block(mirror_id(second[-1]))
    ghost = to_global(40, 2, n)
    peer(ghost).new_list(list_id=mirror_id(ghost))
    orphan = to_global(90, shard_of(lists[0], n), n)
    host = peer(lists[0])
    aru = host.begin_aru()
    host.new_block(mirror_id(lists[0]), block_id=mirror_id(orphan), aru=aru)
    host.abort_aru(aru)
    for shard in arr.shards:
        shard.flush()


class BareTwins:
    """N bare LLDs driven the way one host drives N independent
    disks — the reference an rf = 1 array is compared against.  Ids
    are translated with ``shard_of``/``to_local``, new lists go
    round-robin from shard 0, the addressed disk's clock is advanced
    to the furthest disk's before every call, a global ARU begins a
    local ARU on a disk at first touch, and a cross-disk commit is
    spelled out as PREPARE / flush / DECIDE on disk 0 / release.  A
    step that goes to several disks costs its critical path
    (``fan_out``: docs/SHARDING.md, "Array time", written again
    here)."""

    def __init__(self, llds):
        self.llds = llds
        self.n = len(llds)
        self.next_shard = 0
        self.arus = {}
        self.next_aru = 1
        self.next_xid = 1

    def on(self, s, aru=None):
        """(disk ``s`` with its clock synced, local ARU or None)."""
        lld = self.llds[s]
        now = max(l.clock.now_us for l in self.llds)
        if now > lld.clock.now_us:
            lld.clock.advance_us(now - lld.clock.now_us)
        if aru is None:
            return lld, None
        if s not in self.arus[aru]:
            self.arus[aru][s] = lld.begin_aru()
        return lld, self.arus[aru][s]

    def fan_out(self, members):
        """``(s, disk s)`` in turn: the host issues the calls one
        after another, the disks work side by side — each disk
        starts at the furthest clock of the moment the step began
        plus the CPU (clock advance less disk busy time) of the
        calls issued before its own."""
        start = max(lld.clock.now_us for lld in self.llds)
        for s in members:
            lld = self.llds[s]
            clock, timer = lld.clock, lld.disk.timer
            if start > clock.now_us:
                clock.advance_us(start - clock.now_us)
            began, busy = clock.now_us, timer.busy_us
            yield s, lld
            start += (clock.now_us - began) - (timer.busy_us - busy)

    def local(self, gid):
        return to_local(gid, self.n)

    def new_list(self, aru=None):
        s = self.next_shard
        self.next_shard = (s + 1) % self.n
        lld, local_aru = self.on(s, aru)
        return to_global(lld.new_list(aru=local_aru), s, self.n)

    def new_block(self, lst, predecessor=None, aru=None):
        s = shard_of(lst, self.n)
        lld, local_aru = self.on(s, aru)
        if predecessor is None:
            local = lld.new_block(self.local(lst), aru=local_aru)
        else:
            local = lld.new_block(
                self.local(lst),
                predecessor=self.local(predecessor),
                aru=local_aru,
            )
        return to_global(local, s, self.n)

    def write(self, blk, data, aru=None):
        lld, local_aru = self.on(shard_of(blk, self.n), aru)
        lld.write(self.local(blk), data, aru=local_aru)

    def delete_block(self, blk, aru=None):
        lld, local_aru = self.on(shard_of(blk, self.n), aru)
        lld.delete_block(self.local(blk), aru=local_aru)

    def delete_list(self, lst, aru=None):
        lld, local_aru = self.on(shard_of(lst, self.n), aru)
        lld.delete_list(self.local(lst), aru=local_aru)

    def begin_aru(self):
        aru = self.next_aru
        self.next_aru += 1
        self.arus[aru] = {}
        return aru

    def abort_aru(self, aru):
        parts = self.arus.pop(aru)
        for s, lld in self.fan_out(sorted(parts)):
            lld.abort_aru(parts[s])

    def end_aru(self, aru):
        parts = self.arus.pop(aru)
        if len(parts) <= 1:
            for s, local_aru in parts.items():
                self.on(s)[0].end_aru(local_aru)
            return
        xid = self.next_xid
        self.next_xid += 1
        for s, lld in self.fan_out(sorted(parts)):
            lld.prepare_commit(parts[s], xid)
        for _s, lld in self.fan_out(sorted(parts)):
            lld.flush()
        coordinator = self.on(0)[0]
        coordinator.log_decision(xid)
        coordinator.flush()
        for s, local_aru in sorted(parts.items()):
            self.llds[s].finish_prepared(int(local_aru))

    def flush(self):
        for _s, lld in self.fan_out(range(self.n)):
            lld.flush()


def drive_op_script(vol, seed, rounds=60):
    """One seeded script of every mutating LD call — lists, blocks
    with predecessors, writes, deletes, ARUs that commit (on one
    shard or across several) and abort, a closing flush — against
    anything with the array's call surface.  Returns the ids it was
    handed, which must agree between the two drivers."""
    rng = random.Random(seed)
    lists, handed = {}, []
    for round_no in range(rounds):
        aru = vol.begin_aru() if rng.random() < 0.6 else None
        before = copy.deepcopy(lists)
        for _ in range(rng.randint(1, 4)):
            choice = rng.random()
            blocks = [blk for members in lists.values() for blk in members]
            if choice < 0.2 or not lists:
                lst = vol.new_list(aru=aru)
                lists[lst] = []
                handed.append(lst)
            elif choice < 0.55:
                lst = rng.choice(sorted(lists))
                members = lists[lst]
                if members and rng.random() < 0.5:
                    blk = vol.new_block(
                        lst, predecessor=rng.choice(members), aru=aru
                    )
                else:
                    blk = vol.new_block(lst, aru=aru)
                members.append(blk)
                handed.append(blk)
            elif choice < 0.85 and blocks:
                blk = rng.choice(blocks)
                vol.write(blk, b"r%d-b%d" % (round_no, blk), aru=aru)
            elif choice < 0.95 and blocks:
                blk = rng.choice(blocks)
                next(m for m in lists.values() if blk in m).remove(blk)
                vol.delete_block(blk, aru=aru)
            elif len(lists) > 3:
                lst = rng.choice(sorted(lists))
                del lists[lst]
                vol.delete_list(lst, aru=aru)
        if aru is not None and rng.random() < 0.25:
            vol.abort_aru(aru)
            lists = before  # ids the aborted ARU drew are never reused
        elif aru is not None:
            vol.end_aru(aru)
    vol.flush()
    return handed


class TestReplicatedBasics:
    def test_rf1_is_byte_identical_plain_striping(self, tmp_path):
        """Routing adds no write, and no simulated microsecond
        beyond the array's own model of time (one host issuing calls
        in turn, disks working side by side): an rf = 1 array leaves
        every member's platter, write count and clock exactly where
        the same calls, made directly on bare LLDs under that model,
        leave theirs."""
        for seed in (1, 7, 2026):
            arr = build_array(3, rf=1)
            injector = FaultInjector()
            twins = BareTwins(
                [
                    LLD(
                        SimulatedDisk(
                            arr.geometry, injector=injector, shard_index=i
                        ),
                        config=arr.shards[i].config,
                    )
                    for i in range(arr.n)
                ]
            )
            assert drive_op_script(arr, seed) == drive_op_script(twins, seed)
            for member, twin in zip(arr.shards, twins.llds):
                where = (seed, member.disk.shard_index)
                assert member.clock.now_us == twin.clock.now_us, where
                assert member.disk.write_count == twin.disk.write_count, where
                member.disk.save_image(tmp_path / "member.img")
                twin.disk.save_image(tmp_path / "twin.img")
                assert (tmp_path / "member.img").read_bytes() == (
                    tmp_path / "twin.img"
                ).read_bytes(), where
            info = arr.sharding_info()
            assert info["replication_factor"] == 1
            assert info["commits_single_shard"] and info["commits_cross_shard"]
            assert info["redundancy_full"] is True

    def test_mirrors_exist_on_ring_peers(self):
        arr = build_array(3, rf=2)
        contents = populate(arr)
        arr.flush()
        for blk in contents:
            home = shard_of(blk, arr.n)
            peer = (home + 1) % arr.n
            shard = arr.shards[peer]
            view = shard.engine.view(shard.bmap, mirror_id(blk), None)
            assert view is not None and view.allocated, blk

    def test_mutating_aru_is_always_cross_shard(self):
        """Replica writes ride PREPARE: any mutating ARU on an rf>=2
        array touches at least two shards, so commit is two-phase and
        the PREPARE flush makes the mirrors durable."""
        arr = build_array(3, rf=2)
        aru = arr.begin_aru()
        lst = arr.new_list(aru=aru)
        blk = arr.new_block(lst, aru=aru)
        arr.write(blk, b"mirrored", aru=aru)
        arr.end_aru(aru)
        info = arr.sharding_info()
        assert info["commits_cross_shard"] == 1
        assert info["commits_single_shard"] == 0

    def test_rf_must_fit_shard_count(self):
        with pytest.raises(ValueError):
            build_array(2, rf=3)

    def test_removed_surface_stays_removed(self):
        """One router, one reconcile rule, one copier, one knob, one
        commit path; no shim nothing calls and no admission signal
        that cannot fire."""
        import dataclasses
        import inspect

        import repro.lld.logwriter as logwriter
        import repro.shard.sharded as sharded
        from repro.frontend.scheduler import FrontEnd, FrontendConfig
        from repro.shard.replicas import _RepairJob

        arr = build_array(rf=1)
        for name in (
            "_plain",
            "_update_plain",
            "_rebuild_mirror_list",
            "_copy_list",
            "_heal_lost_block",
            "_resync_mirror",
            "_drop_stray_mirrors",
            "_user_lists_on",
            "_mirror_lists_on",
            "_list_ids_on",
            "_install_repair",
            "_repair_covers",
            "_note_dirty_list",
            "metrics_snapshot",
        ):
            assert not hasattr(ShardedLLD, name), name
            assert not hasattr(arr, name), name
        for name in ("_holds_list", "_RepairJob"):
            assert not hasattr(sharded, name), name
        for name in (
            "_copy_home",
            "_copy_mirror",
            "_force_block",
            "_plan",
            "copy_list",
        ):
            assert not hasattr(_RepairJob, name), name
        for name in (
            "metrics_snapshot",
            "scrub_stats",
            "writeback_queued",
            "commits_parked",
            "_park_commit",
            "_maybe_release_parked",
            "_release_parked",
        ):
            assert not hasattr(LLD, name), name
        for name in ("_parked_commits", "_parked_deadline_us"):
            assert not hasattr(arr.shards[0], name), name
        assert "group_commit_disk_full" not in inspect.getsource(logwriter)
        assert not hasattr(FrontEnd, "_storage_saturated")
        assert "dead_counters" not in inspect.signature(ShardedLLD).parameters
        frontend_fields = {f.name for f in dataclasses.fields(FrontendConfig)}
        for name in (
            "retry_backoff_s",
            "writeback_high_water",
            "parked_high_water",
        ):
            assert name not in frontend_fields, name
        with pytest.raises(TypeError):
            ArrayConfig(placement="ring")
        assert [f.name for f in dataclasses.fields(ArrayConfig)] == [
            "replication_factor",
        ]

    def test_stats_schema_includes_replication_counters(self):
        arr = build_array(3, rf=2)
        populate(arr)
        stats = arr.stats()
        assert validate_sharded_stats(stats) == []
        # What the overlap bought: every replicated mutation and
        # every commit phase is a fan-out; the members' own durations
        # add up to at least what array time advanced.
        info = stats["sharding"]
        assert info["fanouts"] > 0
        assert info["fanout_serial_us"] >= info["fanout_elapsed_us"] > 0
        del info["fanout_elapsed_us"]
        assert validate_sharded_stats(stats) == [
            "sharding.fanout_elapsed_us: missing"
        ]


class TestDegradedOperation:
    def test_reads_fail_over_to_mirrors(self):
        arr = build_array(3, rf=2)
        contents = populate(arr)
        arr.lose_shard(0)
        assert arr.dead_shards == [0]
        assert_contents(arr, contents)
        info = arr.sharding_info()
        assert info["dead_shards"] == 1
        assert info["degraded_reads"] > 0
        assert info["redundancy_full"] is False

    def test_writes_and_allocations_continue_degraded(self):
        arr = build_array(3, rf=2)
        contents = populate(arr)
        arr.lose_shard(1)
        aru = arr.begin_aru()
        lst = arr.new_list(aru=aru)
        blk = arr.new_block(lst, aru=aru)
        arr.write(blk, b"degraded-write", aru=aru)
        arr.end_aru(aru)
        contents[blk] = b"degraded-write"
        assert_contents(arr, contents)
        assert arr.list_blocks(lst) == [blk]

    def test_ids_stay_unique_across_loss(self):
        """Allocations homed on the dead shard draw from its counter
        snapshot, so global ids never collide."""
        arr = build_array(3, rf=2)
        contents = populate(arr, lists=3)
        arr.lose_shard(2)
        lst = arr.new_list()
        while shard_of(lst, arr.n) != 2:
            lst = arr.new_list()
        blk = arr.new_block(lst)
        assert blk not in contents
        arr.write(blk, b"fresh")
        assert arr.read(blk).startswith(b"fresh")

    def test_second_loss_exceeds_budget(self):
        arr = build_array(3, rf=2)
        contents = populate(arr)
        arr.lose_shard(0)
        arr.lose_shard(1)
        lost = [
            blk
            for blk in contents
            if shard_of(blk, arr.n) == 0
            and (shard_of(blk, arr.n) + 1) % arr.n == 1
        ]
        for blk in lost:
            with pytest.raises(ShardLostError):
                arr.read(blk)

    @staticmethod
    def _aru_on_every_shard(arr, touched=None):
        """Preloaded blocks, one homed on each shard in shard order,
        and an open ARU that has overwritten the first ``touched``
        (default: all) of them: (aru, {block: old bytes})."""
        old = {}
        for _ in range(arr.n):
            blk = arr.new_block(arr.new_list())
            arr.write(blk, b"old-%d" % blk)
            old[blk] = b"old-%d" % blk
        arr.flush()
        assert [shard_of(blk, arr.n) for blk in old] == list(range(arr.n))
        aru = arr.begin_aru()
        for blk in list(old)[:touched]:
            arr.write(blk, b"new-%d" % blk, aru=aru)
        return aru, old

    @pytest.mark.parametrize("touched", [1, 2])
    def test_unreplicated_commit_fails_when_a_participant_is_lost(
        self, touched
    ):
        """rf = 1: a lost participant took its half of the ARU with
        it, so ``end_aru`` may not acknowledge the rest (two
        participants) — nor a commit of nothing (one)."""
        arr = build_array(3, rf=1)
        aru, old = self._aru_on_every_shard(arr, touched)
        arr.lose_shard(0)
        with pytest.raises(ShardLostError):
            arr.end_aru(aru)
        info = arr.sharding_info()
        assert info["commits_single_shard"] == 0
        assert info["commits_cross_shard"] == 0
        for blk in list(old)[1:]:
            assert arr.read(blk).startswith(old[blk]), blk
        with pytest.raises(BadARUError):
            arr.end_aru(aru)  # the ARU is gone, not left half open

    def test_unreplicated_commit_fails_when_a_prepare_flush_is_lost(self):
        """The same rule inside the protocol: a participant destroyed
        by its own PREPARE flush leaves no copy, so no DECIDE is
        written — the survivors' prepared halves are presumed
        aborted."""

        def run(losses=()):
            injector = FaultInjector(plan=FaultPlan(shard_losses=losses))
            arr = build_array(3, rf=1, injector=injector)
            aru, old = self._aru_on_every_shard(arr)
            return arr, aru, old, injector.writes_seen

        arr, aru, old, before = run()
        arr.end_aru(aru)
        assert arr.sharding_info()["commits_cross_shard"] == 1
        arr, aru, old, _ = run([ShardLoss(shard=1, after_writes=before + 1)])
        with pytest.raises(ShardLostError):
            arr.end_aru(aru)
        assert arr.dead_shards == [1]
        assert arr.sharding_info()["commits_cross_shard"] == 0
        recovered = recover_survivors(arr)
        for blk in old:
            if shard_of(blk, arr.n) != 1:
                assert recovered.read(blk).startswith(old[blk]), blk

    @pytest.mark.xfail(
        strict=True,
        raises=DiskFullError,
        reason="a participant PREPAREd and never DECIDEd keeps its tag "
        "in _pending_commit_arus for good, so checkpoint_safe() stays "
        "false, the cleaner frees nothing and the survivor runs to "
        "DiskFullError with reclaimable space (ROADMAP item 1b)",
    )
    def test_survivor_of_a_failed_prepare_keeps_cleaning(self):
        """rf = 1, two participants, the second destroyed by its own
        PREPARE flush: ``end_aru`` raises, and the survivor must go on
        reclaiming its log — overwriting four blocks forever fits any
        disk."""

        def run(losses=()):
            injector = FaultInjector(plan=FaultPlan(shard_losses=losses))
            arr = build_array(2, rf=1, num_segments=24, injector=injector)
            aru, old = self._aru_on_every_shard(arr)
            return arr, aru, old, injector.writes_seen

        _, _, _, before = run()
        arr, aru, old, _ = run([ShardLoss(shard=1, after_writes=before + 1)])
        with pytest.raises(ShardLostError):
            arr.end_aru(aru)
        assert arr.dead_shards == [1]
        survivor = arr.shards[0]
        lst = arr.new_list()
        assert shard_of(lst, arr.n) == 0
        blocks = [arr.new_block(lst) for _ in range(4)]
        # A flush seals a segment: three laps of the survivor's log.
        for round_no in range(3 * survivor.geometry.num_segments):
            for blk in blocks:
                arr.write(blk, b"round-%03d" % round_no)
            arr.flush()  # no DiskFullError
        assert survivor.stats()["cleaner"]["segments_freed"] > 0

    def test_replicated_commit_survives_one_lost_participant(self):
        """rf = 2, one loss: every replica set the lost member was in
        still has a live member, so the ARU commits on the mirrors."""
        arr = build_array(4, rf=2)
        aru, old = self._aru_on_every_shard(arr)
        arr.lose_shard(1)
        arr.end_aru(aru)
        assert arr.sharding_info()["commits_cross_shard"] == 1
        for blk in old:
            assert arr.read(blk).startswith(b"new-%d" % blk), blk

    def test_replicated_commit_fails_past_the_failure_budget(self):
        """rf = 2, two adjacent losses: the set {1, 2} has no live
        member, so the commit raises and the survivors commit nothing
        — now, or after recovering their platters."""
        arr = build_array(4, rf=2)
        aru, old = self._aru_on_every_shard(arr)
        arr.lose_shard(1)
        arr.lose_shard(2)
        with pytest.raises(ShardLostError):
            arr.end_aru(aru)
        info = arr.sharding_info()
        assert info["commits_cross_shard"] == 0
        assert info["commits_single_shard"] == 0
        arr.flush()
        # block 1's only mirror was on shard 2: gone with both
        survivors = [blk for blk in old if shard_of(blk, arr.n) != 1]
        for blk in survivors:
            assert arr.read(blk).startswith(old[blk]), blk
        recovered = recover_survivors(arr)
        assert recovered.dead_shards == [1, 2]
        for blk in survivors:
            assert recovered.read(blk).startswith(old[blk]), blk


    def test_array_clock_is_monotone_across_loss_of_the_leader(self):
        """Array time never runs backwards: losing the member whose
        clock is furthest ahead leaves ``clock.now_us`` where it was."""
        arr = build_array(3, rf=2)
        contents = populate(arr)
        arr.write(next(iter(contents)), b"one more")  # someone leads
        clocks = [shard.clock.now_us for shard in arr.shards]
        leader = clocks.index(max(clocks))
        assert clocks.count(max(clocks)) == 1
        before = arr.clock.now_us
        arr.lose_shard(leader)
        assert arr.clock.now_us == before
        arr.flush()
        assert arr.clock.now_us >= before

    def test_all_dead_array_keeps_its_clock_and_its_error(self):
        """With no live member ``clock.now_us`` is the floor the lost
        members left, ``stats()`` raises ``ShardLostError`` like every
        other call, and ``sharding_info()`` still answers."""
        arr = build_array(3, rf=2)
        contents = populate(arr)
        before = arr.clock.now_us
        for index in range(arr.n):
            arr.lose_shard(index)
        assert arr.clock.now_us == before
        assert arr.clock.now_s == before / 1e6
        with pytest.raises(ShardLostError):
            arr.stats()
        with pytest.raises(ShardLostError):
            arr.read(next(iter(contents)))
        assert arr.sharding_info()["dead_shards"] == arr.n


class TestReadManyReplicated:
    """``read_many`` batches per live home shard and falls back to
    per-block ``read`` (which fails over) per shard, not per array."""

    def test_healthy_array_batches_and_preserves_order(self):
        arr = build_array(3, rf=2)
        contents = populate(arr, lists=3)
        order = sorted(contents, key=lambda blk: (blk * 7) % 11)
        assert len({shard_of(blk, arr.n) for blk in order}) == arr.n
        got = arr.read_many(order)
        assert got == [arr.read(blk) for blk in order]
        for blk, data in zip(order, got):
            assert data.startswith(contents[blk])
        assert arr.sharding_info()["degraded_reads"] == 0

    def test_lost_home_is_served_from_mirrors_block_by_block(self):
        arr = build_array(3, rf=2)
        contents = populate(arr, lists=3)
        order = sorted(contents)
        arr.lose_shard(1)
        orphaned = [blk for blk in order if shard_of(blk, arr.n) == 1]
        assert orphaned
        got = arr.read_many(order)
        for blk, data in zip(order, got):
            assert data.startswith(contents[blk])
        assert arr.sharding_info()["degraded_reads"] == len(orphaned)

    def test_loss_discovered_by_the_batch_fails_over(self):
        """The injector loses the home without the array knowing: the
        batch itself raises ShardLostError and the group is re-read."""
        arr = build_array(3, rf=2)
        contents = populate(arr, lists=3)
        for shard in arr.shards:
            shard.cache.invalidate_all()
        arr.shards[0].disk.injector.lose_shard(0)
        got = arr.read_many(sorted(contents))
        for blk, data in zip(sorted(contents), got):
            assert data.startswith(contents[blk])
        assert arr.dead_shards == [0]
        assert arr.sharding_info()["degraded_reads"] >= 1

    def test_quarantined_home_segment_falls_back_to_replicas(self):
        from repro.disk.faults import MediaFault

        arr = build_array(3, rf=2)
        contents = populate(arr, lists=3)
        victim = next(iter(contents))
        home = shard_of(victim, arr.n)
        member = arr.shards[home]
        persistent = member.bmap.persistent[to_local(victim, arr.n)]
        member.cache.invalidate_all()
        member.disk.injector.add_media_fault(
            MediaFault(
                segment_no=persistent.address.segment,
                kind="unreadable",
                shard=home,
            )
        )
        # The member's own scrub quarantines the segment and declares
        # its blocks lost; the array-level heal is deliberately not run.
        assert member.scrub().blocks_lost >= 1
        with pytest.raises(UnrecoverableBlockError):
            member.read(to_local(victim, arr.n))
        order = sorted(contents)
        got = arr.read_many(order)
        for blk, data in zip(order, got):
            assert data.startswith(contents[blk])
        assert arr.dead_shards == []
        assert arr.sharding_info()["degraded_reads"] >= 1


class TestResync:
    """Recovery reconciles every mirror with its home: the four ways
    a mirror can diverge, written onto the members before a crash,
    are mended by the resync an eager recovery runs, and by the one
    an instant recovery defers to ``complete_restore()``."""

    @pytest.mark.parametrize("mode", ["eager", "instant"])
    def test_recovery_mends_diverged_mirrors(self, mode):
        arr = build_array(3, rf=2)
        contents = populate(arr, lists=3, blocks_per_list=3)
        diverge(arr)
        with pytest.raises(AssertionError):
            assert_replicas_agree(arr)
        vol, _report = recover(
            [shard.disk.power_cycle() for shard in arr.shards],
            array_config=arr.config,
            mode=mode,
        )
        if mode == "instant":
            assert vol.restore_active
            vol.complete_restore()
        assert not vol.restore_active
        assert_replicas_agree(vol)
        assert_all_sound(vol)
        assert_contents(vol, contents)
        assert vol.resync() == {
            "mirror_lists_rebuilt": 0,
            "mirror_blocks_rewritten": 0,
            "stray_mirrors_deleted": 0,
        }

    def test_resync_counts_what_it_mends(self):
        arr = build_array(3, rf=2)
        populate(arr, lists=3, blocks_per_list=3)
        diverge(arr)
        assert arr.resync() == {
            "mirror_lists_rebuilt": 1,
            "mirror_blocks_rewritten": 1,
            "stray_mirrors_deleted": 2,
        }
        assert_replicas_agree(arr)
        assert_all_sound(arr)

    def test_mirrors_of_a_lost_home_are_kept(self):
        """A lost home's mirrors are its surviving copy: resync leaves
        them, and the repair that follows rebuilds the home from
        them."""
        arr = build_array(3, rf=2)
        contents = populate(arr, lists=3, blocks_per_list=3)
        arr.lose_shard(0)
        assert arr.resync()["stray_mirrors_deleted"] == 0
        assert_contents(arr, contents)
        repair_and_check(arr, 0)
        assert_contents(arr, contents)


class TestRepair:
    def test_repair_restores_full_redundancy(self):
        arr = build_array(3, rf=2)
        contents = populate(arr)
        arr.lose_shard(0)
        assert_contents(arr, contents)
        counts = repair_and_check(arr, 0)
        assert counts["lists_copied"] >= 1
        info = arr.sharding_info()
        assert info["repairs_completed"] == 1
        assert info["redundancy_full"] is True
        assert info["lists_healed"] >= 1
        assert info["blocks_healed"] >= 1
        # served from the home copy again, byte-identical
        degraded_before = info["degraded_reads"]
        assert_contents(arr, contents)
        assert arr.sharding_info()["degraded_reads"] == degraded_before
        assert_all_sound(arr)

    def test_repair_carries_degraded_era_writes(self):
        arr = build_array(3, rf=2)
        contents = populate(arr)
        arr.lose_shard(0)
        for blk in list(contents):
            if shard_of(blk, arr.n) == 0:
                arr.write(blk, b"updated-degraded")
                contents[blk] = b"updated-degraded"
        repair_and_check(arr, 0)
        assert_contents(arr, contents)

    def test_paced_repair_with_concurrent_mutations(self):
        """Lists mutated while their copy is in flight are reconciled
        again at the final quiescent step — repair converges."""
        arr = build_array(3, rf=2, num_segments=64)
        contents = populate(arr, lists=4, blocks_per_list=4)
        arr.lose_shard(0)
        queued = arr.start_repair(0)
        assert queued >= 1
        victims = [b for b in contents if shard_of(b, arr.n) == 0]
        step = 0
        while not arr.repair_step(max_ops=2):
            blk = victims[step % len(victims)]
            payload = b"hot-%d" % step
            arr.write(blk, payload)
            contents[blk] = payload
            step += 1
            assert step < 500, "repair did not converge"
        assert not arr.repair_active
        assert_contents(arr, contents)
        assert_replicas_agree(arr)
        assert_all_sound(arr)

    def test_a_dirty_list_gets_only_its_changed_blocks_rewritten(self):
        """A list written after its copy landed on the replacement is
        reconciled again: the one changed block is rewritten, the list
        is not rebuilt."""
        arr = build_array(3, rf=2, num_segments=64)
        contents = populate(arr, lists=4, blocks_per_list=4)
        arr.lose_shard(0)
        arr.start_repair(0)
        queued = list(arr._repair.queue)
        assert len(queued) > 1
        assert not arr.repair_step(max_ops=1)  # the first list only
        changed = arr.list_blocks(queued[0])[0]
        arr.write(changed, b"changed")
        contents[changed] = b"changed"
        counts = arr.repair()
        assert counts == {
            "lists_copied": len(queued),
            "blocks_copied": sum(len(arr.list_blocks(l)) for l in queued) + 1,
        }
        assert_contents(arr, contents)
        assert_replicas_agree(arr)
        assert_all_sound(arr)

    def test_repair_waits_for_quiescence_with_active_arus(self):
        arr = build_array(3, rf=2)
        populate(arr)
        arr.lose_shard(0)
        arr.start_repair(0)
        aru = arr.begin_aru()
        lst = arr.new_list(aru=aru)
        # drain the whole queue; the final install must hold off
        # while the ARU is open (its effects are uncommitted).
        for _ in range(100):
            if arr.repair_step(max_ops=1000):
                break
        assert arr.repair_active
        arr.end_aru(aru)
        assert arr.repair_step()
        assert not arr.repair_active
        assert arr.list_blocks(lst) == []
        assert_replicas_agree(arr)
        assert_all_sound(arr)

    def test_repair_never_copies_uncommitted_data(self):
        """An ARU open across the whole repair contributes nothing to
        the rebuilt shard until it commits."""
        arr = build_array(3, rf=2)
        contents = populate(arr)
        arr.lose_shard(0)
        victim = next(b for b in contents if shard_of(b, arr.n) == 0)
        aru = arr.begin_aru()
        arr.write(victim, b"uncommitted!", aru=aru)
        arr.start_repair(0)
        while arr.repair_active:
            if arr.repair_step(max_ops=1000):
                break
            arr.abort_aru(aru)  # quiesce so the install can land
        assert not arr.repair_active
        assert_contents(arr, contents)  # committed bytes, not the aborted ones
        assert_replicas_agree(arr)
        assert_all_sound(arr)

    def test_repair_requires_replication(self):
        arr = build_array(3, rf=1)
        populate(arr)
        arr.lose_shard(0)
        with pytest.raises(ValueError):
            arr.start_repair(0)

    def test_only_one_repair_at_a_time(self):
        arr = build_array(4, rf=2)
        populate(arr)
        arr.lose_shard(0)
        arr.lose_shard(2)
        arr.start_repair(0)
        with pytest.raises(ConcurrencyError):
            arr.start_repair(2)

    @pytest.mark.parametrize("max_ops", [0, -3])
    def test_repair_step_rejects_a_non_positive_budget(self, max_ops):
        """``while not repair_step(max_ops=n)`` with n == 0 would
        spin forever, so the per-call budget is validated."""
        arr = build_array(3, rf=2)
        populate(arr)
        arr.lose_shard(0)
        arr.start_repair(0)
        with pytest.raises(ValueError):
            arr.repair_step(max_ops=max_ops)
        assert arr.repair_active
        assert arr.repair_step(max_ops=1000)

    def test_replacement_lost_mid_repair_ends_the_repair_not_the_array(self):
        """The compound fault: the replacement's media dies while the
        rebuild is in flight.  The half-built volume is discarded, the
        member stays lost, and a fresh repair starts from scratch."""
        arr = build_array(3, rf=2)
        contents = populate(arr, lists=3, blocks_per_list=3)
        arr.lose_shard(1)
        arr.start_repair(1)
        assert not arr.repair_step(max_ops=2)  # partial copy only
        assert arr.repair_active
        arr.lose_shard(1)  # the replacement this time
        assert arr.repair_step() is False
        assert not arr.repair_active
        assert arr.dead_shards == [1]
        assert arr.repair_step() is True  # nothing left to drive
        assert_contents(arr, contents)  # still served from mirrors
        arr.start_repair(1)
        while not arr.repair_step(max_ops=4):
            pass
        assert arr.dead_shards == []
        assert arr.sharding_info()["redundancy_full"] is True
        assert arr.sharding_info()["repairs_completed"] == 1
        assert_contents(arr, contents)
        assert_replicas_agree(arr)
        assert_all_sound(arr)
        assert validate_sharded_stats(arr.stats()) == []

    def test_synchronous_repair_reports_a_lost_replacement(self):
        injector = FaultInjector()
        arr = build_array(3, rf=2, injector=injector)
        populate(arr, lists=3, blocks_per_list=3)
        arr.lose_shard(1)
        arr.start_repair(1)
        injector.lose_shard(1)
        with pytest.raises(ShardLostError):
            arr.repair()
        assert not arr.repair_active and arr.dead_shards == [1]

    def test_source_lost_mid_repair_is_failed_over(self):
        """rf = 3: a repair source dying mid-copy is failed over and
        the interrupted list is copied from the remaining source."""
        injector = FaultInjector()
        arr = build_array(4, rf=3, injector=injector)
        contents = populate(arr, lists=4, blocks_per_list=3)
        for shard in arr.shards:
            shard.cache.invalidate_all()
        arr.lose_shard(1)
        arr.start_repair(1)
        injector.lose_shard(2)  # a mirror of shard 1; the array has not noticed
        steps = 0
        while not arr.repair_step(max_ops=4):
            steps += 1
            assert steps < 200, "repair did not converge"
        assert arr.dead_shards == [2]
        assert_contents(arr, contents)
        repair_and_check(arr, 2)
        assert arr.sharding_info()["redundancy_full"] is True
        assert_contents(arr, contents)

    def test_scrub_heals_lost_blocks_from_replicas(self):
        """The scrubber's per-volume 'lost' verdict is not final on a
        replicated array: the surviving copy rewrites the block."""
        from repro.disk.faults import MediaFault

        arr = build_array(3, rf=2)
        contents = populate(arr)
        arr.flush()
        victim = next(iter(contents))
        home = shard_of(victim, arr.n)
        shard = arr.shards[home]
        seg = shard.bmap.persistent[int((victim - 1) // arr.n + 1)].address.segment
        shard.cache.invalidate_all()
        shard.disk.injector.add_media_fault(
            MediaFault(segment_no=seg, kind="unreadable", shard=home)
        )
        reports = arr.scrub()
        assert reports[str(home)].blocks_lost >= 1
        assert arr.sharding_info()["blocks_healed"] >= 1
        assert_contents(arr, contents)

    def test_scrub_leaves_a_block_no_copy_can_serve_lost(self):
        """Both copies of a block lost to media faults: the scrub heals
        what it can and leaves that block lost, without raising."""
        from repro.disk.faults import MediaFault

        arr = build_array(3, rf=2)
        contents = populate(arr)
        victim = next(iter(contents))
        home = shard_of(victim, arr.n)
        peer = (home + 1) % arr.n
        copies = ((home, to_local(victim, arr.n)), (peer, mirror_id(victim)))
        for s, local in copies:
            shard = arr.shards[s]
            seg = shard.bmap.persistent[local].address.segment
            shard.cache.invalidate_all()
            shard.disk.injector.add_media_fault(
                MediaFault(segment_no=seg, kind="unreadable", shard=s)
            )
        reports = arr.scrub()
        assert reports[str(home)].blocks_lost >= 1
        assert arr.dead_shards == []
        with pytest.raises(UnrecoverableBlockError):
            arr.read(victim)

    def test_scrub_heals_a_stale_salvage_from_replicas(self):
        """A block the member scrubber salvages from an older copy is
        rewritten from its mirror, which holds the newest committed
        bytes: the newest acknowledged write survives the scrub and a
        crash after it."""
        arr, victim, home, local = stale_salvage_case()
        reports = arr.scrub()
        assert reports[str(home)].stale_blocks == [local]
        assert arr.read(victim).startswith(b"new2")
        assert_replicas_agree(arr)
        recovered = recover_survivors(arr)
        assert recovered.read(victim).startswith(b"new2")
        assert_replicas_agree(recovered)

    def test_a_read_before_the_scrub_leaves_the_heal_to_run(self):
        """The same case with one read of the block between the media
        fault and the scrub (the test above is the other order).  The
        home member can offer only an older copy, so the read serves
        the mirror's newer one and heals the home from it: the replicas
        agree at once, the scrub finds nothing stale, and no
        acknowledged write is lost."""
        arr, victim, home, local = stale_salvage_case()
        assert arr.read(victim).startswith(b"new2")
        self.check_healed_by_the_read(arr, victim, home)

    def test_a_batched_read_before_the_scrub_heals_too(self):
        """The same through ``read_many``: a stale salvage inside a
        member's batch is not served either."""
        arr, victim, home, local = stale_salvage_case()
        got = arr.read_many([victim, victim])
        assert [data[:4] for data in got] == [b"new2", b"new2"]
        self.check_healed_by_the_read(arr, victim, home)

    @staticmethod
    def check_healed_by_the_read(arr, victim, home):
        assert arr.sharding_info()["degraded_reads"] == 1
        assert_replicas_agree(arr)
        reports = arr.scrub()
        assert reports[str(home)].stale_blocks == []
        assert reports[str(home)].segments_quarantined == 1
        assert arr.read(victim).startswith(b"new2")
        assert_replicas_agree(arr)
        recovered = recover_survivors(arr)
        assert recovered.read(victim).startswith(b"new2")
        assert_replicas_agree(recovered)


def stale_salvage_case():
    """An rf = 2 array whose block was written four times, the newest
    copy's segment on its home member unreadable: only older copies
    remain there, while the mirror holds the newest bytes.  Returns
    (array, block, home shard, the block's id on its home)."""
    from repro.disk.faults import MediaFault

    arr = build_array(3, rf=2)
    victim = arr.new_block(arr.new_list())
    for payload in (b"old", b"new0", b"new1", b"new2"):
        arr.write(victim, payload)
        arr.flush()
    home = shard_of(victim, arr.n)
    local = to_local(victim, arr.n)
    shard = arr.shards[home]
    seg = shard.bmap.persistent[local].address.segment
    shard.cache.invalidate_all()
    shard.disk.injector.add_media_fault(
        MediaFault(segment_no=seg, kind="unreadable", shard=home)
    )
    return arr, victim, home, local


def run_storm(arr, rounds=6):
    """The sweep's transactional storm: one block on each of the
    array's first lists, rewritten by one ARU a round.  Returns
    {block: payload} of every acknowledged commit."""
    contents = {}
    lists = [arr.new_list() for _ in range(arr.n)]
    blocks = {lst: arr.new_block(lst) for lst in lists}
    arr.flush()
    for round_no in range(rounds):
        aru = arr.begin_aru()
        payloads = {}
        for lst in lists:
            payload = f"r{round_no}-{int(lst)}".encode()
            arr.write(blocks[lst], payload, aru=aru)
            payloads[blocks[lst]] = payload
        arr.end_aru(aru)
        contents.update(payloads)
    return contents


def loss_case(shard, lose_after):
    """Lose ``shard``'s media after ``lose_after`` writes of the storm:
    every acknowledged ARU survives, on the mirrors and after a
    repair."""
    injector = FaultInjector(
        plan=FaultPlan(
            shard_losses=[ShardLoss(shard=shard, after_writes=lose_after)]
        )
    )
    arr = build_array(3, rf=2, injector=injector)
    contents = run_storm(arr)
    # every end_aru above returned: all of them are acked, and all
    # must survive whether the loss fired before, during or after
    # their PREPARE flushes.
    assert_contents(arr, contents)
    if arr.dead_shards:
        repair_and_check(arr)
        assert_contents(arr, contents)
        assert arr.sharding_info()["redundancy_full"] is True


def cut_storm(arr):
    """The compound sweep's workload: one block rewritten by ten ARUs.
    Returns {block: payload} of the last acknowledged commit."""
    acked = {}
    lst = arr.new_list()
    blk = arr.new_block(lst)
    arr.flush()
    for round_no in range(10):
        aru = arr.begin_aru()
        payload = b"round-%d" % round_no
        arr.write(blk, payload, aru=aru)
        arr.end_aru(aru)
        # multi-shard commits are durable at ack
        acked[blk] = payload
    return acked


def cut_case(shard, lose_after, cut_after):
    """Lose ``shard``'s media after ``lose_after`` writes and cut the
    power after ``cut_after``: recovery assembles degraded, keeps every
    ARU acknowledged before the cut, and a repair restores it all."""
    injector = FaultInjector(
        plan=FaultPlan(
            power_cut=PowerCut(after_writes=cut_after),
            shard_losses=[ShardLoss(shard=shard, after_writes=lose_after)],
        )
    )
    arr = build_array(3, rf=2, injector=injector)
    acked = {}
    try:
        acked = cut_storm(arr)
    except Exception:
        pass
    injector.power_cycle()
    disks = [
        arr.shards[i].disk if arr.shards[i] is not None else None
        for i in range(arr.n)
    ]
    vol, report = recover(
        disks, array_config=ArrayConfig(replication_factor=2)
    )
    for blk, payload in acked.items():
        assert vol.read(blk).startswith(payload)
    if report.dead_shards:
        repair_and_check(vol)
        for blk, payload in acked.items():
            assert vol.read(blk).startswith(payload)


def writes_of(workload):
    """How many writes ``workload`` issues on a fault-free array."""
    injector = FaultInjector()
    workload(build_array(3, rf=2, injector=injector))
    return injector.writes_seen


class TestShardLossSweep:
    """The crash-matrix extension: whole-shard loss at sampled write
    indexes of a transactional storm, including during PREPARE
    (``python -m tests.test_replication`` runs every index)."""

    N = 3

    @pytest.mark.parametrize("lose_after", [0, 3, 6, 9, 12, 16, 20])
    @pytest.mark.parametrize("shard", [0, 1])
    def test_no_acked_aru_lost_at_any_loss_point(self, lose_after, shard):
        loss_case(shard, lose_after)

    @pytest.mark.parametrize("cut_after", [8, 14, 22])
    def test_power_cut_plus_shard_loss_recovers_committed_state(
        self, cut_after
    ):
        """The compound fault: shard 1's media destroyed early, power
        cut later.  Recovery must assemble degraded and keep every
        ARU whose commit was acknowledged before the cut."""
        cut_case(1, 4, cut_after)

    def test_loss_mid_repair_then_power_cut_recovers(self):
        """Crash while a repair is in flight: the half-built member is
        discarded, recovery assembles degraded, repair restarts."""
        arr = build_array(self.N, rf=2)
        contents = populate(arr, lists=3, blocks_per_list=3)
        arr.flush()
        arr.lose_shard(0)
        arr.start_repair(0)
        arr.repair_step(max_ops=2)  # partial copy only
        assert arr.repair_active
        # power-cut the survivors mid-repair
        disks = [
            arr.shards[i].disk.power_cycle()
            if arr.shards[i] is not None
            else None
            for i in range(arr.n)
        ]
        vol, report = recover(
            disks, array_config=ArrayConfig(replication_factor=2)
        )
        assert report.dead_shards == [0]
        assert_contents(vol, contents)
        repair_and_check(vol, 0)
        assert_contents(vol, contents)
        assert vol.sharding_info()["redundancy_full"] is True


class TestRecoveryComposition:
    def test_eager_recovery_with_dead_shard(self):
        arr = build_array(3, rf=2)
        contents = populate(arr)
        disks = [sh.disk.power_cycle() for sh in arr.shards]
        disks[2] = None
        vol, report = recover(
            disks, array_config=ArrayConfig(replication_factor=2)
        )
        assert report.dead_shards == [2]
        assert vol.dead_shards == [2]
        assert_contents(vol, contents)
        repair_and_check(vol, 2)
        assert_contents(vol, contents)

    def test_instant_recovery_with_dead_shard(self):
        """Instant restore and a lost member compose: reads fail over
        while the survivors replay on demand, the deferred resync
        runs at complete_restore, and repair heals afterwards."""
        arr = build_array(3, rf=2)
        contents = populate(arr, lists=3)
        disks = [sh.disk.power_cycle() for sh in arr.shards]
        disks[1] = None
        vol, report = recover(
            disks,
            array_config=ArrayConfig(replication_factor=2),
            mode="instant",
        )
        assert report.mode == "instant"
        assert report.dead_shards == [1]
        assert_contents(vol, contents)  # on-demand + failover
        while vol.restore_drain(4):
            pass
        vol.complete_restore()
        assert not vol.restore_active
        assert_contents(vol, contents)
        repair_and_check(vol, 1)
        assert_contents(vol, contents)
        assert vol.sharding_info()["redundancy_full"] is True

    def test_decision_survives_coordinator_loss(self):
        """With rf=2, shard 1 carries a copy of every DECIDE: a
        commit acknowledged just before shard 0's media died still
        rolls forward from shard 1's decision log."""
        arr = build_array(3, rf=2)
        lst = arr.new_list()
        blk = arr.new_block(lst)
        arr.flush()
        aru = arr.begin_aru()
        arr.write(blk, b"decided-data", aru=aru)
        arr.end_aru(aru)  # acked: durable on every replica + DECIDE
        arr.lose_shard(0)
        disks = [
            arr.shards[i].disk.power_cycle()
            if arr.shards[i] is not None
            else None
            for i in range(arr.n)
        ]
        vol, report = recover(
            disks, array_config=ArrayConfig(replication_factor=2)
        )
        assert report.dead_shards == [0]
        assert vol.read(blk).startswith(b"decided-data")

    def test_replication_bootstrap_from_unreplicated_image(self):
        """Recovering an rf=1 image under an rf=2 config builds the
        mirrors during resync — the upgrade path to replication."""
        arr = build_array(3, rf=1)
        contents = populate(arr)
        disks = [sh.disk.power_cycle() for sh in arr.shards]
        vol, _report = recover(
            disks, array_config=ArrayConfig(replication_factor=2)
        )
        vol.flush()
        vol.lose_shard(0)
        assert_contents(vol, contents)
        assert vol.sharding_info()["degraded_reads"] > 0


if __name__ == "__main__":
    # The exhaustive form: the loss at every write index of the storm
    # for every shard, and for every shard lost after 4 writes, the
    # power cut at every index after the loss.
    storm, compound = writes_of(run_storm), writes_of(cut_storm)
    for shard in range(3):
        for lose_after in range(storm + 1):
            loss_case(shard, lose_after)
        for cut_after in range(5, compound + 1):
            cut_case(shard, 4, cut_after)
        print(
            f"shard {shard}: {storm + 1} loss points and "
            f"{compound - 4} power cuts after the loss ok"
        )
    sys.exit(0)
