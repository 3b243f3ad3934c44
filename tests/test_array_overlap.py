"""Array time is the critical path of a fan-out.

The rule under test (docs/SHARDING.md, "Array time: the critical
path"): when one array call goes to several members, one host CPU
issues the members' calls in program order and the disks work side by
side — member *i* starts at the array time the fan-out began plus the
simulated CPU of the members before it, and the call returns when the
slowest member is done.  The expectations below are computed here,
from per-member ``(cpu, busy)`` deltas read off each member's cost
meter and disk timer; nothing is imported from the router but the
array itself.
"""

import dataclasses
from typing import List

import pytest

from repro.disk.faults import FaultInjector, FaultPlan, ShardLoss
from repro.lld.lld import LLD
from repro.shard.sharded import shard_of
from tests.test_replication import build_array

REL = 1e-9


def one_block_per_shard(arr):
    """A list and a written block homed on every shard, flushed."""
    blocks = [arr.new_block(arr.new_list()) for _ in range(arr.n)]
    assert sorted(shard_of(blk, arr.n) for blk in blocks) == list(range(arr.n))
    for blk in blocks:
        arr.write(blk, b"old-%d" % blk)
    arr.flush()
    return blocks


@dataclasses.dataclass
class Call:
    """One outermost LLD call the array made on one member."""

    name: str
    shard: int
    start_us: float
    end_us: float
    cpu_us: float
    busy_us: float
    array_us: float  # array time when the call returned (or raised)


def record_calls(monkeypatch, arr, *names) -> List[Call]:
    """Wrap the named LLD methods; log every outermost call with its
    member's CPU (cost meter) and disk (timer) deltas."""
    log: List[Call] = []
    depth = [0]

    def wrap(name, inner):
        def outer(self, *args, **kwargs):
            if depth[0]:
                return inner(self, *args, **kwargs)
            start = self.clock.now_us
            cpu = self.meter.total_charged_us()
            busy = self.disk.timer.busy_us
            depth[0] += 1
            try:
                return inner(self, *args, **kwargs)
            finally:
                depth[0] -= 1
                log.append(
                    Call(
                        name,
                        self.disk.shard_index,
                        start,
                        self.clock.now_us,
                        self.meter.total_charged_us() - cpu,
                        self.disk.timer.busy_us - busy,
                        arr.clock.now_us,
                    )
                )

        return outer

    for name in names:
        monkeypatch.setattr(LLD, name, wrap(name, getattr(LLD, name)))
    return log


def critical_path(clocks, legs):
    """Advance ``clocks`` ({shard: µs}) over one fan-out of ``legs``
    ([(shard, cpu, busy)], in issue order): every member starts at
    the furthest clock of the moment the fan-out began plus the CPU
    of the legs before its own."""
    t0 = max(clocks.values())
    cpu_before = 0.0
    for shard, cpu, busy in legs:
        clocks[shard] = max(clocks[shard], t0 + cpu_before) + cpu + busy
        cpu_before += cpu


def test_flush_costs_the_slowest_member_not_the_sum(monkeypatch):
    arr = build_array(4, rf=1)
    for blk in one_block_per_shard(arr):
        arr.write(blk, b"dirty")
    calls = record_calls(monkeypatch, arr, "flush")
    before = {s: shard.clock.now_us for s, shard in enumerate(arr.shards)}
    t0 = arr.clock.now_us
    info0 = arr.sharding_info()
    arr.flush()
    elapsed = arr.clock.now_us - t0

    assert [call.shard for call in calls] == [0, 1, 2, 3]
    assert all(call.busy_us > 0 for call in calls)
    # the clock moved by CPU and disk time and nothing else
    for call in calls:
        assert call.end_us - call.start_us == pytest.approx(
            call.cpu_us + call.busy_us, rel=REL
        )
    # member i starts after the CPU of the members before it ...
    cpu_before = 0.0
    for call in calls:
        assert call.start_us == pytest.approx(t0 + cpu_before, rel=REL)
        cpu_before += call.cpu_us
    # ... so the call costs the slowest member plus that CPU,
    expected = dict(before)
    critical_path(expected, [(c.shard, c.cpu_us, c.busy_us) for c in calls])
    assert elapsed == pytest.approx(max(expected.values()) - t0, rel=REL)
    # not the sum (four positioned writes cost more than two),
    serial = sum(call.end_us - call.start_us for call in calls)
    assert elapsed < serial / 2
    # and never less than any one spindle was busy.
    assert elapsed >= max(call.busy_us for call in calls)

    info = arr.sharding_info()
    assert info["fanouts"] == info0["fanouts"] + 1
    assert info["fanout_serial_us"] - info0[
        "fanout_serial_us"
    ] == pytest.approx(serial, rel=REL)
    assert info["fanout_elapsed_us"] - info0[
        "fanout_elapsed_us"
    ] == pytest.approx(elapsed, rel=REL)


@pytest.mark.parametrize("rf", [1, 2])
def test_cross_shard_commit_costs_its_critical_path(monkeypatch, rf):
    """PREPARE, PREPARE-flush and DECIDE are three fan-outs, joined
    in between (DECIDE is issued once the slowest participant is
    durable); the release is plain CPU on each participant."""
    arr = build_array(4, rf=rf)
    blocks = one_block_per_shard(arr)
    aru = arr.begin_aru()
    for blk in blocks[:3]:
        arr.write(blk, b"new-%d" % blk, aru=aru)
    calls = record_calls(
        monkeypatch,
        arr,
        "prepare_commit",
        "flush",
        "log_decision",
        "finish_prepared",
    )
    clocks = {s: shard.clock.now_us for s, shard in enumerate(arr.shards)}
    arr.end_aru(aru)
    assert arr.sharding_info()["commits_cross_shard"] == 1

    participants = [c.shard for c in calls if c.name == "prepare_commit"]
    assert participants == ([0, 1, 2] if rf == 1 else [0, 1, 2, 3])
    deciders = [c.shard for c in calls if c.name == "log_decision"]
    assert deciders == list(range(rf))
    n = len(participants)
    prepare, flush, decide = calls[:n], calls[n : 2 * n], calls[2 * n : -n]
    release = calls[-n:]
    assert {c.name for c in flush} == {"flush"}
    assert [c.name for c in decide] == ["log_decision", "flush"] * rf
    assert {c.name for c in release} == {"finish_prepared"}

    critical_path(clocks, [(c.shard, c.cpu_us, c.busy_us) for c in prepare])
    critical_path(clocks, [(c.shard, c.cpu_us, c.busy_us) for c in flush])
    durable = max(clocks.values())
    assert min(c.start_us for c in decide) == pytest.approx(durable, rel=REL)
    critical_path(
        clocks,
        [  # one leg per decision shard: log the DECIDE, then flush it
            (
                log.shard,
                log.cpu_us + flushed.cpu_us,
                log.busy_us + flushed.busy_us,
            )
            for log, flushed in zip(decide[::2], decide[1::2])
        ],
    )
    for call in release:
        clocks[call.shard] += call.cpu_us
    for s, shard in enumerate(arr.shards):
        assert shard.clock.now_us == pytest.approx(clocks[s], rel=REL), s
    assert arr.clock.now_us == pytest.approx(max(clocks.values()), rel=REL)
    # the participants' flushes did overlap
    assert max(c.end_us for c in flush) - min(
        c.start_us for c in flush
    ) < sum(c.busy_us for c in flush)


def test_checkpoint_orders_the_decision_shards_and_overlaps_the_rest(
    monkeypatch,
):
    """Invariant 3 (prunes coordinator-last) holds in time too: shard
    0's checkpoint starts no earlier than shard 1's ends, while the
    non-decision shards 2 and 3 work side by side."""
    arr = build_array(4, rf=2)
    one_block_per_shard(arr)
    calls = record_calls(monkeypatch, arr, "write_checkpoint")
    arr.write_checkpoint()
    by_shard = {call.shard: call for call in calls}
    assert [call.shard for call in calls] == [2, 3, 1, 0]
    assert all(call.busy_us > 0 for call in calls)
    assert by_shard[3].start_us < by_shard[2].end_us
    assert by_shard[1].start_us >= max(
        by_shard[2].end_us, by_shard[3].end_us
    )
    assert by_shard[0].start_us >= by_shard[1].end_us


def _commit_with_loss(monkeypatch, loss=None):
    """One cross-shard ARU over all four members of an rf = 2 array;
    returns (array, blocks, calls, writes seen before ``end_aru``)."""
    injector = FaultInjector(
        plan=FaultPlan(shard_losses=[loss] if loss else [])
    )
    arr = build_array(4, rf=2, injector=injector)
    blocks = one_block_per_shard(arr)
    aru = arr.begin_aru()
    for blk in blocks:
        arr.write(blk, b"new-%d" % blk, aru=aru)
    calls = record_calls(
        monkeypatch, arr, "prepare_commit", "flush", "log_decision"
    )
    before = injector.writes_seen
    t0 = arr.clock.now_us
    arr.end_aru(aru)
    readings = [t0] + [call.array_us for call in calls] + [arr.clock.now_us]
    assert readings == sorted(readings), "array time ran backwards"
    return arr, blocks, calls, (before, injector.writes_seen)


def test_shard_lost_inside_the_prepare_flush_fan_out(monkeypatch):
    """A member destroyed at any write of the commit — between two
    members' PREPARE flushes, or between one member's two writes —
    leaves array time monotone and the ARU committed on the mirrors."""
    with monkeypatch.context() as patch:
        _arr, _blocks, calls, (first, last) = _commit_with_loss(patch)
    assert [c.name for c in calls[4:8]] == ["flush"] * 4
    assert last - first >= 6  # >= 4 PREPARE flushes + 2 DECIDE flushes
    fired = 0
    for after_writes in range(first, last):
        for shard in range(4):
            with monkeypatch.context() as patch:
                arr, blocks, calls, _ = _commit_with_loss(
                    patch, ShardLoss(shard=shard, after_writes=after_writes)
                )
            fired += arr.dead_shards == [shard]
            assert arr.sharding_info()["commits_cross_shard"] == 1
            for blk in blocks:
                assert arr.read(blk).startswith(b"new-%d" % blk), (
                    after_writes,
                    shard,
                )
    assert fired >= 4 * 4  # the sweep did land inside the commit


def test_one_member_fan_out_is_sync_plus_call():
    """``_each`` over one member leaves every clock exactly where
    ``_sync_clock`` + the bare call leaves it, and counts nothing."""
    arrays = []
    for _ in range(2):
        arr = build_array(4, rf=1)
        blocks = one_block_per_shard(arr)
        arr.write(blocks[3], b"ahead")  # member 3 leads, member 1 lags
        arr.write(blocks[1], b"dirty")
        arr.write(blocks[3], b"ahead")
        arrays.append(arr)
    routed, bare = arrays
    assert bare.shards[1].clock.now_us < bare.clock.now_us
    fanouts = routed.sharding_info()["fanouts"]
    routed._each(LLD.flush, (1,))
    bare._sync_clock(bare.shards[1])
    bare.shards[1].flush()
    for s in range(4):
        assert (
            routed.shards[s].clock.now_us == bare.shards[s].clock.now_us
        ), s
        assert (
            routed.shards[s].disk.write_count
            == bare.shards[s].disk.write_count
        ), s
    assert routed.sharding_info()["fanouts"] == fanouts


def test_read_many_groups_overlap():
    """Cold reads of one block per home shard: four positioned reads
    on four spindles cost about one."""
    arr = build_array(4, rf=1)
    blocks = one_block_per_shard(arr)
    for shard in arr.shards:
        shard.cache.invalidate_all()
    busy = [shard.disk.timer.busy_us for shard in arr.shards]
    t0 = arr.clock.now_us
    got = arr.read_many(blocks)
    elapsed = arr.clock.now_us - t0
    assert [data[:5] for data in got] == [b"old-%d" % blk for blk in blocks]
    busy = [
        shard.disk.timer.busy_us - was
        for shard, was in zip(arr.shards, busy)
    ]
    assert min(busy) > 0
    assert max(busy) <= elapsed < sum(busy) / 2


def test_host_cpu_stays_serial():
    """A fan-out with no disk time buys nothing: a mirrored write is
    two legs of CPU on one host, charged one after the other."""
    arr = build_array(4, rf=2)
    blocks = one_block_per_shard(arr)
    info0 = arr.sharding_info()
    busy = sum(shard.disk.timer.busy_us for shard in arr.shards)
    arr.write(blocks[0], b"mirrored")
    assert sum(shard.disk.timer.busy_us for shard in arr.shards) == busy
    info = arr.sharding_info()
    assert info["fanouts"] == info0["fanouts"] + 1
    serial = info["fanout_serial_us"] - info0["fanout_serial_us"]
    elapsed = info["fanout_elapsed_us"] - info0["fanout_elapsed_us"]
    assert serial > 0
    assert elapsed == pytest.approx(serial, rel=REL)
