"""Pins on the simulated clock: six small deterministic runs.

Each run ends by checking ``clock.now_us.hex()`` and the meter's
per-category ``counters`` and ``charged_us`` against constants.  The
first three runs' clock and counters were captured on the source
*before* the change that removed per-call host work from
``CostMeter.charge``, ``PhysAddr``, the LLD read path and
``ReadStream``, and that change left every one of them in place; the
other constants were captured before the meter kept one cell per cost
category and the version engine walked its chains inline.  A later
change meant to cost only host wall time must keep them too; a change
that moves simulated time on purpose updates them and says why.

The runs are small (a few hundred LD operations each) and cover what
the ledger's single-volume workloads charge: cache misses streamed
from the head and read ahead, reads through every version state, an
eight-ARU wave with aborts and a deleting ARU, and a MinixFS
create/read/unlink cycle.  Three more cover the modes those skip: the
sequential-ARU baseline, where a record costs a table access, and the
two read-visibility options other than ``ARU_LOCAL``.

The clock alone rarely sees a reordering: the default model's units
are multiples of 0.5 µs, so two CPU charges swapped between disk
requests sum to the same float.  So each single-volume run also pins
the SHA-256 of its charge stream, every ``(category, count, lanes)``
in order.

Two more runs pin the platter as well as the clock: a replicated
two-shard array committing cross-shard ARUs, and a JLD applying its
journal to home locations.  Their flushes, home writes and checkpoint
tails are written in place, so they pin what ``SimulatedDisk.write_at``
leaves on the platter.  For every member disk they check the clock,
the meter, ``write_count`` and the SHA-256 of the platter (segment
number, then bytes, in segment order); those constants were captured
before the platter became writable in place.  A third platter pin is
one volume whose checkpoints the cleaner and the scrubber write, and
one instant recovery checkpointing it; its constants were captured
before checkpoint rows were repacked only where they changed.  A
fourth is an unreplicated three-shard array, the two-phase commit's
paths the replicated pin skips: a lone decision shard, the checkpoint
order [1, 2, 0], and an array recovery whose restored xid counter the
next commits write; its constants were captured before the
coordinator and the participant of that commit moved into modules of
their own.  A fifth is the upkeep of a replicated three-shard array:
the resync of four divergences written onto members after a power
cut, a synchronous repair of a lost member, and a scrub healing from a
mirror; its constants were captured before repair, resync and scrub
healing moved into one module built on one reconcile rule.
"""

import hashlib
import random

import pytest

import repro
from repro.core.visibility import Visibility
from repro.disk.clock import CostMeter
from repro.disk.faults import MediaFault
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.fs import MinixFS
from repro.jld import JLD
from repro.ld.types import SYSTEM_ID_BASE
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import recover
from repro.shard import (
    ArrayConfig,
    build_sharded,
    mirror_id,
    shard_of,
    to_global,
)

from tests.oracle import platter_bytes


def reads_and_writes():
    """Cache misses (positioned, streamed, windows), hits, writes
    between reads, a batched read; a cache a third of the data, and
    write-behind, whose drains charge ``writeback_us`` across lanes."""
    disk = SimulatedDisk(DiskGeometry.small(num_segments=64))
    ld = LLD(disk, config=LLDConfig(cache_blocks=48, writeback_depth=2))
    rng = random.Random(26)
    lists = [ld.new_list() for _ in range(4)]
    blocks = [ld.new_block(lists[index % 4]) for index in range(160)]
    for index, block in enumerate(blocks):
        ld.write(block, bytes([index % 251]) * (64 + index))
    ld.flush()
    ld.cache.invalidate_all()
    for block in blocks[:64]:
        ld.read(block)
    for _ in range(240):
        block = rng.choice(blocks)
        if rng.random() < 0.2:
            ld.write(block, bytes([rng.randrange(256)]) * 100)
        else:
            ld.read(block)
    ld.read_many(blocks[100:140])
    ld.flush()
    ld.cache.invalidate_all()
    ld.read_many(blocks[::3])
    return disk.clock, ld.meter


def aru_wave():
    """Eight concurrent ARUs: shadow writes and reads, inserts inside
    ARUs, a deleting ARU, two aborts, commits out of begin order."""
    disk = SimulatedDisk(DiskGeometry.small(num_segments=64))
    ld = LLD(disk)
    rng = random.Random(8)
    lst = ld.new_list()
    doomed = ld.new_list()
    blocks = [ld.new_block(lst) for _ in range(48)]
    spare = [ld.new_block(doomed) for _ in range(4)]
    for block in blocks + spare:
        ld.write(block, b"base")
    ld.flush()
    for wave in range(3):
        arus = [ld.begin_aru() for _ in range(8)]
        for number, aru in enumerate(arus):
            own = blocks[number * 6 : number * 6 + 6]
            for block in own[:4]:
                ld.write(block, bytes([wave * 8 + number]) * 200, aru=aru)
                ld.read(block, aru=aru)
                ld.read(block)
            if wave == 0:
                fresh = ld.new_block(lst, own[0], aru=aru)
                ld.write(fresh, b"fresh", aru=aru)
        ld.delete_block(blocks[47 - wave], aru=arus[7])
        if wave == 0:
            ld.delete_list(doomed, aru=arus[6])
        ld.abort_aru(arus[2])
        ld.abort_aru(arus[5])
        live = [aru for index, aru in enumerate(arus) if index not in (2, 5)]
        rng.shuffle(live)
        for aru in live:
            ld.end_aru(aru)
            ld.read(blocks[0])
        ld.flush()
    ld.list_blocks(lst)
    return disk.clock, ld.meter


def sequential_arus():
    """The old prototype: one ARU at a time, applied to the committed
    state, where making or folding a record costs a table access;
    simple reads between, inserts after a predecessor, deletes that
    search for theirs."""
    disk = SimulatedDisk(DiskGeometry.small(num_segments=64))
    ld = LLD(disk, config=LLDConfig(aru_mode="sequential"))
    rng = random.Random(29)
    lst = ld.new_list()
    blocks = [ld.new_block(lst) for _ in range(24)]
    for block in blocks:
        ld.write(block, b"base")
    ld.flush()
    for number in range(12):
        aru = ld.begin_aru()
        for block in rng.sample(blocks, 3):
            ld.write(block, bytes([number]) * 300, aru=aru)
            ld.read(block, aru=aru)
        fresh = ld.new_block(lst, blocks[number], aru=aru)
        ld.write(fresh, b"fresh", aru=aru)
        ld.read(rng.choice(blocks))
        if number % 3 == 0:
            ld.delete_block(fresh, aru=aru)
        ld.end_aru(aru)
        if number % 4 == 3:
            ld.flush()
    ld.list_blocks(lst)
    ld.flush()
    return disk.clock, ld.meter


def visibility_wave(visibility):
    """Four concurrent ARUs a wave writing overlapping blocks, so a
    block carries several shadow records, read inside and outside the
    ARUs and listed, under one read-visibility option."""
    disk = SimulatedDisk(DiskGeometry.small(num_segments=64))
    ld = LLD(disk, config=LLDConfig(visibility=visibility))
    rng = random.Random(30)
    lst = ld.new_list()
    blocks = [ld.new_block(lst) for _ in range(16)]
    for block in blocks:
        ld.write(block, b"base")
    ld.flush()
    for wave in range(3):
        arus = [ld.begin_aru() for _ in range(4)]
        for number, aru in enumerate(arus):
            for block in rng.sample(blocks, 4):
                ld.write(block, bytes([wave * 4 + number]) * 100, aru=aru)
                ld.read(block, aru=aru)
                ld.read(block)
            ld.new_block(lst, aru=aru)
            ld.list_blocks(lst, aru=aru)
        ld.list_blocks(lst)
        ld.abort_aru(arus[1])
        for aru in (arus[3], arus[0], arus[2]):
            ld.end_aru(aru)
            ld.read(blocks[0])
        ld.flush()
    return disk.clock, ld.meter


def newest_shadow_reads():
    return visibility_wave(Visibility.MOST_RECENT_SHADOW)


def committed_only_reads():
    return visibility_wave(Visibility.COMMITTED_ONLY)


def minixfs_cycle():
    """Create, write, sync, read back through cold caches, unlink."""
    disk = SimulatedDisk(DiskGeometry.small(num_segments=96))
    ld = LLD(disk)
    fs = MinixFS.mkfs(ld, n_inodes=128)
    fs.mkdir("/d")
    for index in range(40):
        path = f"/d/f{index}"
        fs.create(path)
        fs.write_file(path, bytes([index]) * (100 + 97 * index))
    fs.sync()
    ld.cache.invalidate_all()
    for index in range(40):
        fs.read_file(f"/d/f{index}")
    for index in range(0, 40, 2):
        fs.unlink(f"/d/f{index}")
    fs.sync()
    return disk.clock, ld.meter


#: 128 KB segments: on the paper's disk a small flush is written in
#: place, where a 64 KB segment is always written whole.
IN_PLACE_GEOMETRY = DiskGeometry(
    block_size=4096, segment_size=128 * 1024, num_segments=24
)


def replicated_array():
    """Cross-shard ARUs on a replicated two-shard array: every durable
    PREPARE and DECIDE is a flush written in place, then a checkpoint
    of both members, whose tails are written in place too."""
    volume = build_sharded(
        2,
        geometry=IN_PLACE_GEOMETRY,
        config=LLDConfig(checkpoint_slot_segments=2),
        array_config=ArrayConfig(replication_factor=2),
    )
    rng = random.Random(28)
    lists = [volume.new_list() for _ in range(4)]
    blocks = [volume.new_block(lists[index % 4]) for index in range(24)]
    for index, block in enumerate(blocks):
        volume.write(block, bytes([index]) * 4096)
    volume.flush()
    for number in range(30):
        aru = volume.begin_aru()
        for block in rng.sample(blocks, 3):
            volume.write(block, bytes([number]) * (300 + 97 * number), aru=aru)
        volume.end_aru(aru)
        if number == 14:
            volume.write_checkpoint()
    volume.flush()
    assert volume.stats()["sharding"]["commits_cross_shard"] > 0
    for shard in volume.shards:
        assert shard.stats()["segments"]["in_place_writes"] > 0
    return [(shard.disk, shard.meter) for shard in volume.shards]


def unreplicated_array():
    """Cross-shard ARUs on an unreplicated three-shard array, whose
    one decision shard is shard 0 and whose checkpoint order is
    [1, 2, 0]: commits around one checkpoint, a power cut, an array
    recovery, then more commits, so the restored xid counter lands in
    PREPARE and DECIDE records.  Pinned: the members before the cut
    and the members recovery opened, on the same platters."""
    config = LLDConfig(checkpoint_slot_segments=2)
    volume = build_sharded(3, geometry=IN_PLACE_GEOMETRY, config=config)
    rng = random.Random(38)
    lists = [volume.new_list() for _ in range(6)]
    blocks = [volume.new_block(lists[index % 6]) for index in range(30)]
    for index, block in enumerate(blocks):
        volume.write(block, bytes([index]) * 2048)
    volume.flush()
    for number in range(20):
        aru = volume.begin_aru()
        for block in rng.sample(blocks, 3):
            volume.write(block, bytes([number]) * (200 + 53 * number), aru=aru)
        volume.end_aru(aru)
        if number == 9:
            volume.write_checkpoint()
    before = volume.sharding_info()
    assert before["commits_cross_shard"] > 0
    recovered, _report = repro.recover(
        [shard.disk.power_cycle() for shard in volume.shards], config=config
    )
    assert recovered._next_xid == before["xids_issued"] + 1
    for number in range(10):
        aru = recovered.begin_aru()
        for block in rng.sample(blocks, 3):
            recovered.write(block, bytes([50 + number]) * 700, aru=aru)
        recovered.end_aru(aru)
    recovered.flush()
    assert recovered.sharding_info()["commits_cross_shard"] > 0
    return [(shard.disk, shard.meter) for shard in volume.shards] + [
        (shard.disk, shard.meter) for shard in recovered.shards
    ]


def replica_upkeep():
    """Everything that brings a replica up to date, on a replicated
    three-shard array.  Four divergences are written straight onto
    members: a mirror block with other bytes, a mirror list missing a
    member, a stray mirror list of a list that does not exist and an
    orphan mirror block.  A power cut and an array recovery follow, so
    ``resync`` mends them; then a member is lost and rebuilt by a
    synchronous ``repair()``, and an array ``scrub()`` heals a block
    lost to a media fault from its mirror.  Pinned: the recovered
    members at the end, the replacement among them, and the member
    lost after the resync."""
    config = LLDConfig(checkpoint_slot_segments=2)
    array_config = ArrayConfig(replication_factor=2)
    volume = build_sharded(
        3, geometry=IN_PLACE_GEOMETRY, config=config, array_config=array_config
    )
    n = volume.n
    rng = random.Random(42)
    lists = [volume.new_list() for _ in range(6)]
    blocks = [volume.new_block(lists[index % 6]) for index in range(30)]
    for index, block in enumerate(blocks):
        volume.write(block, bytes([index]) * 1500)
    volume.flush()
    rewritten = set()
    for number in range(6):
        aru = volume.begin_aru()
        for block in rng.sample(blocks, 3):
            volume.write(block, bytes([60 + number]) * 900, aru=aru)
            rewritten.add(block)
        volume.end_aru(aru)

    def peer(gid):
        return volume.shards[(shard_of(gid, n) + 1) % n]

    peer(blocks[0]).write(mirror_id(blocks[0]), b"diverged" * 100)
    peer(blocks[7]).delete_block(mirror_id(blocks[7]))
    ghost = to_global(40, 2, n)
    peer(ghost).new_list(list_id=mirror_id(ghost))
    orphan = to_global(90, shard_of(lists[1], n), n)
    host = peer(lists[1])
    aru = host.begin_aru()
    host.new_block(mirror_id(lists[1]), block_id=mirror_id(orphan), aru=aru)
    host.abort_aru(aru)
    for shard in volume.shards:
        shard.flush()
    recovered, _report = repro.recover(
        [shard.disk.power_cycle() for shard in volume.shards],
        config=config,
        array_config=array_config,
    )
    recovered.flush()
    lost = recovered.shards[1]
    recovered.lose_shard(1)
    recovered.repair()
    # Written once, so the scrubber finds no older copy to salvage.
    victim = next(
        block
        for block in blocks
        if shard_of(block, n) == 0 and block not in rewritten
    )
    home = recovered.shards[shard_of(victim, n)]
    local = (victim - 1) // n + 1
    home.cache.invalidate_all()
    home.disk.injector.add_media_fault(
        MediaFault(
            segment_no=home.bmap.persistent[local].address.segment,
            kind="unreadable",
            shard=shard_of(victim, n),
        )
    )
    healed = recovered.sharding_info()["blocks_healed"]
    recovered.scrub()
    assert recovered.sharding_info()["blocks_healed"] > healed
    assert recovered.sharding_info()["redundancy_full"]
    recovered.flush()
    return [(shard.disk, shard.meter) for shard in recovered.shards] + [
        (lost.disk, lost.meter)
    ]


def jld_apply():
    """A JLD journaling plain writes and ARUs, then applying them: every
    home write and every checkpoint tail is written in place."""
    disk = SimulatedDisk(DiskGeometry.small(num_segments=48))
    jld = JLD(disk, journal_segments=4, checkpoint_slot_segments=1)
    rng = random.Random(11)
    lst = jld.new_list()
    blocks = [jld.new_block(lst) for _ in range(40)]
    for wave in range(4):
        for block in rng.sample(blocks, 12):
            jld.write(block, bytes([wave]) * rng.randrange(16, 4096))
        aru = jld.begin_aru()
        for block in rng.sample(blocks, 4):
            jld.write(block, bytes([100 + wave]) * 700, aru=aru)
        jld.end_aru(aru)
        jld.flush()
        jld.apply()
    jld.cache.invalidate_all()
    for block in blocks[::5]:
        jld.read(block)
    assert jld.stats()["home_writes"] > 0
    return [(disk, jld.meter)]


#: The knobs of :func:`cleaner_checkpoints`, before and after the crash.
CLEANER_CONFIG = LLDConfig(cache_blocks=32, checkpoint_slot_segments=2)


def cleaner_checkpoints():
    """One volume whose log wraps, so the cleaner writes its
    checkpoints: evacuating passes over a working set of 281 blocks
    (one of them, and one list, in the sparse id range), ARUs that
    allocate, a list deleted every sixth round, a scrub that relocates
    what a corrupt segment held, then a power cut, an instant recovery
    and a checkpoint taken before the restore has drained.  Pinned:
    the volume before the cut and the one recovery opened, on one
    platter."""
    disk = SimulatedDisk(DiskGeometry.small(num_segments=40))
    ld = LLD(disk, config=CLEANER_CONFIG)
    rng = random.Random(30)
    lists = [ld.new_list() for _ in range(4)]
    blocks = [ld.new_block(lists[index % 4]) for index in range(280)]
    spare = ld.new_list(list_id=SYSTEM_ID_BASE + 5)
    blocks.append(ld.new_block(spare, block_id=SYSTEM_ID_BASE + 9))
    for index, block in enumerate(blocks):
        ld.write(block, bytes([index % 251]) * 4096)
    ld.flush()
    doomed = ld.new_list()
    for round_no in range(24):
        for block in rng.sample(blocks, 40):
            ld.write(block, bytes([round_no]) * rng.randrange(64, 4096))
        aru = ld.begin_aru()
        fresh = ld.new_block(doomed, aru=aru)
        ld.write(fresh, bytes([round_no]) * 500, aru=aru)
        ld.write(rng.choice(blocks), b"aru" * 100, aru=aru)
        ld.end_aru(aru)
        if round_no % 6 == 5:
            ld.delete_list(doomed)
            doomed = ld.new_list()
        ld.flush()
    stats = ld.stats()
    assert stats["checkpoint"]["writes"] >= 5
    assert stats["cleaner"]["blocks_copied"] > 0
    # The newest segment with live slots: its blocks are still cached,
    # so the scrub relocates them rather than losing them, and after
    # this checkpoint their rows change only by that relocation.
    ld.write_checkpoint()
    victim = max(
        (seq, seg) for seg, live, seq in ld.usage.dirty_segments() if live
    )[1]
    disk.injector.add_media_fault(MediaFault(victim, "corrupt"))
    report = ld.scrub([victim])
    assert report.blocks_salvaged > 0 and report.blocks_lost == 0
    for block in rng.sample(blocks, 30):
        ld.write(block, b"after scrub" * 50)
    ld.flush()
    survivor = disk.power_cycle()
    restored, _report = recover(survivor, mode="instant", config=CLEANER_CONFIG)
    restored.read(blocks[3])
    restored.write(blocks[4], b"restored" * 64)
    restored.write_checkpoint()
    return [(disk, ld.meter), (survivor, restored.meter)]


def charge_stream_sha256(run, monkeypatch):
    """SHA-256 of every charge ``run`` makes, in order: one line of
    ``category count lanes`` each, recorded before the meter sees it
    (the recorder is in place before the volume is built)."""
    digest = hashlib.sha256()
    charge = CostMeter.charge

    def recording(meter, category, count=1, lanes=1):
        digest.update(f"{category} {count!r} {lanes!r}\n".encode())
        charge(meter, category, count, lanes)

    monkeypatch.setattr(CostMeter, "charge", recording)
    run()
    return digest.hexdigest()


def platter_sha256(disk):
    """SHA-256 over segment number then bytes, in segment order."""
    digest = hashlib.sha256()
    for seg, raw in sorted(platter_bytes(disk).items()):
        digest.update(seg.to_bytes(4, "little"))
        digest.update(raw)
    return digest.hexdigest()


def members(run):
    """Per member disk: the clock, the meter, writes and the platter;
    and, apart, the meter's charged microseconds."""
    pinned, charged = [], []
    for disk, meter in run():
        pinned.append(
            (
                disk.clock.now_us.hex(),
                meter.counters,
                disk.write_count,
                platter_sha256(disk),
            )
        )
        charged.append(meter.charged_us)
    return pinned, charged


#: name -> (run, clock.now_us.hex(), meter.counters) at the end of it.
PINS = {
    "reads_and_writes": (
        reads_and_writes,
        "0x1.c0cc50e38e37cp+21",
        {
            "block_copy_us": 203,
            "block_read_us": 355,
            "chain_hop_us": 882,
            "ld_call_us": 724,
            "record_create_us": 336,
            "record_transition_us": 336,
            "summary_entry_us": 527,
            "table_access_us": 866,
            "writeback_us": 14,
        },
    ),
    "aru_wave": (
        aru_wave,
        "0x1.3e74ce38e38e4p+18",
        {
            "aru_alloc_us": 8,
            "aru_begin_us": 24,
            "aru_commit_us": 18,
            "block_copy_us": 233,
            "block_dealloc_us": 7,
            "block_read_us": 210,
            "chain_hop_us": 890,
            "ld_call_us": 485,
            "listop_log_us": 12,
            "listop_replay_us": 10,
            "record_create_us": 307,
            "record_transition_us": 307,
            "summary_entry_us": 271,
            "table_access_us": 533,
        },
    ),
    "minixfs_cycle": (
        minixfs_cycle,
        "0x1.a1d5038e38e3ap+18",
        {
            "aru_alloc_us": 44,
            "aru_begin_us": 62,
            "aru_commit_us": 62,
            "block_copy_us": 332,
            "block_dealloc_us": 20,
            "block_read_us": 246,
            "chain_hop_us": 1503,
            "dirent_scan_us": 5950,
            "fs_call_us": 143,
            "ld_call_us": 713,
            "listop_log_us": 42,
            "listop_replay_us": 42,
            "record_create_us": 307,
            "record_transition_us": 307,
            "summary_entry_us": 442,
            "table_access_us": 876,
        },
    ),
    "sequential_arus": (
        sequential_arus,
        "0x1.420eb1c71c71cp+17",
        {
            "aru_begin_us": 12,
            "aru_commit_us": 12,
            "block_copy_us": 72,
            "block_dealloc_us": 4,
            "block_read_us": 48,
            "chain_hop_us": 383,
            "ld_call_us": 191,
            "pred_search_step_us": 78,
            "summary_entry_us": 161,
            "table_access_us": 537,
        },
    ),
    "newest_shadow_reads": (
        newest_shadow_reads,
        "0x1.4fe3b1c71c71cp+17",
        {
            "aru_alloc_us": 12,
            "aru_begin_us": 12,
            "aru_commit_us": 9,
            "block_copy_us": 100,
            "block_read_us": 105,
            "chain_hop_us": 1161,
            "ld_call_us": 241,
            "listop_log_us": 12,
            "listop_replay_us": 9,
            "record_create_us": 132,
            "record_transition_us": 132,
            "summary_entry_us": 115,
            "table_access_us": 234,
        },
    ),
    "committed_only_reads": (
        committed_only_reads,
        "0x1.4eb371c71c71cp+17",
        {
            "aru_alloc_us": 12,
            "aru_begin_us": 12,
            "aru_commit_us": 9,
            "block_copy_us": 100,
            "block_read_us": 105,
            "chain_hop_us": 754,
            "ld_call_us": 241,
            "listop_log_us": 12,
            "listop_replay_us": 9,
            "record_create_us": 132,
            "record_transition_us": 132,
            "summary_entry_us": 115,
            "table_access_us": 236,
        },
    ),
}


#: name -> (run, per member: (clock.now_us.hex(), meter.counters,
#: write_count, platter SHA-256)).
ARRAY_MEMBER_COUNTERS = {
    "aru_begin_us": 30,
    "aru_commit_us": 30,
    "block_copy_us": 204,
    "chain_hop_us": 168,
    "ld_call_us": 326,
    "record_create_us": 208,
    "record_transition_us": 208,
    "summary_entry_us": 226,
    "table_access_us": 304,
}
#: Both members of :func:`cleaner_checkpoints` are one platter.
CLEANER_PLATTER = "8fcd2c911d486bc7c3c088b48b46307c1f1c68cd194749d8783d06d1e4d297e3"
ARRAY_MEMBER_CHARGED_US = {
    "aru_begin_us": 540.0,
    "aru_commit_us": 900.0,
    "block_copy_us": 11220.0,
    "chain_hop_us": 252.0,
    "ld_call_us": 652.0,
    "record_create_us": 1664.0,
    "record_transition_us": 1248.0,
    "summary_entry_us": 678.0,
    "table_access_us": 304.0,
}
#: :func:`unreplicated_array`'s members, before the cut and after the
#: recovery: (clock, write_count, platter SHA-256).  The recovered
#: members run on the survivors of the same platters and clocks.
UNREPLICATED_MEMBERS = [
    [
        (
            "0x1.e99b7e9c71c80p+20",
            42,
            "edd0291352faa823c2e4394cd38a927f910ea2c1761093df129f8b6f3952ddc8",
        ),
        (
            "0x1.e99b9e9c71c80p+20",
            23,
            "681040b49163b514686b3faac1a3a87bde3a6d25229af4f8042206e41056b69a",
        ),
        (
            "0x1.e99bbe9c71c80p+20",
            29,
            "690d8488b5be48a898114dc8ab46a35823ed6fc47924471999968e8d82fd6438",
        ),
    ],
    [
        (
            "0x1.e99b7e9c71c80p+20",
            18,
            "edd0291352faa823c2e4394cd38a927f910ea2c1761093df129f8b6f3952ddc8",
        ),
        (
            "0x1.e99b9e9c71c80p+20",
            12,
            "681040b49163b514686b3faac1a3a87bde3a6d25229af4f8042206e41056b69a",
        ),
        (
            "0x1.e99bbe9c71c80p+20",
            14,
            "690d8488b5be48a898114dc8ab46a35823ed6fc47924471999968e8d82fd6438",
        ),
    ],
]
UNREPLICATED_COUNTERS = [
    [
        {
            "aru_begin_us": 12,
            "aru_commit_us": 12,
            "block_copy_us": 50,
            "chain_hop_us": 70,
            "ld_call_us": 123,
            "record_create_us": 52,
            "record_transition_us": 52,
            "summary_entry_us": 80,
            "table_access_us": 92,
        },
        {
            "aru_begin_us": 12,
            "aru_commit_us": 12,
            "block_copy_us": 50,
            "chain_hop_us": 76,
            "ld_call_us": 89,
            "record_create_us": 51,
            "record_transition_us": 51,
            "summary_entry_us": 64,
            "table_access_us": 92,
        },
        {
            "aru_begin_us": 14,
            "aru_commit_us": 14,
            "block_copy_us": 50,
            "chain_hop_us": 70,
            "ld_call_us": 99,
            "record_create_us": 52,
            "record_transition_us": 52,
            "summary_entry_us": 66,
            "table_access_us": 92,
        },
    ],
    [
        {
            "aru_begin_us": 6,
            "aru_commit_us": 6,
            "block_copy_us": 18,
            "crc_kb_us": 46.63671875,
            "decode_entry_us": 26,
            "ld_call_us": 48,
            "record_create_us": 18,
            "record_transition_us": 18,
            "summary_entry_us": 23,
            "table_access_us": 18,
        },
        {
            "aru_begin_us": 6,
            "aru_commit_us": 6,
            "block_copy_us": 16,
            "crc_kb_us": 41.328125,
            "decode_entry_us": 16,
            "ld_call_us": 33,
            "record_create_us": 16,
            "record_transition_us": 16,
            "summary_entry_us": 14,
            "table_access_us": 16,
        },
        {
            "aru_begin_us": 8,
            "aru_commit_us": 8,
            "block_copy_us": 26,
            "crc_kb_us": 37.271484375,
            "decode_entry_us": 15,
            "ld_call_us": 44,
            "record_create_us": 26,
            "record_transition_us": 26,
            "summary_entry_us": 21,
            "table_access_us": 26,
        },
    ],
]
#: :func:`replica_upkeep`'s members at the end, shard order, then the
#: member lost after the resync: (clock, meter.counters, write_count,
#: platter SHA-256), and apart, ``meter.charged_us``.
REPLICA_UPKEEP_MEMBERS = [
    (
        "0x1.a09efe2aaaab1p+21",
        {
            "block_copy_us": 11,
            "block_read_us": 30,
            "crc_kb_us": 1670.720703125,
            "decode_entry_us": 389,
            "ld_call_us": 52,
            "record_create_us": 12,
            "record_transition_us": 12,
            "summary_entry_us": 12,
            "table_access_us": 36,
        },
        4,
        "6777d641e31447677b76a0bda122b82e4b1dd84cb66bc021085edcdff0362140",
    ),
    (
        "0x1.9a047ff1c71cdp+21",
        {
            "block_copy_us": 20,
            "block_read_us": 6,
            "chain_hop_us": 188,
            "crc_kb_us": 128.0,
            "decode_entry_us": 64,
            "ld_call_us": 53,
            "record_create_us": 24,
            "record_transition_us": 24,
            "summary_entry_us": 64,
            "table_access_us": 136,
        },
        1,
        "558a5df724e33d68ee4a1971e72d7276e87bd2aa529905f0102901bbbaebc897",
    ),
    (
        "0x1.9a048ff1c71cdp+21",
        {
            "block_copy_us": 5,
            "block_dealloc_us": 5,
            "block_read_us": 30,
            "chain_hop_us": 67,
            "crc_kb_us": 394.095703125,
            "decode_entry_us": 170,
            "ld_call_us": 52,
            "record_create_us": 7,
            "record_transition_us": 7,
            "summary_entry_us": 18,
            "table_access_us": 76,
        },
        2,
        "9b6f94702f2007a9a18959d66ec55e808c01d4b2f524fe7fa2b8694ac7c8c7e4",
    ),
    (
        "0x1.0237122aaaaaep+21",
        {
            "block_copy_us": 1,
            "block_read_us": 20,
            "chain_hop_us": 1,
            "crc_kb_us": 134.671875,
            "decode_entry_us": 88,
            "ld_call_us": 27,
            "record_create_us": 1,
            "record_transition_us": 1,
            "summary_entry_us": 1,
            "table_access_us": 20,
        },
        2,
        "2dc8eb4621824bb895acc0302d180e815301264a863e3032bd925b0d23ad31aa",
    ),
]
REPLICA_UPKEEP_CHARGED_US = [
    {
        "block_copy_us": 605.0,
        "block_read_us": 1200.0,
        "crc_kb_us": 64134.4140625,
        "decode_entry_us": 778.0,
        "ld_call_us": 104.0,
        "record_create_us": 96.0,
        "record_transition_us": 72.0,
        "summary_entry_us": 36.0,
        "table_access_us": 36.0,
    },
    {
        "block_copy_us": 1100.0,
        "block_read_us": 240.0,
        "chain_hop_us": 282.0,
        "crc_kb_us": 5120.0,
        "decode_entry_us": 128.0,
        "ld_call_us": 106.0,
        "record_create_us": 192.0,
        "record_transition_us": 144.0,
        "summary_entry_us": 192.0,
        "table_access_us": 136.0,
    },
    {
        "block_copy_us": 275.0,
        "block_dealloc_us": 75.0,
        "block_read_us": 1200.0,
        "chain_hop_us": 100.5,
        "crc_kb_us": 13001.9140625,
        "decode_entry_us": 340.0,
        "ld_call_us": 104.0,
        "record_create_us": 56.0,
        "record_transition_us": 42.0,
        "summary_entry_us": 54.0,
        "table_access_us": 76.0,
    },
    {
        "block_copy_us": 55.0,
        "block_read_us": 800.0,
        "chain_hop_us": 1.5,
        "crc_kb_us": 2693.4375,
        "decode_entry_us": 176.0,
        "ld_call_us": 54.0,
        "record_create_us": 8.0,
        "record_transition_us": 6.0,
        "summary_entry_us": 3.0,
        "table_access_us": 20.0,
    },
]
PLATTER_PINS = {
    "replicated_array": (
        replicated_array,
        [
            (
                "0x1.dada8aaaaaab2p+20",
                ARRAY_MEMBER_COUNTERS,
                96,
                "8f89228b8a8abdf61ce33b6937a384d8c644977ffac5da8b2056b60dd4447007",
            ),
            (
                "0x1.dadaaaaaaaab2p+20",
                ARRAY_MEMBER_COUNTERS,
                96,
                "91ee97abc79622f8a33737772d0704c2bb191055fe28ba648bc9dead20f5cde1",
            ),
        ],
    ),
    "unreplicated_array": (
        unreplicated_array,
        [
            (clock, UNREPLICATED_COUNTERS[when][shard], writes, platter)
            for when, per_shard in enumerate(UNREPLICATED_MEMBERS)
            for shard, (clock, writes, platter) in enumerate(per_shard)
        ],
    ),
    "replica_upkeep": (replica_upkeep, REPLICA_UPKEEP_MEMBERS),
    "jld_apply": (
        jld_apply,
        [
            (
                "0x1.78f338e38e393p+20",
                {
                    "aru_begin_us": 4,
                    "aru_commit_us": 4,
                    "block_copy_us": 138,
                    "block_read_us": 8,
                    "chain_hop_us": 260,
                    "ld_call_us": 125,
                    "record_create_us": 103,
                    "record_transition_us": 103,
                    "summary_entry_us": 149,
                    "table_access_us": 241,
                },
                68,
                "e41d7cf7a9c6e0084bd35c439ff7624569ae6bcef53118be49b5fe8942f66390",
            ),
        ],
    ),
    "cleaner_checkpoints": (
        cleaner_checkpoints,
        [
            (
                "0x1.501cc9b871c61p+23",
                {
                    "aru_alloc_us": 24,
                    "aru_begin_us": 24,
                    "aru_commit_us": 24,
                    "block_copy_us": 1954,
                    "block_dealloc_us": 24,
                    "chain_hop_us": 1684,
                    "crc_kb_us": 7040.0,
                    "decode_entry_us": 2133,
                    "ld_call_us": 1749,
                    "listop_log_us": 24,
                    "listop_replay_us": 24,
                    "record_create_us": 1717,
                    "record_transition_us": 1717,
                    "summary_entry_us": 2554,
                    "table_access_us": 2653,
                },
                158,
                CLEANER_PLATTER,
            ),
            (
                "0x1.501cc9b871c61p+23",
                {
                    "block_copy_us": 1,
                    "block_read_us": 1,
                    "crc_kb_us": 0.4638671875,
                    "decode_entry_us": 15,
                    "ld_call_us": 3,
                    "record_create_us": 1,
                    "record_transition_us": 1,
                    "summary_entry_us": 1,
                    "table_access_us": 1,
                },
                2,
                CLEANER_PLATTER,
            ),
        ],
    ),
}

#: name -> ``meter.charged_us`` at the end of the run (the
#: ``stats()["cpu_us"]`` the benchmark's probe sums); for a platter
#: pin, one per member.
CHARGED_US = {
    "reads_and_writes": {
        "block_copy_us": 11165.0,
        "block_read_us": 14200.0,
        "chain_hop_us": 1323.0,
        "ld_call_us": 1448.0,
        "record_create_us": 2688.0,
        "record_transition_us": 2016.0,
        "summary_entry_us": 1581.0,
        "table_access_us": 866.0,
        "writeback_us": 96.0,
    },
    "aru_wave": {
        "aru_alloc_us": 640.0,
        "aru_begin_us": 432.0,
        "aru_commit_us": 540.0,
        "block_copy_us": 12815.0,
        "block_dealloc_us": 105.0,
        "block_read_us": 8400.0,
        "chain_hop_us": 1335.0,
        "ld_call_us": 970.0,
        "listop_log_us": 36.0,
        "listop_replay_us": 60.0,
        "record_create_us": 2456.0,
        "record_transition_us": 1842.0,
        "summary_entry_us": 813.0,
        "table_access_us": 533.0,
    },
    "minixfs_cycle": {
        "aru_alloc_us": 3520.0,
        "aru_begin_us": 1116.0,
        "aru_commit_us": 1860.0,
        "block_copy_us": 18260.0,
        "block_dealloc_us": 300.0,
        "block_read_us": 9840.0,
        "chain_hop_us": 2254.5,
        "dirent_scan_us": 2975.0,
        "fs_call_us": 3575.0,
        "ld_call_us": 1426.0,
        "listop_log_us": 126.0,
        "listop_replay_us": 252.0,
        "record_create_us": 2456.0,
        "record_transition_us": 1842.0,
        "summary_entry_us": 1326.0,
        "table_access_us": 876.0,
    },
    "sequential_arus": {
        "aru_begin_us": 216.0,
        "aru_commit_us": 360.0,
        "block_copy_us": 3960.0,
        "block_dealloc_us": 60.0,
        "block_read_us": 1920.0,
        "chain_hop_us": 574.5,
        "ld_call_us": 382.0,
        "pred_search_step_us": 312.0,
        "summary_entry_us": 483.0,
        "table_access_us": 537.0,
    },
    "newest_shadow_reads": {
        "aru_alloc_us": 960.0,
        "aru_begin_us": 216.0,
        "aru_commit_us": 270.0,
        "block_copy_us": 5500.0,
        "block_read_us": 4200.0,
        "chain_hop_us": 1741.5,
        "ld_call_us": 482.0,
        "listop_log_us": 36.0,
        "listop_replay_us": 54.0,
        "record_create_us": 1056.0,
        "record_transition_us": 792.0,
        "summary_entry_us": 345.0,
        "table_access_us": 234.0,
    },
    "committed_only_reads": {
        "aru_alloc_us": 960.0,
        "aru_begin_us": 216.0,
        "aru_commit_us": 270.0,
        "block_copy_us": 5500.0,
        "block_read_us": 4200.0,
        "chain_hop_us": 1131.0,
        "ld_call_us": 482.0,
        "listop_log_us": 36.0,
        "listop_replay_us": 54.0,
        "record_create_us": 1056.0,
        "record_transition_us": 792.0,
        "summary_entry_us": 345.0,
        "table_access_us": 236.0,
    },
    "replicated_array": [ARRAY_MEMBER_CHARGED_US, ARRAY_MEMBER_CHARGED_US],
    "replica_upkeep": REPLICA_UPKEEP_CHARGED_US,
    "unreplicated_array": [
        {
            "aru_begin_us": 216.0,
            "aru_commit_us": 360.0,
            "block_copy_us": 2750.0,
            "chain_hop_us": 105.0,
            "ld_call_us": 246.0,
            "record_create_us": 416.0,
            "record_transition_us": 312.0,
            "summary_entry_us": 240.0,
            "table_access_us": 92.0,
        },
        {
            "aru_begin_us": 216.0,
            "aru_commit_us": 360.0,
            "block_copy_us": 2750.0,
            "chain_hop_us": 114.0,
            "ld_call_us": 178.0,
            "record_create_us": 408.0,
            "record_transition_us": 306.0,
            "summary_entry_us": 192.0,
            "table_access_us": 92.0,
        },
        {
            "aru_begin_us": 252.0,
            "aru_commit_us": 420.0,
            "block_copy_us": 2750.0,
            "chain_hop_us": 105.0,
            "ld_call_us": 198.0,
            "record_create_us": 416.0,
            "record_transition_us": 312.0,
            "summary_entry_us": 198.0,
            "table_access_us": 92.0,
        },
        {
            "aru_begin_us": 108.0,
            "aru_commit_us": 180.0,
            "block_copy_us": 990.0,
            "crc_kb_us": 1865.46875,
            "decode_entry_us": 52.0,
            "ld_call_us": 96.0,
            "record_create_us": 144.0,
            "record_transition_us": 108.0,
            "summary_entry_us": 69.0,
            "table_access_us": 18.0,
        },
        {
            "aru_begin_us": 108.0,
            "aru_commit_us": 180.0,
            "block_copy_us": 880.0,
            "crc_kb_us": 1653.125,
            "decode_entry_us": 32.0,
            "ld_call_us": 66.0,
            "record_create_us": 128.0,
            "record_transition_us": 96.0,
            "summary_entry_us": 42.0,
            "table_access_us": 16.0,
        },
        {
            "aru_begin_us": 144.0,
            "aru_commit_us": 240.0,
            "block_copy_us": 1430.0,
            "crc_kb_us": 1490.859375,
            "decode_entry_us": 30.0,
            "ld_call_us": 88.0,
            "record_create_us": 208.0,
            "record_transition_us": 156.0,
            "summary_entry_us": 63.0,
            "table_access_us": 26.0,
        },
    ],
    "cleaner_checkpoints": [
        {
            "aru_alloc_us": 1920.0,
            "aru_begin_us": 432.0,
            "aru_commit_us": 720.0,
            "block_copy_us": 107470.0,
            "block_dealloc_us": 360.0,
            "chain_hop_us": 2526.0,
            "crc_kb_us": 281600.0,
            "decode_entry_us": 4266.0,
            "ld_call_us": 3498.0,
            "listop_log_us": 72.0,
            "listop_replay_us": 144.0,
            "record_create_us": 13736.0,
            "record_transition_us": 10302.0,
            "summary_entry_us": 7662.0,
            "table_access_us": 2653.0,
        },
        {
            "block_copy_us": 55.0,
            "block_read_us": 40.0,
            "crc_kb_us": 18.5546875,
            "decode_entry_us": 30.0,
            "ld_call_us": 6.0,
            "record_create_us": 8.0,
            "record_transition_us": 6.0,
            "summary_entry_us": 3.0,
            "table_access_us": 1.0,
        },
    ],
    "jld_apply": [
        {
            "aru_begin_us": 72.0,
            "aru_commit_us": 120.0,
            "block_copy_us": 7590.0,
            "block_read_us": 320.0,
            "chain_hop_us": 390.0,
            "ld_call_us": 250.0,
            "record_create_us": 824.0,
            "record_transition_us": 618.0,
            "summary_entry_us": 447.0,
            "table_access_us": 241.0,
        },
    ],
}

#: name -> :func:`charge_stream_sha256` of the run.  The default
#: model's units are multiples of 0.5 µs, so two CPU charges swapped
#: between disk requests usually leave the clock bit-identical; the
#: stream does not.
CHARGE_STREAMS = {
    "reads_and_writes": "885a2268e279f57549853229f869959fa837a10d6f5af093ccbf8badbe5285b2",
    "aru_wave": "4cac3afc1589bb9fde32652481d7cc9703fe1e513b20cee843c9aa6c9d15863e",
    "minixfs_cycle": "a573270b145d4b21860a1384cf68f4ef1571537f5e92f52beb7dbf43e7031b80",
    "sequential_arus": "b1ec93ec740d1cc61edd88b56674a38ead391d116173999bd9c470c395ccbaef",
    "newest_shadow_reads": "0a03854b6b10e781537a6b7bd6f95c0d93e1798f13634cf2142521c0e3cdd68b",
    "committed_only_reads": "1c6eaa48d528188cf42b2a431a671a63711a470dfd473cb422410c62bd77fccf",
}


def check(name):
    run, now_hex, counters = PINS[name]
    clock, meter = run()
    assert clock.now_us.hex() == now_hex
    assert meter.counters == counters
    assert meter.charged_us == CHARGED_US[name]


def test_reads_and_writes():
    check("reads_and_writes")


def test_aru_wave():
    check("aru_wave")


def test_minixfs_cycle():
    check("minixfs_cycle")


def test_sequential_arus():
    check("sequential_arus")


def test_newest_shadow_reads():
    check("newest_shadow_reads")


def test_committed_only_reads():
    check("committed_only_reads")


def check_platter(name):
    run, want = PLATTER_PINS[name]
    pinned, charged = members(run)
    assert pinned == want
    assert charged == CHARGED_US[name]


def test_replicated_array_platter():
    check_platter("replicated_array")


def test_unreplicated_array_platter():
    check_platter("unreplicated_array")


def test_replica_upkeep_platter():
    check_platter("replica_upkeep")


def test_jld_apply_platter():
    check_platter("jld_apply")


def test_cleaner_checkpoints_platter():
    check_platter("cleaner_checkpoints")


@pytest.mark.parametrize("name", sorted(CHARGE_STREAMS))
def test_charge_stream(name, monkeypatch):
    run = PINS[name][0]
    assert charge_stream_sha256(run, monkeypatch) == CHARGE_STREAMS[name]
