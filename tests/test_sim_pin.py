"""Pins on the simulated clock: three small deterministic runs.

Each run ends by checking ``clock.now_us.hex()`` and the meter's
per-category ``counters`` against constants.  The constants were
captured on the source *before* the change that removed per-call host
work from ``CostMeter.charge``, ``PhysAddr``, the LLD read path and
``ReadStream``, and that change left every one of them in place.  A
later change meant to cost only host wall time must keep them too; a
change that moves simulated time on purpose updates them and says
why.

The runs are small (a few hundred LD operations each) and cover what
the ledger's single-volume workloads charge: cache misses streamed
from the head and read ahead, reads through every version state, an
eight-ARU wave with aborts and a deleting ARU, and a MinixFS
create/read/unlink cycle.

Two more runs pin the platter as well as the clock: a replicated
two-shard array committing cross-shard ARUs, and a JLD applying its
journal to home locations.  Their flushes, home writes and checkpoint
tails are written in place, so they pin what ``SimulatedDisk.write_at``
leaves on the platter.  For every member disk they check the clock,
the meter, ``write_count`` and the SHA-256 of the platter (segment
number, then bytes, in segment order); those constants were captured
before the platter became writable in place.
"""

import hashlib
import random

from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.fs import MinixFS
from repro.jld import JLD
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.shard import ArrayConfig, build_sharded

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


def platter_sha256(disk):
    """SHA-256 over segment number then bytes, in segment order."""
    digest = hashlib.sha256()
    for seg, raw in sorted(platter_bytes(disk).items()):
        digest.update(seg.to_bytes(4, "little"))
        digest.update(raw)
    return digest.hexdigest()


def members(run):
    """Per member disk: the clock, the meter, writes and the platter."""
    return [
        (
            disk.clock.now_us.hex(),
            meter.counters,
            disk.write_count,
            platter_sha256(disk),
        )
        for disk, meter in run()
    ]


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
}


def check(name):
    run, now_hex, counters = PINS[name]
    clock, meter = run()
    assert clock.now_us.hex() == now_hex
    assert meter.counters == counters


def test_reads_and_writes():
    check("reads_and_writes")


def test_aru_wave():
    check("aru_wave")


def test_minixfs_cycle():
    check("minixfs_cycle")


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
    "jld_apply": (
        jld_apply,
        [
            (
                "0x1.7463c00000005p+20",
                {
                    "aru_begin_us": 4,
                    "aru_commit_us": 4,
                    "block_copy_us": 138,
                    "block_read_us": 8,
                    "ld_call_us": 125,
                    "record_create_us": 16,
                    "record_transition_us": 16,
                    "summary_entry_us": 149,
                    "table_access_us": 225,
                },
                68,
                "842179071f8eae2f0e56948d9d97a9ce0f84bbcb81296b13fc26f4fd35f462c3",
            ),
        ],
    ),
}


def test_replicated_array_platter():
    run, want = PLATTER_PINS["replicated_array"]
    assert members(run) == want


def test_jld_apply_platter():
    run, want = PLATTER_PINS["jld_apply"]
    assert members(run) == want
