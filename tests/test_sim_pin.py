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
"""

import random

from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.fs import MinixFS
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD


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
