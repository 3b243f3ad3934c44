"""Ablation G — JLD journal-ring sizing.

A journaling LD's journal plays the role LLD's whole log plays: too
small and the apply/checkpoint machinery thrashes (every few
operations force home writes); big enough and applies amortize.
This sweep runs the small-file workload over journal ring sizes and
reports throughput and apply pressure — and, with it, the largest
ARU each configuration can commit (transactions are journal-bounded,
unlike LLD's).
"""

import pytest

from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.fs import MinixFS
from repro.harness.reporting import format_table
from repro.jld import JLD, JournalFullError
from repro.ld.types import FIRST
from repro.workloads.smallfile import run_small_files

from benchmarks.conftest import full_scale, report_table

JOURNAL_SEGMENTS = [2, 4, 8, 16, 32]
N_FILES = 1200 if full_scale() else 300


def build(journal_segments: int) -> JLD:
    geo = DiskGeometry(
        block_size=4096, segment_size=128 * 1024, num_segments=640
    )
    return JLD(
        SimulatedDisk(geo),
        journal_segments=journal_segments,
        checkpoint_slot_segments=2,
    )


def commits(journal_segments: int, size: int) -> bool:
    """True when one ARU that writes ``size`` whole blocks commits."""
    jld = build(journal_segments)
    lst = jld.new_list()
    blocks = []
    previous = FIRST
    for _ in range(size):
        previous = jld.new_block(lst, predecessor=previous)
        blocks.append(previous)
    jld.apply()
    aru = jld.begin_aru()
    for block in blocks:
        jld.write(block, b"x" * 4096, aru=aru)
    try:
        jld.end_aru(aru)
    except JournalFullError:
        return False
    return True


def largest_commitable_aru(journal_segments: int) -> int:
    """The most blocks one ARU can write and still commit: shadow
    writes never fill the ring, so only a returned ``end_aru`` counts.
    Commitability is monotone in the size, so bisect."""
    low, high = 0, journal_segments * 40
    while commits(journal_segments, high):
        low, high = high, 2 * high
    while high - low > 1:
        middle = (low + high) // 2
        if commits(journal_segments, middle):
            low = middle
        else:
            high = middle
    return low


@pytest.mark.benchmark(group="ablation-journal")
def test_journal_size_sweep(benchmark):
    def run():
        rows = {
            "C+W (files/s)": [],
            "applies": [],
            "home writes": [],
            "max ARU (blocks)": [],
        }
        for segments in JOURNAL_SEGMENTS:
            jld = build(segments)
            fs = MinixFS.mkfs(jld, n_inodes=N_FILES + 64)
            result = run_small_files(fs, N_FILES, 1024)
            rows["C+W (files/s)"].append(result.create_write_fps)
            rows["applies"].append(float(jld.applies))
            rows["home writes"].append(float(jld.home_writes))
            rows["max ARU (blocks)"].append(
                float(largest_commitable_aru(segments))
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        f"Ablation G — JLD journal sizing ({N_FILES} x 1 KB files; "
        "128 KB journal segments)",
        [f"{segments} segs" for segments in JOURNAL_SEGMENTS],
        rows,
    )
    report_table("ablation_journal", table)
    benchmark.extra_info["max_aru_2segs"] = rows["max ARU (blocks)"][0]
    benchmark.extra_info["max_aru_32segs"] = rows["max ARU (blocks)"][-1]
    # Bigger journals mean fewer forced apply passes ...
    assert rows["applies"][0] >= rows["applies"][-1]
    # ... and strictly larger commitable transactions.
    max_arus = rows["max ARU (blocks)"]
    assert max_arus == sorted(max_arus)
    assert max_arus[-1] > max_arus[0]
