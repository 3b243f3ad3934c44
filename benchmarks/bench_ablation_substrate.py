"""Ablation E — log-structured vs journaling substrates.

Section 5.4 of the paper: other LD implementations "will have to
utilize at least a meta-data update log" to support ARUs.  JLD
(:mod:`repro.jld`) is that implementation — overwrite-in-place homes
plus a redo journal.  Running the paper's workloads on both
substrates shows the trade the paper's log-structured choice makes:

* **writes** — LLD writes data once, sequentially; JLD writes the
  journal *and* the home locations (double writes, random seeks),
  so LLD wins the write-heavy phases;
* **read3** (sequential read after a random rewrite) — the classic
  LFS weakness: LLD's log scatters the file, JLD's fixed homes keep
  it contiguous, so JLD wins there.
"""

import pytest

from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.fs import MinixFS
from repro.harness.reporting import format_table
from repro.jld import JLD
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.workloads.largefile import run_large_file
from repro.workloads.smallfile import run_small_files

from benchmarks.conftest import full_scale, report_table

FILE_SIZE = (32 if full_scale() else 8) * 1024 * 1024
N_SMALL = 2000 if full_scale() else 400

_RESULTS = {}


def build_fs(substrate: str, num_segments: int, n_inodes: int):
    geo = DiskGeometry(
        block_size=4096, segment_size=256 * 1024, num_segments=num_segments
    )
    disk = SimulatedDisk(geo)
    if substrate == "lld":
        ld = LLD(
            disk,
            config=LLDConfig(checkpoint_slot_segments=2, cache_blocks=512),
        )
    else:
        ld = JLD(
            disk,
            journal_segments=16,
            checkpoint_slot_segments=2,
            cache_blocks=512,
        )
    return MinixFS.mkfs(ld, n_inodes=n_inodes)


def run_substrate(substrate: str) -> dict:
    fs = build_fs(substrate, num_segments=FILE_SIZE // (256 * 1024) * 3, n_inodes=64)
    large = run_large_file(fs, file_size=FILE_SIZE)
    fs_small = build_fs(substrate, num_segments=192, n_inodes=N_SMALL + 128)
    small = run_small_files(fs_small, n_files=N_SMALL, file_size=1024)
    return {
        "write1": large.phase("write1"),
        "read1": large.phase("read1"),
        "write2": large.phase("write2"),
        "read2": large.phase("read2"),
        "read3": large.phase("read3"),
        "smallfile_cw_fps": small.create_write_fps,
        "smallfile_d_fps": small.delete_fps,
    }


@pytest.mark.benchmark(group="ablation-substrate")
@pytest.mark.parametrize("substrate", ["lld", "jld"])
def test_substrate(benchmark, substrate):
    result = benchmark.pedantic(
        lambda: run_substrate(substrate), rounds=1, iterations=1
    )
    _RESULTS[substrate] = result
    for key, value in result.items():
        benchmark.extra_info[key] = round(value, 3)
    if len(_RESULTS) == 2:
        table = format_table(
            "Ablation E — log-structured (LLD) vs journaling (JLD) "
            "substrate, same FS and ARU semantics",
            ["write1", "read1", "write2", "read2", "read3", "C+W f/s"],
            {
                name: [
                    values["write1"],
                    values["read1"],
                    values["write2"],
                    values["read2"],
                    values["read3"],
                    values["smallfile_cw_fps"],
                ]
                for name, values in sorted(_RESULTS.items())
            },
            unit="MB/s (phases), files/s (C+W)",
            precision=3,
        )
        report_table("ablation_substrate", table)
        lld_result = _RESULTS["lld"]
        jld_result = _RESULTS["jld"]
        # The log absorbs writes: LLD wins the write phases.
        assert lld_result["write1"] > jld_result["write1"]
        assert lld_result["write2"] > jld_result["write2"]
        # Fixed homes keep read locality after random rewrites: JLD
        # wins read3 (the LFS weakness).
        assert jld_result["read3"] > 2 * lld_result["read3"]
