"""Ablation C — segment-cleaner policy under overwrite pressure.

The paper inherits LLD's segment cleaner (Section 2) without
evaluating it; this ablation compares the two classic policies on a
nearly-full partition under uniform random overwrites: greedy
(fewest live blocks) vs cost-benefit (LFS's age-weighted score).
Reported: simulated time, cleaner passes, blocks copied (write
amplification).
"""

import pytest

from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.harness.reporting import format_table
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.workloads.generator import overwrite_pressure

from benchmarks.conftest import full_scale, report_table

N_WRITES = 24_000 if full_scale() else 8_000
_RESULTS = {}


def run_policy(policy: str, skewed: bool) -> dict:
    geo = DiskGeometry.small(num_segments=64)
    disk = SimulatedDisk(geo)
    lld = LLD(
        disk,
        config=LLDConfig(
            cleaner_policy=policy,
            checkpoint_slot_segments=1,
            clean_low_water=5,
            clean_high_water=14,
        ),
    )
    # Working set ~55 % of the partition's data capacity.
    working_set = int(geo.max_data_blocks * (geo.num_segments - 2) * 0.55)
    # Skewed: 90 % of writes hit 10 % of the blocks — the hot/cold
    # split where segment age carries signal.
    hot_kwargs = (
        {"hot_fraction": 0.1, "hot_weight": 0.9} if skewed else {}
    )
    blocks = overwrite_pressure(
        lld,
        working_set_blocks=working_set,
        n_writes=N_WRITES,
        seed=17,
        **hot_kwargs,
    )
    # Verify no data was harmed by cleaning.
    for index in (0, len(blocks) // 2, len(blocks) - 1):
        assert lld.read(blocks[index]).startswith(f"block-{index}-".encode())
    copied = lld.meter.counters.get("block_copy_us", 0)
    return {
        "sim_seconds": lld.clock.now_s,
        "cleanings": lld.cleanings,
        "segments_flushed": lld.segments_flushed,
        "blocks_copied_proxy": copied,
    }


@pytest.mark.benchmark(group="ablation-cleaner")
@pytest.mark.parametrize("workload", ["uniform", "hot_cold"])
@pytest.mark.parametrize("policy", ["greedy", "cost_benefit"])
def test_cleaner_policy(benchmark, policy, workload):
    stats = benchmark.pedantic(
        lambda: run_policy(policy, skewed=workload == "hot_cold"),
        rounds=1,
        iterations=1,
    )
    _RESULTS[(workload, policy)] = stats
    for key, value in stats.items():
        benchmark.extra_info[key] = round(value, 2)
    assert stats["cleanings"] > 0, "workload failed to trigger the cleaner"
    if len(_RESULTS) == 4:
        table = format_table(
            "Ablation C — cleaner policy vs workload skew "
            f"({N_WRITES} writes, 55% utilization; hot/cold = 90% of "
            "writes to 10% of blocks)",
            ["sim seconds", "cleanings", "segments flushed"],
            {
                f"{workload_name}/{policy_name}": [
                    result["sim_seconds"],
                    float(result["cleanings"]),
                    float(result["segments_flushed"]),
                ]
                for (workload_name, policy_name), result in sorted(
                    _RESULTS.items()
                )
            },
        )
        report_table("ablation_cleaner", table)
