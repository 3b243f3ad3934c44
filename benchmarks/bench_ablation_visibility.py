"""Ablation A — the cost of the three read-visibility options.

Section 3.3 defines three Read-visibility policies and the paper
implements option 3 (ARU-local) because, while the most complex, it
makes the honest test case for overhead.  This ablation runs an
ARU-heavy read/write workload on a raw logical disk under each
policy.  Expected shape: option 1 (scan all shadows) costs the most
per read when many ARUs are active; option 2 (committed only) is the
cheapest; option 3 sits between them.
"""

import pytest

from repro.core.visibility import Visibility
from repro.disk.geometry import DiskGeometry
from repro.disk.simdisk import SimulatedDisk
from repro.harness.reporting import format_table
from repro.ld.types import FIRST
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD

from benchmarks.conftest import full_scale, report_table

N_ROUNDS = 4000 if full_scale() else 800
N_ARUS = 16
N_BLOCKS = 32

_RESULTS = {}


def run_policy(policy: Visibility) -> float:
    """ARU-heavy mixed workload; returns simulated ms per round."""
    geo = DiskGeometry.small(num_segments=256)
    disk = SimulatedDisk(geo)
    lld = LLD(
        disk,
        config=LLDConfig(visibility=policy, checkpoint_slot_segments=2),
    )
    lst = lld.new_list()
    blocks = []
    previous = FIRST
    for index in range(N_BLOCKS):
        block = lld.new_block(lst, predecessor=previous)
        lld.write(block, f"seed-{index}".encode())
        previous = block
        blocks.append(block)
    lld.flush()
    # Keep N_ARUS long-lived ARUs, each holding shadow versions of
    # every block, while a reader stream hammers Read.
    arus = [lld.begin_aru() for _ in range(N_ARUS)]
    for stream, aru in enumerate(arus):
        for block in blocks:
            lld.write(block, f"shadow-{stream}".encode(), aru=aru)
    # Warm the block cache so the measurement isolates the version
    # lookup cost rather than first-touch disk reads (which option 1
    # sidesteps entirely by serving in-memory shadow data).
    for block in blocks:
        lld.read(block)
    start = lld.clock.now_us
    for round_no in range(N_ROUNDS):
        block = blocks[round_no % N_BLOCKS]
        lld.read(block)
        lld.read(block, aru=arus[round_no % N_ARUS])
    elapsed_ms = (lld.clock.now_us - start) / 1000.0
    for aru in arus:
        lld.abort_aru(aru)
    return elapsed_ms / N_ROUNDS


@pytest.mark.benchmark(group="ablation-visibility")
@pytest.mark.parametrize(
    "policy",
    [
        Visibility.MOST_RECENT_SHADOW,
        Visibility.COMMITTED_ONLY,
        Visibility.ARU_LOCAL,
    ],
    ids=lambda p: p.name.lower(),
)
def test_visibility_policy_cost(benchmark, policy):
    per_round = benchmark.pedantic(
        lambda: run_policy(policy), rounds=1, iterations=1
    )
    _RESULTS[policy.name] = per_round
    benchmark.extra_info["simulated_ms_per_round"] = round(per_round, 5)
    if len(_RESULTS) == 3:
        table = format_table(
            "Ablation A — read cost under the three visibility options "
            f"({N_ARUS} active ARUs shadowing every block)",
            ["sim ms / round"],
            {name: [value] for name, value in sorted(_RESULTS.items())},
            precision=4,
        )
        report_table("ablation_visibility", table)
        # Option 2 never walks shadow chains: cheapest reads.
        assert (
            _RESULTS["COMMITTED_ONLY"]
            <= _RESULTS["ARU_LOCAL"]
            <= _RESULTS["MOST_RECENT_SHADOW"] * 1.01
        )
