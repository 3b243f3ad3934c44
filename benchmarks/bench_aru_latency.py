"""Section 5.3 — the ARU begin/end microbenchmark.

The paper begins and ends an empty ARU 500,000 times on the new
prototype: 78.47 microseconds per ARU pair, with 24 segments written
(nothing but commit records in the summaries).
"""

import pytest

from repro.harness.reporting import format_table
from repro.harness.runner import experiment_sizes, run_aru_latency_experiment
from repro.harness.variants import VARIANTS, build_variant, paper_geometry
from repro.workloads.arulat import run_aru_latency

from benchmarks.conftest import full_scale, report_table

ITERATIONS = experiment_sizes(full_scale())["iterations"]


@pytest.mark.benchmark(group="aru-latency")
def test_aru_begin_end_latency(benchmark):
    """Empty BeginARU/EndARU pairs on the concurrent prototype."""
    result = benchmark.pedantic(
        lambda: run_aru_latency_experiment(iterations=ITERATIONS),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["latency_us_per_aru"] = round(result.latency_us, 2)
    benchmark.extra_info["segments_written"] = result.segments_written
    scaled = result.scaled_segments(500_000)
    benchmark.extra_info["segments_scaled_to_500k"] = round(scaled, 1)
    table = format_table(
        "Section 5.3 — empty ARU begin/end microbenchmark",
        ["latency (us/ARU)", "segments @500k"],
        {
            "new (concurrent)": [result.latency_us, scaled],
            "paper reports": [78.47, 24.0],
        },
        precision=2,
    )
    report_table("aru_latency", table)
    # Paper shape: tens of microseconds; segments fill very slowly.
    assert 40.0 <= result.latency_us <= 120.0
    assert 15.0 <= scaled <= 40.0


@pytest.mark.benchmark(group="aru-latency")
def test_aru_begin_end_latency_old_baseline(benchmark):
    """Sequential (old) ARUs for comparison: no merge machinery."""

    def run():
        _d, ld, _f = build_variant(
            VARIANTS["old"], geometry=paper_geometry(0.25), n_inodes=64
        )
        return run_aru_latency(ld, iterations=ITERATIONS // 2)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["latency_us_per_aru"] = round(result.latency_us, 2)
    assert result.latency_us <= 120.0
