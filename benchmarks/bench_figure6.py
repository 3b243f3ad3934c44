"""Figure 6 — large-file throughput (write1/read1/write2/read2/read3).

The paper writes a 78.125 MB file sequentially, reads it
sequentially, rewrites it in random order, reads it in random order,
and reads it sequentially again, comparing old vs new MinixLLD in
MB/second.  Shapes: both versions near-identical (write1 differs
2.9 %, everything else 0.2–0.7 %); both write phases run near disk
bandwidth (the log absorbs random writes); read2 and read3 are
seek-bound after the random rewrite.
"""

import pytest

from repro.harness.reporting import percent_difference
from repro.harness.runner import experiment_sizes, run_figure6

from benchmarks.conftest import full_scale, report_json, report_table

FILE_SIZE = experiment_sizes(full_scale())["file_size"]


@pytest.mark.benchmark(group="figure6")
def test_figure6_large_file(benchmark):
    """Run the five-phase large-file experiment on old and new."""
    result = benchmark.pedantic(
        lambda: run_figure6(file_size=FILE_SIZE), rounds=1, iterations=1
    )
    report_table("figure6_large_file", result.table)
    for name, phases in result.results.items():
        for phase, mbps in phases.throughput_mbps.items():
            benchmark.extra_info[f"{name}_{phase}_mbps"] = round(mbps, 3)
    report_json(
        "figure6",
        {
            "file_size_bytes": FILE_SIZE,
            "throughput_mbps": {
                name: {
                    phase: round(mbps, 3)
                    for phase, mbps in phases.throughput_mbps.items()
                }
                for name, phases in result.results.items()
            },
        },
    )
    old = result.results["old"]
    new = result.results["new"]
    # Paper shapes: tiny write overhead, negligible read overhead.
    assert 0.0 <= percent_difference(
        old.phase("write1"), new.phase("write1")
    ) <= 5.0
    for phase in ("read1", "read2", "read3"):
        assert abs(
            percent_difference(old.phase(phase), new.phase(phase))
        ) <= 2.0
    # The log absorbs random writes; random reads seek.
    assert new.phase("write2") > 0.7 * new.phase("write1")
    assert new.phase("read2") < 0.3 * new.phase("read1")
