"""Reproduction shape tests: the paper's results, as acceptance bands.

These run scaled-down versions of the paper's three experiments and
assert the *shapes* the paper reports (Section 5.3), with generous
bands — who wins, by roughly what factor, and where the orderings
fall:

* Figure 5 — create+write overhead is small single-digit percent and
  larger for 1 KB than 10 KB files; reads are near-equal; deletion
  overhead is large (paper: 24.6 %/25.5 %); the improved deletion
  policy narrows it, more for 10 KB files.
* Figure 6 — reads and writes are near-equal across variants; both
  write phases run near disk bandwidth; random reads and sequential
  reads after a random rewrite are seek-bound.
* Section 5.3 — an empty BeginARU/EndARU pair costs tens of
  microseconds (paper: 78.47 us) and commit records alone fill
  segments only very slowly (paper: 24 segments / 500,000 ARUs).
"""

import pytest

from repro.harness.reporting import percent_difference
from repro.harness.variants import VARIANTS, build_variant, paper_geometry
from repro.lld.config import LLDConfig
from repro.workloads.arulat import run_aru_latency
from repro.workloads.largefile import run_large_file
from repro.workloads.smallfile import run_small_files


@pytest.fixture(scope="module")
def figure5():
    results = {}
    for name in ("old", "new", "new_delete"):
        per_size = {}
        for n_files, size in ((800, 1024), (300, 10 * 1024)):
            _d, _l, fs = build_variant(
                VARIANTS[name], geometry=paper_geometry(0.4), n_inodes=2048
            )
            per_size[size] = run_small_files(fs, n_files, size)
        results[name] = per_size
    return results


@pytest.fixture(scope="module")
def figure6():
    results = {}
    for name in ("old", "new"):
        # Cache well below the file size, as in the paper's testbed.
        _d, _l, fs = build_variant(
            VARIANTS[name],
            geometry=paper_geometry(0.15),
            n_inodes=64,
            config=LLDConfig(cache_blocks=512),
        )
        results[name] = run_large_file(fs, file_size=8 * 1024 * 1024)
    return results


def delta(figure5, size, phase):
    old = figure5["old"][size].phase(phase)
    new = figure5["new"][size].phase(phase)
    return percent_difference(old, new)


class TestFigure5Shapes:
    def test_create_overhead_small_single_digit(self, figure5):
        for size in (1024, 10 * 1024):
            overhead = delta(figure5, size, "create_write")
            assert 0.5 <= overhead <= 12.0, (size, overhead)

    def test_create_overhead_larger_for_smaller_files(self, figure5):
        assert delta(figure5, 1024, "create_write") > delta(
            figure5, 10 * 1024, "create_write"
        )

    def test_read_overhead_negligible(self, figure5):
        for size in (1024, 10 * 1024):
            assert abs(delta(figure5, size, "read")) <= 5.0

    def test_delete_overhead_pronounced(self, figure5):
        """Paper: 24.6 % and 25.5 % — an order of magnitude above the
        create overhead."""
        for size in (1024, 10 * 1024):
            overhead = delta(figure5, size, "delete")
            assert 15.0 <= overhead <= 45.0, (size, overhead)

    def test_improved_deletion_narrows_the_gap(self, figure5):
        for size in (1024, 10 * 1024):
            old = figure5["old"][size].delete_fps
            new = figure5["new"][size].delete_fps
            improved = figure5["new_delete"][size].delete_fps
            assert improved > new, (size, new, improved)
            assert percent_difference(old, improved) < percent_difference(
                old, new
            )

    def test_improvement_more_pronounced_for_larger_files(self, figure5):
        """Paper: the gain is bigger for 10 KB files (longer lists ->
        longer predecessor searches avoided): 25.5->17.9 vs
        24.6->20.5."""

        def gain(size):
            old = figure5["old"][size].delete_fps
            return percent_difference(
                old, figure5["new"][size].delete_fps
            ) - percent_difference(old, figure5["new_delete"][size].delete_fps)

        assert gain(10 * 1024) > gain(1024)


class TestFigure6Shapes:
    def test_write_overhead_small(self, figure6):
        for phase in ("write1", "write2"):
            overhead = percent_difference(
                figure6["old"].phase(phase), figure6["new"].phase(phase)
            )
            assert -1.0 <= overhead <= 5.0, (phase, overhead)

    def test_read_overhead_negligible(self, figure6):
        for phase in ("read1", "read2", "read3"):
            overhead = percent_difference(
                figure6["old"].phase(phase), figure6["new"].phase(phase)
            )
            assert abs(overhead) <= 2.0, (phase, overhead)

    def test_log_absorbs_random_writes(self, figure6):
        result = figure6["new"]
        assert result.phase("write2") > 0.7 * result.phase("write1")

    def test_sequential_write_near_bandwidth(self, figure6):
        """Paper: LLD uses ~85 % of available write bandwidth."""
        from repro.disk.timing import HP_C3010

        bandwidth_mbps = HP_C3010.transfer_rate_bps / (1024 * 1024)
        assert figure6["new"].phase("write1") > 0.7 * bandwidth_mbps

    def test_random_reads_seek_bound(self, figure6):
        result = figure6["new"]
        assert result.phase("read2") < 0.3 * result.phase("read1")

    def test_sequential_read_after_random_write_slow(self, figure6):
        """The LFS weakness the LD paper documents: read3 collapses
        after the file is rewritten in random order."""
        result = figure6["new"]
        assert result.phase("read3") < 0.3 * result.phase("read1")


class TestARULatencyShape:
    def test_latency_and_segment_count(self):
        _d, ld, _fs = build_variant(
            VARIANTS["new"], geometry=paper_geometry(0.25), n_inodes=64
        )
        result = run_aru_latency(ld, iterations=60_000)
        # Paper: 78.47 us per ARU pair.
        assert 40.0 <= result.latency_us <= 120.0, result.latency_us
        # Paper: 24 segments per 500,000 ARUs (commit records only).
        scaled = result.scaled_segments(500_000)
        assert 15 <= scaled <= 40, scaled

    def test_old_prototype_aru_pair_cheaper(self):
        """Sequential (old) ARUs skip the merge machinery and should
        cost no more than the concurrent ones."""
        _d, ld_new, _f = build_variant(
            VARIANTS["new"], geometry=paper_geometry(0.2), n_inodes=64
        )
        _d, ld_old, _f = build_variant(
            VARIANTS["old"], geometry=paper_geometry(0.2), n_inodes=64
        )
        new_result = run_aru_latency(ld_new, iterations=20_000)
        old_result = run_aru_latency(ld_old, iterations=20_000)
        assert old_result.latency_us <= new_result.latency_us * 1.05
