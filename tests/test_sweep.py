"""Tests for the parameter-sweep utility."""

import pytest

from repro.harness.sweep import Sweep, SweepPoint
from repro.lld.config import LLDConfig


class TestGrid:
    def test_cartesian_points(self):
        sweep = Sweep({"a": [1, 2], "b": ["x", "y", "z"]})
        points = list(sweep.points())
        assert len(points) == len(sweep) == 6
        assert {"a": 2, "b": "y"} in points

    def test_single_parameter(self):
        sweep = Sweep({"n": [10, 20]})
        assert list(sweep.points()) == [{"n": 10}, {"n": 20}]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            Sweep({})
        with pytest.raises(ValueError):
            Sweep({"a": []})


class TestRun:
    def test_measures_every_point(self):
        sweep = Sweep({"x": [1, 2, 3]})
        results = sweep.run(lambda x: {"double": 2.0 * x})
        assert [p.metrics["double"] for p in results] == [2.0, 4.0, 6.0]

    def test_progress_callback(self):
        seen = []
        sweep = Sweep({"x": [1, 2]})
        sweep.run(lambda x: {"m": float(x)}, progress=seen.append)
        assert seen == [{"x": 1}, {"x": 2}]

    def test_real_workload_sweep(self):
        """End-to-end: sweep the cache size and check the monotone
        effect on read time for a re-read-heavy workload."""
        from repro.disk.geometry import DiskGeometry
        from repro.disk.simdisk import SimulatedDisk
        from repro.ld.types import FIRST
        from repro.lld.lld import LLD

        def measure(cache_blocks):
            geo = DiskGeometry.small(num_segments=64)
            ld = LLD(
                SimulatedDisk(geo),
                config=LLDConfig(
                    cache_blocks=cache_blocks,
                    checkpoint_slot_segments=2,
                    readahead=False,
                ),
            )
            lst = ld.new_list()
            blocks = []
            previous = FIRST
            for index in range(64):
                block = ld.new_block(lst, predecessor=previous)
                ld.write(block, bytes([index]))
                blocks.append(block)
                previous = block
            ld.flush()
            ld.cache.invalidate_all()
            start = ld.clock.now_us
            for _round in range(3):
                for block in blocks:
                    ld.read(block)
            return {"read_us": ld.clock.now_us - start}

        # Note: a cyclic scan defeats LRU below the working-set size,
        # so only the size that fits all 64 blocks shows a win.
        results = Sweep({"cache_blocks": [0, 8, 128]}).run(measure)
        times = [p.metrics["read_us"] for p in results]
        assert times[0] >= times[1] > times[2]

    def test_best(self):
        results = [
            SweepPoint({"x": 1}, {"tps": 10.0}),
            SweepPoint({"x": 2}, {"tps": 30.0}),
            SweepPoint({"x": 3}, {"tps": 20.0}),
        ]
        assert Sweep.best(results, "tps").params == {"x": 2}
        assert Sweep.best(results, "tps", maximize=False).params == {"x": 1}


class TestTable:
    def test_two_parameter_matrix(self):
        sweep = Sweep({"rows": [1, 2], "cols": [10, 20]})
        results = sweep.run(lambda rows, cols: {"m": float(rows * cols)})
        table = Sweep.table(results, "m")
        assert "rows=1" in table
        assert "cols=20" in table
        assert "40.00" in table

    def test_one_parameter_listing(self):
        sweep = Sweep({"only": [5, 6]})
        results = sweep.run(lambda only: {"m": float(only)})
        table = Sweep.table(results, "m", title="demo")
        assert "only=5" in table
        assert "demo" in table

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            Sweep.table([], "m")
