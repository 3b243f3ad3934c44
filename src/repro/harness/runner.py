"""Experiment runners: one function per paper experiment (Figures 5
and 6, and the Section 5.3 begin/end microbenchmark).

Each runner builds fresh systems for the requested variants, executes
the workload, and returns both the raw per-variant results and a
rendered, paper-style table.  :func:`experiment_sizes` holds the two
scales, the one that runs in seconds and the paper's, for
``python -m repro.harness`` and the paper benches alike.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence

from repro.disk.geometry import DiskGeometry
from repro.harness.reporting import format_deltas, format_table
from repro.harness.variants import VARIANTS, build_variant, paper_geometry
from repro.lld.config import LLDConfig
from repro.workloads.arulat import ARULatencyResult, run_aru_latency
from repro.workloads.largefile import LargeFileResult, run_large_file
from repro.workloads.smallfile import SmallFileResult, run_small_files


def experiment_sizes(full: bool) -> Dict[str, Any]:
    """The evaluation's sizes: the paper's when ``full``, else scaled.

    ``size_classes`` and ``geometry`` are Figure 5's, ``file_size``
    Figure 6's, ``iterations`` the Section 5.3 microbenchmark's.
    """
    small, large = (10_000, 1_000) if full else (1_500, 600)
    return {
        "size_classes": [
            {"n_files": small, "file_size": 1024},
            {"n_files": large, "file_size": 10 * 1024},
        ],
        "geometry": paper_geometry(1.0 if full else 0.4),
        "file_size": 20_000 * 4096 if full else 16 * 1024 * 1024,
        "iterations": 500_000 if full else 60_000,
    }


def capture_metrics(ld) -> Dict[str, dict]:
    """One experiment run's observability artifact for a system.

    ``stats`` is the frozen schema-stable view (see
    :mod:`repro.obs.schema`); ``registry`` is the full instrument
    snapshot including latency histograms.
    """
    return {"stats": ld.stats(), "registry": ld.obs.snapshot()}


@dataclasses.dataclass
class Figure5Result:
    """Figure 5: small-file throughput per variant and size class."""

    #: (variant, n_files, file_size) -> phase results
    results: Dict[str, Dict[int, SmallFileResult]]
    table: str
    #: per-run observability artifacts, keyed "variant/file_size"
    metrics: Dict[str, dict] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class Figure6Result:
    """Figure 6: large-file throughput, old vs new."""

    results: Dict[str, LargeFileResult]
    table: str
    metrics: Dict[str, dict] = dataclasses.field(default_factory=dict)


def run_figure5(
    size_classes: Sequence[Dict],
    variants: Sequence[str] = ("old", "new", "new_delete"),
    geometry: Optional[DiskGeometry] = None,
) -> Figure5Result:
    """The small-file experiment for every variant and size class."""
    results: Dict[str, Dict[int, SmallFileResult]] = {}
    metrics: Dict[str, dict] = {}
    for name in variants:
        variant = VARIANTS[name]
        per_size: Dict[int, SmallFileResult] = {}
        for spec in size_classes:
            geo = geometry if geometry is not None else paper_geometry(0.25)
            _disk, ld, fs = build_variant(
                variant, geometry=geo,
                n_inodes=max(1024, spec["n_files"] + spec["n_files"] // 64 + 64),
            )
            per_size[spec["file_size"]] = run_small_files(
                fs, spec["n_files"], spec["file_size"]
            )
            metrics[f"{name}/{spec['file_size']}"] = capture_metrics(ld)
        results[name] = per_size

    columns: List[str] = []
    for spec in size_classes:
        kb = spec["file_size"] // 1024
        columns += [f"C+W {kb}KB", f"R {kb}KB", f"D {kb}KB"]
    rows = {
        name: [
            value
            for spec in size_classes
            for value in (
                results[name][spec["file_size"]].create_write_fps,
                results[name][spec["file_size"]].read_fps,
                results[name][spec["file_size"]].delete_fps,
            )
        ]
        for name in variants
    }
    table = format_table(
        "Figure 5 — small-file throughput (files/second, simulated)",
        columns,
        rows,
        unit="files/second",
    )
    if "old" in rows and len(rows) > 1:
        table += "\n\n" + format_deltas(
            "Concurrency overhead vs the old prototype", "old", columns, rows
        )
    return Figure5Result(results=results, table=table, metrics=metrics)


def run_figure6(
    file_size: int,
    variants: Sequence[str] = ("old", "new"),
    geometry: Optional[DiskGeometry] = None,
) -> Figure6Result:
    """The large-file experiment (write1/read1/write2/read2/read3)."""
    results: Dict[str, LargeFileResult] = {}
    metrics: Dict[str, dict] = {}
    for name in variants:
        geo = geometry if geometry is not None else paper_geometry(
            _geometry_scale_for(file_size)
        )
        # Keep the block cache well below the file size, as the
        # paper's 80 MB machine was against its 78 MB file; otherwise
        # the read phases just measure the cache.
        cache_blocks = max(64, min(2048, file_size // geo.block_size // 4))
        _disk, ld, fs = build_variant(
            VARIANTS[name], geometry=geo, n_inodes=64,
            config=LLDConfig(cache_blocks=cache_blocks),
        )
        results[name] = run_large_file(fs, file_size=file_size)
        metrics[name] = capture_metrics(ld)
    columns = ["write1", "read1", "write2", "read2", "read3"]
    rows = {
        name: [results[name].phase(phase) for phase in columns]
        for name in variants
    }
    table = format_table(
        "Figure 6 — large-file throughput (MB/second, simulated)",
        columns,
        rows,
        unit="MB/second",
        precision=3,
    )
    if "old" in rows and len(rows) > 1:
        table += "\n\n" + format_deltas(
            "Concurrency overhead vs the old prototype", "old", columns, rows
        )
    return Figure6Result(results=results, table=table, metrics=metrics)


def run_aru_latency_experiment(
    iterations: int,
    geometry: Optional[DiskGeometry] = None,
) -> ARULatencyResult:
    """The Section 5.3 microbenchmark on the new (concurrent) LLD."""
    geo = geometry if geometry is not None else paper_geometry(0.25)
    _disk, ld, _fs = build_variant(VARIANTS["new"], geometry=geo, n_inodes=64)
    result = run_aru_latency(ld, iterations=iterations)
    result.metrics["new"] = capture_metrics(ld)
    return result


def _geometry_scale_for(file_size: int) -> float:
    """A partition comfortably larger than the benchmark file.

    The large-file experiment rewrites the file once, so the log
    needs roughly 2.5x the file size plus headroom for the cleaner.
    """
    needed_bytes = file_size * 3
    segments = max(64, needed_bytes // (512 * 1024))
    return segments / 800.0
