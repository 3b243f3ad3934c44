"""Benchmark-suite plumbing.

Every benchmark registers a paper-style results table via
:func:`report_table`; a ``pytest_terminal_summary`` hook prints all
of them after the run (outside pytest's output capture), and each
table is also written to ``benchmarks/results/``.

Scale: by default the benchmarks run scaled-down versions of the
paper's experiments (seconds of wall time).  Set ``REPRO_FULL_SCALE=1``
to run the paper's full sizes (10,000/1,000 files, a 78.125 MB file,
500,000 ARU pairs) — minutes of wall time, same shapes.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import List, Tuple

_TABLES: List[Tuple[str, str]] = []

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def full_scale() -> bool:
    """True when the paper's full experiment sizes were requested."""
    return os.environ.get("REPRO_FULL_SCALE", "") not in ("", "0")


def report_table(name: str, table: str) -> None:
    """Register a results table for the terminal summary and save it."""
    _TABLES.append((name, table))
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(table + "\n", encoding="utf-8")


def report_json(name: str, payload: dict) -> pathlib.Path:
    """Save machine-readable benchmark results.

    Written to ``benchmarks/results/BENCH_<name>.json`` so successive
    PRs accumulate a perf trajectory that scripts (and CI) can diff
    without parsing the human-readable tables.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def merge_report_json(name: str, section: str, payload: dict) -> pathlib.Path:
    """Set one top-level ``section`` of ``BENCH_<name>.json`` in place.

    Lets several benchmark tests contribute to one artifact (the
    front-end file carries the saturation sweep, the 2048-client
    flood and the maintenance-interference run) without the last
    writer clobbering the others; a missing or unreadable file starts
    fresh.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    merged: dict = {}
    if path.exists():
        try:
            merged = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            merged = {}
    merged[section] = payload
    path.write_text(
        json.dumps(merged, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def pytest_terminal_summary(terminalreporter):
    if not _TABLES:
        return
    terminalreporter.section("reproduction results (simulated time)")
    for name, table in _TABLES:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"=== {name} ===")
        for line in table.splitlines():
            terminalreporter.write_line(line)
    terminalreporter.write_line("")
    terminalreporter.write_line(
        f"(tables saved under {RESULTS_DIR}; set REPRO_FULL_SCALE=1 for "
        "the paper's full sizes)"
    )
