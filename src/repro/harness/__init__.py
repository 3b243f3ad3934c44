"""Experiment harness: builds the paper's system variants, runs the
benchmarks, and renders tables shaped like the paper's figures."""

from repro.harness.variants import VARIANTS, Variant, build_variant
from repro.harness.runner import (
    run_aru_latency_experiment,
    run_figure5,
    run_figure6,
)
from repro.harness.reporting import format_table, percent_difference

__all__ = [
    "VARIANTS",
    "Variant",
    "build_variant",
    "format_table",
    "percent_difference",
    "run_aru_latency_experiment",
    "run_figure5",
    "run_figure6",
]
