"""``python -m repro.harness`` — run the paper's evaluation.

A thin command-line front end over the experiment runners::

    python -m repro.harness                 # all experiments, scaled
    python -m repro.harness --full          # the paper's sizes
    python -m repro.harness figure5         # one experiment
    python -m repro.harness figure6 aru
    python -m repro.harness --metrics out/  # emit metrics JSON per run
    python -m repro.harness --profile       # cProfile each experiment
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import sys
from typing import Callable, List, Optional, TypeVar

from repro.harness.runner import (
    experiment_sizes,
    run_aru_latency_experiment,
    run_figure5,
    run_figure6,
)

EXPERIMENTS = ("figure5", "figure6", "aru")

#: What the paper reports for each experiment, printed under its table.
_PAPER_REPORTS = {
    "figure5": "paper reports: C+W 7.2% (1KB) / 4.0% (10KB); D 24.6%/25.5% "
    "for 'new',\nimproved to 20.5%/17.9% by 'new, delete'; reads near-equal.",
    "figure6": "paper reports: write1 differs 2.9%, all other phases "
    "0.2-0.7%;\nthe log absorbs random writes; reads after the random "
    "rewrite\nare seek-bound.",
    "aru": "paper reports: 78.47 us per ARU pair, 24 segments per 500k.",
}

T = TypeVar("T")


def profile_to(directory: str, experiment: str, fn: Callable[[], T]) -> T:
    """Run ``fn`` under :mod:`cProfile`, dumping raw pstats next to the
    metrics artifacts.

    The dump is the binary :mod:`pstats` format, so it feeds directly
    into ``python -m pstats`` or snakeviz-style viewers::

        python -m pstats out/profile_figure5.pstats
        % sort cumulative
        % stats 25

    Profiling measures *wall-clock* hot paths only — the simulated
    clock (and therefore every reported metric) is unaffected.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"profile_{experiment}.pstats")
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
        profiler.dump_stats(path)
        print(f"[profile -> {path}]")
    return result


def emit_metrics(directory: str, experiment: str, metrics: dict) -> str:
    """Write one experiment's observability artifact as JSON.

    Every per-variant ``stats`` block is validated against the frozen
    schema (:mod:`repro.obs.schema`) before it is written, so a schema
    drift fails the harness run rather than producing a silently
    unreadable artifact.
    """
    from repro.obs.schema import validate_stats

    for label, entry in metrics.items():
        problems = validate_stats(entry["stats"])
        if problems:
            raise SystemExit(
                f"metrics artifact for {experiment}/{label} violates the "
                f"stats schema: {problems}"
            )
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"metrics_{experiment}.json")
    with open(path, "w", encoding="utf-8") as out:
        json.dump(
            {"experiment": experiment, "variants": metrics},
            out,
            indent=2,
            sort_keys=True,
        )
        out.write("\n")
    return path


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Reproduce the paper's evaluation (simulated time).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        choices=[*EXPERIMENTS, []],
        help="subset to run (default: all)",
    )
    parser.add_argument(
        "--full", action="store_true", help="use the paper's full sizes"
    )
    parser.add_argument(
        "--metrics",
        metavar="DIR",
        default=None,
        help="write a metrics_<experiment>.json artifact per experiment",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "run each experiment under cProfile and write a "
            "profile_<experiment>.pstats dump next to the metrics "
            "artifacts (the --metrics dir if given, else the cwd)"
        ),
    )
    args = parser.parse_args(argv)
    chosen = [e for e in EXPERIMENTS if e in (args.experiments or EXPERIMENTS)]

    sizes = experiment_sizes(args.full)
    runners = {
        "figure5": lambda: run_figure5(
            sizes["size_classes"], geometry=sizes["geometry"]
        ),
        "figure6": lambda: run_figure6(sizes["file_size"]),
        "aru": lambda: run_aru_latency_experiment(sizes["iterations"]),
    }
    profile_dir = args.metrics if args.metrics is not None else os.curdir
    for experiment in chosen:
        thunk = runners[experiment]
        result = (
            profile_to(profile_dir, experiment, thunk) if args.profile else thunk()
        )
        if experiment == "aru":
            print(
                f"ARU begin/end: {result.latency_us:.2f} us per pair "
                f"({result.scaled_segments(500_000):.1f} segments per 500k)"
            )
        else:
            print(result.table)
            print()
        print(_PAPER_REPORTS[experiment])
        if args.metrics is not None:
            path = emit_metrics(args.metrics, experiment, result.metrics)
            print(f"[metrics -> {path}]")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
