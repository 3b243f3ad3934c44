"""Command line of the benchmark.

::

    python -m benchmarks.perf                       # all seven, end to end
    python -m benchmarks.perf --trace               # ... plus the traced pass
    python -m benchmarks.perf --workload read_mix   # one workload
    python -m benchmarks.perf compare A.json B.json
    python -m benchmarks.perf --repeat-check
    python -m benchmarks.perf --selftest

With exactly one ``--workload`` the last line of standard output is
the driver's JSON object (``correct``, ``attempted``, ``failed``,
``metrics``): every end-to-end metric for ``--trace 0``, every
declared per-layer metric for ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
import time
from typing import Dict, List

from . import child, compare, selftest, suite
from .metrics import END_TO_END, unit_of
from .workloads import WORKLOADS

DEFAULT_SEED = 2026
DEFAULT_SECONDS = 6


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks.perf", description=__doc__.split("::")[0]
    )
    parser.add_argument("command", nargs="?", choices=["run", "compare"],
                        default="run")
    parser.add_argument("files", nargs="*", help="compare: A.json B.json")
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="feeds the benchmark's generators only")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed seconds per workload: repetitions are "
                        "added (never fewer than 6) until their timed "
                        "regions add up to this")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=["0", "1", "both"],
                        help="0: end-to-end pass; 1: traced per-layer pass; "
                        "bare --trace: both")
    parser.add_argument("--out", type=pathlib.Path,
                        help="write the full results here as JSON "
                        "(default: benchmarks/perf/out/last.json)")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the suite twice on this tree; fail unless "
                        "every pairing compares ok")
    parser.add_argument("--selftest", action="store_true",
                        help="check the benchmark's own sources and "
                        "declarations")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--substrate", default="lld", choices=["lld", "jld"],
                        help=argparse.SUPPRESS)
    return parser


def _print_rows(title: str, rows: List[tuple]) -> None:
    print(f"\n== {title}")
    width = max(len(row[0]) for row in rows)
    for name, text in rows:
        print(f"  {name:<{width}}  {text}")


def print_end_to_end(result: dict) -> None:
    rows = []
    for metric in END_TO_END:
        row = result["metrics"][metric.name]
        rows.append(
            (
                metric.name,
                f"{row['value']:>14.4f} {row['unit']:<6} "
                f"q1 {row['q1']:.4f}  q3 {row['q3']:.4f}  n {row['n']}  "
                f"samples {[round(x, 4) for x in row['samples']]}",
            )
        )
    rows.append(
        (
            "wall_p99_us",
            f"{result['layers']['wall_p99_us']:>14.4f} us     (per-layer, "
            "not gated)",
        )
    )
    rows.append(
        (
            "fail_ratio",
            f"{result['failed'] / result['attempted']:>14.6f} ratio  "
            f"({result['failed']} failed of {result['attempted']} attempted; "
            f"{result['checks']} oracle checks)",
        )
    )
    _print_rows(
        f"{result['workload']}  end to end  "
        f"({result['repetitions']} repetitions"
        f" + {result['set_aside']} set aside for machine drift, "
        f"{result['latency_samples']} latency samples, "
        f"{result['timed_s']:.2f} s timed, seed {result['seed']})",
        rows,
    )
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def print_layers(result: dict) -> None:
    rows = [
        (name, f"{value:>16.4f} {unit_of(name)}")
        for name, value in sorted(result["layers"].items())
    ]
    _print_rows(
        f"{result['workload']}  per layer  (traced pass, seed "
        f"{result['seed']}, {result['checks']} oracle checks)",
        rows,
    )
    for target in result["trace_missing"]:
        print(f"  MISSING wrap target: {target}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def run_suite(args, out: pathlib.Path) -> dict:
    """Run the selected workloads, print as they finish, write the
    full results to ``out``."""
    document: Dict[str, dict] = {
        "seed": args.seed,
        "seconds": args.seconds,
        "end_to_end": {},
        "per_layer": {},
    }
    started = time.perf_counter()
    for name in args.workload or list(WORKLOADS):
        if args.trace in ("0", "both"):
            result = suite.run_untraced(name, args.seed, args.seconds)
            document["end_to_end"][name] = result
            print_end_to_end(result)
        if args.trace in ("1", "both"):
            result = suite.run_traced(name, args.seed)
            document["per_layer"][name] = result
            print_layers(result)
        sys.stdout.flush()
    document["elapsed_s"] = time.perf_counter() - started
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    print(f"\nsuite took {document['elapsed_s']:.1f} s; results in {out}")
    return document


def _failed(document: dict) -> int:
    return sum(
        result["failed"]
        for section in ("end_to_end", "per_layer")
        for result in document[section].values()
    )


def driver_line(document: dict, workload: str, trace: str) -> str:
    """The one JSON object the driver reads from the last line."""
    if trace == "1":
        result = document["per_layer"][workload]
        metrics = suite.declared_layers(result["layers"])
    else:
        result = document["end_to_end"][workload]
        metrics = {
            name: {"value": row["value"], "unit": row["unit"]}
            for name, row in result["metrics"].items()
        }
    for row in metrics.values():
        # A latency percentile that fell among lost requests is
        # infinite, which JSON cannot carry; the run is already
        # ``correct: false``.
        if not math.isfinite(row["value"]):
            row["value"] = sys.float_info.max
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.child:
        return child.main(
            args.workload[0], args.seed, args.traced, args.substrate
        )
    if args.selftest:
        return selftest.main()
    if args.command == "compare":
        if len(args.files) != 2:
            print("compare needs exactly two result files", file=sys.stderr)
            return 2
        return compare.main(args.files[0], args.files[1])
    try:
        if args.repeat_check:
            first = run_suite(args, child.OUT_DIR / "repeat_a.json")
            second = run_suite(args, child.OUT_DIR / "repeat_b.json")
            verdict = compare.report(first, second)
            return 1 if verdict or _failed(first) or _failed(second) else 0
        document = run_suite(args, args.out or child.OUT_DIR / "last.json")
    except suite.BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    if args.workload and len(args.workload) == 1 and args.trace != "both":
        print(driver_line(document, args.workload[0], args.trace))
    return 1 if _failed(document) else 0
