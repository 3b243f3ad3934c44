"""``compare A.json B.json``: verdict per (workload, end-to-end metric).

A is the parent (or the first run), B the change (or the second run).
For every pairing both medians are printed with their quartiles, the
relative change in the *worse* direction against the metric's bound,
and one of three verdicts:

``ok``
    B's median is no worse than A's by more than the bound.
``regressed``
    It is worse by more than the bound.
``unresolved``
    The run-to-run spread of either side is wider than the bound and
    the two sets of repetitions overlap — reported as unresolved, not
    as unchanged.

Simulated and counted metrics repeat bit-for-bit on one tree, so for
them any difference beyond rounding (relative 1e-9) in the worse
direction is a regression; ``frontend_txn`` runs real threads and is
held to the declared bound instead.
"""

from __future__ import annotations

import json
import math
from typing import List, Tuple

from .metrics import END_TO_END, EndToEnd, quartiles
from .suite import workload_is_deterministic

EXACT_TOLERANCE = 1e-9


def _worse_by(metric: EndToEnd, a: float, b: float) -> float:
    """Relative change of B against A, positive when B is worse."""
    if not a:
        return 0.0
    change = (b - a) / abs(a)
    return change if metric.better == "lower" else -change


def _overlap(a: List[float], b: List[float]) -> bool:
    """False only when every run of B reads better than every run of
    A, or every one worse."""
    if not a or not b:
        return True
    return not (max(a) < min(b) or max(b) < min(a))


def judge(
    metric: EndToEnd, workload: str, a: dict, b: dict
) -> Tuple[str, float, float]:
    """(verdict, worse-by share, allowed share)."""
    worse = _worse_by(metric, a["value"], b["value"])
    if not metric.wall and workload_is_deterministic(workload):
        verdict = "regressed" if worse > EXACT_TOLERANCE else "ok"
        return verdict, worse, EXACT_TOLERANCE
    allowed = metric.bound
    if a["value"]:
        allowed = max(allowed, metric.floor / abs(a["value"]))
    finite_a = [x for x in a["samples"] if math.isfinite(x)]
    finite_b = [x for x in b["samples"] if math.isfinite(x)]
    widest = 0.0
    for samples in (finite_a, finite_b):
        q1, q2, q3 = quartiles(samples)
        if q2:
            widest = max(widest, (q3 - q1) / abs(q2))
    if widest > allowed and _overlap(finite_a, finite_b):
        return "unresolved", worse, allowed
    return ("regressed" if worse > allowed else "ok"), worse, allowed


def _cell(row: dict) -> str:
    return (
        f"{row['value']:.4f} [{row['q1']:.4f}, {row['q3']:.4f}] {row['unit']}"
    )


def report(first: dict, second: dict) -> int:
    """Print the table; return how many pairings are not ``ok``."""
    bad = 0
    print(
        f"\n{'workload':<15} {'metric':<15} {'A median [q1, q3]':<38} "
        f"{'B median [q1, q3]':<38} {'worse by':>9} {'allowed':>8}  verdict"
    )
    for workload, a_result in first["end_to_end"].items():
        b_result = second["end_to_end"].get(workload)
        if b_result is None:
            print(f"{workload:<15} missing from B")
            bad += 1
            continue
        for metric in END_TO_END:
            a = a_result["metrics"][metric.name]
            b = b_result["metrics"][metric.name]
            verdict, worse, allowed = judge(metric, workload, a, b)
            bad += verdict != "ok"
            print(
                f"{workload:<15} {metric.name:<15} {_cell(a):<38} "
                f"{_cell(b):<38} {worse:>+9.2%} {allowed:>8.2%}  {verdict}"
            )
        fails = (a_result["failed"], b_result["failed"])
        verdict = "regressed" if fails[1] else "ok"
        bad += verdict != "ok"
        print(
            f"{workload:<15} {'fail_ratio':<15} "
            f"{fails[0]}/{a_result['attempted']:<36} "
            f"{fails[1]}/{b_result['attempted']:<36} "
            f"{'':>9} {'any':>8}  {verdict}"
        )
    print(f"\n{bad} pairing(s) not ok" if bad else "\nevery pairing ok")
    return bad


def main(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as handle:
        first = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        second = json.load(handle)
    return 1 if report(first, second) else 0
