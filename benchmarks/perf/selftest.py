"""``--selftest``: the benchmark checks its own sources.

The benchmark must survive the refactors it will judge, so it may use
public calls only.  This greps every ``.py`` file of the package for
the surfaces scheduled for deletion or private to ``src/`` and fails
on a hit; it also checks that ``BENCHMARK.json`` declares exactly the
workloads and metrics the code emits.
"""

from __future__ import annotations

import ast
import json
import pathlib
import re
from typing import List

from .metrics import END_TO_END, PER_LAYER
from .workloads import WORKLOADS

PACKAGE = pathlib.Path(__file__).resolve().parent
BENCHMARK_JSON = PACKAGE.parents[1] / "BENCHMARK.json"

#: Imports the benchmark must not make, and names it must not touch.
#: Written as fragments so this file does not match itself.
FORBIDDEN = [
    r"repro\." + "workloads",
    r"repro\." + "harness",
    r"benchmarks\." + "bench_",
    r"from_" + "kwargs",
    r"recover_" + "sharded",
    r"reference_" + "seal",
    r"replay\s*=",
    r"Crash" + "Plan",
    r"\b_" + "serialize",
    r"_snapshot_" + "checkpoint",
]

#: Keyword arguments each public constructor/entry point may receive
#: from the benchmark (LLD's historical keyword knobs are not public).
ALLOWED_KEYWORDS = {
    "LLD": {"config", "cost_model"},
    "build_sharded": {"geometry", "config", "array_config"},
    "recover": {"mode", "config", "array_config", "workers"},
}


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def source_problems() -> List[str]:
    problems = []
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        where = path.relative_to(PACKAGE)
        for pattern in FORBIDDEN:
            for match in re.finditer(pattern, text):
                line = text.count("\n", 0, match.start()) + 1
                problems.append(f"{where}:{line}: forbidden {match.group(0)!r}")
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            allowed = ALLOWED_KEYWORDS.get(_call_name(node))
            if allowed is None:
                continue
            for keyword in node.keywords:
                if keyword.arg not in allowed:
                    problems.append(
                        f"{where}:{node.lineno}: {_call_name(node)}("
                        f"{keyword.arg}=...) is not a public knob"
                    )
    return problems


def declaration_problems() -> List[str]:
    if not BENCHMARK_JSON.exists():
        return [f"{BENCHMARK_JSON} not found"]
    declared = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    problems = []
    names = [row["name"] for row in declared["workloads"]]
    if names != list(WORKLOADS):
        problems.append(f"workloads differ: {names} vs {list(WORKLOADS)}")
    for row in declared["workloads"]:
        if row["why"] != WORKLOADS[row["name"]].WHY:
            problems.append(f"{row['name']}: 'why' differs from the module's")
    end_to_end = [
        (row["name"], row["unit"], row["better"], row["bound"])
        for row in declared["end_to_end"]
    ]
    if end_to_end != [(m.name, m.unit, m.better, m.bound) for m in END_TO_END]:
        problems.append("end_to_end differs from metrics.END_TO_END")
    per_layer = [
        (row["name"], row["unit"], row["better"])
        for row in declared["per_layer"]
    ]
    if per_layer != list(PER_LAYER):
        problems.append("per_layer differs from metrics.PER_LAYER")
    return problems


def main() -> int:
    problems = source_problems() + declaration_problems()
    for problem in problems:
        print(f"SELFTEST: {problem}")
    print(
        f"selftest: {len(problems)} problem(s)"
        if problems
        else "selftest: sources use public calls only; BENCHMARK.json "
        "matches the code"
    )
    return 1 if problems else 0
