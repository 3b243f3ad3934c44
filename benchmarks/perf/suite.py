"""The parent: spawn one fresh child per repetition, aggregate.

Run shape: fixed work per repetition, never fixed time — a repetition
always executes the same generated ops, so simulated metrics repeat
bit-for-bit and wall metrics are medians over repetitions.  The
``--seconds`` budget decides only *how many* repetitions run: at least
:data:`MIN_REPS`, then more until the timed regions add up to the
budget.
"""

from __future__ import annotations

import json
import math
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List

from .calibrate import MAX_DRIFT
from .metrics import END_TO_END, PER_LAYER, percentile, quartiles
from .srclines import src_lines
from .workloads import JLD_WORKLOADS, WORKLOADS

RUN_PY = pathlib.Path(__file__).resolve().parent / "run.py"

MIN_REPS = 6
MAX_REPS = 10  # spawned per run, steady or not
#: A child that has not finished by then is a failure, not a wait.
CHILD_TIMEOUT_S = 150

#: Simulated and counted metrics: identical across repetitions or the
#: benchmark has lost its determinism.
EXACT = tuple(m.name for m in END_TO_END if not m.wall)


class BenchmarkError(RuntimeError):
    """A repetition crashed, timed out or lost determinism."""


def spawn_child(
    workload: str, seed: int, traced: bool = False, substrate: str = "lld"
) -> dict:
    """One repetition in a fresh interpreter; its JSON line, parsed."""
    command = [
        sys.executable,
        str(RUN_PY),
        "--child",
        "--workload", workload,
        "--seed", str(seed),
        "--substrate", substrate,
    ]
    if traced:
        command.append("--traced")
    try:
        done = subprocess.run(
            command,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(
            f"{workload}: repetition exceeded {CHILD_TIMEOUT_S} s"
        ) from exc
    if done.returncode != 0:
        raise BenchmarkError(
            f"{workload}: repetition exited {done.returncode}\n"
            f"{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end pass: repetitions until the budget is spent.  A
    repetition during which the machine changed speed (see
    :mod:`.calibrate`) is set aside and repeated; if the machine never
    settles, the unsteady ones are used after all."""
    steady: List[dict] = []
    unsteady: List[dict] = []
    while len(steady) + len(unsteady) < MAX_REPS:
        rep = spawn_child(workload, seed)
        if rep["machine_drift"] > MAX_DRIFT:
            unsteady.append(rep)
            continue
        steady.append(rep)
        timed = sum(rep["timed_s"] for rep in steady)
        if len(steady) >= MIN_REPS and timed >= seconds:
            break
    if len(steady) < MIN_REPS:
        steady, unsteady = steady + unsteady, []
    result = aggregate(workload, seed, steady)
    result["set_aside"] = len(unsteady)
    return result


def aggregate(workload: str, seed: int, reps: List[dict]) -> dict:
    drifted: List[str] = []
    for name in EXACT:
        values = {rep[name] for rep in reps}
        if len(values) > 1 and workload_is_deterministic(workload):
            drifted.append(
                f"lost determinism: {name} differs between repetitions: "
                f"{sorted(values)}"
            )
    pooled = [x for rep in reps for x in rep["latencies_us"]]
    metrics: Dict[str, dict] = {}
    for metric in END_TO_END:
        samples = [rep[metric.name] for rep in reps]
        finite = [x for x in samples if math.isfinite(x)]
        if metric.name == "wall_p50_us":
            value = percentile(pooled, 0.50)
        else:
            value = statistics.median(samples)
        q1, _, q3 = quartiles(finite)
        metrics[metric.name] = {
            "value": value,
            "unit": metric.unit,
            "q1": q1,
            "q3": q3,
            "n": len(samples),
            "samples": samples,
        }
    layers = {
        key: statistics.median(rep["layers"][key] for rep in reps)
        for key in reps[0]["layers"]
    }
    layers["wall_p99_us"] = percentile(pooled, 0.99)
    return {
        "workload": workload,
        "seed": seed,
        "repetitions": len(reps),
        "latency_samples": len(pooled),
        "timed_s": sum(rep["timed_s"] for rep in reps),
        "attempted": sum(rep["attempted"] for rep in reps),
        "checks": sum(rep["checks"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps) + len(drifted),
        "problems": drifted + [p for rep in reps for p in rep["problems"]],
        "metrics": metrics,
        "layers": layers,
    }


def workload_is_deterministic(workload: str) -> bool:
    """Everything single-threaded must repeat exactly; a workload
    module that runs worker threads says so (``THREADED``)."""
    return not getattr(WORKLOADS[workload], "THREADED", False)


def run_traced(workload: str, seed: int) -> dict:
    """The per-layer pass: one untraced reference repetition (its
    ``stats()`` counters are unperturbed), one traced repetition for
    the spans, and — for the ARU and file-system workloads — one more
    on the journaling baseline, same generated ops."""
    reference = spawn_child(workload, seed)
    traced = spawn_child(workload, seed, traced=True)
    # Span-derived rows exist only in the traced repetition; rows both
    # have come from the reference.
    layers: Dict[str, float] = {**traced["layers"], **reference["layers"]}
    at_nominal = [
        child["timed_s"] * child["layers"]["machine.speed"]
        for child in (traced, reference)
    ]
    layers["trace.overhead_pct"] = (
        100.0 * (at_nominal[0] - at_nominal[1]) / at_nominal[1]
    )
    children = [reference, traced]
    if workload in JLD_WORKLOADS:
        jld = spawn_child(workload, seed, substrate="jld")
        layers["jld.wall_ops_per_s"] = jld["wall_ops_per_s"]
        layers["jld.sim_us_per_op"] = jld["sim_us_per_op"]
        children.append(jld)
    layers.update(src_lines())
    problems = [p for child in children for p in child["problems"]]
    return {
        "workload": workload,
        "seed": seed,
        "attempted": sum(child["attempted"] for child in children),
        "checks": sum(child["checks"] for child in children),
        "failed": sum(child["failed"] for child in children),
        "problems": problems,
        "trace_missing": traced["trace_missing"],
        "timed_s": sum(child["timed_s"] for child in children),
        "layers": layers,
    }


def declared_layers(layers: Dict[str, float]) -> Dict[str, dict]:
    """The ``per_layer`` metrics ``BENCHMARK.json`` declares; a layer
    a workload never enters reads as zero."""
    return {
        name: {"value": float(layers.get(name, 0.0)), "unit": unit}
        for name, unit, _ in PER_LAYER
    }
