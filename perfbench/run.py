"""Benchmark entry point: one workload, one seed, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload population --seed 1 --seconds 20 --trace 0

``--trace 0`` times untraced passes and reports the end-to-end
metrics; ``--trace 1`` runs one untraced and one profiled pass at the
same seed and reports the per-layer metrics.  Either way the last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``
and the exit code is 0 only if every correctness check passed.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from workloads import REALIZATIONS, WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent

#: end-to-end metric -> unit
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "goodput_vs": "1/vs",
    "latency_p50_vs": "vs",
    "latency_p99_vs": "vs",
    "ok_op_share": "fraction",
    "bytes_per_op": "B/op",
}

#: workload-size multiplier of the warm-up pass that precedes timing: it
#: loads lazily imported code and warms the allocator for a fraction of
#: a full pass's cost
WARMUP_SCALE = 0.05


def pass_seed(seed: int, realization: int) -> int:
    """The seed of one pass of a run; distinct runs never share one."""
    return seed * 1000 + realization


def startup_s() -> float:
    """Wall time of a fresh interpreter starting and importing the
    workloads: the part of set-up a process pays once."""
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); "
            "import workloads, layers")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def _timed_pass(build, seed: int, scale: float, tracer=None):
    """Build, run and check one pass; returns (setup s, run s, outcome,
    problems, registry)."""
    gc.collect()
    t0 = time.perf_counter()
    run = build(seed, scale)
    t1 = time.perf_counter()
    if tracer is None:
        outcome = run.run()
    else:
        with tracer:
            outcome = run.run()
    t2 = time.perf_counter()
    problems = run.check()
    return t1 - t0, t2 - t1, outcome, problems, run.scenario.kernel.obs.metrics


def _compare(label: str, first: dict, other: dict) -> list[str]:
    return [f"{label}: {key} {first[key]!r} != {other[key]!r}"
            for key in first if first[key] != other[key]]


def measure(workload: str, seed: int, seconds: float, scale: float) -> dict:
    """Untraced passes, cycling over the workload's realizations, until
    each has run once and ``seconds`` of timed phase have elapsed.

    Host metrics are medians over every pass; each pass's set-up sample
    is a fresh interpreter's start-up plus the pass's world build, so
    the samples spread over the run like the throughput ones.  Virtual
    metrics pool the first pass of each realization, and a repeated
    realization must reproduce its first pass exactly.
    """
    build, realizations = WORKLOADS[workload], REALIZATIONS[workload]
    setups, rates, problems, firsts = [], [], [], []
    timed = 0.0
    while len(rates) < realizations or timed < seconds:
        k = len(rates) % realizations
        start_s = startup_s()
        setup_s, run_s, outcome, found, _ = _timed_pass(
            build, pass_seed(seed, k), scale)
        setups.append(start_s + setup_s)
        rates.append(outcome.ops / run_s)
        timed += run_s
        problems += found
        if len(firsts) < realizations:
            firsts.append(outcome)
        else:
            problems += _compare(f"pass {len(rates)} repeating realization {k}",
                                 firsts[k].fingerprint(), outcome.fingerprint())
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024.0,
        **Outcome.pooled(firsts).virtual_metrics(),
    }
    return _result(problems, len(rates), metrics, END_TO_END_UNITS)


def trace(workload: str, seed: int, scale: float) -> dict:
    """One untraced and one profiled pass of the first realization."""
    build, seed = WORKLOADS[workload], pass_seed(seed, 0)
    _, plain_s, plain, problems, _ = _timed_pass(build, seed, scale)
    tracer = layers.Tracer()
    _, traced_s, traced, found, registry = _timed_pass(build, seed, scale,
                                                       tracer)
    problems += found
    problems += _compare("traced vs untraced", plain.fingerprint(),
                         traced.fingerprint())
    metrics = layers.per_layer_metrics(tracer, traced.ops, registry)
    metrics["trace.overhead"] = traced_s / plain_s
    return _result(problems, 2, metrics, layers.PER_LAYER_UNITS)


def _result(problems: list, passes: int, metrics: dict, units: dict) -> dict:
    for problem in problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": passes,
        "failed": passes if problems else 0,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size multiplier (smoke tests only)")
    args = parser.parse_args(argv)
    WORKLOADS[args.workload](pass_seed(args.seed, 0), WARMUP_SCALE).run()
    if args.trace:
        result = trace(args.workload, args.seed, args.scale)
    else:
        result = measure(args.workload, args.seed, args.seconds, args.scale)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
