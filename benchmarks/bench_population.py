"""E22/E22a — population-scale load and kernel raw throughput.

The two gates this file enforces:

* **E22** — a 10⁵-client open-loop population finishes its ramp with
  every per-stage SLO met and *zero* sampled spec-conformance
  violations (each audit is a recorded Figure-6 iteration checked
  inline).
* **E22a** — the shipped kernel moves events at least **3x** faster
  than the frozen seed heapq loop on the same 10⁵-client wake storm.
  The ratio is machine-relative (both sides run on the same box), so
  the gate travels to any CI runner; absolute events/sec go into the
  BENCH_obs metrics attachment for trend-watching, not gating.
"""

from repro.bench import run_kernel_throughput, run_population
from repro.bench.artifact import record_result

#: The E22a acceptance floor: shipped kernel vs seed loop, events/sec.
MIN_KERNEL_SPEEDUP = 3.0


def test_e22_population_slo(benchmark):
    result = benchmark.pedantic(run_population, rounds=1, iterations=1)
    record_result(result, metrics=result.population_metrics)
    print()
    print(result)

    total = next(r for r in result.rows if r["stage"] == "total")
    stages = [r for r in result.rows if r["stage"] != "total"]

    # 10⁵+ open-loop clients arrived, and the drain grace was enough:
    # every session completed (open-loop offered load never wedges).
    assert total["arrivals"] >= 100_000
    assert total["completions"] == total["arrivals"]

    # Every stage meets its SLOs; audited iterations never violate
    # the Figure-6 specification.
    for row in stages:
        assert row["slo_ok"], row
        assert row["audit_violations"] == 0, row
    metrics = result.population_metrics
    assert metrics["population.audits"] > 0
    assert metrics["population.audit_violations"] == 0


def test_e22a_kernel_throughput(benchmark):
    result = benchmark.pedantic(run_kernel_throughput, rounds=1, iterations=1)
    record_result(result, metrics=result.throughput_metrics)
    print()
    print(result)

    by_kernel = {r["kernel"]: r for r in result.rows}
    # Event counts are schedule-determined and identical across kernels
    # (the differential-determinism property, observed at benchmark
    # scale).
    events = {r["events"] for r in result.rows}
    assert len(events) == 1

    # The acceptance gate: wheel ≥ 3x the seed heapq loop.
    assert by_kernel["seed"]["speedup"] == 1.0
    assert by_kernel["wheel"]["speedup"] >= MIN_KERNEL_SPEEDUP, by_kernel
