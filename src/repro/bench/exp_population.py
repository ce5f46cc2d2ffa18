"""E22 — population-scale load, and E22a — raw kernel throughput.

The paper's environment is "thousands of workstations" querying shared
collections.  E22 makes that literal: an open-loop, heavy-tailed
arrival process (the :mod:`repro.wan.population` engine) drives 10⁵
simulated client sessions through ramp/steady/cool-down stages against
one wide-area world, with per-stage SLOs and sampled spec-conformance
audits.  The gate: every stage meets its SLO and not one audited
iteration violates Figure 6.

E22a isolates the substrate those populations run on: the same wake
storm — 10⁵ clients, quantized think-time ticks — is replayed through
the frozen seed kernel (:mod:`repro.sim._seed_kernel`, one heapq pop
per event) and the current kernel (timer-wheel scheduler, batched
same-instant dispatch, zero-allocation resume path).  The ``speedup``
column is the events/sec ratio over the seed loop; CI pins it ≥ 3x.

Wall-clock columns are named ``wall_ms`` so the artifact comparator
ignores them; ``events`` counts are seed-deterministic and gated
exactly, ``speedup`` is machine-relative and gated directionally.
"""

from __future__ import annotations

import time

from ..sim import Kernel, Sleep
from ..sim._seed_kernel import Kernel as SeedKernel
from ..wan.population import (
    PopulationEngine,
    PopulationSpec,
    Stage,
    default_behaviors,
)
from ..wan.workload import ScenarioSpec, build_scenario
from .report import ExperimentResult

__all__ = ["run_population", "run_kernel_throughput",
           "population_spec", "wake_storm"]


def population_spec(scenario, scale: float = 1.0,
                    audit_fraction: float = 0.0005) -> PopulationSpec:
    """The E22 schedule: ramp to 1600 arrivals/s, hold, cool down.

    At ``scale=1.0`` the expected arrival count is ~1.06 × 10⁵ clients
    (16k ramp + 80k steady + 10k cool-down).  ``scale`` multiplies the
    stage *rates* — durations and SLOs stay fixed, so a scaled-down run
    (tests, soaks) exercises identical schedule logic.
    """
    rate = 1600.0 * scale
    return PopulationSpec(
        behaviors=default_behaviors(scenario),
        stages=(
            Stage(duration=20.0, arrival_rate=rate, name="ramp-up",
                  max_failure_rate=0.05, max_p95_latency=2.0),
            Stage(duration=50.0, arrival_rate=rate, name="steady",
                  max_failure_rate=0.02, max_p95_latency=1.0),
            Stage(duration=10.0, arrival_rate=rate / 4.0, name="cool-down",
                  max_failure_rate=0.05, max_p95_latency=2.0),
        ),
        arrival="lognormal",
        lognormal_sigma=1.0,
        audit_fraction=audit_fraction,
    )


def run_population(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    """E22: the population ramp, one row per stage plus a totals row."""
    scenario = build_scenario(ScenarioSpec(), seed=seed)
    spec = population_spec(scenario, scale=scale)
    engine = PopulationEngine(scenario, spec)
    t0 = time.perf_counter()
    stages = engine.run()
    wall = time.perf_counter() - t0
    metrics = scenario.kernel.obs.metrics
    result = ExperimentResult(
        "E22",
        f"Population load: open-loop {spec.arrival} arrivals, "
        f"{len(spec.behaviors)}-behaviour mix, seed={seed}",
        columns=["stage", "target_rate", "arrivals", "completions",
                 "failure_rate", "p95_s", "audit_violations", "slo_ok"],
        notes="open-loop: offered load is independent of completions; "
              "SLOs judged over sessions arriving in the stage; audits "
              "run recorded fig6 iterations inline",
    )
    for r in stages:
        result.add(stage=r.name, target_rate=round(r.target_rate, 1),
                   arrivals=r.arrivals, completions=r.completions,
                   failure_rate=round(r.failure_rate, 4),
                   p95_s=round(r.p95_latency, 4),
                   audit_violations=r.audit_violations,
                   slo_ok=r.slo_ok)
    result.add(stage="total", target_rate="",
               arrivals=sum(r.arrivals for r in stages),
               completions=sum(r.completions for r in stages),
               failure_rate=round(
                   sum(r.failures for r in stages)
                   / max(1, sum(r.completions for r in stages)), 4),
               p95_s="",
               audit_violations=sum(r.audit_violations for r in stages),
               slo_ok=all(r.slo_ok for r in stages))
    # The population.* registry view, for the BENCH_obs metrics
    # attachment (benchmarks pass this to record_result) and for tests.
    result.population_metrics = {
        "population.arrivals": metrics.value("population.arrivals"),
        "population.completions": metrics.value("population.completions"),
        "population.failures": metrics.value("population.failures"),
        "population.peak_active": metrics.value("population.peak_active"),
        "population.audits": metrics.value("population.audits"),
        "population.audit_violations":
            metrics.value("population.audit_violations"),
        "kernel.events": metrics.value("kernel.events"),
        "elapsed_wall_s": round(wall, 3),
    }
    return result


# -- E22a: kernel throughput ------------------------------------------

#: The wake-storm think-time quantum: population sessions pace on
#: tens-of-milliseconds ticks, which is also where same-instant batch
#: dispatch matters (coincident wakes).
_TICK = 0.010


def wake_storm(kernel, n_clients: int, wakes: int,
               transient: bool = True) -> float:
    """Spawn the E22a storm on ``kernel`` and run it; returns wall secs.

    ``n_clients`` generators each sleep a deterministic stagger, then
    ``wakes`` fixed ticks drawn from a 7-value quantized mix — the
    shape of an idling population.  Works on both the current kernel
    and the frozen seed kernel (which predates ``transient=``).
    """
    sleeps = [Sleep(_TICK * (1 + k)) for k in range(7)]
    stagger = [Sleep(k * (_TICK / 64.0)) for k in range(64)]

    def client(i: int):
        yield stagger[i % 64]
        tick = sleeps[(i * 31) % 7]
        for _ in range(wakes):
            yield tick

    for i in range(n_clients):
        if transient:
            kernel.spawn(client(i), transient=True)
        else:
            kernel.spawn(client(i))
    t0 = time.perf_counter()
    kernel.run()
    return time.perf_counter() - t0


def run_kernel_throughput(n_clients: int = 100_000,
                          wakes: int = 4) -> ExperimentResult:
    """E22a: events/sec through the seed and the shipped wheel kernel."""
    variants = (
        ("seed", lambda: SeedKernel(seed=1), False),
        ("wheel", lambda: Kernel(seed=1), True),
    )
    result = ExperimentResult(
        "E22a",
        f"Kernel throughput: {n_clients} clients x {wakes + 2} events "
        "(events/sec vs the frozen seed heapq loop)",
        columns=["kernel", "events", "speedup", "wall_ms"],
        notes="seed = pre-refactor kernel kept verbatim in "
              "repro.sim._seed_kernel; speedup = events/sec over seed; "
              "wall_ms is machine-dependent and ignored by the gate",
    )
    rates: dict[str, float] = {}
    # Per client: the spawn step, the stagger wake, then one wake per tick.
    expected = n_clients * (wakes + 2)
    for name, factory, transient in variants:
        kernel = factory()
        wall = wake_storm(kernel, n_clients, wakes, transient=transient)
        events = int(kernel.obs.metrics.value("kernel.events"))
        assert events == expected, (name, events, expected)
        rates[name] = events / wall
        result.add(kernel=name, events=events,
                   speedup=round(rates[name] / rates["seed"], 2),
                   wall_ms=round(wall * 1000.0, 1))
    result.throughput_metrics = {f"{k}_ev_per_s": round(v, 0)
                                 for k, v in rates.items()}
    return result
