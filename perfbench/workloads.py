"""The three benchmark workloads, built on the package's public API.

Each workload is split the way the benchmark times it: ``build(seed)``
constructs the world, engine and inputs (the set-up phase) and returns
a :class:`Pass`; ``Pass.run()`` is the timed phase and returns a
:class:`Outcome` holding every virtual-time figure the pass produced;
``Pass.check()`` runs the correctness gate after the clock has stopped.

* ``population`` — E22's open-loop lognormal schedule at 1/10 rate
  against the 4x4 WAN: read-mostly traffic, so the wire, the transport
  and the kernel do most of the host work.
* ``overload`` — E23's protected arm at half stage length: the only
  workload that exercises admission control, shedding, brownout reads,
  retry budgets and AIMD windows.
* ``ingest_drain`` — one closed-loop client bulk-adds ~10^3 members to
  a sharded WAN world, then drains it twice (fig6 and fig4): the work
  moves to the fetch/write pipelines, ground truth and the checker.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Generator

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "repro").is_dir():
    raise SystemExit(f"perfbench: no package source at {SRC / 'repro'}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.net.executor import ExecutorPolicy  # noqa: E402
from repro.net.resilience import (  # noqa: E402
    AIMDPolicy,
    AdaptiveLimiter,
    ResilientClient,
    RetryBudgetPolicy,
)
from repro.sim.rng import Stream  # noqa: E402
from repro.spec import check_conformance, spec_by_id  # noqa: E402
from repro.store import Repository  # noqa: E402
from repro.wan.population import (  # noqa: E402
    Behavior,
    PopulationEngine,
    PopulationSpec,
    Stage,
    default_behaviors,
)
from repro.wan.workload import ScenarioSpec, build_scenario, member_plan  # noqa: E402
from repro.weaksets import DynamicSet, SnapshotSet, Yielded  # noqa: E402

__all__ = ["WORKLOADS", "REALIZATIONS", "Outcome", "Pass", "quantile"]


@dataclass
class Outcome:
    """What one pass did, in virtual time, plus its raw counts.

    ``ops`` is the host-throughput numerator: completed operations
    (finished sessions, or acked adds plus yielded members).  ``ok`` and
    ``attempted`` give the success share; ``latencies`` holds one
    virtual-seconds sample per successful operation.
    """

    ops: int
    ok: int
    attempted: int
    virtual_s: float
    latencies: list = field(repr=False)
    bytes_sent: int
    events: int

    @classmethod
    def pooled(cls, outcomes: list["Outcome"]) -> "Outcome":
        """One outcome standing for several passes run back to back."""
        return cls(ops=sum(o.ops for o in outcomes),
                   ok=sum(o.ok for o in outcomes),
                   attempted=sum(o.attempted for o in outcomes),
                   virtual_s=sum(o.virtual_s for o in outcomes),
                   latencies=[x for o in outcomes for x in o.latencies],
                   bytes_sent=sum(o.bytes_sent for o in outcomes),
                   events=sum(o.events for o in outcomes))

    def virtual_metrics(self) -> dict:
        """The end-to-end metrics that only depend on virtual time."""
        lat = sorted(self.latencies)
        return {
            "goodput_vs": self.ok / self.virtual_s,
            "latency_p50_vs": quantile(lat, 0.50),
            "latency_p99_vs": quantile(lat, 0.99),
            "ok_op_share": self.ok / self.attempted,
            "bytes_per_op": self.bytes_sent / self.ops,
        }

    def fingerprint(self) -> dict:
        """Everything that must repeat exactly at a fixed seed."""
        return {**self.virtual_metrics(), "ops": self.ops, "ok": self.ok,
                "attempted": self.attempted, "virtual_s": self.virtual_s,
                "latency_samples": len(self.latencies),
                "bytes_sent": self.bytes_sent, "sim.events": self.events}


def quantile(ordered: list, q: float) -> float:
    """Nearest-rank quantile of an already sorted list."""
    if not ordered:
        raise ValueError("quantile of an empty sample")
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Pass:
    """One built world, ready to run once."""

    scenario: object
    run: Callable[[], Outcome]
    check: Callable[[], list]


# -- shared pieces ---------------------------------------------------------

class _SessionClock:
    """Wraps behaviour scripts to record each successful session's
    virtual latency; a session that raises records nothing."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.latencies: list[float] = []

    def wrap(self, behavior: Behavior) -> Behavior:
        script = behavior.session

        def timed(sc, stream) -> Generator:
            start = self.kernel.now
            yield from script(sc, stream)
            self.latencies.append(self.kernel.now - start)

        return Behavior(behavior.name, behavior.weight, timed)


#: The open-loop worlds are always laid out from this seed; the run's
#: seed draws only the traffic (arrival gaps, behaviour choice, session
#: randomness).  A scanner's latency is fixed by where the first four
#: members by name live, so with per-seed layouts the tail quantiles and
#: the work per session jumped between a few levels from seed to seed.
#: Session latencies have two modes, near members (in the client's
#: cluster) and far ones; this layout puts 35% of members near, so the
#: median session is a far one rather than sitting in the gap between.
#: Inter-cluster latency is heavy-tailed (``heavy_tail=True``) for the
#: same reason: over fixed-latency links most sessions take one of a
#: handful of exact durations, and a quantile can only jump between them.
LAYOUT_SEED = 3


def _population_pass(scenario, behaviors, seed: int,
                     spec_kwargs: dict) -> Pass:
    kernel = scenario.kernel
    clock = _SessionClock(kernel)
    spec = PopulationSpec(behaviors=tuple(clock.wrap(b) for b in behaviors),
                          arrival="lognormal", lognormal_sigma=1.0,
                          **spec_kwargs)
    engine = PopulationEngine(scenario, spec)
    engine.stream = Stream(seed, "population.arrivals")
    metrics = kernel.obs.metrics

    def run() -> Outcome:
        stages = engine.run()
        arrivals = sum(s.arrivals for s in stages)
        completions = sum(s.completions for s in stages)
        failures = sum(s.failures for s in stages)
        return Outcome(ops=completions, ok=completions - failures,
                       attempted=arrivals,
                       virtual_s=spec.total_duration,
                       latencies=clock.latencies,
                       bytes_sent=int(metrics.value("net.bytes_sent")),
                       events=int(metrics.value("kernel.events")))

    def check() -> list:
        problems = list(scenario.world.check_invariants())
        violations = int(metrics.value("population.audit_violations"))
        if violations:
            problems.append(f"{violations} audited iteration(s) violate "
                            f"{spec.audit_figure}")
        return problems

    return Pass(scenario, run, check)


# -- population ------------------------------------------------------------

def build_population(seed: int, scale: float = 1.0) -> Pass:
    """E22 at 1/10 rate: ramp to 160 sessions/s, hold 50 s, cool down.

    ``scale`` multiplies the arrival rates (tests use a tiny one).
    """
    scenario = build_scenario(ScenarioSpec(heavy_tail=True), seed=LAYOUT_SEED)
    rate = 160.0 * scale
    stages = (Stage(duration=20.0, arrival_rate=rate, name="ramp-up"),
              Stage(duration=50.0, arrival_rate=rate, name="steady"),
              Stage(duration=10.0, arrival_rate=rate / 4.0, name="cool-down"))
    return _population_pass(scenario, default_behaviors(scenario), seed,
                            dict(stages=stages, audit_fraction=0.0005))


# -- overload --------------------------------------------------------------

def _overload_behaviors(scenario, repo: Repository) -> tuple[Behavior, ...]:
    """E23's 8:1 reader/writer mix, every session behind one shared
    client stack (the retry budget and AIMD window are per stack)."""
    coll = scenario.coll_id
    counter = iter(range(1, 1 << 30))

    def reader(sc, stream) -> Generator:
        view = yield from repo.read_membership(coll)
        members = sorted(view.members, key=lambda e: e.name)
        if members:
            yield from repo.fetch(members[stream.randint(0, len(members) - 1)])

    def writer(sc, stream) -> Generator:
        i = next(counter)
        element = yield from repo.add(coll, f"ovl-{i:07d}",
                                      value=f"ovl-payload-{i}")
        yield from repo.remove(coll, element)

    return (Behavior("reader", 8.0, reader), Behavior("writer", 1.0, writer))


def build_overload(seed: int, scale: float = 1.0) -> Pass:
    """E23's protected arm at half stage length (4 s per stage).

    4 workers x 10 ms behind a priority queue of 16 with brownout
    reads; clients carry a 0.1/10 retry budget and an AIMD window <= 32.
    ``scale`` multiplies the stage durations.
    """
    executor = ExecutorPolicy(concurrency=4, queue_limit=16,
                              discipline="priority", brownout=True)
    scenario = build_scenario(
        ScenarioSpec(heavy_tail=True, service_time=0.010, executor=executor),
        seed=LAYOUT_SEED)
    client = ResilientClient(
        scenario.net, retry_budget=RetryBudgetPolicy(ratio=0.1, burst=10.0))
    limiter = AdaptiveLimiter(AIMDPolicy(max_window=32),
                              metrics=scenario.kernel.obs.metrics)
    repo = Repository(scenario.world, scenario.client, resilience=client,
                      limiter=limiter)
    d = 4.0 * scale
    stages = (Stage(duration=d, arrival_rate=160.0, name="below"),
              Stage(duration=d, arrival_rate=400.0, name="knee"),
              Stage(duration=d, arrival_rate=800.0, name="saturate"),
              Stage(duration=d, arrival_rate=1400.0, name="overload"))
    return _population_pass(scenario, _overload_behaviors(scenario, repo), seed,
                            dict(stages=stages, audit_fraction=0.001,
                                 drain_grace=20.0))


# -- ingest_drain ----------------------------------------------------------

#: The ingest world: 4x3 WAN-preset links, 16 KB bodies, the registry
#: split over 4 shards, one membership replica and one object replica
#: per member, members spread nearly uniformly over the clusters.
INGEST_SPEC = ScenarioSpec(n_clusters=4, cluster_size=3, n_members=0,
                           member_size=16384, placement_skew=0.2,
                           replicas=1, object_replicas=1, shards=4,
                           bandwidth_preset="wan")


def build_ingest_drain(seed: int, scale: float = 1.0) -> Pass:
    """Bulk-add 1024 x ``scale`` members over RPC, then drain twice."""
    scenario = build_scenario(INGEST_SPEC, seed=seed)
    kernel, world = scenario.kernel, scenario.world
    coll, client = scenario.coll_id, scenario.client
    plan = member_plan(replace(INGEST_SPEC,
                               n_members=max(1, round(1024 * scale))), kernel)
    metrics = kernel.obs.metrics
    state: dict = {}

    def client_session() -> Generator:
        added = yield from Repository(world, client).add_many(coll, plan)
        drains = {}
        for ws, fig in ((DynamicSet(world, client, coll), "fig6"),
                        (SnapshotSet(world, client, coll), "fig4")):
            drains[fig] = yield from ws.elements().drain()
            state[fig] = ws.last_trace
        state.update(added=added, drains=drains)

    def run() -> Outcome:
        start = kernel.now
        kernel.run_process(client_session())
        # Checking each recorded drain is part of the workload's work.
        state["reports"] = {fig: check_conformance(state[fig], spec_by_id(fig),
                                                   world)
                            for fig in ("fig6", "fig4")}
        # A drain asks for the whole set at once, so each member's
        # latency runs from the drain's first invocation to its yield
        # (most yields complete instantly out of the prefetch window).
        latencies = [inv.t_complete - trace.invocations[0].t_invoke
                     for trace in (state["fig6"], state["fig4"])
                     for inv in trace.invocations
                     if isinstance(inv.outcome, Yielded)]
        ops = len(state["added"]) + sum(len(d.yields)
                                        for d in state["drains"].values())
        return Outcome(ops=ops, ok=ops, attempted=3 * len(plan),
                       virtual_s=kernel.now - start, latencies=latencies,
                       bytes_sent=int(metrics.value("net.bytes_sent")),
                       events=int(metrics.value("kernel.events")))

    def check() -> list:
        problems = list(world.check_invariants())
        problems += [f"the {fig} drain is not conformant"
                     for fig, report in state["reports"].items()
                     if not report.conformant]
        ingested = set(state["added"])
        if len(ingested) != len(plan):
            problems.append(f"{len(ingested)} of {len(plan)} adds acked")
        if set(state["drains"]["fig4"].elements) != ingested:
            problems.append("fig4 drain did not yield exactly the ingested set")
        return problems

    return Pass(scenario, run, check)


#: name -> build(seed, scale) -> Pass
WORKLOADS: dict[str, Callable[..., Pass]] = {
    "population": build_population,
    "overload": build_overload,
    "ingest_drain": build_ingest_drain,
}

#: how many passes, each on its own seed, a run pools its virtual-time
#: metrics over.  Overload's queues amplify small traffic differences,
#: so its goodput and failure share need more passes to settle; an
#: ingest_drain pass is long enough that two would leave the host
#: median resting on two samples.
REALIZATIONS: dict[str, int] = {
    "population": 2,
    "overload": 3,
    "ingest_drain": 3,
}
