"""E16 — what client-side resilience buys under crash faults.

The paper assumes an environment where "failures are assumed to be
common" and leaves recovery to the client: Figure 6's optimistic
iterator simply waits for repairs.  E16 measures how much of that
waiting a resilient RPC layer (retries + deadlines + circuit breakers +
replica failover + hedging; :mod:`repro.net.resilience`) converts into
completed iterations — without ever weakening the semantics the spec
checker enforces.

We sweep a per-node crash rate and compare three client stacks over the
same seeded worlds:

* **no-retry** — the bare transport; a crashed home blocks the iterator
  until the fault injector repairs the node or ``give_up_after`` fires;
* **retry+failover** — transport failures are retried with backoff and
  element fetches fail over to object replicas;
* **retry+hedge+breaker** — additionally hedges membership reads and
  sheds load to crashed nodes via per-destination circuit breakers.

Reported per point: completion rate (drains that Returned), coverage
(fraction of members yielded), conformance against Figure 6 (must stay
100% — resilience may never invent elements), and the recovery-effort
counters (``rpc.retries``, ``rpc.hedges``, ``rpc.failovers``,
``rpc.breaker_trips``) from the kernel's metrics registry.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from ..net.fabric import Network
from ..net.failures import FaultPlan
from ..net.resilience import BreakerPolicy, ResilientClient, RetryPolicy
from ..spec import Returned, weak_guarantee_violations
from ..wan.workload import Mutator, ScenarioSpec, build_scenario
from ..weaksets import DynamicSet
from .metrics import rate
from .report import ExperimentResult

__all__ = ["run_resilience"]

_RETRY = RetryPolicy(max_attempts=4, base_delay=0.05, multiplier=2.0,
                     max_delay=0.5, jitter=0.5)


def _bare(net: Network) -> Optional[ResilientClient]:
    return None


def _retrying(net: Network) -> Optional[ResilientClient]:
    return ResilientClient(net, policy=_RETRY)


def _full(net: Network) -> Optional[ResilientClient]:
    return ResilientClient(net, policy=_RETRY,
                           breaker=BreakerPolicy(failure_threshold=3,
                                                 cooldown=1.0),
                           hedge_delay=0.1)


#: (variant name, ResilientClient factory, iterator failover flag)
VARIANTS: tuple[tuple[str, Callable[[Network], Optional[ResilientClient]], bool], ...] = (
    ("no-retry", _bare, False),
    ("retry+failover", _retrying, True),
    ("retry+hedge+breaker", _full, True),
)


def one_run(make_resilience: Callable[[Network], Optional[ResilientClient]],
            failover: bool, crash_rate: float, seed: int,
            members: int = 12) -> dict:
    """One seeded drain; returns outcome + counters for one variant."""
    plan = None
    if crash_rate > 0:
        plan = FaultPlan(crash_rate=crash_rate, mean_downtime=2.0,
                         protected=frozenset({"client"}))
    spec = ScenarioSpec(n_clusters=3, cluster_size=3, n_members=members,
                        policy="any", replicas=2, object_replicas=1,
                        heavy_tail=True, fault_plan=plan, fail_fast=True,
                        rpc_timeout=1.0)
    scenario = build_scenario(spec, seed=seed)
    # Background churn makes conformance non-trivial: stale views now
    # list removed members, which failover must not resurrect.
    mutator = Mutator(scenario, add_rate=0.2, remove_rate=0.3)
    mutator.start()
    ws = DynamicSet(scenario.world, scenario.client, spec.coll_id,
                    resilience=make_resilience(scenario.net),
                    rpc_timeout=spec.rpc_timeout,
                    retry_interval=0.25, give_up_after=3.0,
                    failover=failover)
    iterator = ws.elements()

    def proc():
        return (yield from iterator.drain())

    drained = scenario.kernel.run_process(proc())
    if scenario.injector is not None:
        scenario.injector.stop()
    # §3.4's weak guarantee is the safety bar resilience must clear:
    # every yielded element was a member at some point inside the run's
    # window.  (Full Figure 6 conformance additionally forbids the
    # Failed outcome, but give_up_after exists precisely to bound bench
    # runs, so blocked drains report as incomplete, not as unsound.)
    violations = weak_guarantee_violations(
        ws.last_trace, scenario.world.membership_history(spec.coll_id))
    metrics = scenario.kernel.obs.metrics
    return {
        "success": isinstance(drained.outcome, Returned),
        "coverage": len(drained.yields) / members,
        "latency": drained.total_time,
        "sound": not violations,
        "retries": metrics.value("rpc.retries"),
        "hedges": metrics.value("rpc.hedges"),
        "failovers": metrics.value("rpc.failovers"),
        "breaker_trips": metrics.value("rpc.breaker_trips"),
    }


def run_resilience(rates: Iterable[float] = (0.0, 0.05, 0.1, 0.2),
                   runs_per_point: int = 8) -> ExperimentResult:
    """E16: sweep the crash rate; compare the three client stacks."""
    result = ExperimentResult(
        "E16", "Resilient RPC under crash faults "
               "(per-node crash rate, 2s mean downtime)",
        columns=["crash_rate", "variant", "completion_rate", "mean_coverage",
                 "spec_ok", "retries", "hedges", "failovers", "breaker_trips"],
        notes="resilience converts blocked/abandoned drains into completed "
              "ones; spec_ok must stay yes everywhere — recovery may reorder "
              "work but never invent or resurrect elements",
    )
    for crash_rate in rates:
        for name, make, failover in VARIANTS:
            outcomes = [one_run(make, failover, crash_rate, seed)
                        for seed in range(runs_per_point)]
            result.add(
                crash_rate=crash_rate,
                variant=name,
                completion_rate=rate(sum(o["success"] for o in outcomes),
                                     runs_per_point),
                mean_coverage=(sum(o["coverage"] for o in outcomes)
                               / runs_per_point),
                spec_ok=all(o["sound"] for o in outcomes),
                retries=sum(o["retries"] for o in outcomes),
                hedges=sum(o["hedges"] for o in outcomes),
                failovers=sum(o["failovers"] for o in outcomes),
                breaker_trips=sum(o["breaker_trips"] for o in outcomes),
            )
    return result
