"""World invariants under randomized operation sequences."""

from hypothesis import given, settings, strategies as st

from repro.errors import FailureException, StoreError
from repro.store import Repository
from repro.wan import Mutator, ScenarioSpec, build_scenario

from helpers import CLIENT, standard_world


def test_invariants_hold_on_fresh_world():
    kernel, net, world, elements = standard_world(members=5, replicas=2)
    assert world.check_invariants() == []


def test_invariants_hold_after_scripted_ops():
    kernel, net, world, elements = standard_world(members=3, replicas=1)
    repo = Repository(world, CLIENT)

    def proc():
        e = yield from repo.add("coll", "fresh", value=1, home="s2")
        yield from repo.remove("coll", elements[0])
        yield from repo.remove("coll", e)
        yield from repo.add("coll", "another", value=2)

    kernel.run_process(proc())
    kernel.run(until=kernel.now + 2.0)    # let anti-entropy settle
    assert world.check_invariants() == []


def test_invariants_detect_sabotage():
    kernel, net, world, elements = standard_world(members=2)
    # sabotage: tombstone a member's object behind the store's back
    world.server(elements[0].home).objects[elements[0].oid].deleted = True
    problems = world.check_invariants()
    assert any("no live object" in p for p in problems)


def test_invariants_detect_ahead_replica():
    kernel, net, world, elements = standard_world(members=2, replicas=1)
    replica_state = world.server("s1").collections["coll"]
    replica_state.version = 999
    problems = world.check_invariants()
    assert any("ahead of primary" in p for p in problems)


@given(st.integers(min_value=0, max_value=9999),
       st.lists(st.sampled_from(["add", "remove"]), min_size=1, max_size=12))
@settings(max_examples=15, deadline=None)
def test_invariants_hold_under_random_op_sequences(seed, ops):
    kernel, net, world, elements = standard_world(members=3, replicas=1,
                                                  seed=seed)
    repo = Repository(world, CLIENT)

    def proc():
        counter = 0
        current = list(elements)
        for op in ops:
            try:
                if op == "add":
                    counter += 1
                    e = yield from repo.add("coll", f"r{counter}",
                                            value=counter,
                                            home=f"s{counter % 4}")
                    current.append(e)
                elif current:
                    victim = current.pop(0)
                    yield from repo.remove("coll", victim)
            except (FailureException, StoreError):
                pass

    kernel.run_process(proc())
    kernel.run(until=kernel.now + 2.0)
    assert world.check_invariants() == []


def test_invariants_hold_after_churn_with_faults():
    from repro.net import FaultPlan
    plan = FaultPlan(isolate_rate=0.05, mean_downtime=0.5,
                     protected=frozenset({"client", "n0.0"}))
    spec = ScenarioSpec(n_clusters=3, cluster_size=2, n_members=10,
                        replicas=1, fault_plan=plan)
    scenario = build_scenario(spec, seed=3)
    mutator = Mutator(scenario, add_rate=1.0, remove_rate=0.5)
    mutator.start()
    scenario.kernel.run(until=60.0)
    scenario.injector.stop()
    # quiesce: stop mutation, heal, settle replication — long enough for
    # the repair daemon's orphan-GC grace period (ORPHAN_GRACE_ROUNDS
    # scrub rounds) to elapse and a further round to collect, so a failed
    # add whose cleanup could not reach an isolated home is reclaimed
    for proc in scenario.kernel.processes():
        if proc.name == "mutator":
            proc.kill()
    scenario.net.heal()
    scenario.kernel.run(until=scenario.kernel.now + 12.0)
    assert scenario.world.check_invariants() == []
