"""The batched, pipelined write path: WritePipeline + group commit."""

import pytest

from repro.errors import FailureException, MutationNotAllowed
from repro.net.failures import FaultSchedule
from repro.sim.events import Sleep
from repro.store import AddSpec, Repository
from repro.store.wal import APPLIED, PENDING
from repro.weaksets import DynamicSet

from helpers import CLIENT, PRIMARY, standard_world


def _specs(n, *, home=None, replicas=(), size=0):
    return [AddSpec(name=f"b{i:03d}", value=f"bv{i}", home=home,
                    size=size, replicas=replicas) for i in range(n)]


# ---------------------------------------------------------------------------
# the happy path: batching, coalescing, result order
# ---------------------------------------------------------------------------

def test_add_many_registers_all_members():
    kernel, net, world, _ = standard_world()
    repo = Repository(world, CLIENT)
    specs = [AddSpec(f"b{i:03d}", value=i, home=f"s{i % 4}")
             for i in range(10)]
    elements = kernel.run_process(
        repo.add_many("coll", specs, window=4, batch_size=4))
    assert [e.name for e in elements] == [s.name for s in specs]
    truth = {e.name for e in world.true_members("coll")}
    assert truth == {s.name for s in specs}
    assert world.check_invariants() == []


def test_add_many_results_follow_submission_order():
    kernel, net, world, _ = standard_world()
    repo = Repository(world, CLIENT)
    # mixed homes => batches complete out of order; results must not
    elements = kernel.run_process(
        repo.add_many("coll", _specs(9, home="s2"), window=3, batch_size=2))
    assert [e.name for e in elements] == [f"b{i:03d}" for i in range(9)]


def test_add_many_accepts_bare_names():
    kernel, net, world, _ = standard_world()
    repo = Repository(world, CLIENT)
    elements = kernel.run_process(repo.add_many("coll", ["x", "y"]))
    assert {e.name for e in elements} == {"x", "y"}
    # default home is the collection primary
    assert all(e.home == PRIMARY for e in elements)


def test_same_home_puts_coalesce_into_multiputs():
    kernel, net, world, _ = standard_world()
    repo = Repository(world, CLIENT)
    kernel.run_process(
        repo.add_many("coll", _specs(8, home="s1"), window=1, batch_size=4))
    metrics = kernel.obs.metrics
    # 8 puts to one destination in batches of 4 → 2 put_objects calls,
    # plus 2 add_members calls; far fewer than the 16 serial RPCs
    assert metrics.value("write.batch.calls") == 4
    assert metrics.value("write.batch.elements") == 16
    assert metrics.value("write.batch.coalesced") > 0
    assert metrics.value("write.batch.acked") == 8


def test_replica_fanout_runs_concurrently():
    kernel, net, world, _ = standard_world()
    repo = Repository(world, CLIENT)
    start = kernel.now
    kernel.run_process(repo.add_many(
        "coll", _specs(4, home="s1", replicas=("s2", "s3")),
        window=1, batch_size=4))
    fanned = kernel.now - start

    kernel2, net2, world2, _ = standard_world()
    repo2 = Repository(world2, CLIENT)
    start = kernel2.now

    def serial():
        for s in _specs(4, home="s1", replicas=("s2", "s3")):
            yield from repo2.add("coll", s.name, s.value, s.home,
                                 s.size, replicas=s.replicas)

    kernel2.run_process(serial())
    assert fanned < kernel2.now - start
    assert ({e.name for e in world.true_members("coll")}
            == {e.name for e in world2.true_members("coll")})


def test_batched_adds_preserve_copy_implies_member():
    """Every replica listed on a registered element has a live copy —
    membership only ever trails the puts, never leads them."""
    kernel, net, world, _ = standard_world()
    repo = Repository(world, CLIENT)
    elements = kernel.run_process(repo.add_many(
        "coll", _specs(6, home="s1", replicas=("s2",)),
        window=2, batch_size=3))
    for element in elements:
        assert world.server(element.home).has_object(element.oid)
        for replica in element.replicas:
            assert world.server(replica).has_object(element.oid)
    assert world.check_invariants() == []


def test_remove_many_unregisters_and_counts():
    kernel, net, world, elements = standard_world(members=7)
    repo = Repository(world, CLIENT)
    victims = elements[:5]
    acked = kernel.run_process(
        repo.remove_many("coll", victims, window=2, batch_size=3))
    assert acked == 5
    truth = {e.name for e in world.true_members("coll")}
    assert truth == {e.name for e in elements[5:]}
    assert world.check_invariants() == []


def test_mixed_add_remove_batches_settle_clean():
    kernel, net, world, elements = standard_world(members=4, replicas=1)
    repo = Repository(world, CLIENT)

    def proc():
        added = yield from repo.add_many(
            "coll", _specs(6, home="s2", replicas=("s3",)),
            window=2, batch_size=2)
        gone = yield from repo.remove_many(
            "coll", elements[:2] + added[:3], window=2, batch_size=4)
        return added, gone

    added, gone = kernel.run_process(proc())
    assert gone == 5
    kernel.run(until=kernel.now + 2.0)      # replica sync settle
    truth = {e.name for e in world.true_members("coll")}
    assert truth == ({e.name for e in elements[2:]}
                     | {e.name for e in added[3:]})
    assert world.check_invariants() == []


def test_weakset_add_many_delegates_to_pipeline():
    kernel, net, world, _ = standard_world()
    ws = DynamicSet(world, CLIENT, "coll")
    elements = kernel.run_process(ws.add_many(["p", "q", "r"]))
    assert {e.name for e in elements} == {"p", "q", "r"}
    assert kernel.obs.metrics.value("write.batch.calls") > 0


# ---------------------------------------------------------------------------
# group commit on the server
# ---------------------------------------------------------------------------

def test_add_members_batch_is_one_intent_one_version_bump():
    kernel, net, world, _ = standard_world()
    state = world.server(PRIMARY).collections["coll"]
    before = state.version
    repo = Repository(world, CLIENT)
    kernel.run_process(
        repo.add_many("coll", _specs(5, home="s1"), window=1, batch_size=5))
    wal = world.server(PRIMARY).wal
    batches = [r for r in wal.records if r.kind == "add-batch"]
    assert len(batches) == 1
    [record] = batches
    assert record.status is APPLIED
    assert len(record.elements) == 5
    # the whole batch lands as ONE sync_delta-visible version jump
    assert state.version == before + 1
    assert all(state.member_versions[f"b{i:03d}"] == state.version
               for i in range(5))


def test_erase_batch_is_one_intent_one_version_bump():
    kernel, net, world, elements = standard_world(members=6)
    state = world.server(PRIMARY).collections["coll"]
    before = state.version
    repo = Repository(world, CLIENT)
    kernel.run_process(
        repo.remove_many("coll", elements[:4], window=1, batch_size=4))
    wal = world.server(PRIMARY).wal
    batches = [r for r in wal.records if r.kind == "erase-batch"]
    assert len(batches) == 1 and batches[0].status is APPLIED
    assert state.version == before + 1


def test_add_members_rejects_conflicts_before_mutating():
    kernel, net, world, elements = standard_world(members=2)
    repo = Repository(world, CLIENT)
    specs = [AddSpec("fresh"), AddSpec(elements[0].name, value="other")]

    def proc():
        try:
            yield from repo.add_many("coll", specs, window=1, batch_size=2)
            return "added"
        except MutationNotAllowed:
            return "rejected"

    assert kernel.run_process(proc()) == "rejected"
    # validation is up front: the conflicting batch mutated NOTHING
    assert "fresh" not in {e.name for e in world.true_members("coll")}
    assert world.check_invariants() == []


def test_add_many_on_sealed_collection_raises_and_cleans_up():
    kernel, net, world, _ = standard_world(policy="immutable")
    world.seal("coll")
    repo = Repository(world, CLIENT)

    def proc():
        try:
            yield from repo.add_many("coll", _specs(3, home="s1"),
                                     window=1, batch_size=3)
            return "added"
        except MutationNotAllowed:
            return "rejected"

    assert kernel.run_process(proc()) == "rejected"
    kernel.run(until=kernel.now + 1.0)
    # rejected registration => the already-placed copies were deleted
    assert kernel.obs.metrics.value("write.orphan_cleanups") >= 3
    assert world.check_invariants() == []


def test_on_failure_skip_returns_survivors():
    kernel, net, world, _ = standard_world()
    net.isolate("s3")
    repo = Repository(world, CLIENT)
    specs = [AddSpec(f"b{i}", home="s1" if i % 2 else "s3")
             for i in range(6)]
    elements = kernel.run_process(repo.add_many(
        "coll", specs, window=2, batch_size=2, on_failure="skip"))
    assert {e.name for e in elements} == {"b1", "b3", "b5"}
    net.rejoin("s3")
    kernel.run(until=kernel.now + 1.0)
    assert world.check_invariants() == []


def test_on_failure_raise_still_runs_whole_pipeline():
    kernel, net, world, _ = standard_world()
    net.isolate("s3")
    repo = Repository(world, CLIENT)
    specs = [AddSpec("dead", home="s3"), AddSpec("alive", home="s1")]

    def proc():
        try:
            yield from repo.add_many("coll", specs, window=2, batch_size=1)
            return "ok"
        except FailureException:
            return "raised"

    assert kernel.run_process(proc()) == "raised"
    # no partial abandonment: the healthy spec was still added
    assert "alive" in {e.name for e in world.true_members("coll")}


def test_on_failure_rejects_unknown_mode():
    kernel, net, world, _ = standard_world()
    repo = Repository(world, CLIENT)
    with pytest.raises(ValueError):
        kernel.run_process(repo.add_many("coll", ["x"], on_failure="bogus"))


# ---------------------------------------------------------------------------
# orphan cleanup (the Repository.add bugfix + pipeline parity)
# ---------------------------------------------------------------------------

def test_failed_add_cleans_up_landed_copies():
    """The old bug: home put acked, replica put failed, the exception
    propagated — and the home copy stayed forever, invisible to every
    membership view.  Now the failed add deletes what it placed."""
    kernel, net, world, _ = standard_world()
    net.isolate("s2")
    repo = Repository(world, CLIENT)

    def proc():
        try:
            yield from repo.add("coll", "doomed", value=1, home="s1",
                                replicas=("s2",))
            return "added"
        except FailureException:
            return "failed"

    assert kernel.run_process(proc()) == "failed"
    assert kernel.obs.metrics.value("write.orphan_cleanups") >= 1
    # the landed home copy is gone — no orphan invariant violation
    net.rejoin("s2")
    assert world.check_invariants() == []


def test_failed_batched_add_cleans_up_landed_copies():
    kernel, net, world, _ = standard_world()
    net.isolate("s2")
    repo = Repository(world, CLIENT)
    specs = _specs(4, home="s1", replicas=("s2",))
    elements = kernel.run_process(repo.add_many(
        "coll", specs, window=2, batch_size=2, on_failure="skip"))
    assert elements == []
    assert kernel.obs.metrics.value("write.orphan_cleanups") >= 4
    net.rejoin("s2")
    assert world.check_invariants() == []


def test_orphan_invariant_detects_unreferenced_object():
    kernel, net, world, elements = standard_world(members=2)
    # sabotage: an object nothing references, planted behind the store's
    # back (what a failed add used to leave)
    kernel.run_process(world.server("s1").put_object("ghost-oid", "x", 0))
    problems = world.check_invariants()
    assert any("referenced by no collection" in p for p in problems)


def test_repair_daemon_collects_aged_orphans():
    """Cleanup the client couldn't deliver is reclaimed by the scrub
    daemon's orphan-GC pass once the grace period passes."""
    kernel, net, world, elements = standard_world(scrub_interval=1.0)
    kernel.run_process(world.server("s1").put_object("ghost-oid", "x", 0))
    assert world.check_invariants() != []
    kernel.run(until=kernel.now + 8.0)      # grace = 4 rounds @ 1s, + slack
    assert kernel.obs.metrics.value("repair.objects_gcd") >= 1
    assert world.check_invariants() == []


# ---------------------------------------------------------------------------
# crash-mid-batch recovery (group commit + item-precise replay)
# ---------------------------------------------------------------------------

def test_crash_mid_add_batch_settles_clean():
    kernel, net, world, _ = standard_world(scrub_interval=1.0)
    server = world.server(PRIMARY)
    server.wal.arm_crash("added")           # fires on any item's step
    schedule = FaultSchedule().recover_at(2.0, PRIMARY)
    kernel.spawn(schedule.run(net), name="schedule", daemon=True)
    repo = Repository(world, CLIENT)

    def proc():
        return (yield from repo.add_many(
            "coll", _specs(6, home="s1"), window=1, batch_size=6,
            on_failure="skip"))

    kernel.run_process(proc())
    kernel.run(until=kernel.now + 12.0)     # replay + scrub + orphan GC
    assert net.node(PRIMARY).up
    assert server.wal.pending() == []
    assert world.check_invariants() == []


def test_crash_mid_add_batch_replays_item_precisely():
    """Items step-marked before the crash are not double-applied, items
    after it are finished by roll-forward — and the whole batch still
    commits as one version bump."""
    kernel, net, world, _ = standard_world(scrub_interval=1.0,
                                           replica_lag=60.0)
    server = world.server(PRIMARY)
    state = server.collections["coll"]
    before = state.version
    server.wal.arm_crash("b003:added")      # crash after the 4th insert
    # recovery scheduled past the client's RPC timeout so the pending
    # intent is observable after the pipeline gives up
    schedule = FaultSchedule().recover_at(8.0, PRIMARY)
    kernel.spawn(schedule.run(net), name="schedule", daemon=True)
    repo = Repository(world, CLIENT)
    kernel.run_process(repo.add_many(
        "coll", _specs(6, home=PRIMARY), window=1, batch_size=6,
        on_failure="skip"))
    [record] = server.wal.pending()
    assert record.kind == "add-batch"
    assert record.done("b003:added") and not record.done("b004:added")
    kernel.run(until=kernel.now + 10.0)
    assert server.wal.pending() == []
    # roll-forward finished the batch: every item present, one bump past
    # whatever the interleaved cleanup/heal traffic accounts for
    members = set(state.members)
    assert {f"b{i:03d}" for i in range(6)} <= members | set(state.removed)
    assert state.version > before
    assert world.check_invariants() == []


def test_crash_mid_erase_batch_rolls_forward():
    kernel, net, world, elements = standard_world(members=6,
                                                  scrub_interval=1.0)
    server = world.server(PRIMARY)
    server.wal.arm_crash("home-deleted")    # matches any item's erase step
    schedule = FaultSchedule().recover_at(8.0, PRIMARY)
    kernel.spawn(schedule.run(net), name="schedule", daemon=True)
    repo = Repository(world, CLIENT)

    def proc():
        try:
            yield from repo.remove_many("coll", elements[:4],
                                        window=1, batch_size=4)
        except FailureException:
            pass

    kernel.run_process(proc())
    [record] = server.wal.pending()
    assert record.kind == "erase-batch" and record.status is PENDING
    kernel.run(until=kernel.now + 10.0)
    assert server.wal.pending() == []
    # acked-or-crashed removals are rolled forward, never resurrected
    truth = {e.name for e in world.true_members("coll")}
    assert truth == {e.name for e in elements[4:]}
    assert world.check_invariants() == []


def test_clean_failure_mid_erase_batch_commits_prefix():
    """A *clean* RPC failure (no crash) mid erase-batch commits the
    fully-erased prefix and leaves the rest members — removal is
    idempotent, the caller just retries."""
    kernel, net, world, elements = standard_world(members=4)
    net.isolate("s2")                       # elements[2] homed on s2
    repo = Repository(world, CLIENT)

    def proc():
        try:
            yield from repo.remove_many("coll", elements[:4],
                                        window=1, batch_size=4)
            return "ok"
        except FailureException:
            return "failed"

    assert kernel.run_process(proc()) == "failed"
    truth = {e.name for e in world.true_members("coll")}
    assert elements[0].name not in truth    # erased before the failure
    assert elements[2].name in truth        # the unreachable one survives
    net.rejoin("s2")
    retried = kernel.run_process(
        repo.remove_many("coll", elements[2:4], window=1, batch_size=2))
    assert retried == 2
    assert world.true_members("coll") == set()
    assert world.check_invariants() == []


# ---------------------------------------------------------------------------
# Repository.replace (remove-then-add, the paper's item mutation)
# ---------------------------------------------------------------------------

def test_replace_swaps_element_for_fresh_one():
    kernel, net, world, elements = standard_world(members=3)
    old = elements[1]
    repo = Repository(world, CLIENT)
    new = kernel.run_process(
        repo.replace("coll", old, "m001", value="v2"))
    assert new.name == "m001" and new.oid != old.oid
    assert new.home == old.home             # home carries over by default
    truth = world.true_members("coll")
    assert new in truth and old not in truth
    assert world.check_invariants() == []


def test_replace_carries_replicas_over():
    kernel, net, world, _ = standard_world()
    repo = Repository(world, CLIENT)

    def proc():
        old = yield from repo.add("coll", "r", value=1, home="s1",
                                  replicas=("s2", "s3"))
        new = yield from repo.replace("coll", old, "r2", value=2)
        return old, new

    old, new = kernel.run_process(proc())
    assert new.replicas == old.replicas == ("s2", "s3")
    for holder in ("s1", "s2", "s3"):
        assert world.server(holder).has_object(new.oid)
        assert not world.server(holder).has_object(old.oid)
    assert world.check_invariants() == []


def test_replace_failure_between_remove_and_add():
    """replace is remove-then-add, not a transaction: if the add's home
    is unreachable the remove has already happened and sticks — and the
    failed add leaves no orphan behind."""
    kernel, net, world, elements = standard_world(members=3)
    old = elements[0]
    net.isolate("s3")
    repo = Repository(world, CLIENT)

    def proc():
        try:
            yield from repo.replace("coll", old, "swapped", home="s3")
            return "replaced"
        except FailureException:
            return "failed"

    assert kernel.run_process(proc()) == "failed"
    truth = {e.name for e in world.true_members("coll")}
    assert old.name not in truth            # the remove half committed
    assert "swapped" not in truth           # the add half never landed
    net.rejoin("s3")
    kernel.run(until=kernel.now + 1.0)
    assert world.check_invariants() == []


# ---------------------------------------------------------------------------
# rank_hosts memoization (the fetch-side satellite)
# ---------------------------------------------------------------------------

def test_rank_hosts_memoized_per_topology_generation():
    from repro.store.fetchplan import rank_hosts
    kernel, net, world, _ = standard_world()
    hosts = ("s1", "s2", "s3")
    first = rank_hosts(net, CLIENT, hosts)
    assert kernel.obs.metrics.value("fetch.rank_cache_hits") == 0
    again = rank_hosts(net, CLIENT, hosts)
    assert again == first
    assert kernel.obs.metrics.value("fetch.rank_cache_hits") == 1
    # any connectivity mutation bumps the generation and drops the cache
    net.isolate("s1")
    after = rank_hosts(net, CLIENT, hosts)
    assert kernel.obs.metrics.value("fetch.rank_cache_hits") == 1
    assert "s1" not in after
    net.rejoin("s1")
    assert rank_hosts(net, CLIENT, hosts) == first
    assert kernel.obs.metrics.value("fetch.rank_cache_hits") == 1


# ---------------------------------------------------------------------------
# AIMD admission: the limiter caps ops, not just batch starts
# ---------------------------------------------------------------------------

def test_limiter_caps_ops_inside_batch_rpcs():
    from repro.net import AdaptiveLimiter, AIMDPolicy
    kernel, net, world, _ = standard_world()
    limiter = AdaptiveLimiter(AIMDPolicy(initial=2, max_window=2))
    repo = Repository(world, CLIENT, limiter=limiter)
    in_rpc = {"now": 0, "peak": 0}
    original = repo._call

    def counting_call(host, method, *args):
        n = len(args[-1])        # put entries, or member elements
        in_rpc["now"] += n
        in_rpc["peak"] = max(in_rpc["peak"], in_rpc["now"])
        try:
            return (yield from original(host, method, *args))
        finally:
            in_rpc["now"] -= n

    repo._call = counting_call
    elements = kernel.run_process(
        repo.add_many("coll", _specs(16), window=4, batch_size=8))
    assert len(elements) == 16
    assert world.true_members("coll") == frozenset(elements)
    # A free worker may take only what the AIMD window has left, never
    # a full batch_size of 8.
    assert 0 < in_rpc["peak"] <= limiter.window == 2
