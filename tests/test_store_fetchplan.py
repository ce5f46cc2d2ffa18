"""FetchPlanner + FetchPipeline: the batched read path, unit-tested."""

from repro.sim import Sleep
from repro.store import (
    ClientCache,
    FetchPipeline,
    Repository,
    order_closest_first,
    rank_hosts,
)

from helpers import CLIENT, standard_world


def drain_pipe(kernel, repo, elements, **kw):
    """Submit, seal, and drain a pipeline inside one process."""
    results = []

    def proc():
        pipe = FetchPipeline(repo, **kw)
        pipe.start()
        pipe.submit(elements)
        pipe.seal()
        while True:
            result = yield from pipe.next_result()
            if result is None:
                break
            results.append(result)
        pipe.stop()
        return pipe

    pipe = kernel.run_process(proc())
    return pipe, results


# ---------------------------------------------------------------------------
# planning helpers (the one shared ranking/ordering implementation)
# ---------------------------------------------------------------------------

def test_rank_hosts_orders_by_latency_and_drops_unreachable():
    kernel, net, world, elements = standard_world(n_servers=3, members=3)
    ranked = rank_hosts(net, CLIENT, ["s0", "s1", "s2"])
    assert set(ranked) == {"s0", "s1", "s2"}
    net.isolate("s1")
    assert "s1" not in rank_hosts(net, CLIENT, ["s0", "s1", "s2"])


def test_order_closest_first_puts_unreachable_homes_last():
    kernel, net, world, elements = standard_world(n_servers=4, members=4)
    net.isolate(elements[0].home)
    ordered = order_closest_first(net, CLIENT, elements)
    assert ordered[-1] == elements[0]


# ---------------------------------------------------------------------------
# batching + coalescing
# ---------------------------------------------------------------------------

def test_same_home_candidates_coalesce_into_multi_gets():
    kernel, net, world, elements = standard_world(
        n_servers=1, members=8)       # every element homed on s0
    repo = Repository(world, CLIENT)
    pipe, results = drain_pipe(kernel, repo, elements,
                               use_cache=False, window=8, batch_size=4)
    assert [r.status for r in results] == ["ok"] * 8
    assert {r.value for r in results} == {f"v{i}" for i in range(8)}
    metrics = kernel.obs.metrics
    # slow-start singleton + coalesced multi-gets, never 8 serial calls
    calls = metrics.counter("fetch.batch.calls").value
    assert calls < 8
    assert metrics.counter("fetch.batch.coalesced").value > 0
    assert metrics.counter("fetch.batch.elements").value == 8


def test_first_batch_is_a_singleton_slow_start():
    kernel, net, world, elements = standard_world(n_servers=1, members=6)
    repo = Repository(world, CLIENT)

    def proc():
        pipe = FetchPipeline(repo, use_cache=False, window=4, batch_size=4)
        pipe.start()
        pipe.submit(elements)
        pipe.seal()
        first = yield from pipe.next_result()
        pipe.stop()
        return first

    first = kernel.run_process(proc())
    # one service-time + one round-trip: the first yield never waits on
    # coalesced company (0.01 latency each way + default service time)
    assert first.ok
    assert first.fetched_at < 0.1


def test_window_bounds_concurrency_but_all_complete():
    kernel, net, world, elements = standard_world(n_servers=4, members=12)
    repo = Repository(world, CLIENT)
    pipe, results = drain_pipe(kernel, repo, elements,
                               use_cache=False, window=2, batch_size=1)
    assert len(results) == 12
    assert all(r.ok for r in results)


def test_wider_window_is_strictly_faster():
    def timed_drain(window):
        kernel, net, world, elements = standard_world(
            n_servers=8, members=8, latency=0.05)
        repo = Repository(world, CLIENT)

        def proc():
            pipe = FetchPipeline(repo, use_cache=False,
                                 window=window, batch_size=1)
            pipe.start()
            pipe.submit(elements)
            pipe.seal()
            while (yield from pipe.next_result()) is not None:
                pass
            pipe.stop()
            return world.now

        return kernel.run_process(proc())

    assert timed_drain(8) < timed_drain(1) / 2


# ---------------------------------------------------------------------------
# delivery order and statuses
# ---------------------------------------------------------------------------

def test_in_order_delivery_matches_planner_order():
    kernel, net, world, elements = standard_world(n_servers=4, members=8)
    repo = Repository(world, CLIENT)
    pipe, results = drain_pipe(kernel, repo, elements,
                               use_cache=False, window=8, batch_size=2)
    expected = order_closest_first(net, CLIENT, elements)
    assert [r.element for r in results] == expected


def test_removed_member_comes_back_gone_not_ok():
    kernel, net, world, elements = standard_world(n_servers=2, members=4)
    repo = Repository(world, CLIENT)
    victim = elements[1]

    def proc():
        yield from repo.remove("coll", victim)
        pipe = FetchPipeline(repo, use_cache=False, window=4, batch_size=2)
        pipe.start()
        pipe.submit(elements)
        pipe.seal()
        out = []
        while True:
            result = yield from pipe.next_result()
            if result is None:
                break
            out.append(result)
        pipe.stop()
        return out

    results = kernel.run_process(proc())
    by_name = {r.element.name: r for r in results}
    assert by_name[victim.name].gone
    assert sum(r.ok for r in results) == 3


def test_unreachable_home_is_delivered_immediately_in_iterator_mode():
    kernel, net, world, elements = standard_world(n_servers=2, members=4)
    repo = Repository(world, CLIENT)
    net.isolate(elements[0].home)      # s0: elements 0 and 2
    pipe, results = drain_pipe(kernel, repo, elements,
                               use_cache=False, window=4, batch_size=2)
    statuses = {r.element.name: r.status for r in results}
    assert statuses[elements[0].name] == "unreachable"
    assert statuses[elements[1].name] == "ok"
    assert len(results) == 4


# ---------------------------------------------------------------------------
# replica failover
# ---------------------------------------------------------------------------

def test_batch_failover_serves_from_replica_copies():
    kernel, net, world, _ = standard_world(n_servers=3)
    elements = [world.seed_member("coll", f"r{i}", value=f"V{i}", home="s1",
                                  replicas=("s2",)) for i in range(4)]
    repo = Repository(world, CLIENT)
    net.isolate("s1")
    pipe, results = drain_pipe(kernel, repo, elements,
                               use_cache=False, window=4, batch_size=4,
                               failover=True)
    assert all(r.ok for r in results)
    assert {r.value for r in results} == {f"V{i}" for i in range(4)}
    assert net.kernel.obs.metrics.value("rpc.failovers") >= 4


def test_failover_exhausted_replicas_still_unreachable():
    kernel, net, world, _ = standard_world(n_servers=3)
    element = world.seed_member("coll", "r0", value="V", home="s1",
                                replicas=("s2",))
    repo = Repository(world, CLIENT)
    net.isolate("s1")
    net.isolate("s2")
    pipe, results = drain_pipe(kernel, repo, [element],
                               use_cache=False, window=2, batch_size=1,
                               failover=True)
    assert results[0].unreachable


# ---------------------------------------------------------------------------
# cache admission
# ---------------------------------------------------------------------------

def test_batch_results_admit_into_client_cache():
    kernel, net, world, elements = standard_world(n_servers=2, members=4)
    repo = Repository(world, CLIENT, cache=ClientCache(ttl=60.0))
    drain_pipe(kernel, repo, elements, use_cache=True,
               window=4, batch_size=2)
    pipe2, results2 = drain_pipe(kernel, repo, elements, use_cache=True,
                                 window=4, batch_size=2)
    assert all(r.from_cache for r in results2)
    assert pipe2.cache_hits == 4
    assert repo.cache.hit_rate > 0


def test_cache_off_pipeline_never_reads_cache():
    kernel, net, world, elements = standard_world(n_servers=2, members=4)
    repo = Repository(world, CLIENT, cache=ClientCache(ttl=60.0))
    drain_pipe(kernel, repo, elements, use_cache=True,
               window=4, batch_size=2)
    pipe2, results2 = drain_pipe(kernel, repo, elements, use_cache=False,
                                 window=4, batch_size=2)
    assert not any(r.from_cache for r in results2)
    assert pipe2.cache_hits == 0


# ---------------------------------------------------------------------------
# pop-time validation (the buffering soundness story)
# ---------------------------------------------------------------------------

def test_quiet_world_pops_are_free_of_probe_rpcs():
    kernel, net, world, elements = standard_world(n_servers=2, members=6)
    repo = Repository(world, CLIENT)
    drain_pipe(kernel, repo, elements, use_cache=False,
               window=6, batch_size=2, validation="probe")
    assert kernel.obs.metrics.counter("fetch.batch.probes").value == 0


def test_probe_validation_reclassifies_buffered_removal_as_gone():
    kernel, net, world, elements = standard_world(n_servers=2, members=3)
    repo = Repository(world, CLIENT)
    victim = elements[2]               # farthest in submission order

    def proc():
        pipe = FetchPipeline(repo, use_cache=False, window=3, batch_size=1,
                             validation="probe")
        pipe.start()
        pipe.submit(elements)
        pipe.seal()
        yield Sleep(1.0)               # everything fetched and buffered
        yield from repo.remove("coll", victim)   # epoch moves, object gone
        out = []
        while True:
            result = yield from pipe.next_result()
            if result is None:
                break
            out.append(result)
        pipe.stop()
        return out

    results = kernel.run_process(proc())
    by_name = {r.element.name: r for r in results}
    assert by_name[victim.name].gone
    assert sum(r.ok for r in results) == 2
    assert kernel.obs.metrics.counter("fetch.batch.probes").value > 0


# ---------------------------------------------------------------------------
# engine mode (the prefetch-engine contract)
# ---------------------------------------------------------------------------

def test_engine_mode_retries_through_a_heal():
    kernel, net, world, elements = standard_world(n_servers=2, members=2)
    repo = Repository(world, CLIENT)
    net.isolate("s0")

    def healer():
        yield Sleep(0.6)
        net.rejoin("s0")

    def proc():
        kernel.spawn(healer(), daemon=True)
        pipe = FetchPipeline(repo, use_cache=False, window=2, batch_size=1,
                             retry_interval=0.2, give_up_after=5.0)
        pipe.start()
        pipe.submit(elements)
        pipe.seal()
        out = []
        while True:
            result = yield from pipe.next_result()
            if result is None:
                break
            out.append(result)
        pipe.stop()
        return (pipe, out)

    pipe, results = kernel.run_process(proc())
    assert all(r.ok for r in results)
    assert pipe.retries > 0


def test_engine_mode_gives_up_after_budget():
    kernel, net, world, elements = standard_world(n_servers=2, members=2)
    repo = Repository(world, CLIENT)
    net.isolate("s0")                  # element m000 never reachable
    pipe, results = drain_pipe(kernel, repo, elements,
                               use_cache=False, window=2, batch_size=1,
                               retry_interval=0.2, give_up_after=1.0)
    statuses = {r.element.name: r.status for r in results}
    assert statuses["m000"] == "unreachable"
    assert statuses["m001"] == "ok"
    assert pipe.gave_up == 1


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_pipeline_drains_are_deterministic():
    def one_run():
        kernel, net, world, elements = standard_world(
            n_servers=4, members=10, seed=7)
        repo = Repository(world, CLIENT)
        pipe, results = drain_pipe(kernel, repo, elements,
                                   use_cache=False, window=4, batch_size=2)
        return [(r.element.name, r.status, r.fetched_at) for r in results]

    assert one_run() == one_run()
