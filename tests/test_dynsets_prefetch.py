"""Tests for engine-mode prefetching and the setOpen/setIterate/setClose API.

``DynSetHandle`` drives a :class:`FetchPipeline` in engine mode: a fixed,
sealed work list, internal timed retries, arrival-order delivery.  Tests
that need a work list other than the collection's current membership (a
stale list, an application priority hint) build that pipeline directly.
"""


from repro.net import FixedLatency, Network, wan_clusters
from repro.dynsets import set_open
from repro.sim import Kernel, Sleep
from repro.store import FetchPipeline, Repository, World

from helpers import CLIENT, standard_world


def open_engine(repo, elements, *, parallelism, **kwargs):
    """An engine-mode pipeline over a fixed work list, as setOpen builds it."""
    kwargs.setdefault("retry_interval", 0.5)
    pipe = FetchPipeline(repo, use_cache=False, window=parallelism,
                         batch_size=1, in_order=False, **kwargs)
    pipe.submit(elements)
    pipe.seal()
    pipe.start()
    return pipe


def drain(pipe):
    out = []
    while True:
        r = yield from pipe.next_result()
        if r is None:
            return out
        out.append(r)


def open_and_drain(world, client, **kwargs):
    """setOpen over the world's "coll", drain it, return the handle."""
    def proc():
        handle = yield from set_open(world, client, "coll", **kwargs)
        yield from handle.iterate_all()
        handle.close()
        return handle

    return world.kernel.run_process(proc())


def test_prefetch_fetches_everything():
    kernel, net, world, elements = standard_world(members=8)
    handle = open_and_drain(world, CLIENT, parallelism=4)
    assert len(handle.results) == len(elements)
    assert all(r.ok for r in handle.results)
    assert {r.element for r in handle.results} == set(elements)


def test_parallelism_speeds_up_fetching():
    def run(parallelism):
        kernel, net, world, elements = standard_world(
            members=12, service_time=0.05)
        open_and_drain(world, CLIENT, parallelism=parallelism)
        return kernel.now

    sequential = run(1)
    parallel = run(6)
    assert parallel < sequential / 2  # near-linear speedup at this scale


def test_closest_first_ordering():
    kernel = Kernel()
    topo = wan_clusters([3, 3], FixedLatency(0.002), FixedLatency(0.3))
    net = Network(kernel, topo)
    world = World(net)
    world.create_collection("coll", primary="n0.0")
    near = world.seed_member("coll", "near", value=1, home="n0.1")
    far = world.seed_member("coll", "far", value=2, home="n1.1")
    handle = open_and_drain(world, "n0.2", parallelism=1)
    assert [r.element for r in handle.results] == [near, far]


def test_retry_recovers_after_heal():
    kernel, net, world, elements = standard_world(n_servers=3, members=6)

    def healer():
        yield Sleep(2.0)
        net.heal()

    def proc():
        # Open while s0 (the primary) is reachable, then cut s1 off.
        handle = yield from set_open(world, CLIENT, "coll", parallelism=3,
                                     retry_interval=0.2)
        net.isolate("s1")
        kernel.spawn(healer(), daemon=True)
        got = yield from handle.iterate_all()
        handle.close()
        return handle, got

    handle, got = kernel.run_process(proc())
    assert len(got) == 6
    assert all(r.ok for r in handle.results)
    assert handle.pipeline.retries > 0


def test_give_up_reports_unreachable():
    kernel, net, world, elements = standard_world(n_servers=3, members=6)
    net.crash("s1")
    handle = open_and_drain(world, CLIENT, parallelism=3,
                            retry_interval=0.2, give_up_after=1.5)
    results = handle.results
    assert len(results) == 6
    ok = [r for r in results if r.ok]
    unreachable = [r for r in results if r.unreachable]
    assert {r.element.home for r in unreachable} == {"s1"}
    assert len(ok) == 4
    assert handle.pipeline.gave_up == 2


def test_skipped_for_removed_members():
    kernel, net, world, elements = standard_world(members=4)
    repo = Repository(world, CLIENT)

    def proc():
        # remove one member, then prefetch from the (now stale) list
        yield from repo.remove("coll", elements[0])
        pipe = open_engine(repo, elements, parallelism=2)
        return (yield from drain(pipe)), pipe

    results, pipe = kernel.run_process(proc())
    gone = [r for r in results if r.gone]
    assert [r.element for r in gone] == [elements[0]]
    assert pipe.gone == 1


def test_batch_size_coalesces_same_home_fetches():
    kernel, net, world, elements = standard_world(n_servers=1, members=8)
    handle = open_and_drain(world, CLIENT, parallelism=4, batch_size=4)
    assert len(handle.results) == 8 and all(r.ok for r in handle.results)
    metrics = kernel.obs.metrics
    assert metrics.value("fetch.batch.elements") == 8
    assert metrics.value("fetch.batch.calls") < 8
    assert metrics.value("fetch.batch.coalesced") > 0


# ---------------------------------------------------------------------------
# setOpen / setIterate / setClose
# ---------------------------------------------------------------------------

def test_set_open_iterate_close():
    kernel, net, world, elements = standard_world(members=5)

    def proc():
        handle = yield from set_open(world, CLIENT, "coll", parallelism=3)
        got = yield from handle.iterate_all()
        handle.close()
        return handle, got

    handle, got = kernel.run_process(proc())
    assert {r.element for r in got} == set(elements)
    assert handle.time_to_first is not None
    assert handle.time_to_first < 0.2


def test_early_close_stops_workers():
    kernel, net, world, elements = standard_world(members=20, service_time=0.05)

    def proc():
        handle = yield from set_open(world, CLIENT, "coll", parallelism=2)
        first_three = yield from handle.iterate_all(limit=3)
        handle.close()   # user found what they wanted
        return len(first_three), kernel.now

    count, t = kernel.run_process(proc())
    assert count == 3
    # closing early means we did not pay for all 20 fetches
    assert t < 1.0


def test_iterate_after_close_is_error():
    from repro.errors import SimulationError
    kernel, net, world, elements = standard_world(members=2)

    def proc():
        handle = yield from set_open(world, CLIENT, "coll")
        handle.close()
        try:
            yield from handle.iterate()
        except SimulationError:
            return "rejected"

    assert kernel.run_process(proc()) == "rejected"


def test_streaming_first_result_before_total_completion():
    kernel, net, world, elements = standard_world(members=10, service_time=0.05)

    def proc():
        handle = yield from set_open(world, CLIENT, "coll", parallelism=2)
        yield from handle.iterate()
        t_first = kernel.now
        rest = yield from handle.iterate_all()
        return t_first, kernel.now, 1 + len(rest)

    t_first, t_all, count = kernel.run_process(proc())
    assert count == 10
    assert t_first < t_all / 2.5   # partial info well before completion


def test_priority_hint_overrides_ordering():
    """Application hints (Steere's profiles): fetch by custom key."""
    kernel, net, world, elements = standard_world(members=6)
    repo = Repository(world, CLIENT)
    # hint: reverse-alphabetical
    pipe = open_engine(repo, elements, parallelism=1,
                       priority=lambda e: tuple(-ord(c) for c in e.name))
    names = [r.element.name for r in kernel.run_process(drain(pipe))]
    assert names == sorted(names, reverse=True)


def test_priority_hint_smallest_first():
    kernel, net, world, _ = standard_world(members=0, bandwidth=100_000.0)
    sizes = {}
    elements = []
    for i, size in enumerate([50_000, 1_000, 20_000]):
        e = world.seed_member("coll", f"f{i}", value=f"v{i}", home="s1",
                              size=size)
        sizes[e.oid] = size
        elements.append(e)
    repo = Repository(world, CLIENT)
    pipe = open_engine(repo, elements, parallelism=1,
                       priority=lambda e: sizes[e.oid])
    order = [sizes[r.element.oid] for r in kernel.run_process(drain(pipe))]
    assert order == sorted(order)   # smallest first => fastest first yield
