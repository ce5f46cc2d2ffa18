"""Lossy links: flaky-but-up connectivity, and weak sets on top of it."""

import pytest

from repro.errors import SimulationError, TimeoutFailure
from repro.net import FixedLatency, Link, Network, Topology
from repro.sim import Kernel
from repro.spec import Returned
from repro.store import World
from repro.weaksets import DynamicSet


def lossy_pair(loss_rate, seed=0, timeout=0.3):
    kernel = Kernel(seed=seed)
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    link = topo.add_link("a", "b", FixedLatency(0.01))
    link.loss_rate = loss_rate
    net = Network(kernel, topo, default_timeout=timeout)
    return kernel, net


class Echo:
    def echo(self, x):
        return x


def test_loss_rate_validation():
    with pytest.raises(SimulationError):
        Link("a", "b", loss_rate=1.0)
    with pytest.raises(SimulationError):
        Link("a", "b", loss_rate=-0.1)
    Link("a", "b", loss_rate=0.5)  # fine


def test_zero_loss_never_drops():
    kernel, net = lossy_pair(0.0)
    net.register_service("b", "echo", Echo())

    def proc():
        for i in range(50):
            assert (yield from net.call("a", "b", "echo", "echo", i)) == i
        return True

    assert kernel.run_process(proc())
    assert net.kernel.obs.metrics.value("net.messages_dropped") == 0


def test_lossy_link_causes_timeouts_at_roughly_loss_rate():
    kernel, net = lossy_pair(0.3, seed=5)
    net.register_service("b", "echo", Echo())
    outcomes = {"ok": 0, "timeout": 0}

    def proc():
        for i in range(200):
            try:
                yield from net.call("a", "b", "echo", "echo", i, timeout=0.3)
                outcomes["ok"] += 1
            except TimeoutFailure:
                outcomes["timeout"] += 1

    kernel.run_process(proc())
    # either direction can drop: expected failure rate 1-(0.7)^2 = 0.51
    rate = outcomes["timeout"] / 200
    assert 0.35 < rate < 0.65
    assert net.kernel.obs.metrics.value("net.messages_dropped") > 0


def test_retry_eventually_succeeds_over_lossy_link():
    kernel, net = lossy_pair(0.4, seed=9)
    net.register_service("b", "echo", Echo())

    def call_with_retries():
        for _ in range(20):
            try:
                return (yield from net.call("a", "b", "echo", "echo", "hi",
                                            timeout=0.2))
            except TimeoutFailure:
                continue
        return None

    assert kernel.run_process(call_with_retries()) == "hi"


def test_dynamic_set_completes_over_lossy_network():
    """The optimistic iterator's retries absorb message loss too."""
    kernel = Kernel(seed=3)
    topo = Topology()
    for n in ["client", "s0", "s1"]:
        topo.add_node(n)
    for a, b in [("client", "s0"), ("client", "s1"), ("s0", "s1")]:
        link = topo.add_link(a, b, FixedLatency(0.01))
        link.loss_rate = 0.2
    net = Network(kernel, topo, default_timeout=0.3)
    world = World(net)
    world.create_collection("c", primary="s0")
    elements = [world.seed_member("c", f"m{i}", value=i, home=f"s{i % 2}")
                for i in range(6)]
    ws = DynamicSet(world, "client", "c", retry_interval=0.2)

    def proc():
        return (yield from ws.elements().drain())

    result = kernel.run_process(proc())
    assert isinstance(result.outcome, Returned)
    assert frozenset(result.elements) == frozenset(elements)
