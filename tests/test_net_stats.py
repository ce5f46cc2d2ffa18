"""Message accounting: each message is counted once, in the registry."""

import pytest

from repro.errors import FailureException
from repro.net import FixedLatency, Network, Topology, full_mesh
from repro.sim import Kernel, Sleep

from helpers import spy_sends


class Echo:
    def echo(self, x):
        return x


def counts(net):
    metrics = net.kernel.obs.metrics
    return (metrics.value("net.messages_sent"),
            metrics.value("net.messages_delivered"),
            metrics.value("net.messages_dropped"))


def test_counts_per_node_and_aggregate():
    kernel = Kernel()
    net = Network(kernel, full_mesh(["a", "b", "c"], FixedLatency(0.01)))
    net.register_service("b", "echo", Echo())
    net.register_service("c", "echo", Echo())
    sent = spy_sends(net)

    def proc():
        for _ in range(3):
            yield from net.call("a", "b", "echo", "echo", 1)
        yield from net.call("a", "c", "echo", "echo", 1)

    kernel.run_process(proc())
    assert counts(net) == (8, 8, 0)          # 4 requests + 4 replies
    requests = [m for m in sent if not m.is_reply]
    assert sum(m.src.node == "a" for m in sent) == 4
    assert sum(m.dst.node == "b" for m in requests) == 3
    assert sum(m.dst.node == "c" for m in requests) == 1
    assert sum(m.dst.node == "a" for m in requests) == 0   # replies aren't requests


def test_drops_counted():
    kernel = Kernel()
    net = Network(kernel, full_mesh(["a", "b"], FixedLatency(0.01)),
                  fail_fast=False)
    net.register_service("b", "echo", Echo())
    net.crash("b")

    def proc():
        try:
            yield from net.call("a", "b", "echo", "echo", 1, timeout=0.2)
        except FailureException:
            pass

    kernel.run_process(proc())
    assert counts(net) == (1, 0, 1)


# ---------------------------------------------------------------------------
# conservation: once quiescent, sent == delivered + dropped
# ---------------------------------------------------------------------------

def _drop_at_send():
    kernel = Kernel()
    net = Network(kernel, full_mesh(["a", "b"], FixedLatency(0.01)),
                  fail_fast=False)
    net.register_service("b", "echo", Echo())
    net.crash("b")
    return kernel, net, []


def _link_loss():
    kernel = Kernel(seed=7)
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    topo.add_link("a", "b", FixedLatency(0.01)).loss_rate = 0.5
    net = Network(kernel, topo)
    net.register_service("b", "echo", Echo())
    return kernel, net, []


def _request_lost_in_flight():
    kernel = Kernel()
    net = Network(kernel, full_mesh(["a", "b"], FixedLatency(0.05)))
    net.register_service("b", "echo", Echo())

    def crasher():
        yield Sleep(0.01)                 # the request is on the wire
        net.crash("b")

    return kernel, net, [crasher()]


def _reply_lost_in_flight():
    kernel = Kernel()
    net = Network(kernel, full_mesh(["a", "b"], FixedLatency(0.05)))
    net.register_service("b", "echo", Echo())

    def splitter():
        yield Sleep(0.07)                 # the reply is on the wire
        net.split(["a"], ["b"])

    return kernel, net, [splitter()]


@pytest.mark.parametrize("scenario", [
    _drop_at_send, _link_loss, _request_lost_in_flight, _reply_lost_in_flight,
])
def test_every_message_counted_exactly_once(scenario):
    kernel, net, faults = scenario()
    for fault in faults:
        kernel.spawn(fault, daemon=True)
    sent = spy_sends(net)

    def proc():
        for _ in range(10):
            try:
                yield from net.call("a", "b", "echo", "echo", 1, timeout=0.3)
            except FailureException:
                pass

    kernel.run_process(proc())
    kernel.run()                          # let every in-flight message land
    n_sent, delivered, dropped = counts(net)
    assert n_sent == len(sent)
    assert dropped > 0
    assert n_sent == delivered + dropped
