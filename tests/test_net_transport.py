"""Lower-level transport behaviours: drops, late replies, counters."""


from repro.errors import NodeCrashFailure, TimeoutFailure
from repro.net import Address, FixedLatency, Message, Network, full_mesh
from repro.sim import Kernel, Sleep


class EchoService:
    def echo(self, value):
        return value

    def slow(self, value, delay):
        yield Sleep(delay)
        return value


def make_net(**kwargs):
    kernel = Kernel()
    net = Network(kernel, full_mesh(["a", "b"], FixedLatency(0.01)), **kwargs)
    net.register_service("b", "echo", EchoService())
    return kernel, net


def test_message_reply_envelope():
    req = Message(src=Address("a", "client"), dst=Address("b", "echo"),
                  method="echo", payload=((1,), {}))
    rep = req.reply("result")
    assert rep.is_reply
    assert rep.reply_to == req.msg_id
    assert rep.src == req.dst and rep.dst == req.src
    assert rep.method.endswith("!ok")
    err = req.reply(ValueError("x"), error=True)
    assert err.method.endswith("!error")


def test_message_ids_unique():
    msgs = [Message(src=Address("a", "c"), dst=Address("b", "s"), method="m")
            for _ in range(10)]
    ids = [m.msg_id for m in msgs]
    assert len(set(ids)) == 10


def test_counters_track_sends_and_drops():
    kernel, net = make_net()

    def proc():
        yield from net.call("a", "b", "echo", "echo", 1)

    kernel.run_process(proc())
    sent_before_failures = net.kernel.obs.metrics.value("net.messages_sent")
    assert sent_before_failures >= 2        # request + reply
    assert net.kernel.obs.metrics.value("net.messages_dropped") == 0

    net.crash("b")

    def proc2():
        try:
            yield from net.call("a", "b", "echo", "echo", 1)
        except NodeCrashFailure:
            pass

    kernel.run_process(proc2())
    # fail-fast means the request is never sent; counters unchanged
    assert net.kernel.obs.metrics.value("net.messages_sent") == sent_before_failures


def test_drop_at_send_when_not_fail_fast():
    kernel, net = make_net(fail_fast=False)
    net.crash("b")

    def proc():
        try:
            yield from net.call("a", "b", "echo", "echo", 1, timeout=0.5)
        except NodeCrashFailure:
            return "classified"

    # the timeout gets classified using current transport knowledge
    assert kernel.run_process(proc()) == "classified"
    assert net.kernel.obs.metrics.value("net.messages_dropped") >= 1


def test_late_reply_after_caller_timeout_is_harmless():
    kernel, net = make_net()

    def proc():
        try:
            yield from net.call("a", "b", "echo", "slow", "x", 2.0, timeout=0.5)
        except TimeoutFailure:
            return "timed out"

    assert kernel.run_process(proc()) == "timed out"
    # let the slow handler finish and send its (now unwanted) reply
    kernel.run(until=5.0)
    # nothing blew up; pending-reply table is clean
    assert net.transport._pending_replies == {}


def test_crash_mid_flight_drops_at_delivery():
    kernel, net = make_net()

    def crasher():
        yield Sleep(0.005)              # while the request is in flight
        net.crash("b")

    def proc():
        try:
            yield from net.call("a", "b", "echo", "echo", 1, timeout=0.5)
        except (NodeCrashFailure, TimeoutFailure):
            return "failed"

    kernel.spawn(crasher(), daemon=True)
    assert kernel.run_process(proc()) == "failed"
    assert net.kernel.obs.metrics.value("net.messages_dropped") >= 1


def test_node_crash_hooks_invoked():
    kernel, net = make_net()
    events = []

    class HookedService:
        def on_crash(self):
            events.append("crash")

        def on_recover(self):
            events.append("recover")

    net.register_service("a", "hooked", HookedService())
    net.crash("a")
    net.crash("a")          # idempotent: hook fires once
    net.recover("a")
    assert events == ["crash", "recover"]
    assert net.node("a").crash_count == 1
