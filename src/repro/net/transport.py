"""Message transport: delivery, loss, and RPC dispatch plumbing.

The transport decides whether a message can travel (both nodes up, same
partition group, a physical route of up links), samples its delay, and
delivers it.  Undeliverable messages are silently dropped — callers
observe the loss as a timeout, or fail fast via
:meth:`Transport.unreachable_reason`, which plays the role of the
paper's "failures signaled from the lower network and transport layers".
"""

from __future__ import annotations

import types
from typing import TYPE_CHECKING, Optional

from ..errors import (
    FailureException,
    LinkDownFailure,
    NodeCrashFailure,
    PartitionFailure,
    SimulationError,
)
from ..sim.events import Signal
from .address import NodeId
from .message import Message
from .node import Node
from .partitions import PartitionManager
from .stats import MessageRecorder
from .topology import Topology
from .wire import WireFormat, method_family

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Kernel

__all__ = ["Transport"]


class Transport:
    """Delivers messages between nodes and dispatches RPC handlers."""

    def __init__(self, kernel: "Kernel", topology: Topology,
                 partitions: PartitionManager, nodes: dict[NodeId, Node],
                 wire: Optional[WireFormat] = None):
        self.kernel = kernel
        self.topology = topology
        self.partitions = partitions
        self.nodes = nodes
        self.wire = wire if wire is not None else WireFormat()
        self._pending_replies: dict[int, Signal] = {}
        self._latency_stream = kernel.stream("net.latency")
        self.recorder = MessageRecorder(kernel.obs.metrics)
        self._m_delivery_delay = kernel.obs.metrics.histogram("net.delivery_delay")
        self._m_queue_delay = kernel.obs.metrics.histogram("net.link.queue_delay")
        self._queue_delay_by_family: dict[str, object] = {}

    # -- reachability -----------------------------------------------------
    def unreachable_reason(self, src: NodeId, dst: NodeId) -> Optional[FailureException]:
        """Why ``dst`` cannot be reached from ``src`` (None if it can).

        The returned exception instance is ready to raise; its concrete
        class tells callers what kind of failure the transport detected.
        """
        dst_node = self.nodes.get(dst)
        if dst_node is None:
            raise SimulationError(f"unknown destination node {dst!r}")
        if not dst_node.up:
            return NodeCrashFailure(f"node {dst} is crashed")
        if not self.partitions.same_partition(src, dst):
            return PartitionFailure(f"{src} and {dst} are in different partitions")
        if not self.topology.connected(src, dst):
            return LinkDownFailure(f"no up path from {src} to {dst}")
        return None

    def can_reach(self, src: NodeId, dst: NodeId) -> bool:
        return self.unreachable_reason(src, dst) is None

    # -- sending ---------------------------------------------------------
    def send(self, msg: Message) -> bool:
        """Attempt delivery; returns False if dropped at send time.

        Loss after send (destination crashes or partitions while the
        message is in flight) is checked again at delivery time.

        The message is measured by the transport's wire format and its
        ``wire_size`` stamped before anything else, so even dropped
        messages have honest byte accounting.  Delivery delay is
        store-and-forward: the sender pays serialisation once, then
        each link on the route charges FIFO queueing behind earlier
        transmissions, ``size / bandwidth`` transfer, and its sampled
        propagation latency.  All-infinite-bandwidth routes reduce
        exactly to the seed's latency-only model.
        """
        if msg.wire_size is None:
            object.__setattr__(msg, "wire_size", self.wire.measure(msg))
        self.recorder.record_send(msg)
        if self.unreachable_reason(msg.src.node, msg.dst.node) is not None:
            self.recorder.record_drop(msg)
            if self.kernel.trace.enabled:
                self.kernel.trace.record("drop", msg=str(msg), at="send")
            return False
        route = self.topology.route(msg.src.node, msg.dst.node) or []
        for link in route:
            if link.loss_rate > 0.0 and self._latency_stream.bernoulli(link.loss_rate):
                self.recorder.record_drop(msg)
                if self.kernel.trace.enabled:
                    self.kernel.trace.record("drop", msg=str(msg), at="loss",
                                             link=f"{link.a}<->{link.b}")
                return False
        now = self.kernel.now
        t = now + self.wire.serialize_delay(msg.wire_size)
        queue_wait = 0.0
        hop = msg.src.node
        for link in route:
            wait, transfer = link.transmit(hop, msg.wire_size, t)
            queue_wait += wait
            t += wait + transfer + link.latency.sample(self._latency_stream)
            hop = link.other(hop)
        delay = t - now
        self._m_delivery_delay.observe(delay)
        if queue_wait > 0.0:
            self._m_queue_delay.observe(queue_wait)
            family = method_family(msg.method)
            hist = self._queue_delay_by_family.get(family)
            if hist is None:
                hist = self.kernel.obs.metrics.histogram(
                    f"net.link.queue_delay.{family}")
                self._queue_delay_by_family[family] = hist
            hist.observe(queue_wait)
        if self.kernel.trace.enabled:
            self.kernel.trace.record("send", msg=str(msg),
                                     delay=round(delay, 6), size=msg.wire_size)
        self.kernel.call_soon(lambda: self._deliver(msg), delay=delay)
        return True

    def _deliver(self, msg: Message) -> None:
        if self.unreachable_reason(msg.src.node, msg.dst.node) is not None:
            self.recorder.record_drop(msg)
            if self.kernel.trace.enabled:
                self.kernel.trace.record("drop", msg=str(msg), at="delivery")
            return
        self.recorder.record_delivery(msg)
        if self.kernel.trace.enabled:
            self.kernel.trace.record("recv", msg=str(msg))
        if msg.is_reply:
            self._complete_reply(msg)
        else:
            self._dispatch_request(msg)

    # -- RPC bookkeeping ----------------------------------------------------
    def register_reply(self, request: Message) -> Signal:
        sig = Signal(name=f"reply#{request.msg_id}")
        self._pending_replies[request.msg_id] = sig
        return sig

    def forget_reply(self, request_id: int) -> None:
        self._pending_replies.pop(request_id, None)

    def _complete_reply(self, msg: Message) -> None:
        # Compare against None explicitly: `reply_to or -1` would treat a
        # legitimate id of 0 as missing and orphan that caller forever.
        if msg.reply_to is None:
            return
        sig = self._pending_replies.pop(msg.reply_to, None)
        if sig is None or sig.fired:
            return  # caller gave up (timeout) before the reply landed
        if msg.method.endswith("!error"):
            error = msg.payload
            if not isinstance(error, BaseException):
                error = SimulationError(f"remote error: {error!r}")
            sig.fail(error)
        else:
            sig.fire(msg.payload)

    # -- server-side dispatch ------------------------------------------------
    def _dispatch_request(self, msg: Message) -> None:
        node = self.nodes[msg.dst.node]
        executor = node.executor
        if executor is None:
            # The seed model: every request gets a handler immediately
            # (unbounded concurrency — servers can never saturate).
            self._execute_request(node, msg)
            return
        executor.submit(
            msg.priority,
            start=lambda release: self._execute_request(node, msg, release),
            shed=lambda exc: self.send(msg.reply(exc, error=True)),
            degrade=self._degraded_runner(node, msg),
        )

    def _execute_request(self, node: Node, msg: Message,
                         release=None) -> None:
        """Invoke the handler; ``release`` (executor callback) fires
        once the request settles — immediately for fast in-memory
        methods, at handler completion for generator handlers."""
        try:
            service = node.service(msg.dst.service)
            handler = getattr(service, msg.method, None)
            if handler is None or msg.method.startswith("_"):
                raise SimulationError(
                    f"{msg.dst}: no RPC method {msg.method!r}"
                )
            args, kwargs = msg.payload
            result = handler(*args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - forwarded to caller
            if release is not None:
                release()
            self.send(msg.reply(exc, error=True))
            return
        if isinstance(result, types.GeneratorType):
            self._run_handler(node, msg, result, release)
        else:
            if release is not None:
                release()
            self.send(msg.reply(result))

    def _degraded_runner(self, node: Node, msg: Message):
        """The brownout fast-path, if the target service offers one.

        A service may declare ``DEGRADED_METHODS`` mapping an RPC
        method to a zero-cost fallback that answers from committed
        state (e.g. a stale membership snapshot).  The executor invokes
        it synchronously when the admission queue is deep — degrading
        freshness, not availability.
        """
        service = node.services.get(msg.dst.service)
        if service is None:
            return None
        table = getattr(service, "DEGRADED_METHODS", None)
        if not table:
            return None
        alt = table.get(msg.method)
        if alt is None:
            return None

        def run() -> None:
            try:
                args, kwargs = msg.payload
                result = getattr(service, alt)(*args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - forwarded
                self.send(msg.reply(exc, error=True))
                return
            self.send(msg.reply(result))

        return run

    def _run_handler(self, node: Node, msg: Message, gen: types.GeneratorType,
                     release=None) -> None:
        proc = self.kernel.spawn(
            gen, name=f"{msg.dst}.{msg.method}#{msg.msg_id}", daemon=True
        )
        node.track_handler(proc)

        def on_done(sig: Signal) -> None:
            if release is not None:
                release()
            if not node.up:
                return  # crashed while handling: reply is lost
            if sig.error is not None:
                self.send(msg.reply(sig.error, error=True))
            else:
                self.send(msg.reply(sig._value))

        proc.done.add_waiter(on_done)
