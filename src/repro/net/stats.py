"""Message and byte accounting for the transport, on the metrics registry.

The experiments argue about *cost* as well as latency (e.g. quorum
reads buy availability with extra messages).  Each count lives once, in
the kernel's :class:`~repro.obs.metrics.MetricsRegistry` under the
names in ``docs/observability.md``: read ``kernel.obs.metrics.value``.
"""

from __future__ import annotations

from ..obs.metrics import Counter, MetricsRegistry
from .message import Message
from .wire import method_family

__all__ = ["TRANSPORT_COUNTERS", "MessageRecorder"]

#: Counters a transport creates up front, so every snapshot lists them
#: (zero-valued when unused).  The ``rpc.*`` and ``overload.*`` ones are
#: incremented by the resilience layer and by fetch failover.
TRANSPORT_COUNTERS: tuple[str, ...] = (
    "net.messages_sent", "net.messages_delivered", "net.messages_dropped",
    "rpc.retries", "rpc.hedges", "rpc.hedge_wins", "rpc.breaker_trips",
    "rpc.breaker_fast_fails", "rpc.failovers",
    "overload.retry_budget_exhausted", "net.bytes_sent", "net.bytes_received",
)


class MessageRecorder:
    """Counts each message the transport sends, delivers or drops once."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        for name in TRANSPORT_COUNTERS:
            registry.counter(name)
        self._sent = registry.counter("net.messages_sent")
        self._delivered = registry.counter("net.messages_delivered")
        self._dropped = registry.counter("net.messages_dropped")
        self._bytes_sent = registry.counter("net.bytes_sent")
        self._bytes_received = registry.counter("net.bytes_received")
        # method -> per-family byte counter, created on the first
        # non-zero size (``net.bytes_sent.object``, …)
        self._sent_by_method: dict[str, Counter] = {}
        self._received_by_method: dict[str, Counter] = {}

    def record_send(self, msg: Message) -> None:
        self._sent.value += 1
        size = msg.wire_size
        if size:
            self._bytes_sent.value += size
            self._family(self._sent_by_method, "net.bytes_sent",
                         msg.method).value += size

    def record_delivery(self, msg: Message) -> None:
        self._delivered.value += 1
        size = msg.wire_size
        if size:
            self._bytes_received.value += size
            self._family(self._received_by_method, "net.bytes_received",
                         msg.method).value += size

    def record_drop(self, msg: Message) -> None:
        self._dropped.value += 1

    def _family(self, cache: dict[str, Counter], base: str,
                method: str) -> Counter:
        counter = cache.get(method)
        if counter is None:
            counter = self.registry.counter(f"{base}.{method_family(method)}")
            cache[method] = counter
        return counter
