"""The pipeline core, and the batched fetch engine behind every element read.

Every iterator variant used to issue one ``get_object`` RPC per element
per invocation — a full WAN round-trip per member, exactly the serial
cost the paper's weak semantics exist to avoid.  This module factors the
*traversal mechanics* out of the *iteration semantics* (the split
argued for by Agarwal et al.'s linearizable iterators and Krishna et
al.'s visibility-based specifications): iterators keep deciding *what*
may be yielded; a pipeline decides *how* the bytes move.

Three pieces:

:class:`PipelineCore`
    The engine both batched pipelines share — :class:`FetchPipeline`
    here and :class:`~repro.store.writeplan.WritePipeline`.  It owns the
    lifecycle (``start``/``stop``/``seal``, the ``<prefix>.pipeline``
    span, worker spawn with span adoption), the worker loop, consumer
    and idle-worker wake-ups, the one AIMD admission rule, the limiter
    feedback, the ``Fork``/``Join`` fan-out barrier, and the
    ``<prefix>.batch.{calls,elements,coalesced,size,latency}``
    instruments.  A subclass supplies only how a batch is formed and
    how it is moved.

:class:`FetchPlanner`
    Orders candidate elements (closest-first, or an application
    priority hint) and ranks hosts by expected latency — the one shared
    home/replica-ranking helper (``Repository._rank`` and the old
    prefetch engine each had a private copy).

:class:`FetchPipeline`
    The read side of the core: a sliding window of in-flight fetches
    that overlaps RPCs with iterator suspends.  Same-home candidates are
    coalesced into one batched ``get_objects`` multi-get (one
    service-time charge and one round-trip for the whole batch);
    transport failures fall back to replica copies via batched
    ``get_objects_replica``, closest replica first.  Per-call resilience
    (retries, deadlines, circuit breakers) applies per *batch* through
    ``Repository._call``.  On top of the core it adds the planner,
    pop-time validation against the freshness epoch, replica failover,
    and engine-mode retries (the dynamic-sets prefetch contract).

Soundness — why buffering across invocations cannot invent elements:

* Results are *validated at pop time*, not trusted at fetch time.  The
  pipeline subscribes to :meth:`World.on_change` (which fires on every
  membership **and** connectivity change) and stamps each batch with the
  epoch at issue.  If the epoch is unchanged when a result is popped,
  the world was constant over [issue, pop] ⊇ [serve, pop]: the object
  existed at serve, so the element was a member then ("object exists at
  its home" implies "still a member"), hence still a member — and its
  home still reachable — at the pop itself.  The popping invocation's
  own snapshot justifies the yield, and the pop costs zero RPCs.
* If the epoch moved, ``validation="probe"`` re-asks the home
  (``has_object``) inside the popping invocation: ``True`` proves the
  element is *currently* a member (objects are immutable, so the
  buffered value is still its value); ``False`` is the home's
  authoritative "removed" and the result is reclassified ``gone``; a
  transport failure reclassifies it ``unreachable``.
* ``validation="locations"`` (grow-only quorum reads) needs no RPC at
  all: copies of a grow-only member are never deleted, so any locally
  reachable location keeps the buffered result justified.
* Cache hits bypass validation by design — client-cache staleness is a
  measured, intended weakness (E5a), not an accident of buffering.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

from ..errors import (CircuitOpenFailure, DisconnectedError, FailureException,
                      NoSuchObjectError, ServerBusyFailure, TimeoutFailure)
from ..net.address import NodeId
from ..net.resilience import TRANSPORT_FAILURES
from ..net.wire import unwrap
from ..sim.events import Fork, Join, Signal, Sleep, Wait
from .elements import Element, ObjectId
from .server import ObjectServer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .repository import Repository

__all__ = ["FetchPlanner", "FetchPipeline", "FetchResult", "rank_hosts",
           "order_closest_first", "VALIDATION_MODES"]

#: Pop-time validation policies (see module docstring).
VALIDATION_MODES = ("none", "locations", "probe")

#: Failures that may divert a batch to replica copies — transport
#: faults, tripped breakers, and admission sheds (an overloaded home's
#: replicas may well have headroom); anything else is a real answer.
_DIVERTABLE = TRANSPORT_FAILURES + (CircuitOpenFailure, ServerBusyFailure)


def rank_hosts(net, origin: NodeId, hosts: Iterable[NodeId]) -> tuple[NodeId, ...]:
    """Reachable ``hosts`` ordered by expected latency from ``origin``.

    The one shared ranking helper: ``Repository.ranked_hosts`` /
    ``nearest_host``, the replica order of the failover sweep, and the
    planner all use it (deterministic: latency, then node id).

    Hot on every membership read, failover sweep, and plan, so the
    result is memoized on the network per ``(origin, hosts)``; the
    network clears the cache (and bumps its ``generation``) on every
    connectivity change, so a hit is always current.
    """
    hosts = tuple(hosts)
    cache = getattr(net, "_rank_cache", None)
    key = (origin, hosts)
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            net._m_rank_cache_hits.value += 1
            return hit
    with_latency = []
    for host in hosts:
        latency = net.expected_latency(origin, host)
        if latency is not None:
            with_latency.append((latency, host))
    ranked = tuple(host for _, host in sorted(with_latency))
    if cache is not None:
        cache[key] = ranked
    return ranked


def order_closest_first(net, origin: NodeId,
                        elements: Iterable[Element]) -> list[Element]:
    """The paper's "fetching 'closer' files first": sort candidates by
    expected latency to their home, then name; unreachable homes sort
    last (infinite estimated latency)."""
    def key(e: Element) -> tuple[float, str]:
        latency = net.expected_latency(origin, e.home)
        return (latency if latency is not None else float("inf"), e.name)

    return sorted(elements, key=key)


class PipelineCore:
    """Window, workers, wake-ups and admission shared by both pipelines.

    ``window`` is how many worker processes run; ``_cap`` bounds how
    many *items* may be inside workers at once.  A subclass sets
    ``prefix`` (its span and metric namespace) and supplies:

    * ``_form_batch(budget)`` — pop at most ``budget`` items and count
      them into ``_in_flight``; ``None`` when there is nothing to take;
    * ``_execute(batch)`` — move them, releasing their slots as they
      leave the pipeline's hands;
    * ``_drained()`` — nothing queued and nothing in flight, so a
      sealed pipeline's workers may exit;
    * ``_span_totals()`` — the counters the pipeline span closes with.
    """

    prefix = ""

    def __init__(self, repo: "Repository", *, window: int, batch_size: int,
                 name: str):
        self.repo = repo
        self.world = repo.world
        self.window = max(1, window)
        self.batch_size = max(1, batch_size)
        self.name = name or f"{self.prefix}-{repo.client}"
        self._cap = self.window
        self._in_flight = 0
        self._sealed = False
        self._stopped = False
        self._procs: list = []
        self._waiters: list[Signal] = []              # blocked consumers
        self._idle: list[Signal] = []                 # idle workers
        self._work_signal = f"{self.prefix}-work"
        #: what an idle worker yields instead of waiting for a kick —
        #: set by a pipeline whose work comes due by time, not by event
        self._idle_effect: Optional[Sleep] = None
        self._span = None
        self._span_attrs = {"window": self.window, "batch": self.batch_size,
                            "client": str(repo.client)}
        # -- observability (instruments pre-resolved, hot-path idiom) ---
        obs = repo.obs
        self._tracer = obs.tracer
        metrics = obs.metrics
        prefix = self.prefix
        self._m_calls = metrics.counter(f"{prefix}.batch.calls")
        self._m_elements = metrics.counter(f"{prefix}.batch.elements")
        self._m_coalesced = metrics.counter(f"{prefix}.batch.coalesced")
        self._m_size = metrics.histogram(f"{prefix}.batch.size")
        self._m_latency = metrics.histogram(f"{prefix}.batch.latency")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open the pipeline span and spawn the workers.

        Worker processes adopt the caller's active span as their base
        parent (the same adoption ``Fork`` performs for hedged RPC
        attempts), so batch RPCs issued from a worker still trace back
        to the ``drain`` or bulk call that caused them.
        """
        if self._procs or self._stopped:
            return
        kernel = self.world.kernel
        self._span = self._tracer.start(f"{self.prefix}.pipeline",
                                        **self._span_attrs)
        creator = kernel.current_process
        for i in range(self.window):
            proc = kernel.spawn(self._worker(), name=f"{self.name}-w{i}",
                                daemon=True)
            if creator is not None:
                self._tracer.adopt(proc, creator)
            self._procs.append(proc)

    def stop(self) -> None:
        """Kill the workers and close the span."""
        if self._stopped:
            return
        self._stopped = True
        for proc in self._procs:
            proc.kill()
        self._procs.clear()
        if self._span is not None:
            self._tracer.finish(self._span, **self._span_totals())
            self._span = None

    def seal(self) -> None:
        """Promise no further submissions; lets workers exit once
        everything has settled."""
        self._sealed = True
        self._kick_workers()

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _worker(self) -> Generator:
        while not self._stopped:
            # The one admission rule.  The AIMD window is a *cap*, not a
            # floor: congestion shrinks the in-flight budget below the
            # static cap, and a batch never takes more than is left.
            limiter = self.repo.limiter
            cap = self._cap if limiter is None else min(self._cap,
                                                        limiter.window)
            batch = self._form_batch(cap - self._in_flight)
            if batch is None:
                if self._sealed and self._drained():
                    return
                if self._idle_effect is not None:
                    yield self._idle_effect
                else:
                    signal = Signal(name=self._work_signal)
                    self._idle.append(signal)
                    yield Wait(signal)
                continue
            yield from self._execute(batch)

    def _fan_out(self, children: list[tuple[str, Generator]]) -> Generator:
        """Run ``(name, generator)`` children concurrently and wait for
        every one of them (the barrier).  A lone child runs inline."""
        if len(children) == 1:
            yield from children[0][1]
            return
        procs = []
        for name, child in children:
            procs.append((yield Fork(child, name=name, daemon=True)))
        for proc in procs:
            yield Join(proc)

    def _feed_limiter(self, exc: Optional[BaseException],
                      latency: float) -> None:
        """Report one batch-RPC outcome to the client's AIMD window.

        Sheds and timeouts are congestion evidence (multiplicative
        decrease); clean completions are room-to-grow evidence
        (additive increase).  Other failures — crash, partition,
        application errors — say nothing about *load* and feed nothing.
        """
        limiter = self.repo.limiter
        if limiter is None:
            return
        if exc is None:
            limiter.on_success(latency, self.world.now)
        elif isinstance(exc, (ServerBusyFailure, TimeoutFailure)):
            limiter.on_overload(self.world.now)

    def _wake_waiters(self) -> None:
        waiters, self._waiters = self._waiters, []
        for signal in waiters:
            if not signal.fired:
                signal.fire(None)

    def _kick_workers(self) -> None:
        idle, self._idle = self._idle, []
        for signal in idle:
            if not signal.fired:
                signal.fire(None)


class FetchPlanner:
    """Orders fetch candidates and picks hosts for the pipeline."""

    def __init__(self, repo: "Repository", *, closest_first: bool = True,
                 priority: Optional[Callable[[Element], Any]] = None):
        self.repo = repo
        self.closest_first = closest_first
        #: optional application hint — a key function on elements that
        #: overrides the default ordering (Steere's dynamic sets let
        #: applications hint the prefetcher, e.g. smallest-file-first).
        self.priority = priority

    def order(self, elements: Iterable[Element]) -> list[Element]:
        if self.priority is not None:
            return sorted(elements, key=lambda e: (self.priority(e), e.name))
        if self.closest_first:
            return order_closest_first(self.repo.net, self.repo.client, elements)
        return list(elements)

    def rank_replicas(self, element: Element) -> tuple[NodeId, ...]:
        return rank_hosts(self.repo.net, self.repo.client, element.replicas)


@dataclass(frozen=True)
class FetchResult:
    """One element's fate at the hands of the pipeline.

    ``status`` is ``"ok"`` (value fetched), ``"gone"`` (the home's
    authoritative "removed" — or a give-up-free zombie), or
    ``"unreachable"`` (transport failure after home *and* replica
    attempts; in engine mode, only after ``give_up_after`` elapsed).
    """

    element: Element
    value: Any = None
    status: str = "ok"
    fetched_at: float = 0.0
    issue_epoch: int = -1
    from_cache: bool = False
    detail: str = field(default="", compare=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def gone(self) -> bool:
        return self.status == "gone"

    @property
    def unreachable(self) -> bool:
        return self.status == "unreachable"


class FetchPipeline(PipelineCore):
    """Sliding-window batched fetcher shared by every iterator variant.

    ``window`` bounds in-flight *elements*; ``batch_size`` bounds how
    many same-home elements one ``get_objects`` RPC may carry.  With
    ``batch_size=1`` the pipeline degenerates to pure parallel
    pipelining — exactly the old dynamic-sets prefetch engine.

    Two consumption modes:

    * ``retry_interval=None`` (iterator mode): transport failures are
      delivered immediately as ``unreachable`` results; the iterator
      owns the retry policy (per-invocation resubmission, optimistic
      blocking, pessimistic failing — whatever its figure requires).
    * ``retry_interval`` set (engine mode): failures re-queue
      internally and retry until ``give_up_after``; the consumer only
      ever sees final results.  This is the dynamic-sets contract.

    ``use_cache`` is deliberately a required keyword: cache policy is
    the caller's semantic choice, never an accident of a default.
    """

    prefix = "fetch"

    def __init__(self, repo: "Repository", *, use_cache: bool,
                 window: int = 8, batch_size: int = 4,
                 max_batch_bytes: Optional[int] = None,
                 size_hint: "Optional[int | Callable[[Element], int]]" = None,
                 failover: bool = False, validation: str = "none",
                 priority: Optional[Callable[[Element], Any]] = None,
                 closest_first: bool = True, in_order: bool = True,
                 retry_interval: Optional[float] = None,
                 give_up_after: Optional[float] = None,
                 name: str = ""):
        if validation not in VALIDATION_MODES:
            raise ValueError(
                f"unknown validation mode {validation!r}; pick one of "
                f"{VALIDATION_MODES}")
        super().__init__(repo, window=window, batch_size=batch_size, name=name)
        self.planner = FetchPlanner(repo, closest_first=closest_first,
                                    priority=priority)
        # Byte-aware coalescing: cap each multi-get's estimated *reply*
        # bytes alongside the item cap.  The client does not know object
        # sizes before fetching, so ``size_hint`` supplies the estimate
        # (a constant, or a callable per element); with no hint the byte
        # cap is inert and batches are item-capped only.
        self.max_batch_bytes = max_batch_bytes
        self.size_hint = size_hint
        self.use_cache = use_cache
        self.failover = failover
        self.validation = validation
        self.in_order = in_order
        self.retry_interval = retry_interval
        self.give_up_after = give_up_after
        if retry_interval is not None:
            # Engine mode polls (retries are time-based) — the same
            # cadence the old prefetch engine used.
            self._idle_effect = Sleep(retry_interval / 2)
        # -- work state ------------------------------------------------
        self._todo: deque[Element] = deque()
        self._retry: deque[tuple[float, Element]] = deque()
        self._first_failure: dict[ObjectId, float] = {}
        self._live: dict[ObjectId, Element] = {}      # submitted, undelivered
        self._settled: dict[ObjectId, FetchResult] = {}
        self._order: deque[ObjectId] = deque()        # delivery order
        self._arrivals: deque[ObjectId] = deque()     # settle order
        self._batches_issued = 0
        self._unsubscribe: Optional[Callable[[], None]] = None
        # -- the freshness epoch (see module docstring) -----------------
        self._epoch = 0
        # -- counters ---------------------------------------------------
        self.fetched = 0
        self.gone = 0
        self.gave_up = 0
        self.retries = 0
        self.cache_hits = 0
        metrics = repo.obs.metrics
        self._m_ok = metrics.counter("fetch.batch.ok")
        self._m_gone = metrics.counter("fetch.batch.gone")
        self._m_unreachable = metrics.counter("fetch.batch.unreachable")
        self._m_failovers = metrics.counter("fetch.batch.failovers")
        self._m_rpc_failovers = metrics.counter("rpc.failovers")
        self._m_cache_hits = metrics.counter("fetch.batch.cache_hits")
        self._m_probes = metrics.counter("fetch.batch.probes")
        self._m_retries = metrics.counter("fetch.batch.retries")
        self._m_fetch_latency = metrics.histogram("repo.fetch_latency")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Subscribe the freshness epoch, then start the core."""
        if not (self._procs or self._stopped):
            self._unsubscribe = self.world.on_change(self._on_world_change)
        super().start()

    def stop(self) -> None:
        """Stop the core and drop the epoch listener."""
        super().stop()
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    def _span_totals(self) -> dict:
        return {"fetched": self.fetched, "gone": self.gone,
                "gave_up": self.gave_up}

    def _on_world_change(self) -> None:
        self._epoch += 1

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, elements: Iterable[Element]) -> int:
        """Plan and enqueue candidates; returns how many were accepted.

        Elements already pending (submitted, not yet delivered) are
        skipped, so per-invocation resubmission is idempotent; elements
        previously *delivered* — including as ``unreachable`` — are
        accepted again, which is how iterators express "try that one
        again this invocation".
        """
        accepted = 0
        for element in self.planner.order(elements):
            if element.oid in self._live:
                continue
            self._live[element.oid] = element
            self._order.append(element.oid)
            accepted += 1
            if self.use_cache and self.repo.cache is not None:
                cached = self.repo.cache.get(("object", element.oid),
                                             self.world.now)
                if cached is not None:
                    self.cache_hits += 1
                    self._m_cache_hits.value += 1
                    self.repo._m_cache_hits.value += 1
                    self._settle(FetchResult(
                        element, value=cached, fetched_at=self.world.now,
                        issue_epoch=self._epoch, from_cache=True))
                    continue
            if self.repo.disconnected and self.repo.cache is not None:
                # DISCONNECTED client: a stale cached value (past its
                # TTL, with its age accounted for) beats an RPC that is
                # known to fail — the only other option offline.
                peeked = self.repo.cache.peek(("object", element.oid),
                                              self.world.now)
                if peeked is not None:
                    value, age = peeked
                    self.repo._m_stale_served.value += 1
                    self.repo._m_stale_age.observe(age)
                    self._settle(FetchResult(
                        element, value=value, fetched_at=self.world.now,
                        issue_epoch=self._epoch, from_cache=True))
                    continue
            self._todo.append(element)
        if accepted:
            self._kick_workers()
        return accepted

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------
    @property
    def pending(self) -> bool:
        """Anything submitted but not yet delivered?"""
        return bool(self._live)

    @property
    def exhausted(self) -> bool:
        return not self._live

    def next_result(self) -> Generator[Any, Any, Optional[FetchResult]]:
        """Deliver the next result (validated); ``None`` when nothing is
        pending.  In-order pipelines deliver in submission order —
        which reproduces the serial closest-first yield order — while
        arrival-order pipelines stream whatever settles first."""
        while True:
            result = self._pop_ready()
            if result is not None:
                return (yield from self._validate(result))
            if not self._live or self._stopped:
                return None
            signal = Signal(name="fetch-ready")
            self._waiters.append(signal)
            yield Wait(signal)

    def _pop_ready(self) -> Optional[FetchResult]:
        if self.in_order:
            while self._order and self._order[0] not in self._live:
                self._order.popleft()            # delivered via an older entry
            if self._order and self._order[0] in self._settled:
                oid = self._order.popleft()
                del self._live[oid]
                return self._settled.pop(oid)
            return None
        while self._arrivals:
            oid = self._arrivals.popleft()
            if oid in self._settled:
                del self._live[oid]
                return self._settled.pop(oid)
        return None

    def _validate(self, result: FetchResult) -> Generator[Any, Any, FetchResult]:
        """Pop-time revalidation (see module docstring for the proof)."""
        result = yield from self._revalidate(result)
        if result.ok:
            self.fetched += 1
            self._m_ok.value += 1
        elif result.gone:
            self.gone += 1
            self._m_gone.value += 1
        else:
            self._m_unreachable.value += 1
        return result

    def _revalidate(self, result: FetchResult) -> Generator[Any, Any, FetchResult]:
        if (self.validation == "none" or result.from_cache
                or result.unreachable):
            return result
        net = self.repo.net
        client = self.repo.client
        if self.validation == "locations":
            # Grow-only copies are never deleted: any locally reachable
            # location keeps the buffered result justified, no RPC.
            if result.gone:
                return result
            if any(net.expected_latency(client, loc) is not None
                   for loc in result.element.locations):
                return result
            return FetchResult(result.element, status="unreachable",
                               fetched_at=self.world.now,
                               issue_epoch=result.issue_epoch,
                               detail="no location reachable at pop time")
        # validation == "probe"
        if result.issue_epoch == self._epoch:
            # World constant over [issue, pop]: the fetched fact still
            # holds at this very instant.  Free pop.
            return result
        element = result.element
        if net.expected_latency(client, element.home) is None:
            return FetchResult(element, status="unreachable",
                               fetched_at=self.world.now,
                               issue_epoch=result.issue_epoch,
                               detail="home unreachable at pop time")
        if result.gone:
            return result            # removals never un-happen
        self._m_probes.value += 1
        try:
            exists = yield from self.repo.probe(element)
        except FailureException as exc:
            return FetchResult(element, status="unreachable",
                               fetched_at=self.world.now,
                               issue_epoch=result.issue_epoch,
                               detail=f"probe failed: {exc}")
        if exists:
            # Still a member right now; objects are immutable, so the
            # buffered value is still its value.
            return FetchResult(element, value=result.value,
                               fetched_at=self.world.now,
                               issue_epoch=self._epoch)
        return FetchResult(element, status="gone",
                           fetched_at=self.world.now,
                           issue_epoch=self._epoch,
                           detail="removed while buffered (probe)")

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _drained(self) -> bool:
        return not self._todo and not self._retry and self._in_flight == 0

    def _form_batch(self, budget: int) -> Optional[list[Element]]:
        if budget <= 0:
            return None
        head: Optional[Element] = None
        if self._todo:
            head = self._todo.popleft()
        elif self._retry and self._retry[0][0] <= self.world.now:
            head = self._retry.popleft()[1]
        if head is None:
            return None
        # Slow start: the very first batch is a singleton, so the first
        # yield never waits on coalesced company (time-to-first is the
        # paper's headline number).
        limit = min(self.batch_size, budget)
        if self._batches_issued == 0:
            limit = 1
        batch = [head]
        byte_budget = None
        if self.max_batch_bytes is not None and self.size_hint is not None:
            byte_budget = self.max_batch_bytes - self._estimate_bytes(head)
        if limit > 1 and self._todo:
            rest: deque[Element] = deque()
            for element in self._todo:
                if len(batch) < limit and element.home == head.home:
                    if byte_budget is not None:
                        cost = self._estimate_bytes(element)
                        if cost > byte_budget:
                            rest.append(element)
                            continue
                        byte_budget -= cost
                    batch.append(element)
                else:
                    rest.append(element)
            self._todo = rest
        self._in_flight += len(batch)
        self._batches_issued += 1
        return batch

    def _estimate_bytes(self, element: Element) -> int:
        hint = self.size_hint
        if callable(hint):
            return int(hint(element))
        return int(hint or 0)

    def _execute(self, batch: list[Element]) -> Generator:
        home = batch[0].home
        oids = [e.oid for e in batch]
        issue_epoch = self._epoch
        issued_at = self.world.now
        if (len(batch) == 1 and self.failover
                and self.repo.resilience is not None
                and self.repo.resilience.hedge_delay is not None):
            yield from self._execute_hedged(batch[0], issue_epoch, issued_at)
            return
        self._m_calls.value += 1
        self._m_elements.value += len(batch)
        if len(batch) > 1:
            self._m_coalesced.value += len(batch) - 1
        self._m_size.observe(len(batch))
        span = self._tracer.start("fetch.batch", host=str(home), n=len(batch))
        try:
            outcomes = yield from self.repo._call(home, "get_objects", oids)
        except FailureException as exc:
            self._tracer.finish(span, outcome=type(exc).__name__)
            self._feed_limiter(exc, span.duration)
            yield from self._batch_failed(batch, exc, issue_epoch, issued_at)
            return
        self._tracer.finish(span, outcome="ok")
        self._feed_limiter(None, span.duration)
        self._m_latency.observe(span.duration)
        for element, (status, value) in zip(batch, outcomes):
            self._m_fetch_latency.observe(self.world.now - issued_at)
            if status == "ok":
                self._settle_ok(element, value, issue_epoch)
            else:
                self._settle(FetchResult(
                    element, status="gone", fetched_at=self.world.now,
                    issue_epoch=issue_epoch,
                    detail=f"{element.oid} not stored on {home}"))

    def _execute_hedged(self, element: Element, issue_epoch: int,
                        issued_at: float) -> Generator:
        """Tail-latency insurance for singleton batches: race the home's
        authoritative read against the element's replica copies — the
        same race ``Repository._fetch_value`` runs for point lookups.
        A replica can win only with a live copy (the safe direction),
        while the home's "removed" answer settles the race as gone."""
        repo = self.repo
        ranked = self.planner.rank_replicas(element)
        self._m_calls.value += 1
        self._m_elements.value += 1
        self._m_size.observe(1)
        span = self._tracer.start("fetch.batch", host=str(element.home),
                                  n=1, hedged=True)
        try:
            value = yield from repo.resilience.hedged_call(
                repo.client, (element.home,) + ranked,
                ObjectServer.SERVICE, "get_object", element.oid,
                timeout=repo.rpc_timeout,
                method_for={r: "get_object_replica" for r in ranked})
        except NoSuchObjectError:
            self._tracer.finish(span, outcome="NoSuchObjectError")
            self._m_fetch_latency.observe(self.world.now - issued_at)
            self._settle(FetchResult(
                element, status="gone", fetched_at=self.world.now,
                issue_epoch=issue_epoch,
                detail=f"{element.oid} removed at {element.home}"))
            return
        except FailureException as exc:
            self._tracer.finish(span, outcome=type(exc).__name__)
            self._feed_limiter(exc, span.duration)
            # Every racer lost to a fault, not to latency: the patient
            # failover sweep / retry bookkeeping takes over.
            yield from self._batch_failed([element], exc, issue_epoch,
                                          issued_at)
            return
        self._tracer.finish(span, outcome="ok")
        self._feed_limiter(None, span.duration)
        self._m_latency.observe(span.duration)
        self._m_fetch_latency.observe(self.world.now - issued_at)
        self._settle_ok(element, value, issue_epoch)

    def _batch_failed(self, batch: list[Element], exc: FailureException,
                      issue_epoch: int, issued_at: float) -> Generator:
        """Whole-batch transport failure: replica failover, then retry
        bookkeeping (engine mode) or immediate delivery (iterator mode)."""
        remaining = list(batch)
        if self.failover and isinstance(exc, _DIVERTABLE):
            remaining = yield from self._failover(remaining, issue_epoch,
                                                  issued_at)
        for element in remaining:
            self._element_failed(element, exc)

    def _failover(self, batch: list[Element], issue_epoch: int,
                  issued_at: float) -> Generator[Any, Any, list[Element]]:
        """Closest-first sweep of replica copies, batched per replica
        host.  Replica answers are never authoritative about removal
        (a missing copy is a "miss", not a "gone"), so a success here
        can only restore visibility of a still-live member — the safe
        direction for a weak set, which may omit but never invent."""
        groups: dict[tuple[NodeId, ...], list[Element]] = {}
        for element in batch:
            groups.setdefault(self.planner.rank_replicas(element),
                              []).append(element)
        unresolved: list[Element] = []
        for ranked, elements in groups.items():
            remaining = list(elements)
            for replica in ranked:
                if not remaining:
                    break
                oids = [e.oid for e in remaining]
                span = self._tracer.start("fetch.batch", host=str(replica),
                                          n=len(oids), failover=True)
                try:
                    outcomes = yield from self.repo._call_once(
                        replica, "get_objects_replica", oids)
                except FailureException as failure:
                    self._tracer.finish(span, outcome=type(failure).__name__)
                    continue
                self._tracer.finish(span, outcome="ok")
                self._m_latency.observe(span.duration)
                still: list[Element] = []
                for element, (status, value) in zip(remaining, outcomes):
                    if status == "ok":
                        self._m_rpc_failovers.value += 1
                        self._m_failovers.value += 1
                        self._m_fetch_latency.observe(self.world.now - issued_at)
                        self._settle_ok(element, value, issue_epoch)
                    else:
                        still.append(element)
                remaining = still
            unresolved.extend(remaining)
        return unresolved

    def _element_failed(self, element: Element, exc: FailureException) -> None:
        if self.retry_interval is None:
            # Iterator mode: the iterator owns the retry policy.
            self._settle(FetchResult(
                element, status="unreachable", fetched_at=self.world.now,
                issue_epoch=self._epoch, detail=str(exc)))
            return
        now = self.world.now
        if isinstance(exc, DisconnectedError):
            # Engine mode, but the client is DISCONNECTED: no amount of
            # retrying reaches anything until reconnect, so don't burn
            # the give_up_after budget in simulated retry time.
            self.gave_up += 1
            self._settle(FetchResult(
                element, status="unreachable", fetched_at=now,
                issue_epoch=self._epoch, detail=f"disconnected: {exc}"))
            return
        first = self._first_failure.setdefault(element.oid, now)
        if (self.give_up_after is not None
                and now - first >= self.give_up_after):
            self.gave_up += 1
            self._settle(FetchResult(
                element, status="unreachable", fetched_at=now,
                issue_epoch=self._epoch, detail=f"gave up: {exc}"))
        else:
            self.retries += 1
            self._m_retries.value += 1
            # Back in the queue, no longer in flight: release its slot
            # of the window so other work can proceed meanwhile.  A
            # shedding server's retry_after floors the comeback time.
            self._in_flight -= 1
            wait = max(self.retry_interval,
                       getattr(exc, "retry_after", 0.0) or 0.0)
            self._retry.append((now + wait, element))

    # ------------------------------------------------------------------
    def _settle_ok(self, element: Element, value: Any, issue_epoch: int) -> None:
        value = unwrap(value)  # servers reply in wire Blobs
        if self.repo.cache is not None:
            self.repo.cache.put(("object", element.oid), value, self.world.now)
        self._settle(FetchResult(element, value=value,
                                 fetched_at=self.world.now,
                                 issue_epoch=issue_epoch))

    def _settle(self, result: FetchResult) -> None:
        oid = result.element.oid
        if oid not in self._live:        # delivered meanwhile (stale settle)
            return
        if not result.from_cache and oid not in self._settled:
            self._in_flight -= 1
        self._settled[oid] = result
        self._arrivals.append(oid)
        self._wake_waiters()
        self._kick_workers()             # window budget freed

    def __repr__(self) -> str:
        return (f"FetchPipeline({self.name}, window={self.window}, "
                f"batch={self.batch_size}, live={len(self._live)}, "
                f"fetched={self.fetched}, gone={self.gone})")
