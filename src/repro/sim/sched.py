"""The event scheduler: the data structure under the kernel's event loop.

The kernel's ordering contract is strict ``(time, seq)`` order — two
actions scheduled for the same instant run in scheduling order, and
determinism never depends on container internals.

:class:`WheelScheduler` is a timer-wheel/slotted-heap hybrid (a
calendar queue with heap-ordered slots).  Entries hash into fixed-width
time slots (O(1) list append, no per-push allocation); slots are
ordered by a small heap of integer keys (C-speed comparisons); a slot
is stably sorted lazily by time — C-speed via ``attrgetter``, with seq
order riding on sort stability — when the clock reaches it.
Same-instant runs are surfaced as whole batches so the kernel can
dispatch them without per-event queue traffic.  Slotting is a pure
performance choice: every slot is sorted by ``(time, seq)`` before
dispatch and slots are visited in key order, so the observable event
order is identical to one global binary heap's for any schedule.
``tests/test_sim_sched.py`` checks that differentially against the
frozen seed kernel (:mod:`repro.sim._seed_kernel`), whose heapq loop
is the reference, and the E22a benchmark measures the kernel's
throughput against it.

The kernel drives a four-method protocol (:class:`EventScheduler`):
``push(entry)``, ``peek_time()`` (drop cancelled heads, return the next
event time or ``None``), ``pop_batch(out)`` (move every live entry at
exactly that time into ``out``, in seq order — only valid immediately
after a successful ``peek_time``), and ``requeue(entries)`` (put
not-yet-run entries back, preserving their stamps, when ``run()`` stops
mid-batch).
"""

from __future__ import annotations

import heapq
from bisect import insort
from operator import attrgetter
from typing import Callable, Iterable, Optional, Protocol, Sequence

from ..errors import SimulationError

__all__ = ["_Scheduled", "EventScheduler", "WheelScheduler",
           "DEFAULT_SLOT_WIDTH"]


class _Scheduled:
    """An action to run at virtual ``time``; ties broken by ``seq``."""

    __slots__ = ("time", "seq", "action", "cancelled")

    def __init__(self, time: float, seq: int, action: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.action = action
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __lt__(self, other: "_Scheduled") -> bool:
        # Used only on the wheel's rare insort-into-active-slot path;
        # bulk slot sorting goes through the stable C-speed time key.
        return (self.time, self.seq) < (other.time, other.seq)


class EventScheduler(Protocol):
    """The protocol the kernel drives (see module docstring)."""

    def push(self, entry: _Scheduled) -> None: ...
    def peek_time(self) -> Optional[float]: ...
    def pop_batch(self, out: list) -> None: ...
    def requeue(self, entries: Sequence[_Scheduled]) -> None: ...
    def __len__(self) -> int: ...


#: Slot width in virtual seconds.  Simulated RPC latencies sit in the
#: 2–80 ms band, so ~2 ms slots keep a handful of events per slot at
#: population scale without inflating the key heap for long quiet runs.
DEFAULT_SLOT_WIDTH = 1.0 / 512.0

#: Times at or beyond this slot key (including +inf timeouts) all share
#: one far-future slot.  Slotting never affects order — slots sort by
#: (time, seq) before dispatch — so clamping is safe at any horizon.
_FAR_KEY = 1 << 62

#: Stable-sort key for slot activation: time only, C-speed, zero
#: allocation.  Correct because buckets are append-ordered by globally
#: increasing ``seq`` (see ``push``), so a *stable* sort on time alone
#: yields exact (time, seq) order without building a key tuple per
#: entry — tuple churn at 10⁵ events/s is what feeds the GC.
_TIME_KEY = attrgetter("time")


class WheelScheduler:
    """Timer-wheel/slotted-heap hybrid (calendar queue, heap-ordered).

    ``_buckets`` maps integer slot keys (``int(time / width)``) to
    lists of :class:`_Scheduled` entries; ``_keys`` is a heap over the
    live keys.  When the kernel reaches a slot it is popped, stably
    sorted once by time, and drained front to back through
    ``_active``/``_active_pos``; pushes landing in the active slot
    bisect into the unconsumed tail, so intra-slot order stays exact.

    Ordering invariant: every ``push`` of a *new* entry appends with a
    ``seq`` larger than anything already in the structure (the kernel's
    sequence counter is global and monotonic), so bucket ties are
    already in seq order and the stable time-sort preserves them.  The
    two paths that re-insert *old* entries — ``requeue`` of an
    interrupted batch, and a shelved active tail — go through
    ``insort`` (full ``(time, seq)`` comparison) and a pre-sorted
    prefix respectively, so the invariant survives both.
    """

    __slots__ = ("width", "_inv_width", "_buckets", "_keys",
                 "_active", "_active_pos", "_active_key", "_count")

    def __init__(self, width: float = DEFAULT_SLOT_WIDTH):
        if width <= 0:
            raise SimulationError(f"slot width must be positive, got {width}")
        self.width = width
        self._inv_width = 1.0 / width
        self._buckets: dict[int, list[_Scheduled]] = {}
        self._keys: list[int] = []
        self._active: list[_Scheduled] = []
        self._active_pos = 0
        self._active_key = -1
        self._count = 0

    def push(self, entry: _Scheduled) -> None:
        scaled = entry.time * self._inv_width
        key = _FAR_KEY if scaled >= _FAR_KEY else int(scaled)
        if key == self._active_key:
            # Landing in the slot being drained: bisect into the
            # unconsumed tail (new stamps always sort at or after the
            # drain position, so consumed entries are never revisited).
            insort(self._active, entry, lo=self._active_pos)
        else:
            bucket = self._buckets.get(key)
            if bucket is None:
                self._buckets[key] = [entry]
                heapq.heappush(self._keys, key)
            else:
                bucket.append(entry)
        self._count += 1

    def requeue(self, entries: Iterable[_Scheduled]) -> None:
        for entry in entries:
            self.push(entry)

    def peek_time(self) -> Optional[float]:
        while True:
            active = self._active
            pos = self._active_pos
            size = len(active)
            while pos < size:
                if active[pos].cancelled:
                    pos += 1
                    self._count -= 1
                else:
                    break
            self._active_pos = pos
            keys = self._keys
            if pos < size:
                if keys and keys[0] < self._active_key:
                    # A run() that stopped early (hit `until`) left this
                    # slot mid-drain, and later pushes landed in an
                    # earlier slot.  Shelve the unconsumed tail and let
                    # the loop activate the earlier slot first.
                    self._shelve_active_tail(pos)
                    continue
                return active[pos].time
            if not keys:
                return None
            self._activate(heapq.heappop(keys))

    def _shelve_active_tail(self, pos: int) -> None:
        # The tail is (time, seq)-sorted; any append that follows
        # carries a larger seq, so the stable re-sort at the next
        # activation still lands in exact order.
        tail = self._active[pos:]
        self._buckets[self._active_key] = tail
        heapq.heappush(self._keys, self._active_key)
        self._active = []
        self._active_pos = 0
        self._active_key = -1

    def _activate(self, key: int) -> None:
        bucket = self._buckets.pop(key)
        bucket.sort(key=_TIME_KEY)
        self._active = bucket
        self._active_pos = 0
        self._active_key = key

    def pop_batch(self, out: list) -> None:
        active = self._active
        pos = self._active_pos
        size = len(active)
        when = active[pos].time
        start = pos
        while pos < size:
            entry = active[pos]
            if entry.time != when:
                break
            pos += 1
            if not entry.cancelled:
                out.append(entry)
        self._count -= pos - start
        self._active_pos = pos

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        return (f"WheelScheduler(pending={self._count}, "
                f"slots={len(self._buckets)}, width={self.width})")

