"""Scheduler equivalence: the timer wheel is observably the heap.

The kernel's contract is strict ``(time, seq)`` event order.  The
timer-wheel scheduler reorganises storage (slots, lazy stable sorts,
batch draining) but must never reorganise *observable order*.  These
tests are differential: the same randomized schedule runs under the
shipped kernel and the frozen seed kernel (:mod:`repro.sim._seed_kernel`,
one global heapq loop), and every observable — execution order,
timestamps, trace records, final RNG draws — must be identical.

The randomized programs deliberately cover the wheel's hard cases:
same-instant ties (batch dispatch), cancellations (lazy removal),
far-future and infinite timers (the clamped far slot), zero-delay
chains (live-batch appends), and ``run(until=...)`` splits that leave
a slot half-drained (the shelve-active-tail path).
"""

import math
import random

import pytest

from repro.errors import SimulationError
from repro.sim import (
    Fork,
    Join,
    Kernel,
    Now,
    Signal,
    Sleep,
    Wait,
    WheelScheduler,
)
from repro.sim._seed_kernel import Kernel as SeedKernel
from repro.sim.sched import _Scheduled


# ---------------------------------------------------------------------------
# differential determinism: randomized programs, identical observables
# ---------------------------------------------------------------------------

def _random_program(kernel, rng_seed: int, log: list):
    """Build a randomized but deterministic workload on ``kernel``.

    All randomness comes from a ``random.Random(rng_seed)`` *outside*
    the kernel, so the same script is replayed on every kernel variant.
    Appends ``(now, tag)`` tuples to ``log`` at every step.
    """
    rng = random.Random(rng_seed)
    gate = Signal(name="gate")

    def worker(wid: int, steps: int):
        for s in range(steps):
            roll = rng.random()
            if roll < 0.45:
                # Quantized durations force same-instant ties across
                # workers; exact floats keep schedules reproducible.
                yield Sleep(rng.choice([0.0, 0.001, 0.001, 0.005, 0.02]))
            elif roll < 0.6:
                yield Sleep(rng.random() * 0.03)
            elif roll < 0.7:
                now = yield Now()
                log.append((now, f"w{wid}.now{s}"))
                continue
            elif roll < 0.8:
                child = yield Fork(sleeper(rng.random() * 0.01),
                                   name=f"w{wid}.c{s}")
                yield Join(child)
            elif roll < 0.9:
                try:
                    yield Wait(gate, timeout=rng.choice([0.002, 0.05]))
                except Exception:
                    pass
            else:
                # Far-future timer that run() never reaches — exercises
                # the wheel's clamped far slot staying pending.
                cancel = kernel.call_soon(lambda: log.append(("far", wid)),
                                          delay=rng.choice([1e6, math.inf]))
                cancel()
            log.append((kernel.now, f"w{wid}.s{s}"))

    def sleeper(duration: float):
        yield Sleep(duration)
        return duration

    def firer():
        yield Sleep(0.013)
        gate.fire("open")
        log.append((kernel.now, "gate-fired"))

    for wid in range(6):
        kernel.spawn(worker(wid, 12), name=f"w{wid}")
    kernel.spawn(firer(), name="firer")
    # Zero-delay chains: callbacks that schedule more callbacks at the
    # same instant (live-batch appends must keep seq order).
    def chain(depth: int):
        log.append((kernel.now, f"chain{depth}"))
        if depth:
            kernel.call_soon(lambda: chain(depth - 1))
    kernel.call_soon(lambda: chain(3), delay=0.004)
    # A cancelled timer that would otherwise land mid-run.
    cancel = kernel.call_soon(lambda: log.append((kernel.now, "cancelled!")),
                              delay=0.006)
    cancel()


def _observe(kernel_factory, rng_seed: int, split: float = None):
    kernel = kernel_factory()
    log = []
    _random_program(kernel, rng_seed, log)
    if split is not None:
        # Stop mid-schedule (possibly mid-slot), then resume: the wheel
        # must shelve its half-drained slot correctly.
        kernel.run(until=split)
        log.append((kernel.now, "--split--"))
    kernel.run()
    draws = kernel.stream("after").random()
    return log, kernel.now, draws


@pytest.mark.parametrize("rng_seed", range(8))
def test_wheel_matches_heap_on_randomized_schedules(rng_seed):
    heap_obs = _observe(lambda: SeedKernel(seed=3), rng_seed)
    wheel_obs = _observe(lambda: Kernel(seed=3), rng_seed)
    assert heap_obs == wheel_obs


@pytest.mark.parametrize("rng_seed", range(4))
def test_new_kernel_matches_frozen_seed_kernel(rng_seed):
    """Same program, different kernel seed: RNG streams agree too."""
    seed_obs = _observe(lambda: SeedKernel(seed=11), rng_seed + 100)
    wheel_obs = _observe(lambda: Kernel(seed=11), rng_seed + 100)
    assert seed_obs == wheel_obs


@pytest.mark.parametrize("rng_seed", range(4))
@pytest.mark.parametrize("split", [0.0105, 0.02])
def test_until_split_mid_slot_preserves_order(rng_seed, split):
    """run(until=...) then resume: identical to an uninterrupted run."""
    whole = _observe(lambda: Kernel(seed=3), rng_seed)
    parts = _observe(lambda: Kernel(seed=3), rng_seed, split=split)
    # Drop the split marker; everything else must line up exactly.
    split_log = [e for e in parts[0] if e[1] != "--split--"]
    assert split_log == whole[0]
    assert parts[1] == whole[1]
    # And the split run still matches the heap run split the same way.
    heap_parts = _observe(lambda: SeedKernel(seed=3), rng_seed, split=split)
    assert parts == heap_parts


def test_traces_identical_across_schedulers():
    def observe(kernel_factory):
        kernel = kernel_factory(seed=9, trace=True)
        log = []
        _random_program(kernel, 42, log)
        kernel.run()
        return [(r.time, r.kind, tuple(sorted(r.fields.items())))
                for r in kernel.trace.records()]

    assert observe(SeedKernel) == observe(Kernel)


# ---------------------------------------------------------------------------
# wheel mechanics: the hard cases, exercised directly
# ---------------------------------------------------------------------------

def _drain(sched):
    """Pop everything in dispatch order via the kernel protocol."""
    order = []
    batch = []
    while sched.peek_time() is not None:
        sched.pop_batch(batch)
        order.extend(batch)
        del batch[:]
    return order


def test_wheel_orders_ties_and_slots_like_heap():
    rng = random.Random(5)
    wheel = WheelScheduler()
    entries = []
    for seq in range(500):
        when = rng.choice([0.0, 0.001, 0.0010000001, 0.5, 7.25,
                           rng.random() * 3.0])
        entries.append(_Scheduled(when, seq, None))
    for e in entries:
        wheel.push(e)
    # A binary heap pops in exact (time, seq) order.
    assert [(e.time, e.seq) for e in _drain(wheel)] == \
           sorted((e.time, e.seq) for e in entries)


def test_wheel_far_future_and_infinite_times_share_the_far_slot():
    wheel = WheelScheduler()
    near = _Scheduled(0.001, 0, None)
    far = _Scheduled(1e30, 1, None)
    farther = _Scheduled(math.inf, 2, None)
    far_low_seq_later_push = _Scheduled(1e29, 3, None)
    for e in (far, near, farther, far_low_seq_later_push):
        wheel.push(e)
    assert len(wheel) == 4
    got = _drain(wheel)
    assert [(e.time, e.seq) for e in got] == [
        (0.001, 0), (1e29, 3), (1e30, 1), (math.inf, 2)]


def test_wheel_cancellation_is_lazy_but_exact():
    wheel = WheelScheduler()
    entries = [_Scheduled(0.001 * i, i, None) for i in range(10)]
    for e in entries:
        wheel.push(e)
    entries[0].cancel()
    entries[5].cancel()
    entries[9].cancel()
    got = _drain(wheel)
    assert [e.seq for e in got] == [1, 2, 3, 4, 6, 7, 8]
    assert len(wheel) == 0


def test_wheel_requeue_into_active_slot_keeps_order():
    wheel = WheelScheduler()
    # Same instant: activate the slot, drain the batch, requeue part.
    entries = [_Scheduled(0.5, i, None) for i in range(6)]
    for e in entries:
        wheel.push(e)
    assert wheel.peek_time() == 0.5
    batch = []
    wheel.pop_batch(batch)
    assert [e.seq for e in batch] == [0, 1, 2, 3, 4, 5]
    wheel.requeue(batch[3:])                 # stop_when interrupted us
    wheel.push(_Scheduled(0.5, 6, None))     # and new work arrived
    assert wheel.peek_time() == 0.5
    batch2 = []
    wheel.pop_batch(batch2)
    assert [e.seq for e in batch2] == [3, 4, 5, 6]


def test_wheel_shelves_half_drained_slot_when_earlier_work_arrives():
    wheel = WheelScheduler(width=1.0)        # one big slot per second
    a = _Scheduled(10.25, 0, None)
    b = _Scheduled(10.75, 1, None)
    wheel.push(a)
    wheel.push(b)
    assert wheel.peek_time() == 10.25
    batch = []
    wheel.pop_batch(batch)                   # 10.25 consumed; 10.75 pending
    assert batch == [a]
    # Later work lands in an *earlier* slot (a run(until=10.3) resumed
    # with a shorter timer): the active tail must not mask it.
    c = _Scheduled(5.5, 2, None)
    wheel.push(c)
    assert wheel.peek_time() == 5.5
    batch2 = []
    wheel.pop_batch(batch2)
    assert batch2 == [c]
    assert wheel.peek_time() == 10.75
    batch3 = []
    wheel.pop_batch(batch3)
    assert batch3 == [b]
    assert wheel.peek_time() is None
    assert len(wheel) == 0


def test_wheel_rejects_nonpositive_slot_width():
    with pytest.raises(SimulationError):
        WheelScheduler(width=0.0)
    with pytest.raises(SimulationError):
        WheelScheduler(width=-1.0)
