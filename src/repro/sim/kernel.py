"""The deterministic discrete-event kernel.

One :class:`Kernel` instance owns a virtual clock, a scheduler of
pending actions, and a set of processes (Python generators).  The whole
simulation is single-threaded: concurrency is *simulated* by interleaving
process steps at their scheduled virtual times, so a run is exactly
reproducible given (code, seed).

Tie-breaking is by a monotonically increasing sequence number, so two
actions scheduled for the same instant run in scheduling order —
determinism does not depend on container internals.  The queue is the
timer-wheel/slotted-heap hybrid of :mod:`repro.sim.sched`; the frozen
seed kernel (:mod:`repro.sim._seed_kernel`) is the reference that
differential determinism tests and the E22a throughput gate compare it
against.

The event loop dispatches same-instant events as one *batch*: the
scheduler surfaces every entry stamped with the next virtual time at
once, and actions scheduled for the current instant during the batch
(zero-delay process steps, message deliveries) append to the live batch
instead of round-tripping through the scheduler.  Observable order is
still strict ``(time, seq)``.

Two hot-path conventions keep per-event cost down at population scale
(10⁵+ clients): a scheduled entry's ``action`` is either a plain
callable *or the Process itself* (meaning "advance this process"), so
resuming a process costs no closure or ``partial`` allocation; and the
no-``stop_when`` dispatch loop steps generators inline — the common
``yield Sleep(...)`` never leaves the loop frame.  Every slow or
re-entrant path still funnels through :meth:`Kernel._step`, which is
the semantic reference for what one step means.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Callable, Generator, Optional, Union

from ..errors import SimulationError, TimeoutFailure
from ..obs import Observability
from .clock import Clock
from .events import Fork, Join, Now, Signal, Sleep, Wait
from .process import Process, ProcessState
from .rng import RandomRouter, Stream
from .sched import EventScheduler, WheelScheduler, _Scheduled
from .tracing import TraceLog

__all__ = ["Kernel"]

# Hot-path constants: enum attribute loads are not free at 10⁵ events/s.
_RUNNING = ProcessState.RUNNING
_WAITING = ProcessState.WAITING


class Kernel:
    """Discrete-event scheduler driving generator-based processes."""

    def __init__(self, seed: int = 0, trace: bool = False):
        self.clock = Clock()
        self.random = RandomRouter(seed)
        self.trace = TraceLog(enabled=trace, clock=self.clock)
        self._sched: EventScheduler = WheelScheduler()
        self._seq = itertools.count()
        self._processes: list[Process] = []
        self._running: Optional[Process] = None
        # Live batch state: while run() drains an instant, zero-delay
        # schedules append straight onto the batch being dispatched.
        self._batch: list[_Scheduled] = []
        self._batch_time = -1.0
        self._dispatching = False
        # One observability surface per kernel: metrics + spans, timed by
        # the virtual clock, span parentage keyed by the running process.
        self.obs = Observability(self.clock, context_key=lambda: self._running)
        # Hot path: instruments are resolved once, not per event.
        self._m_events = self.obs.metrics.counter("kernel.events")
        self._m_queue_depth = self.obs.metrics.gauge("kernel.queue_depth")
        self._m_wall = self.obs.metrics.counter("kernel.wall_seconds")
        self._m_sim = self.obs.metrics.counter("kernel.sim_seconds")

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def current_process(self) -> Optional["Process"]:
        """The process whose generator is being stepped right now (the
        tracer's span-parentage context), or ``None`` between steps.
        Lets code that spawns workers directly — rather than via the
        ``Fork`` effect — adopt the creator's span context."""
        return self._running

    def stream(self, name: str) -> Stream:
        """Named deterministic random stream (see :mod:`repro.sim.rng`)."""
        return self.random.stream(name)

    def spawn(self, generator: Generator, name: str = "", daemon: bool = False,
              transient: bool = False) -> Process:
        """Create a process from ``generator`` and schedule its first step.

        ``transient`` processes are not retained in the kernel's process
        table: once finished they are garbage-collected with their
        generator frames.  Population-scale workloads (10⁵+ short-lived
        client sessions) spawn transient, so a run's memory stays
        bounded by the *live* population, not the arrival count.
        Transient processes do not appear in :meth:`processes` or
        :meth:`blocked_processes`.
        """
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"spawn() needs a generator, got {type(generator).__name__} "
                "(did you forget to call the generator function?)"
            )
        proc = Process(generator, name=name, daemon=daemon)
        if not transient:
            self._processes.append(proc)
        if self.trace.enabled:
            self.trace.record("spawn", process=proc.name)
        self._schedule(0.0, proc)
        return proc

    def call_soon(self, action: Callable[[], None], delay: float = 0.0) -> Callable[[], None]:
        """Schedule a plain callback ``delay`` seconds from now.

        Returns a cancel function.  Used by the network layer to model
        message delivery without a full process per message.
        """
        return self._schedule(delay, action).cancel

    def run(self, until: Optional[float] = None,
            stop_when: Optional[Callable[[], bool]] = None) -> None:
        """Run scheduled actions until the queue empties (or ``until``,
        or ``stop_when()`` turns true between actions)."""
        wall_start = time.perf_counter()
        sim_start = self.clock.now
        sched = self._sched
        sched_push = sched.push
        clock = self.clock
        batch = self._batch
        seq = self._seq
        executed = 0
        try:
            while True:
                if stop_when is not None and stop_when():
                    return
                next_time = sched.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    clock.advance_to(until)
                    return
                sched.pop_batch(batch)
                clock.advance_to(next_time)
                self._batch_time = next_time
                self._dispatching = True
                index = 0
                try:
                    if stop_when is None:
                        # Hot loop: `for` picks up entries appended to
                        # the live batch mid-dispatch, and the common
                        # case — resume a process whose generator
                        # yields another Sleep — is stepped inline
                        # (no _step frame, no closure, no re-entry
                        # into the scheduler for same-instant wakes).
                        for entry in batch:
                            index += 1
                            if entry.cancelled:
                                continue
                            executed += 1
                            action = entry.action
                            if action.__class__ is not Process:
                                action()
                                continue
                            proc = action
                            if proc._terminal:
                                continue
                            if (proc._resume_value is not None
                                    or proc._resume_error is not None):
                                self._step(proc)
                                continue
                            proc.state = _RUNNING
                            self._running = proc
                            try:
                                effect = proc.generator.send(None)
                            except StopIteration as stop:
                                proc._finish(stop.value)
                                self.trace.record("finish", process=proc.name)
                                self._running = None
                                continue
                            except BaseException as exc:
                                proc._fail(exc)
                                self.trace.record("fail", process=proc.name,
                                                  error=repr(exc))
                                self._running = None
                                continue
                            self._running = None
                            if effect.__class__ is Sleep:
                                proc.state = _WAITING
                                # The entry that woke us is dead (fired,
                                # never cancellable from outside): reuse
                                # it for the next sleep — zero
                                # allocation per steady-state event.
                                entry.time = when = next_time + effect.duration
                                entry.seq = next(seq)
                                if when == next_time:
                                    batch.append(entry)
                                else:
                                    sched_push(entry)
                                continue
                            self._interpret(proc, effect)
                    else:
                        fresh_check = True   # stop_when was just evaluated
                        for entry in batch:
                            index += 1
                            if entry.cancelled:
                                continue
                            if not fresh_check and stop_when():
                                sched.requeue(batch[index - 1:])
                                return
                            fresh_check = False
                            executed += 1
                            action = entry.action
                            if action.__class__ is Process:
                                self._step(action)
                            else:
                                action()
                except BaseException:
                    # A raising action is dropped (it was underway), the
                    # rest of the instant survives for the next run().
                    sched.requeue(batch[index:])
                    raise
                finally:
                    self._dispatching = False
                    del batch[:]
                self._m_queue_depth.value = len(sched)
            if until is not None and until > clock.now:
                clock.advance_to(until)
        finally:
            self._m_events.value += executed
            # Wall-per-sim-time: how much real time one virtual second
            # costs (the simulator's own efficiency, tracked per run).
            self._m_wall.value += time.perf_counter() - wall_start
            self._m_sim.value += clock.now - sim_start

    def run_process(self, generator: Generator, name: str = "main", until: Optional[float] = None) -> Any:
        """Spawn ``generator``, run until it finishes, return its result.

        The common entry point for tests and examples.  Stops as soon as
        the process completes (background daemons — replication,
        fault injectors — may still have work queued; they simply stop
        here and resume on the next ``run``).  Raises the process's
        exception if it failed, and ``SimulationError`` if the simulation
        ran out of events or hit ``until`` before the process finished.
        """
        proc = self.spawn(generator, name=name)
        self.run(until=until, stop_when=lambda: proc.finished)
        if not proc.finished:
            raise SimulationError(
                f"simulation ended at t={self.now:.3f} before {name!r} finished "
                f"(state={proc.state.value}; deadlock or `until` too small)"
            )
        return proc.result

    def kill(self, proc: Process) -> None:
        """Terminate ``proc`` (public API; no-op if already finished).

        The generator is closed (its ``finally`` blocks run) and any
        joiner is resumed with :class:`~repro.errors.ProcessKilled`.
        """
        proc.kill()
        self.trace.record("kill", process=proc.name)

    def processes(self) -> list[Process]:
        return list(self._processes)

    def blocked_processes(self) -> list[Process]:
        """Processes suspended with nothing scheduled to wake them."""
        return [
            p for p in self._processes
            if p.state is ProcessState.WAITING and not p.daemon
        ]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _schedule(self, delay: float,
                  action: Union[Callable[[], None], Process]) -> _Scheduled:
        # ``action`` is a callable to invoke, or a Process to advance.
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        when = self.clock.now + delay
        entry = _Scheduled(when, next(self._seq), action)
        if self._dispatching and when == self._batch_time:
            # Same-instant schedule during dispatch: join the live batch
            # (appends carry increasing seqs, so order stays exact).
            self._batch.append(entry)
        else:
            self._sched.push(entry)
        return entry

    def _step(self, proc: Process, *, throw: Optional[BaseException] = None) -> None:
        """Advance ``proc`` by one generator step and interpret its effect."""
        if proc._terminal:
            return
        # Inlined _take_resume: this runs once per event.
        value = proc._resume_value
        error = proc._resume_error
        if value is not None or error is not None:
            proc._resume_value = None
            proc._resume_error = None
        if throw is not None:
            error = throw
        proc.state = _RUNNING
        self._running = proc
        try:
            if error is not None:
                effect = proc.generator.throw(error)
            else:
                effect = proc.generator.send(value)
        except StopIteration as stop:
            proc._finish(stop.value)
            self.trace.record("finish", process=proc.name)
            return
        except BaseException as exc:
            proc._fail(exc)
            self.trace.record("fail", process=proc.name, error=repr(exc))
            return
        finally:
            self._running = None
        if type(effect) is Sleep:
            # Fast path: Sleep dominates every workload.  Inlines
            # _schedule (Sleep validated duration >= 0 at construction).
            proc.state = _WAITING
            when = self.clock._now + effect.duration
            entry = _Scheduled(when, next(self._seq), proc)
            if self._dispatching and when == self._batch_time:
                self._batch.append(entry)
            else:
                self._sched.push(entry)
            return
        self._interpret(proc, effect)

    def _interpret(self, proc: Process, effect: Any) -> None:
        if isinstance(effect, Sleep):
            proc.state = _WAITING
            self._schedule(effect.duration, proc)
        elif isinstance(effect, Wait):
            self._do_wait(proc, effect.signal, effect.timeout)
        elif isinstance(effect, Join):
            self._do_wait(proc, effect.process.done, effect.timeout)
        elif isinstance(effect, Fork):
            child = self.spawn(effect.generator, name=effect.name, daemon=effect.daemon)
            # A forked child's spans nest under the forker's active span
            # (hedged RPC attempts trace back to the drain that fired them).
            self.obs.tracer.adopt(child, proc)
            proc._set_resume(value=child)
            self._schedule(0.0, proc)
        elif isinstance(effect, Now):
            proc._set_resume(value=self.clock.now)
            self._schedule(0.0, proc)
        elif isinstance(effect, Signal):
            # Sugar: yielding a bare signal waits on it without timeout.
            self._do_wait(proc, effect, None)
        else:
            err = SimulationError(
                f"{proc.name} yielded {effect!r}, which is not a simulation effect"
            )
            self._schedule(0.0, lambda: self._step(proc, throw=err))

    def _do_wait(self, proc: Process, signal: Signal, timeout: Optional[float]) -> None:
        proc.state = ProcessState.WAITING
        settled = {"done": False}
        timer: list[_Scheduled] = []

        def on_fire(sig: Signal) -> None:
            if settled["done"]:
                return
            settled["done"] = True
            if timer:
                timer[0].cancelled = True
            if sig.error is not None:
                proc._set_resume(error=sig.error)
            else:
                proc._set_resume(value=sig._value)
            self._schedule(0.0, proc)

        signal.add_waiter(on_fire)
        if timeout is not None and not settled["done"]:
            def on_timeout() -> None:
                if settled["done"]:
                    return
                settled["done"] = True
                signal.discard_waiter(on_fire)
                proc._set_resume(error=TimeoutFailure(
                    f"wait on {signal.name or 'signal'} timed out after {timeout}s"
                ))
                self._step(proc)

            timer.append(self._schedule(timeout, on_timeout))

    def _resume(self, proc: Process) -> None:
        self._step(proc)

    def __repr__(self) -> str:
        return (f"Kernel(now={self.now:.3f}, queued={len(self._sched)}, "
                f"procs={len(self._processes)})")
