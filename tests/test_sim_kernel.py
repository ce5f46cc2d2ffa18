"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import ProcessKilled, SimulationError, TimeoutFailure
from repro.sim import Fork, Join, Kernel, Now, Signal, Sleep, Wait


def test_run_process_returns_value():
    def proc():
        yield Sleep(1.0)
        return 42

    k = Kernel()
    assert k.run_process(proc()) == 42
    assert k.now == pytest.approx(1.0)


def test_sleep_advances_virtual_time_only():
    times = []

    def proc():
        t0 = yield Now()
        yield Sleep(5.0)
        t1 = yield Now()
        times.extend([t0, t1])

    Kernel().run_process(proc())
    assert times == [0.0, 5.0]


def test_negative_sleep_rejected():
    with pytest.raises(SimulationError):
        Sleep(-1.0)


def test_processes_interleave_deterministically():
    order = []

    def worker(name, delay):
        yield Sleep(delay)
        order.append(name)

    k = Kernel()
    k.spawn(worker("b", 2.0))
    k.spawn(worker("a", 1.0))
    k.spawn(worker("c", 3.0))
    k.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_run_in_spawn_order():
    order = []

    def worker(name):
        yield Sleep(1.0)
        order.append(name)

    k = Kernel()
    for name in "abcde":
        k.spawn(worker(name))
    k.run()
    assert order == list("abcde")


def test_signal_wait_and_fire():
    sig = Signal("s")
    got = []

    def waiter():
        value = yield Wait(sig)
        got.append(value)

    def firer():
        yield Sleep(2.0)
        sig.fire("payload")

    k = Kernel()
    k.spawn(waiter())
    k.spawn(firer())
    k.run()
    assert got == ["payload"]


def test_wait_on_already_fired_signal_resumes_immediately():
    sig = Signal()
    sig.fire(7)

    def proc():
        value = yield Wait(sig)
        return value

    assert Kernel().run_process(proc()) == 7


def test_signal_failure_is_rethrown_in_waiter():
    sig = Signal()

    def proc():
        try:
            yield Wait(sig)
        except ValueError as exc:
            return str(exc)

    k = Kernel()
    p = k.spawn(proc())
    sig.fail(ValueError("boom"))
    k.run()
    assert p.result == "boom"


def test_signal_cannot_fire_twice():
    sig = Signal()
    sig.fire(1)
    with pytest.raises(SimulationError):
        sig.fire(2)


def test_wait_timeout_raises_timeout_failure():
    sig = Signal()

    def proc():
        try:
            yield Wait(sig, timeout=3.0)
        except TimeoutFailure:
            t = yield Now()
            return t

    assert Kernel().run_process(proc()) == pytest.approx(3.0)


def test_wait_timeout_not_triggered_if_signal_fires_first():
    sig = Signal()

    def firer():
        yield Sleep(1.0)
        sig.fire("ok")

    def proc():
        value = yield Wait(sig, timeout=10.0)
        return value

    k = Kernel()
    k.spawn(firer())
    assert k.run_process(proc()) == "ok"


def test_fork_and_join():
    def child(x):
        yield Sleep(2.0)
        return x * 2

    def parent():
        proc = yield Fork(child(21))
        result = yield Join(proc)
        return result

    assert Kernel().run_process(parent()) == 42


def test_join_rethrows_child_exception():
    def child():
        yield Sleep(1.0)
        raise RuntimeError("child died")

    def parent():
        proc = yield Fork(child())
        try:
            yield Join(proc)
        except RuntimeError as exc:
            return f"caught: {exc}"

    assert Kernel().run_process(parent()) == "caught: child died"


def test_join_timeout():
    def child():
        yield Sleep(100.0)

    def parent():
        proc = yield Fork(child())
        try:
            yield Join(proc, timeout=1.0)
        except TimeoutFailure:
            return "timed out"

    assert Kernel().run_process(parent()) == "timed out"


def test_yield_from_composes_subgenerators():
    def fetch(delay, value):
        yield Sleep(delay)
        return value

    def proc():
        a = yield from fetch(1.0, 10)
        b = yield from fetch(2.0, 32)
        return a + b

    k = Kernel()
    assert k.run_process(proc()) == 42
    assert k.now == pytest.approx(3.0)


def test_yielding_garbage_raises_in_process():
    def proc():
        yield "not an effect"

    k = Kernel()
    p = k.spawn(proc())
    k.run()
    assert isinstance(p.error, SimulationError)


def test_run_process_detects_deadlock():
    sig = Signal()

    def proc():
        yield Wait(sig)

    k = Kernel()
    with pytest.raises(SimulationError, match="deadlock|finished"):
        k.run_process(proc())


def test_run_until_stops_the_clock():
    def proc():
        yield Sleep(100.0)

    k = Kernel()
    k.spawn(proc())
    k.run(until=10.0)
    assert k.now == pytest.approx(10.0)
    k.run()
    assert k.now == pytest.approx(100.0)


def test_kill_process_runs_finally_blocks():
    cleaned = []

    def proc():
        try:
            yield Sleep(100.0)
        finally:
            cleaned.append(True)

    k = Kernel()
    p = k.spawn(proc())
    k.run(until=1.0)
    p.kill()
    assert cleaned == [True]
    assert isinstance(p.error, ProcessKilled)


def test_call_soon_and_cancel():
    fired = []
    k = Kernel()
    k.call_soon(lambda: fired.append("a"), delay=1.0)
    cancel = k.call_soon(lambda: fired.append("b"), delay=2.0)
    cancel()
    k.run()
    assert fired == ["a"]


def test_spawn_requires_generator():
    k = Kernel()
    with pytest.raises(SimulationError):
        k.spawn(lambda: None)  # type: ignore[arg-type]


def test_trace_records_spawn_and_finish():
    def proc():
        yield Sleep(1.0)

    k = Kernel(trace=True)
    k.spawn(proc(), name="worker")
    k.run()
    kinds = [r.kind for r in k.trace.records()]
    assert "spawn" in kinds and "finish" in kinds


def test_blocked_processes_reports_waiters():
    sig = Signal()

    def waiter():
        yield Wait(sig)

    def sleeper():
        yield Sleep(100.0)

    k = Kernel()
    w = k.spawn(waiter())
    k.spawn(sleeper(), daemon=True)
    k.run(until=1.0)
    blocked = k.blocked_processes()
    assert w in blocked
    assert all(not p.daemon for p in blocked)


def test_process_result_before_finish_raises():
    def proc():
        yield Sleep(10.0)

    k = Kernel()
    p = k.spawn(proc())
    k.run(until=1.0)
    with pytest.raises(SimulationError):
        _ = p.result


def test_join_already_finished_process():
    def child():
        yield Sleep(0.5)
        return "done"

    def parent():
        c = yield Fork(child())
        yield Sleep(2.0)          # child finishes long before the join
        return (yield Join(c))

    assert Kernel().run_process(parent()) == "done"


def test_yielding_bare_signal_waits_on_it():
    sig = Signal()

    def firer():
        yield Sleep(1.0)
        sig.fire("bare")

    def waiter():
        value = yield sig      # sugar: bare signal == Wait(signal)
        return value

    k = Kernel()
    k.spawn(firer())
    assert k.run_process(waiter()) == "bare"


def test_kill_twice_is_idempotent():
    def proc():
        yield Sleep(100.0)

    k = Kernel()
    p = k.spawn(proc())
    k.run(until=0.1)
    p.kill()
    p.kill()                  # second kill is a no-op
    assert isinstance(p.error, ProcessKilled)


def test_fork_names_and_daemon_flag():
    def child():
        yield Sleep(100.0)

    def parent():
        c = yield Fork(child(), "my-child", True)
        return c

    k = Kernel()
    p = k.spawn(parent())
    k.run(until=0.1)
    child_proc = p.result
    assert child_proc.name == "my-child"
    assert child_proc.daemon


def test_kernel_repr_mentions_time_and_procs():
    k = Kernel()
    k.spawn((Sleep(1.0) for _ in range(1)))
    text = repr(k)
    assert "Kernel(" in text and "procs=1" in text
