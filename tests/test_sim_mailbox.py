"""Mailbox: the FIFO channel primitive, plus TraceLog behaviours."""

import pytest

from repro.errors import SimulationError, TimeoutFailure
from repro.sim import CLOSED, Kernel, Mailbox, Sleep, TraceLog


# ---------------------------------------------------------------------------
# Mailbox
# ---------------------------------------------------------------------------

def test_put_then_get():
    mb = Mailbox()
    mb.put(1)
    mb.put(2)

    def consumer():
        a = yield from mb.get()
        b = yield from mb.get()
        return a, b

    assert Kernel().run_process(consumer()) == (1, 2)


def test_get_blocks_until_put():
    mb = Mailbox()
    kernel = Kernel()

    def producer():
        yield Sleep(2.0)
        mb.put("late")

    def consumer():
        value = yield from mb.get()
        return value, kernel.now

    kernel.spawn(producer())
    value, t = kernel.run_process(consumer())
    assert value == "late"
    assert t == pytest.approx(2.0)


def test_fifo_order_with_many_items():
    mb = Mailbox()
    for i in range(10):
        mb.put(i)

    def consumer():
        out = []
        for _ in range(10):
            out.append((yield from mb.get()))
        return out

    assert Kernel().run_process(consumer()) == list(range(10))


def test_multiple_consumers_each_get_one():
    mb = Mailbox()
    kernel = Kernel()
    got = []

    def consumer():
        value = yield from mb.get()
        got.append(value)

    kernel.spawn(consumer())
    kernel.spawn(consumer())
    kernel.run(until=0.1)
    mb.put("a")
    mb.put("b")
    kernel.run(until=1.0)
    assert sorted(got) == ["a", "b"]


def test_close_wakes_consumers_with_sentinel():
    mb = Mailbox()
    kernel = Kernel()

    def consumer():
        return (yield from mb.get())

    proc = kernel.spawn(consumer())
    kernel.run(until=0.1)
    mb.close()
    kernel.run(until=0.2)
    assert proc.result is CLOSED


def test_close_drains_remaining_items_first():
    mb = Mailbox()
    mb.put(1)
    mb.close()

    def consumer():
        first = yield from mb.get()
        second = yield from mb.get()
        return first, second

    assert Kernel().run_process(consumer()) == (1, CLOSED)


def test_put_after_close_rejected():
    mb = Mailbox()
    mb.close()
    with pytest.raises(SimulationError):
        mb.put(1)


def test_get_timeout():
    mb = Mailbox()

    def consumer():
        try:
            yield from mb.get(timeout=1.0)
        except TimeoutFailure:
            return "timed out"

    assert Kernel().run_process(consumer()) == "timed out"


def test_get_nowait():
    mb = Mailbox()
    with pytest.raises(SimulationError):
        mb.get_nowait()
    mb.put(5)
    assert mb.get_nowait() == 5
    mb.close()
    assert mb.get_nowait() is CLOSED


def test_len_and_repr():
    mb = Mailbox("test")
    assert len(mb) == 0
    mb.put(1)
    assert len(mb) == 1
    assert "test" in repr(mb)


# ---------------------------------------------------------------------------
# TraceLog
# ---------------------------------------------------------------------------

def test_tracelog_disabled_records_nothing():
    log = TraceLog(enabled=False)
    log.record("event", x=1)
    assert len(log) == 0


def test_tracelog_filter_and_dump():
    log = TraceLog(enabled=True)
    log.record("a", v=1)
    log.record("b", v=2)
    log.record("a", v=3)
    assert len(list(log.records("a"))) == 2
    dump = log.dump()
    assert "a" in dump and "v=2" in dump
