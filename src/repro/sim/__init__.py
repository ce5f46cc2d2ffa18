"""Deterministic discrete-event simulation substrate.

The paper's target environment — a wide-area network of possibly-mobile
workstations where "failures are assumed to be common" — is reproduced as
a single-threaded, virtual-time simulation.  See DESIGN.md §4.

Quick example::

    from repro.sim import Kernel, Sleep

    def hello():
        yield Sleep(1.5)
        return "done at t=1.5"

    k = Kernel(seed=42)
    print(k.run_process(hello()))
"""

from .clock import Clock
from .events import Fork, Join, Now, Signal, Sleep, Wait
from .kernel import Kernel
from .mailbox import CLOSED, Mailbox
from .process import Process, ProcessState
from .rng import RandomRouter, Stream
from .sched import WheelScheduler
from .tracing import TraceLog, TraceRecord

__all__ = [
    "Clock",
    "Fork",
    "Join",
    "CLOSED",
    "Kernel",
    "WheelScheduler",
    "Mailbox",
    "Now",
    "Process",
    "ProcessState",
    "RandomRouter",
    "Signal",
    "Sleep",
    "Stream",
    "TraceLog",
    "TraceRecord",
    "Wait",
]
