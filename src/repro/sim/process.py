"""Process handles for the discrete-event kernel."""

from __future__ import annotations

import enum
from typing import Any, Generator, Optional

from ..errors import ProcessKilled, SimulationError
from .events import Signal

__all__ = ["Process", "ProcessState"]


class ProcessState(enum.Enum):
    READY = "ready"          # scheduled to run (new or resumed)
    RUNNING = "running"      # currently executing a step
    WAITING = "waiting"      # suspended on a Sleep/Wait/Join
    FINISHED = "finished"    # returned normally
    FAILED = "failed"        # raised an exception
    KILLED = "killed"        # killed externally


_TERMINAL = {ProcessState.FINISHED, ProcessState.FAILED, ProcessState.KILLED}


class Process:
    """Handle for one simulated process (a generator driven by the kernel).

    The completion :class:`Signal` (``proc.done``) fires with the
    generator's return value, or fails with its exception; ``yield
    Join(proc)`` is sugar for waiting on it.

    ``__slots__`` and the ``_terminal`` flag are deliberate: population
    workloads hold 10⁵+ live processes, and ``finished`` is polled once
    per kernel event by ``run_process``, so both memory-per-process and
    the terminal check are hot.
    """

    __slots__ = ("pid", "name", "daemon", "generator", "state", "done",
                 "_terminal", "_resume_value", "_resume_error")

    _counter = 0

    def __init__(self, generator: Generator, name: str = "", daemon: bool = False):
        Process._counter += 1
        self.pid = Process._counter
        self.name = name or f"proc-{self.pid}"
        self.daemon = daemon
        self.generator = generator
        self.state = ProcessState.READY
        self.done = Signal(name=f"{self.name}.done")
        # Kernel bookkeeping: terminal flag (mirrors ``state``, cheap to
        # poll) and the value/exception to send on next resume.  The
        # kernel schedules the Process object itself as a timer action,
        # so no per-process callback object exists at all.
        self._terminal = False
        self._resume_value: Any = None
        self._resume_error: Optional[BaseException] = None

    # -- status ---------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self._terminal

    @property
    def result(self) -> Any:
        """Return value of the process; raises if it failed or is alive."""
        if not self.finished:
            raise SimulationError(f"{self.name} has not finished")
        return self.done.value

    @property
    def error(self) -> Optional[BaseException]:
        return self.done.error

    # -- kernel-internal lifecycle ---------------------------------------
    def _set_resume(self, value: Any = None, error: Optional[BaseException] = None) -> None:
        self._resume_value = value
        self._resume_error = error

    def _take_resume(self) -> tuple[Any, Optional[BaseException]]:
        value, error = self._resume_value, self._resume_error
        self._resume_value, self._resume_error = None, None
        return value, error

    def _finish(self, value: Any) -> None:
        self.state = ProcessState.FINISHED
        self._terminal = True
        self.done.fire(value)

    def _fail(self, error: BaseException) -> None:
        self.state = ProcessState.FAILED
        self._terminal = True
        self.done.fail(error)

    def kill(self) -> None:
        """Terminate the process externally (public API).

        Closes the generator (running its ``finally`` blocks) and fails
        ``done`` with :class:`ProcessKilled`.  Killing a finished or
        already-killed process is a no-op.
        """
        if self._terminal:
            return
        self.state = ProcessState.KILLED
        self._terminal = True
        try:
            self.generator.close()
        except Exception:  # pragma: no cover - close() rarely raises
            pass
        self.done.fail(ProcessKilled(f"{self.name} was killed"))

    def __repr__(self) -> str:
        return f"Process({self.name!r}, pid={self.pid}, state={self.state.value})"
