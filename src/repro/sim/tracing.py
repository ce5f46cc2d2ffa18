"""Structured trace log for simulations.

The trace is a list of timestamped records: a human-readable dump of
what the simulation did, kept only when the kernel is built with
``Kernel(trace=True)``.  Hot paths check :attr:`TraceLog.enabled`
before building a record's fields, so a disabled log costs nothing.
(The specification checker's computation history is recorded
separately, by :mod:`repro.spec.trace`.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .clock import Clock

__all__ = ["TraceRecord", "TraceLog"]


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped simulation event."""

    time: float
    kind: str
    fields: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        detail = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"[{self.time:10.6f}] {self.kind:<16} {detail}"


class TraceLog:
    """Append-only event log; cheap no-op when disabled."""

    def __init__(self, enabled: bool = False, clock: Optional["Clock"] = None):
        self.enabled = enabled
        self._clock = clock
        self._records: list[TraceRecord] = []

    def record(self, kind: str, **fields: Any) -> None:
        if not self.enabled:
            return
        now = self._clock.now if self._clock is not None else 0.0
        self._records.append(TraceRecord(time=now, kind=kind, fields=fields))

    def records(self, kind: Optional[str] = None) -> Iterator[TraceRecord]:
        for rec in self._records:
            if kind is None or rec.kind == kind:
                yield rec

    def dump(self) -> str:
        return "\n".join(str(rec) for rec in self._records)

    def __len__(self) -> int:
        return len(self._records)
