"""Recursive predicate search over the distributed file system.

"Also, by supporting a set-like abstraction, we can support
database-like queries, e.g., finding all files that satisfy a given
predicate."

:func:`weak_find` walks the directory tree breadth-first, opening each
directory as a dynamic set: directories stream their entries in
arrival order, unreachable files are retried or (with ``give_up_after``)
reported, and matches surface as soon as they are fetched — a
distributed ``find`` with weak-set semantics at every level.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from ..errors import FailureException
from ..net.address import NodeId
from .dynamic_set import set_open_dir
from .filesystem import FileMeta, FileSystem
from . import namespace as ns

__all__ = ["FindMatch", "FindResult", "weak_find"]

Predicate = Callable[[str, FileMeta], bool]


@dataclass(frozen=True)
class FindMatch:
    """One match: the file's path, its metadata, and when it surfaced."""

    path: str
    meta: FileMeta
    found_at: float


@dataclass
class FindResult:
    root: str
    matches: list[FindMatch] = field(default_factory=list)
    directories_visited: int = 0
    entries_examined: int = 0
    unreachable: list[str] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def paths(self) -> list[str]:
        return [m.path for m in self.matches]

    @property
    def total_time(self) -> float:
        return self.finished_at - self.started_at


def weak_find(fs: FileSystem, client: NodeId, root: str,
              predicate: Predicate, *,
              parallelism: int = 4,
              give_up_after: Optional[float] = 5.0,
              max_matches: Optional[int] = None,
              **set_kwargs: Any) -> Generator[Any, Any, FindResult]:
    """Find files under ``root`` whose (path, meta) satisfy ``predicate``.

    Directories that are entirely unreachable are recorded in
    ``unreachable`` and skipped — the weak-set philosophy applied to the
    tree walk itself (partial answers over no answers).
    """
    result = FindResult(root=ns.normalize(root), started_at=fs.world.now)
    queue: deque[str] = deque([result.root])
    while queue:
        dir_path = queue.popleft()
        try:
            handle = yield from set_open_dir(
                fs, client, dir_path, parallelism=parallelism,
                give_up_after=give_up_after, **set_kwargs)
        except FailureException:
            result.unreachable.append(dir_path)
            continue
        result.directories_visited += 1
        try:
            while True:
                item = yield from handle.iterate()
                if item is None:
                    break
                result.entries_examined += 1
                meta = item.value
                child_path = ns.join(dir_path, item.element.name)
                if isinstance(meta, FileMeta) and meta.is_dir:
                    queue.append(child_path)
                if isinstance(meta, FileMeta) and predicate(child_path, meta):
                    result.matches.append(FindMatch(
                        path=child_path, meta=meta, found_at=fs.world.now))
                    if (max_matches is not None
                            and len(result.matches) >= max_matches):
                        queue.clear()
                        break
            for r in handle.results:
                if r.unreachable:
                    result.unreachable.append(
                        ns.join(dir_path, r.element.name))
        finally:
            handle.close()
    result.finished_at = fs.world.now
    return result
