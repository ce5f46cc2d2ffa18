"""The dynamic-sets Unix API: ``setOpen`` / ``setIterate`` / ``setClose``.

This is the programmer-facing shape of Steere's thesis system ("one of
us (DCS) as part of a Ph.D. thesis is adding a set abstraction called
dynamic sets to the Unix Application Programmer's Interface"): open a
set (here, a directory of the distributed file system, or any
collection), iterate members as they arrive from the parallel
prefetcher, close when done — possibly early, which is the whole point
of streaming ("We can return information to the user more quickly by
yielding partial information").

Semantically this layer implements the paper's weakest design point
(Figure 6's optimistic behaviour).  For performance it is backed by a
:class:`~repro.store.fetchplan.FetchPipeline` in *engine mode*: failures
retry internally on a timer (until ``give_up_after``, if set) and
results stream in arrival order, so the first member arrives after
roughly *one* fetch, not after all of them.  That delivers the paper's
"fetching files in parallel, fetching 'closer' files first, and
fetching all accessible files despite network failures".
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..errors import SimulationError
from ..net.address import NodeId
from ..store.fetchplan import FetchPipeline, FetchResult
from ..store.repository import Repository
from ..store.world import World
from .filesystem import FileSystem

__all__ = ["DynSetHandle", "set_open", "set_open_dir"]


class DynSetHandle:
    """An open dynamic set.  Create via :func:`set_open`."""

    def __init__(self, repo: Repository, coll_id: str, *,
                 parallelism: int = 4, retry_interval: float = 0.5,
                 give_up_after: Optional[float] = None,
                 closest_first: bool = True,
                 membership_source: str = "nearest",
                 batch_size: int = 1, use_cache: bool = False):
        self.repo = repo
        self.coll_id = coll_id
        self.parallelism = parallelism
        self.retry_interval = retry_interval
        self.give_up_after = give_up_after
        self.closest_first = closest_first
        self.membership_source = membership_source
        # Explicit cache/batch policy, threaded through to the shared
        # fetch pipeline (batch_size=1 = one RPC per element, the
        # historical behaviour; use_cache is never a default's accident).
        self.batch_size = batch_size
        self.use_cache = use_cache
        self.pipeline: Optional[FetchPipeline] = None
        self.opened_at: Optional[float] = None
        self.first_result_at: Optional[float] = None
        self.closed = False
        self.results: list[FetchResult] = []

    # ------------------------------------------------------------------
    def open(self) -> Generator[Any, Any, "DynSetHandle"]:
        """Read the membership and start prefetching (setOpen)."""
        if self.pipeline is not None:
            raise SimulationError("dynamic set opened twice")
        self.opened_at = self.repo.world.now
        view = yield from self.repo.read_membership(
            self.coll_id, source=self.membership_source
        )
        self.pipeline = FetchPipeline(
            self.repo, use_cache=self.use_cache, window=self.parallelism,
            batch_size=self.batch_size, in_order=False,
            closest_first=self.closest_first,
            retry_interval=self.retry_interval,
            give_up_after=self.give_up_after,
            name=f"prefetch-{self.repo.client}")
        # name order, not raw frozenset order: the set's iteration order
        # leaks the process-global oid counter and hash seed, which made
        # the closest_first=False ablation nondeterministic across runs
        self.pipeline.submit(sorted(view.members, key=lambda e: e.name))
        self.pipeline.seal()       # fixed work-list: workers exit when done
        self.pipeline.start()
        return self

    def iterate(self) -> Generator[Any, Any, Optional[FetchResult]]:
        """Next member as soon as one is available (setIterate).

        Returns None once every member has been fetched, found gone, or
        given up on.  Gone and unreachable results are filtered out —
        the caller sees only successfully materialized members (see
        :attr:`results`, or ``pipeline.gone`` / ``pipeline.gave_up``, for
        the accounting).
        """
        if self.pipeline is None:
            raise SimulationError("setIterate before setOpen")
        if self.closed:
            raise SimulationError("setIterate after setClose")
        while True:
            result = yield from self.pipeline.next_result()
            if result is None:
                return None
            self.results.append(result)
            if result.ok:
                if self.first_result_at is None:
                    self.first_result_at = self.repo.world.now
                return result

    def iterate_all(self, limit: Optional[int] = None) -> Generator[Any, Any, list[FetchResult]]:
        """Drain the set (optionally the first ``limit`` members)."""
        out: list[FetchResult] = []
        while limit is None or len(out) < limit:
            result = yield from self.iterate()
            if result is None:
                break
            out.append(result)
        return out

    def close(self) -> None:
        """Stop prefetching and release resources (setClose).

        Closing early is cheap and expected — e.g. the user found the
        restaurant they wanted after three menus.
        """
        if self.pipeline is not None:
            self.pipeline.stop()
        self.closed = True

    # -- statistics ------------------------------------------------------
    @property
    def time_to_first(self) -> Optional[float]:
        if self.first_result_at is None or self.opened_at is None:
            return None
        return self.first_result_at - self.opened_at

    def __repr__(self) -> str:
        state = "closed" if self.closed else ("open" if self.pipeline else "new")
        return f"DynSetHandle({self.coll_id}, {state}, {len(self.results)} results)"


def set_open(world: World, client: NodeId, coll_id: str,
             **kwargs: Any) -> Generator[Any, Any, DynSetHandle]:
    """setOpen over an arbitrary collection."""
    handle = DynSetHandle(Repository(world, client), coll_id, **kwargs)
    return (yield from handle.open())


def set_open_dir(fs: FileSystem, client: NodeId, path: str,
                 **kwargs: Any) -> Generator[Any, Any, DynSetHandle]:
    """setOpen over a file-system directory."""
    coll_id = fs.directory_collection(path)
    handle = DynSetHandle(Repository(fs.world, client), coll_id, **kwargs)
    return (yield from handle.open())
