"""Per-layer attribution of host time, from outside the program.

A traced pass runs under :mod:`cProfile`.  Every profiled function is
mapped to the layer that owns its module (:data:`LAYERS`); a function
outside the ``repro`` package (a builtin, the standard library, this
benchmark) has its self-time charged to the layers of its callers, in
proportion to the time each caller spent in it.  The layer self-times
therefore sum to the profile's total.

Counts come from two places: the ``repro.obs`` registry the program
already keeps (``MetricsRegistry.value``), and profiler call counts for
plain functions at layer boundaries.  Generator entry points resume
many times per call, so those are counted by a wrapper instead
(:class:`Tracer` wraps ``ElementsIterator.invoke``).
"""

from __future__ import annotations

import cProfile
import pkgutil
import pstats
from pathlib import Path

import workloads  # noqa: F401  (puts the package source on sys.path)
import repro
from repro.weaksets import ElementsIterator

__all__ = ["LAYERS", "layer_of", "all_modules", "Tracer", "attribute",
           "per_layer_metrics", "PER_LAYER_UNITS"]

#: layer -> the modules it owns.  ``pkg.*`` owns a package and all its
#: submodules; any other entry names exactly one module.  Every module
#: of the package must match exactly one entry (the tests enforce it),
#: so a new module has to be placed here before the benchmark runs.
LAYERS: dict[str, tuple[str, ...]] = {
    "sim": ("repro.sim.*",),
    "net.transport": ("repro.net", "repro.net.transport", "repro.net.fabric",
                      "repro.net.link", "repro.net.topology", "repro.net.node",
                      "repro.net.partitions", "repro.net.message",
                      "repro.net.address", "repro.net.failures"),
    "net.wire": ("repro.net.wire",),
    "net.executor": ("repro.net.executor",),
    "net.resilience": ("repro.net.resilience", "repro.net.failure_detector",
                       "repro.net.stats"),
    "store.repository": ("repro.store", "repro.store.repository",
                         "repro.store.cache", "repro.store.offline",
                         "repro.store.elements", "repro.store.reachability"),
    "store.fetchplan": ("repro.store.fetchplan",),
    "store.writeplan": ("repro.store.writeplan",),
    "store.server": ("repro.store.server", "repro.store.wal",
                     "repro.store.recovery", "repro.store.antientropy"),
    "store.world": ("repro.store.world",),
    "store.sharding": ("repro.store.sharding",),
    "weaksets": ("repro.weaksets.*", "repro.dynsets.*"),
    "spec": ("repro.spec.*",),
    "obs": ("repro.obs.*",),
    "wan": ("repro.wan.*",),
    "other": ("repro", "repro.__main__", "repro.errors", "repro.bench.*"),
}


def _matches(entry: str, module: str) -> bool:
    if entry.endswith(".*"):
        package = entry[:-2]
        return module == package or module.startswith(package + ".")
    return module == entry


def layer_of(module: str) -> str:
    """The one layer owning ``module``; raises if none or several do."""
    owners = [layer for layer, entries in LAYERS.items()
              if any(_matches(e, module) for e in entries)]
    if len(owners) != 1:
        raise LookupError(f"{module} is owned by {owners or 'no layer'}")
    return owners[0]


def all_modules() -> list[str]:
    """Every module of the ``repro`` package, imported or not."""
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        names.append(info.name)
    return sorted(names)


_ROOT = Path(repro.__file__).resolve().parent


def _module_of_file(filename: str) -> str | None:
    try:
        rel = Path(filename).resolve().relative_to(_ROOT)
    except ValueError:
        return None
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(["repro", *parts])


def attribute(stats: dict) -> dict[str, float]:
    """Self-seconds per layer from a ``pstats.Stats.stats`` table.

    Time in a function outside the package goes to its callers' layers,
    weighted by the cumulative time of each call edge; time with no
    package caller at all (the benchmark's own run loop) goes to ``other``.
    """
    file_layer: dict[str, str | None] = {}
    blame: dict[tuple, dict[str, float]] = {}

    def own_layer(func: tuple) -> str | None:
        filename = func[0]
        if filename not in file_layer:
            module = _module_of_file(filename)
            file_layer[filename] = None if module is None else layer_of(module)
        return file_layer[filename]

    def shares(func: tuple, path: frozenset) -> dict[str, float]:
        if func in blame:
            return blame[func]
        layer = own_layer(func)
        if layer is not None:
            result = {layer: 1.0}
        else:
            callers = {c: edge[3] for c, edge in stats[func][4].items()
                       if c not in path and c in stats}
            total = sum(callers.values())
            if total <= 0.0:
                result = {"other": 1.0}
            else:
                result = {}
                for caller, weight in callers.items():
                    for name, share in shares(caller, path | {func}).items():
                        result[name] = result.get(name, 0.0) + share * weight / total
        blame[func] = result
        return result

    self_s = {layer: 0.0 for layer in LAYERS}
    for func, row in stats.items():
        tottime = row[2]
        for layer, share in shares(func, frozenset()).items():
            self_s[layer] += tottime * share
    return self_s


class Tracer:
    """Profiles a block and counts weak-set iterator invocations."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile()
        self.invocations = 0
        self.stats: dict = {}

    def __enter__(self) -> "Tracer":
        # Every iterator class reaches the protocol through the base
        # class's invoke (overrides call it via super() or drive an
        # inner iterator), so wrapping it counts each invocation once.
        invoke = ElementsIterator.invoke

        def counted(iterator):
            self.invocations += 1
            return invoke(iterator)

        ElementsIterator.invoke = counted
        self._invoke = invoke
        self.profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profile.disable()
        ElementsIterator.invoke = self._invoke
        self.stats = pstats.Stats(self.profile).stats

    def calls(self, module: str, name: str) -> tuple[int, float]:
        """(calls, cumulative seconds) of the functions called ``name``
        (the bare code name, as the profiler records it) in ``module``."""
        n, cum = 0, 0.0
        for func, row in self.stats.items():
            if func[2] == name and _module_of_file(func[0]) == module:
                n += row[1]
                cum += row[3]
        return n, cum


#: unit of every per-layer metric, in report order
PER_LAYER_UNITS: dict[str, str] = {}
for _layer in LAYERS:
    PER_LAYER_UNITS[f"{_layer}.self_s"] = "s"
    PER_LAYER_UNITS[f"{_layer}.share"] = "fraction"
PER_LAYER_UNITS.update({
    "sim.events": "count",
    "sim.events_per_op": "count/op",
    "net.transport.messages": "count",
    "net.transport.us_per_send": "us",
    "net.transport.queue_delay_p95_vs": "vs",
    "net.wire.measure_calls": "count",
    "net.wire.us_per_measure": "us",
    "net.executor.admitted": "count",
    "net.executor.shed": "count",
    "net.executor.brownout": "count",
    "net.executor.admit_ratio": "fraction",
    "net.executor.queue_wait_p95_vs": "vs",
    "net.resilience.attempts": "count",
    "net.resilience.retries": "count",
    "net.resilience.budget_exhausted": "count",
    "net.resilience.first_try_ratio": "fraction",
    "store.fetchplan.batches": "count",
    "store.fetchplan.items_per_batch": "count/batch",
    "store.fetchplan.latency_lookups_per_item": "count/item",
    "store.writeplan.batches": "count",
    "store.writeplan.items_per_batch": "count/batch",
    "store.server.wal_intents": "count",
    "store.world.truth_calls": "count",
    "store.world.us_per_truth_call": "us",
    "store.sharding.owner_calls_per_op": "count/op",
    "weaksets.invocations": "count",
    "weaksets.us_per_invocation": "us",
    "spec.checks": "count",
    "spec.ms_per_check": "ms",
    "wan.peak_active": "count",
    "wan.audits": "count",
    "trace.overhead": "ratio",
})


def _ratio(num: float, den: float, idle: float = 0.0) -> float:
    return num / den if den else idle


def _p95(registry, name: str) -> float:
    hist = registry.get(name)
    return hist.quantile(0.95) if hist is not None and hist.count else 0.0


def per_layer_metrics(tracer: Tracer, ops: int, registry) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead``.

    Per-call times are profiled times (cProfile inflates them); compare
    them only with other traced runs.  Ratios of an idle layer read 1.0
    when nothing was wasted (``admit_ratio``, ``first_try_ratio``) and
    0.0 otherwise.
    """
    value = registry.value
    self_s = attribute(tracer.stats)
    total = sum(self_s.values())
    out: dict[str, float] = {}
    for layer, seconds in self_s.items():
        out[f"{layer}.self_s"] = seconds
        out[f"{layer}.share"] = _ratio(seconds, total)

    events = value("kernel.events")
    sends, send_s = tracer.calls("repro.net.transport", "send")
    measures, measure_s = tracer.calls("repro.net.wire", "measure")
    admitted, shed = value("overload.admitted"), value("overload.shed")
    attempts, retries = value("rpc.attempts"), value("rpc.retries")
    fetch_batches = value("fetch.batch.calls")
    fetch_items = value("fetch.batch.elements")
    write_batches = value("write.batch.calls")
    lookups, _ = tracer.calls("repro.net.fabric", "expected_latency")
    # reachable_members computes the truth through true_members, so
    # counting true_members alone counts every truth query once.
    truths, truth_s = tracer.calls("repro.store.world", "true_members")
    owners, _ = tracer.calls("repro.store.sharding", "owner")
    checks, check_s = tracer.calls("repro.spec.checker", "check_conformance")
    out.update({
        "sim.events": events,
        "sim.events_per_op": _ratio(events, ops),
        "net.transport.messages": value("net.messages_sent"),
        "net.transport.us_per_send": 1e6 * _ratio(send_s, sends),
        "net.transport.queue_delay_p95_vs": _p95(registry, "net.link.queue_delay"),
        "net.wire.measure_calls": measures,
        "net.wire.us_per_measure": 1e6 * _ratio(measure_s, measures),
        "net.executor.admitted": admitted,
        "net.executor.shed": shed,
        "net.executor.brownout": value("overload.brownout_served"),
        "net.executor.admit_ratio": _ratio(admitted, admitted + shed, idle=1.0),
        "net.executor.queue_wait_p95_vs": _p95(registry, "overload.queue_wait"),
        "net.resilience.attempts": attempts,
        "net.resilience.retries": retries,
        "net.resilience.budget_exhausted": value("overload.retry_budget_exhausted"),
        "net.resilience.first_try_ratio": _ratio(attempts - retries, attempts,
                                                 idle=1.0),
        "store.fetchplan.batches": fetch_batches,
        "store.fetchplan.items_per_batch": _ratio(fetch_items, fetch_batches),
        "store.fetchplan.latency_lookups_per_item": _ratio(lookups, fetch_items),
        "store.writeplan.batches": write_batches,
        "store.writeplan.items_per_batch": _ratio(value("write.batch.elements"),
                                                  write_batches),
        "store.server.wal_intents": value("wal.intents"),
        "store.world.truth_calls": truths,
        "store.world.us_per_truth_call": 1e6 * _ratio(truth_s, truths),
        "store.sharding.owner_calls_per_op": _ratio(owners, ops),
        "weaksets.invocations": tracer.invocations,
        "weaksets.us_per_invocation": 1e6 * _ratio(self_s["weaksets"],
                                                   tracer.invocations),
        "spec.checks": checks,
        "spec.ms_per_check": 1e3 * _ratio(check_s, checks),
        "wan.peak_active": value("population.peak_active"),
        "wan.audits": value("population.audits"),
    })
    return out
