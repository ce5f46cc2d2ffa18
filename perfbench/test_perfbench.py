"""Tests for the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import layers
import run
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
REPRO = str(Path(layers.repro.__file__).resolve().parent)


def test_every_module_has_exactly_one_layer():
    modules = layers.all_modules()
    assert len(modules) > 100
    owners = {module: layers.layer_of(module) for module in modules}
    # Every entry of the map still names something.
    for layer, entries in layers.LAYERS.items():
        for entry in entries:
            assert any(layers._matches(entry, m) for m in modules), (layer, entry)
    assert set(owners.values()) == set(layers.LAYERS)


def test_unmapped_or_doubly_mapped_module_is_refused():
    with pytest.raises(LookupError):
        layers.layer_of("repro.net.brand_new_module")
    with pytest.raises(LookupError):
        layers.layer_of("elsewhere")


def test_names_are_well_formed_and_match_the_spec():
    names = [*WORKLOADS, *layers.LAYERS, *run.END_TO_END_UNITS,
             *layers.PER_LAYER_UNITS]
    assert all(NAME.fullmatch(name) for name in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER_UNITS


def test_builtin_time_is_charged_to_its_callers():
    fetch = (f"{REPRO}/store/fetchplan.py", 1, "plan")
    wire = (f"{REPRO}/net/wire.py", 1, "measure")
    builtin = ("~", 0, "<built-in method builtins.len>")
    main = ("perfbench/run.py", 1, "main")
    stats = {
        main: (1, 1, 0.5, 10.0, {}),
        fetch: (1, 1, 2.0, 4.0, {main: (1, 1, 2.0, 4.0)}),
        wire: (1, 1, 1.0, 2.0, {main: (1, 1, 1.0, 2.0)}),
        builtin: (4, 4, 3.0, 3.0, {fetch: (1, 1, 1.0, 1.0),
                                   wire: (3, 3, 2.0, 2.0)}),
    }
    self_s = layers.attribute(stats)
    assert self_s["store.fetchplan"] == pytest.approx(2.0 + 1.0)
    assert self_s["net.wire"] == pytest.approx(1.0 + 2.0)
    assert self_s["other"] == pytest.approx(0.5)
    assert sum(self_s.values()) == pytest.approx(6.5)


def test_layer_self_times_sum_to_the_traced_total():
    tracer = layers.Tracer()
    with tracer:
        WORKLOADS["ingest_drain"](5, 0.02).run()
    total = sum(row[2] for row in tracer.stats.values())
    self_s = layers.attribute(tracer.stats)
    assert sum(self_s.values()) == pytest.approx(total, rel=1e-9)
    assert tracer.invocations > 0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_passes_the_gate(workload, trace):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds",
                         "0.01", "--trace", str(trace), "--scale", "0.05"])
    result = json.loads(out.getvalue().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    units = layers.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert list(result["metrics"]) == list(units)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
