"""E17 — the observability layer itself: registry/span integrity under load.

Asserts the invariants the CI acceptance gate relies on: spans nest
(every ``rpc.attempt`` traces back to a workload *root* span — the
client's ``drain``, or a background protocol's ``sync.round`` /
``repair.scrub`` / ``recovery.replay``), the registry's message and
recovery counters record the run, and the exported JSONL trace
round-trips.

Setting ``REPRO_TRACE_JSONL`` makes the run export one full seeded
trace — the second artifact the CI bench-smoke job uploads.
"""

import os

from repro.bench import run_obs
from repro.bench.artifact import record_result
from repro.bench.exp_obs import ROOT_SPANS
from repro.obs import read_jsonl, spans_from_records


def test_e17_observability(benchmark):
    trace_path = os.environ.get("REPRO_TRACE_JSONL")
    result = benchmark.pedantic(run_obs, kwargs={"export_trace": trace_path},
                                rounds=1, iterations=1)
    record_result(result)
    print()
    print(result)
    by_metric = {r["metric"]: r for r in result.rows}

    # The simulation did real work and the registry saw it.
    assert by_metric["kernel.events"]["value"] > 0
    assert by_metric["net.messages_sent"]["value"] > 0
    assert by_metric["rpc.attempts"]["value"] > 0
    # Faults engaged the resilience machinery, and the registry's
    # ``rpc.*`` counters recorded it.
    assert by_metric["rpc.retries"]["value"] > 0
    assert by_metric["drain.yields"]["value"] > 0

    # The nesting invariant the tracer promises: every rpc.attempt span
    # reaches a workload root span (drain / sync.round / repair.scrub /
    # recovery.replay) by parent links.
    assert by_metric["spans.drain"]["value"] > 0
    assert by_metric["spans.rpc_attempt"]["value"] > 0
    assert (by_metric["spans.nested_attempts"]["value"]
            == by_metric["spans.rpc_attempt"]["value"])
    # attempt ⊂ rpc.call ⊂ drain (at least), fetch adds a level
    assert by_metric["spans.max_depth"]["value"] >= 3
    # The background protocols are real RPC users now: anti-entropy
    # rounds ran and every server write-ahead-logged its mutations.
    assert by_metric["sync.rounds"]["value"] > 0

    # Histograms saw every attempt (a handful may be cut short by the
    # drain's give-up bound killing in-flight generators).
    assert by_metric["rpc.attempt_latency"]["value"] > 0
    assert by_metric["drain.latency"]["mean"] > 0

    if trace_path:
        records = read_jsonl(trace_path)
        spans = spans_from_records(records)
        by_id = {s.span_id: s for s in spans}
        names = {s.name for s in spans}
        assert {"drain", "rpc.call", "rpc.attempt"} <= names

        def reaches_root(span):
            while span.parent_id is not None:
                span = by_id[span.parent_id]
                if span.name in ROOT_SPANS:
                    return True
            return False

        attempts = [s for s in spans if s.name == "rpc.attempt"]
        assert attempts and all(reaches_root(s) for s in attempts)
