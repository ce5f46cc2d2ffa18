"""E25 — the real wire: codec bytes, bandwidth, byte-aware batching.

E25a guards the cost of sizing: the transport stamps every message
with ``WireFormat.measure``, which must stay a size-only pass rather
than an encode.  The gate is a ratio measured back to back on one
machine (never absolute seconds), so it travels across runners.
"""

import time
from dataclasses import replace

from repro.bench import run_wire
from repro.bench.artifact import record_result
from repro.bench.report import ExperimentResult
from repro.net import WireFormat
from repro.wan import PopulationEngine, PopulationSpec, Stage, default_behaviors
from repro.wan.workload import ScenarioSpec, build_scenario

#: Floor for measure-vs-encode speedup on the population corpus.
MIN_SIZING_SPEEDUP = 2.0


def test_e25_wire(benchmark):
    result = benchmark.pedantic(run_wire, rounds=1, iterations=1)
    rows = result.rows
    by_mode = {}
    for r in rows:
        by_mode.setdefault(r["mode"], []).append(r)

    ratios = {r["member_size"]: r["naive_over_compact"]
              for r in by_mode["codec-ratio"]}
    caps = {r["max_bytes"]: r for r in by_mode["byte-cap"]}
    record_result(result, metrics={
        "naive_over_compact_bytes": {
            f"member_size{size}": ratio for size, ratio in ratios.items()},
        "wan_throughput": {
            "uncapped_batch16": caps[0]["throughput"],
            "byte_capped_batch16": caps[49152]["throughput"]},
        "net.bytes_sent": {
            f"{r['codec']}_size{r['member_size']}": r["bytes_sent"]
            for r in by_mode["codec"]},
    })
    print()
    print(result)

    # the wire may not weaken the specs: every drain in every leg is
    # audited (fig6; the snapshot audit row is fig4) with zero violations
    assert all(r["violations"] == 0 for r in rows)

    # the codec gate: >= 4x fewer bytes on the metadata drain.  The
    # 2KB-body row is the honesty row — declared payload bytes are
    # charged identically by both codecs, so the ratio shrinks toward 1
    # as bodies dominate, but compact never ships MORE than naive.
    assert ratios[0] >= 4.0
    assert 1.0 <= ratios[2048] < ratios[0]

    # the batch sweet spot shifts once transmission cost is real: with
    # free links bigger batches never hurt (the window hides the round
    # trips); under the WAN preset a 16-item multi-get reply pays every
    # constrained store-and-forward hop serially and loses to batch=1
    sweep = {(r["link"], r["batch"]): r for r in by_mode["batch-sweep"]}
    assert sweep[("free", 16)]["total_time"] \
        <= sweep[("free", 1)]["total_time"] * 1.01
    assert sweep[("wan", 16)]["total_time"] \
        > sweep[("wan", 1)]["total_time"] * 1.10

    # the byte-cap gate: capping batches by bytes (item cap unchanged at
    # 16) must beat uncapped batching on drain throughput under WAN
    assert caps[49152]["throughput"] > caps[0]["throughput"]

    # bandwidth queuing is observable where it exists, and only there
    assert all(r["queue_p95"] == 0 for r in by_mode["batch-sweep"]
               if r["link"] == "free")
    assert any(r["queue_p95"] > 0 for r in by_mode["batch-sweep"]
               if r["link"] == "wan")

    # same seed, same bytes — the wire is deterministic
    det = by_mode["determinism"][0]
    assert det["throughput"] == 1.0 and det["violations"] == 0


def population_corpus(seed: int = 1) -> list:
    """Every message a short seeded population run sends (E22's world
    and session mix: membership reads, 2 KB object fetches, writes)."""
    scenario = build_scenario(ScenarioSpec(heavy_tail=True), seed=seed)
    transport = scenario.net.transport
    sent: list = []
    send = transport.send

    def record(msg):
        sent.append(msg)
        return send(msg)

    transport.send = record
    PopulationEngine(scenario, PopulationSpec(
        behaviors=default_behaviors(scenario),
        stages=(Stage(duration=10.0, arrival_rate=40.0),))).run()
    return sent


def _best_of(repeats: int, run) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def test_e25a_sizing_speedup(benchmark):
    corpus = population_corpus()
    codec = WireFormat().codec

    def encode_all():
        return [len(codec.encode_message(replace(
            msg, msg_id=1, reply_to=None if msg.reply_to is None else 1,
            wire_size=None))) for msg in corpus]

    def measure_all():
        # a fresh wire format per pass: its memo starts empty, as a
        # new world's does
        return list(map(WireFormat().measure, corpus))

    def run():
        assert measure_all() == encode_all() == [m.wire_size for m in corpus]
        return _best_of(5, encode_all) / _best_of(5, measure_all)

    speedup = benchmark.pedantic(run, rounds=1, iterations=1)
    result = ExperimentResult(
        "E25a", "Sizing cost guard: WireFormat.measure vs encode-then-len",
        columns=["corpus", "messages", "bytes"],
        notes="speedup is machine-relative and lives in the metrics "
              "attachment; the committed floor is asserted, wall times "
              "are not",
    )
    result.add(corpus="population seed 1", messages=len(corpus),
               bytes=sum(m.wire_size for m in corpus))
    record_result(result, metrics={"measure_vs_encode_speedup":
                                   round(speedup, 2)})
    print(f"\n[E25a] measure vs encode-then-len: {speedup:.2f}x "
          f"on {len(corpus)} messages")
    assert speedup >= MIN_SIZING_SPEEDUP
