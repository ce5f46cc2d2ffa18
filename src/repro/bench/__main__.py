"""Run experiments and gate regressions: ``python -m repro.bench``.

Usage::

    python -m repro.bench                     # all experiments, ASCII tables
    python -m repro.bench E1 E4               # a subset
    python -m repro.bench --markdown E8       # markdown tables (EXPERIMENTS.md)
    python -m repro.bench --obs BENCH_obs.json E16 E17
                                              # also write the BENCH_obs artifact
    python -m repro.bench compare old.json new.json --tolerance 0.1
                                              # regression gate over two artifacts
                                              # (--warn-only, --ignore key[,key…])
"""

from __future__ import annotations

import sys
import time
from typing import Optional

from . import ALL_EXPERIMENTS
from .artifact import write_artifact
from .compare import main as compare_main
from .report import ExperimentResult


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        return compare_main(argv[1:])
    markdown = False
    obs_path: Optional[str] = None
    ids: list[str] = []
    it = iter(argv)
    for arg in it:
        if arg in ("--markdown", "-m"):
            markdown = True
        elif arg == "--obs":
            obs_path = next(it, None)
            if obs_path is None:
                print("--obs needs a path", file=sys.stderr)
                return 2
        elif arg.startswith("--obs="):
            obs_path = arg.split("=", 1)[1]
        elif arg in ("--help", "-h"):
            print(__doc__)
            print(f"experiments: {', '.join(ALL_EXPERIMENTS)}")
            return 0
        else:
            ids.append(arg)
    by_upper = {eid.upper(): eid for eid in ALL_EXPERIMENTS}
    wanted = [by_upper.get(i.upper(), i) for i in ids] or list(ALL_EXPERIMENTS)
    unknown = [w for w in wanted if w not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment id(s): {unknown}; "
              f"known: {list(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    records: list[dict] = []
    for eid in wanted:
        started = time.perf_counter()
        result: ExperimentResult = ALL_EXPERIMENTS[eid]()
        elapsed = time.perf_counter() - started
        if markdown:
            print(result.to_markdown())
        else:
            print(result)
            print(f"  ({elapsed:.2f}s wall clock)")
        print()
        record = result.to_obs()
        record["elapsed_wall_s"] = elapsed
        records.append(record)
    if obs_path is not None:
        path = write_artifact(obs_path, records,
                              meta={"source": "python -m repro.bench",
                                    "experiments": wanted})
        print(f"wrote {path} ({len(records)} experiments)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
