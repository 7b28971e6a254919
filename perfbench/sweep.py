"""One-off scaling sweep: reference build and per-record detect against
reference size S, on the random 15%-missing cohorts of tests/conftest.py
(the cohorts behind ROADMAP.md's baseline table). Not a gated workload.

Usage, from the root of a source checkout:

  python3 perfbench/sweep.py

Prints one JSON object (run stamp plus, per size, build seconds and the
median and p90 detect milliseconds) and writes it to
.bench_work/results/sweep.json. The S=20k build takes about a minute.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

import run

SIZES = (1000, 5000, 20000)
QUERIES = 200
SEED = 0


def main() -> int:
    run.import_program()
    sys.path.insert(0, str(run.ROOT / "tests"))
    from conftest import random_record
    from rxcheck.detector import ModelParams, detect
    from rxcheck.ingest import build_historical_db

    params = ModelParams(a=2.0, b=1.0, mu=0.05, nu=0.05)
    rows = []
    for size in SIZES:
        rng = np.random.default_rng(SEED)
        records = [random_record(rng, index) for index in range(size)]
        queries = [random_record(rng, size + index) for index in range(QUERIES)]
        builds = []
        for _ in range(3 if size <= 5000 else 1):
            start = time.perf_counter()
            db = build_historical_db(records)
            builds.append(time.perf_counter() - start)
        latencies = []
        for query in queries:
            start = time.perf_counter()
            detect(query, db, params)
            latencies.append(time.perf_counter() - start)
        rows.append({
            "size": size,
            "build_s": statistics.median(builds),
            "build_samples": len(builds),
            "detect_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
            "detect_p90_ms": float(np.percentile(latencies, 90)) * 1e3,
            "detect_samples": len(latencies),
        })
        print(json.dumps(rows[-1]), file=sys.stderr, flush=True)
    result = {"stamp": run.stamp(), "params": params.as_dict(), "sizes": rows}
    out = run.WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
