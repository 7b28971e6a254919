"""Reference-set build time, and one-shot detect time per batch of 200
fresh records, against reference size S, on the random 15%-missing cohorts
of conftest.py (the cohorts behind perfbench/sweep.py); and the cohort front
end (parse, normalize, filter) on raw exports from perfbench/gen.py. Timed
with pytest-benchmark.

Not part of the default run (pyproject.toml deselects the bench marker).
Run it with

  python -m pytest -m bench tests/test_bench.py
"""

from __future__ import annotations

import importlib
from pathlib import Path

import numpy as np
import pytest

from rxcheck.detector import ModelParams, detect
from rxcheck.ingest import (
    CohortConfig,
    build_historical_db,
    filter_cohort,
    normalize_dataset,
    parse_dataset,
)

from conftest import random_db, random_record

pytestmark = pytest.mark.bench

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("size", [1_000, 5_000, 20_000, 100_000])
def test_build_historical_db(benchmark, size):
    rng = np.random.default_rng(0)
    records = [random_record(rng, index) for index in range(size)]
    db = benchmark.pedantic(
        build_historical_db, args=(records,), rounds=3 if size > 5_000 else 10, iterations=1
    )
    assert db.size == size


@pytest.mark.parametrize("size", [1_000, 5_000, 20_000])
def test_detect_one_shot(benchmark, size):
    # What `check` does per record: a fresh profile, one group of each kind.
    rng = np.random.default_rng(0)
    db = random_db(rng, size)
    queries = [random_record(rng, size + k) for k in range(200)]
    params = ModelParams(a=1.0, b=0.6, mu=0.02, nu=0.02)
    verdicts = benchmark.pedantic(
        lambda: [detect(query, db, params) for query in queries], rounds=5, iterations=1
    )
    assert len(verdicts) == len(queries)


@pytest.mark.parametrize("rows", [10_000, 100_000])
def test_front_end(benchmark, monkeypatch, tmp_path, rows):
    # The benchmark's ingest-hist export (seed 5) at 100k rows, and the same
    # mix of admitted, excluded and malformed rows at 10k.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen = importlib.import_module("gen")
    scale = rows / 100_000
    export = gen.Generator(5, "ingest-hist").export(
        {tech: round(count * scale) for tech, count in gen.INGEST_ADMITTED.items()},
        round(gen.INGEST_EXCLUDED * scale),
        round(gen.INGEST_MALFORMED * scale),
    )
    path = tmp_path / "export.csv"
    written = gen.write_rows(path, export)
    config = CohortConfig()

    def front_end():
        records, diagnostics = parse_dataset(path)
        normalized, _ = normalize_dataset(records, config.label_mappings)
        kept, log = filter_cohort(normalized, config)
        return sum(map(len, kept.values())) + len(log) + len(diagnostics)

    assert benchmark.pedantic(front_end, rounds=5, iterations=1) == written
