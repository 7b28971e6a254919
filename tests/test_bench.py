"""Reference-set build time, and one-shot detect time per batch of 200
fresh records, against reference size S, with pytest-benchmark.

Not part of the default run (pyproject.toml deselects the bench marker).
Run it with

  python -m pytest -m bench tests/test_bench.py

on the random 15%-missing cohorts of conftest.py, the cohorts behind
perfbench/sweep.py.
"""

from __future__ import annotations

import numpy as np
import pytest

from rxcheck.detector import ModelParams, detect
from rxcheck.ingest import build_historical_db

from conftest import random_db, random_record

pytestmark = pytest.mark.bench


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
