"""The benchmark's independent reference against the current program.

perfbench/workloads.py checks sampled `check` verdicts with brute_force,
which ranks every reference record with the public scalar distance
functions. It must give detect's R, F and status exactly, so a refactor that
breaks the benchmark's reference fails here rather than in a benchmark run.
"""

from __future__ import annotations

import importlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rxcheck.detector import ModelParams, detect
from rxcheck.distance import InsufficientNeighbors

from conftest import random_db, random_record

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def test_brute_force_matches_detect(workloads):
    rng = np.random.default_rng(31)
    outcomes = Counter()
    for trial in range(30):
        db = random_db(rng, int(rng.integers(20, 300)), missing_rate=float(rng.choice([0.15, 0.6])))
        params = ModelParams(
            float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0)),
            float(rng.uniform(0.01, 0.1)), float(rng.uniform(0.01, 0.1)),
        )
        for k in range(5):
            query = random_record(rng, 10_000 + 5 * trial + k, missing_rate=0.3)
            expected = workloads.brute_force(query, db, params, None)
            try:
                verdict = detect(query, db, params)
            except InsufficientNeighbors:
                assert expected is None
                outcomes["InsufficientNeighbors"] += 1
                continue
            assert expected == (verdict.r, verdict.f, verdict.status)
            outcomes[verdict.status] += 1
    assert len(outcomes) >= 3  # the draws reach several outcomes, not one
