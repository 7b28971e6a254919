"""The benchmark's span tracer against the current program: every wrap
target resolves, and a traced search shows the objective's detect calls.

perfbench/tracer.py wraps rxcheck's functions at the module attributes
through which they are called and raises MissingLayer when one has moved, so
a refactor that moves a layer fails here rather than in the traced run.
"""

from __future__ import annotations

import importlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rxcheck.ingest import build_historical_db
from rxcheck.simulate import KIND_FEATURE, KIND_RX_SWAP, generate_sa_set
from rxcheck.train import SearchSpace, search_parameters, split_holdout

from synth import make_cohort

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def _resolve(target):
    return getattr(importlib.import_module(target.module), target.attr)


def test_every_wrap_target_resolves(tracer):
    originals = [_resolve(target) for target in tracer.TARGETS]
    instance = tracer.Tracer()
    instance.install()  # wraps every target, or raises MissingLayer naming the absent ones
    try:
        assert all(_resolve(t) is not o for t, o in zip(tracer.TARGETS, originals))
    finally:
        instance.uninstall()
    assert all(_resolve(t) is o for t, o in zip(tracer.TARGETS, originals))


def test_each_objective_span_holds_one_detect_per_record(tracer):
    records, _ = make_cohort("3D", per_cluster=10, seed=11)
    reference, pool = split_holdout(records, 8, np.random.default_rng(0))
    reference_db = build_historical_db(reference)
    sa_set = generate_sa_set(
        reference_db, {KIND_RX_SWAP: 3, KIND_FEATURE: 3}, rng=np.random.default_rng(1)
    )
    space = SearchSpace(budget=6, runs_per_point=2, strategy="adaptive")
    instance = tracer.Tracer()
    instance.install()
    try:
        search_parameters(space, reference_db, pool, sa_set, seed=3)
    finally:
        instance.uninstall()

    objectives = [k for k, layer in enumerate(instance.layers) if layer == "train.objective"]
    assert len(objectives) == space.budget
    detect_parents = Counter(
        instance.parents[k] for k, layer in enumerate(instance.layers)
        if layer == "detector.detect"
    )
    assert set(detect_parents) == set(objectives)
    assert set(detect_parents.values()) == {len(sa_set) + len(pool)}
    metrics = tracer.per_layer_metrics(instance, ("train.objective", "detector.detect"), 0.0)
    assert metrics["train.detect_per_eval"]["value"] == len(sa_set) + len(pool)
