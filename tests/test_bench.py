"""Reference-set build time, one-shot detect time per batch of 200 fresh
records, and pairwise-histogram time, against reference size S, on the
random 15%-missing cohorts of conftest.py (the cohorts behind
perfbench/sweep.py); one-shot detect over
the check batch of perfbench/gen.py, whose Zipf regimens put about a
thousand reference records at a query's own prescription; the cohort
front end (parse, normalize, filter) on raw exports from perfbench/gen.py;
the `ingest` and `hist` commands, in process, on the 100k-row export of
the benchmark's ingest-hist workload; what `check --quantile-boundaries`
does before its first record, on the check workload's history; and a
`train` command, in process, on a 100k-record single-technique export.
Timed with pytest-benchmark.

Not part of the default run (pyproject.toml deselects the bench marker).
Run it with

  python -m pytest -m bench tests/test_bench.py
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
from pathlib import Path

import numpy as np
import pytest

from rxcheck import cli
from rxcheck.detector import ModelParams, detect
from rxcheck.distance import InsufficientNeighbors, pairwise_histograms
from rxcheck.ingest import (
    CohortConfig,
    build_historical_db,
    filter_cohort,
    normalize_dataset,
    parse_dataset,
)
from rxcheck.ranges import Quantile, derive_boundaries

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


@pytest.mark.parametrize("size", [1_000, 20_000, 100_000])
def test_pairwise_histograms(benchmark, size):
    # What `hist` does per reference set; the feature half counts record
    # pairs from pair classes, and should stay under 1 s at S = 100k.
    db = random_db(np.random.default_rng(0), size)
    _, feature_hist = benchmark.pedantic(pairwise_histograms, args=(db, 0.05), rounds=5, iterations=1)
    assert abs(feature_hist.mass.sum() - 1.0) < 1e-9


def _gen(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("gen")


def test_check_batch(benchmark, monkeypatch, tmp_path):
    # The benchmark's check inputs (seed 5): 1,500 new records against the
    # reference sets of an 11k-row history, as `check` scores them.
    gen = _gen(monkeypatch)
    written = gen.write_inputs("check", 5, tmp_path)
    config = CohortConfig()
    records, _ = parse_dataset(tmp_path / "history.csv")
    kept, _ = filter_cohort(normalize_dataset(records, config.label_mappings)[0], config)
    dbs = {tech: build_historical_db(rows) for tech, rows in kept.items()}
    batch, _ = normalize_dataset(parse_dataset(tmp_path / "batch.csv")[0], config.label_mappings)
    params = ModelParams(a=1.0, b=0.6, mu=0.02, nu=0.02)

    def check_batch():
        scored = 0
        for record in batch:
            try:
                detect(record, dbs[record.technique], params)
            except InsufficientNeighbors:
                continue
            scored += 1
        return scored

    scored = benchmark.pedantic(check_batch, rounds=5, iterations=1)
    assert scored == written["batch.csv"] - gen.CHECK_ALL_MISSING


def test_check_setup(benchmark, monkeypatch, tmp_path):
    # `check --quantile-boundaries 0.005,0.995` before its first record, on
    # the history of the benchmark's check workload (seed 5): the front end,
    # one reference set per technique and the boundaries derived from them.
    _gen(monkeypatch).write_inputs("check", 5, tmp_path)
    config, quantile = CohortConfig(), Quantile(0.005, 0.995)

    def setup():
        records, _ = parse_dataset(tmp_path / "history.csv")
        kept, _ = filter_cohort(normalize_dataset(records, config.label_mappings)[0], config)
        dbs = [build_historical_db(rows) for rows in kept.values() if len(rows) >= 2]
        return [derive_boundaries(db, quantile) for db in dbs]

    assert len(benchmark.pedantic(setup, rounds=10, iterations=1)) == 3


def test_train_100k(benchmark, monkeypatch, tmp_path):
    # A `train` command at its defaults on 100,000 admitted 3D records, the
    # largest reference set per technique the north star asks for.
    gen = _gen(monkeypatch)
    path = tmp_path / "export.csv"
    gen.write_rows(path, gen.Generator(5, "train").export({"3D": 100_000}, 0, 0))
    argv = ["train", "--input", str(path), "--out", str(tmp_path / "out")]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run(argv)

    def collect():
        gc.collect()

    assert benchmark.pedantic(run, setup=collect, rounds=3, iterations=1) == cli.EX_OK


@pytest.mark.parametrize("rows", [10_000, 100_000])
def test_front_end(benchmark, monkeypatch, tmp_path, rows):
    # The benchmark's ingest-hist export (seed 5) at 100k rows, and the same
    # mix of admitted, excluded and malformed rows at 10k.
    gen = _gen(monkeypatch)
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
        kept, exclusions = filter_cohort(normalized, config)
        return sum(map(len, kept.values())) + len(exclusions) + len(diagnostics)

    assert benchmark.pedantic(front_end, rounds=5, iterations=1) == written


@pytest.mark.parametrize("command", ["ingest", "hist"])
def test_command_on_export(benchmark, monkeypatch, tmp_path, command):
    # The ingest-hist workload's two commands on its export (seed 5, 100k
    # rows), with garbage collected before each round as the workload does.
    _gen(monkeypatch).write_inputs("ingest-hist", 5, tmp_path)
    argv = [command, "--input", str(tmp_path / "export.csv"), "--out", str(tmp_path / "out")]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run(argv)

    def collect():
        gc.collect()

    assert benchmark.pedantic(run, setup=collect, rounds=5, iterations=1) == cli.EX_OK
