from __future__ import annotations

import io

import numpy as np
import pytest

from rxcheck.detector import ModelParams
from rxcheck.distance import InsufficientData, QueryProfile
from rxcheck.ingest import build_historical_db
from rxcheck.simulate import KIND_FEATURE, KIND_RX_SWAP, generate_sa_set
from rxcheck.train import (
    InvalidTrainingSet,
    SearchSpace,
    UndefinedMetric,
    f1_metric,
    f1_objective,
    search_parameters,
    split_holdout,
    write_trace_csv,
)

from oracles import close
from synth import make_cohort


@pytest.fixture(scope="module")
def setup():
    records, _ = make_cohort("3D", per_cluster=20, seed=11)  # 120 records
    reference, pool = split_holdout(records, 12, np.random.default_rng(0))
    reference_db = build_historical_db(reference)
    sa_set = generate_sa_set(
        reference_db, {KIND_RX_SWAP: 5, KIND_FEATURE: 5},
        rng=np.random.default_rng(1))
    return reference_db, pool, sa_set


class TestSplitHoldout:
    def test_sizes_and_disjointness(self):
        records, _ = make_cohort("3D", per_cluster=10, seed=12)
        reference, pool = split_holdout(records, 20, np.random.default_rng(5))
        assert len(reference) == len(records) - 20 and len(pool) == 20
        assert {r.record_id for r in reference}.isdisjoint({r.record_id for r in pool})

    def test_zero_holdout(self):
        records, _ = make_cohort("3D", per_cluster=3, seed=13)
        reference, pool = split_holdout(records, 0, np.random.default_rng(5))
        assert reference == records and pool == []

    def test_deterministic_per_seed(self):
        records, _ = make_cohort("3D", per_cluster=5, seed=14)
        a = split_holdout(records, 6, np.random.default_rng(9))
        b = split_holdout(records, 6, np.random.default_rng(9))
        assert a == b

    def test_reference_db_excludes_holdout_from_characteristics(self):
        records, _ = make_cohort("3D", per_cluster=5, seed=15)
        reference, pool = split_holdout(records, 6, np.random.default_rng(2))
        db = build_historical_db(reference)
        assert db.size == len(records) - 6
        pool_ids = {r.record_id for r in pool}
        assert not any(r.record_id in pool_ids for r in db.records)

    def test_oversized_holdout_rejected(self):
        records, _ = make_cohort("3D", per_cluster=2, seed=16)
        with pytest.raises(InsufficientData):
            split_holdout(records, len(records), np.random.default_rng(0))


class TestF1Metric:
    def test_perfect(self):
        assert f1_metric(1, 0, 0) == 1.0

    def test_total_miss(self):
        assert f1_metric(0, 0, 5) == 0.0

    def test_hand_value(self):
        assert f1_metric(8, 1, 2) == pytest.approx(16 / 19)

    def test_undefined_on_all_zero(self):
        with pytest.raises(UndefinedMetric):
            f1_metric(0, 0, 0)

    def test_harmonic_mean_cross_check(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            tp = int(rng.integers(1, 50))
            fp = int(rng.integers(0, 50))
            fn = int(rng.integers(0, 50))
            precision = tp / (tp + fp)
            recall = tp / (tp + fn)
            assert close(f1_metric(tp, fp, fn), 2 * precision * recall / (precision + recall))


class TestF1Objective:
    def test_huge_thresholds_score_zero(self, setup):
        reference_db, pool, sa_set = setup
        # Swapped prescriptions sit ~5 theta away; a=500 outruns even those.
        params = ModelParams(a=500.0, b=2.0, mu=0.05, nu=0.05)
        blind = [sa for sa in sa_set if sa.mutation.kind == KIND_FEATURE]
        mean, std = f1_objective(params, reference_db, pool, blind,
                                 runs=5, s_n=6, rng=np.random.default_rng(3))
        assert mean == 0.0 and std == 0.0

    def test_separating_thresholds_score_one(self, setup):
        reference_db, pool, sa_set = setup
        params = ModelParams(a=1.0, b=0.2, mu=0.05, nu=0.05)
        mean, std = f1_objective(params, reference_db, pool, sa_set,
                                 runs=5, s_n=6, rng=np.random.default_rng(3))
        assert mean == 1.0 and std == 0.0

    def test_empty_sa_set_rejected(self, setup):
        reference_db, pool, _ = setup
        with pytest.raises(InvalidTrainingSet):
            f1_objective(ModelParams(1, 1, 0.05, 0.05), reference_db, pool, [],
                         runs=1, s_n=2, rng=np.random.default_rng(0))

    def test_oversized_sample_rejected(self, setup):
        reference_db, pool, sa_set = setup
        with pytest.raises(InvalidTrainingSet):
            f1_objective(ModelParams(1, 1, 0.05, 0.05), reference_db, pool, sa_set,
                         runs=1, s_n=len(pool) + 1, rng=np.random.default_rng(0))

    def test_deterministic_with_fixed_sample(self, setup):
        reference_db, pool, sa_set = setup
        params = ModelParams(0.8, 0.3, 0.03, 0.04)
        a = f1_objective(params, reference_db, pool, sa_set, runs=1,
                         s_n=len(pool), rng=np.random.default_rng(4))
        b = f1_objective(params, reference_db, pool, sa_set, runs=1,
                         s_n=len(pool), rng=np.random.default_rng(99))
        assert a == b  # sampling the whole pool removes the only randomness


class TestSearchSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchSpace(budget=0)
        with pytest.raises(ValueError):
            SearchSpace(a_range=(1.0, 1.0))
        with pytest.raises(ValueError):
            SearchSpace(strategy="anneal")


class TestSearchParameters:
    def test_budget_one(self, setup):
        reference_db, pool, sa_set = setup
        space = SearchSpace(budget=1, runs_per_point=2, strategy="random")
        outcome = search_parameters(space, reference_db, pool, sa_set, seed=0)
        assert len(outcome.trace) == 1
        assert outcome.best_params == outcome.trace[0].params

    def test_grid_sixteen_gives_two_levels_per_axis(self, setup):
        reference_db, pool, sa_set = setup
        space = SearchSpace(budget=16, runs_per_point=1, strategy="grid")
        outcome = search_parameters(space, reference_db, pool, sa_set, seed=0)
        assert len(outcome.trace) == 16
        assert {entry.params.a for entry in outcome.trace} == {1.0, 2.0}
        assert {entry.params.mu for entry in outcome.trace} == {0.05, 0.1}

    def test_exactly_budget_points_every_strategy(self, setup):
        reference_db, pool, sa_set = setup
        for strategy in ("grid", "random", "adaptive"):
            space = SearchSpace(budget=23, runs_per_point=1, strategy=strategy)
            outcome = search_parameters(space, reference_db, pool, sa_set, seed=1)
            assert len(outcome.trace) == 23, strategy

    def test_best_is_max_of_trace_earliest_tie(self, setup):
        reference_db, pool, sa_set = setup
        space = SearchSpace(budget=12, runs_per_point=2, strategy="random")
        outcome = search_parameters(space, reference_db, pool, sa_set, seed=2)
        best = max(entry.f1_mean for entry in outcome.trace)
        assert outcome.best_f1_mean == best
        first = next(e for e in outcome.trace if e.f1_mean == best)
        assert outcome.best_params == first.params

    def test_same_seed_reproduces_trace_bitwise(self, setup):
        reference_db, pool, sa_set = setup
        space = SearchSpace(budget=10, runs_per_point=3, strategy="adaptive")
        a = search_parameters(space, reference_db, pool, sa_set, seed=7)
        b = search_parameters(space, reference_db, pool, sa_set, seed=7)
        assert a == b

    def test_different_seed_different_trace(self, setup):
        reference_db, pool, sa_set = setup
        space = SearchSpace(budget=10, runs_per_point=1, strategy="random")
        a = search_parameters(space, reference_db, pool, sa_set, seed=7)
        b = search_parameters(space, reference_db, pool, sa_set, seed=8)
        assert [e.params for e in a.trace] != [e.params for e in b.trace]

    def test_adaptive_finds_separating_point(self, setup):
        reference_db, pool, sa_set = setup
        space = SearchSpace(budget=40, runs_per_point=3, strategy="adaptive")
        outcome = search_parameters(space, reference_db, pool, sa_set, seed=3)
        assert outcome.best_f1_mean >= 0.9

    def test_profiles_each_record_once(self, setup, monkeypatch):
        # The search profiles every anomaly and pool record once, however
        # many parameter points it scores.
        reference_db, pool, sa_set = setup
        built = []
        original = QueryProfile.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(QueryProfile, "__init__", counting_init)
        for budget in (1, 12):
            built.clear()
            space = SearchSpace(budget=budget, runs_per_point=2, strategy="adaptive")
            search_parameters(space, reference_db, pool, sa_set, seed=4)
            assert len(built) == len(sa_set) + len(pool)

    def test_trace_csv(self, setup, tmp_path):
        reference_db, pool, sa_set = setup
        space = SearchSpace(budget=5, runs_per_point=1, strategy="random")
        outcome = search_parameters(space, reference_db, pool, sa_set, seed=0)
        buffer = io.StringIO()
        write_trace_csv(buffer, outcome)
        lines = buffer.getvalue().strip().split("\n")
        assert lines[0] == "eval_index,a,b,mu,nu,f1_mean,f1_std"
        assert len(lines) == 6
