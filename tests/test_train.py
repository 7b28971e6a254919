from __future__ import annotations

import io
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from rxcheck.detector import ModelParams, detect
from rxcheck.distance import InsufficientData, QueryProfile
from rxcheck.ingest import build_historical_db
from rxcheck.simulate import KIND_FEATURE, KIND_RX_SWAP, generate_sa_set
from rxcheck.train import (
    MAX_SEARCH_SIZE,
    SEARCH_RANGES,
    InvalidTrainingSet,
    SearchSpace,
    UndefinedMetric,
    TraceEntry,
    _adaptive_search,
    _best_candidate,
    _kde,
    _param_values,
    f1_metric,
    f1_objective,
    search_parameters,
    split_holdout,
    write_trace_csv,
)

from oracles import close
from synth import make_cohort


PINNED_ADAPTIVE_TRACE = """\
eval_index,a,b,mu,nu,f1_mean,f1_std
0,0.9705154178213997,0.4181651789750427,0.016309527076655762,0.08206977280869227,0.8888888888888888,0.0
1,1.8773175947444074,1.690127109467817,0.015509126532289565,0.062373374658113004,0.6666666666666666,0.0
2,1.170398477394892,1.9232978832532892,0.01198618003765959,0.09152398306290482,0.6666666666666666,0.0
3,1.7144685558614552,0.6949281682910686,0.010070103151577437,0.0025668384001269365,0.75,0.0
4,1.3209908410304954,1.2190598842359601,0.09162399976017621,0.0033651605537723507,0.6666666666666666,0.0
5,0.554766189475467,2e-09,0.02472081104386815,1.0000000000000002e-10,1.0,0.0
6,0.009287103402837449,0.17572502588687622,0.03434202924270355,1.0000000000000002e-10,1.0,0.0
7,2e-09,2e-09,0.038759763150363793,0.013041608908681097,1.0,0.0
8,0.5612865980163874,2e-09,0.04423410896081959,1.0000000000000002e-10,1.0,0.0
9,2e-09,0.06857501655411871,0.028647377795655793,0.021678382579935044,1.0,0.0
10,0.13233427518848084,0.04353114643105219,0.035040048193680964,0.009285693289829297,1.0,0.0
11,0.04151591711988261,0.23128639621066333,0.04017166254922956,1.0000000000000002e-10,1.0,0.0
"""


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

    def test_negative_holdout_rejected(self):
        records, _ = make_cohort("3D", per_cluster=2, seed=16)
        with pytest.raises(ValueError, match="s_n must be non-negative"):
            split_holdout(records, -1, np.random.default_rng(0))


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

    @pytest.mark.parametrize("counts", [(-1, 0, 0), (1, -1, 0), (0, 1, -1)])
    def test_negative_count_rejected(self, counts):
        with pytest.raises(ValueError, match="counts must be non-negative"):
            f1_metric(*counts)

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
    @staticmethod
    def profiles(reference_db, pool, sa_set):
        return (
            [QueryProfile(record, reference_db) for record in pool],
            [QueryProfile(sa.mutated, reference_db) for sa in sa_set],
        )

    def test_huge_thresholds_score_zero(self, setup):
        reference_db, pool, sa_set = setup
        # Swapped prescriptions sit ~5 theta away; a=500 outruns even those.
        params = ModelParams(a=500.0, b=2.0, mu=0.05, nu=0.05)
        blind = [sa for sa in sa_set if sa.mutation.kind == KIND_FEATURE]
        pool_profiles, sa_profiles = self.profiles(reference_db, pool, blind)
        mean, std = f1_objective(params, pool_profiles, sa_profiles, runs=5)
        assert mean == 0.0 and std == 0.0

    def test_separating_thresholds_score_one(self, setup):
        reference_db, pool, sa_set = setup
        params = ModelParams(a=1.0, b=0.2, mu=0.05, nu=0.05)
        pool_profiles, sa_profiles = self.profiles(reference_db, pool, sa_set)
        mean, std = f1_objective(params, pool_profiles, sa_profiles, runs=5)
        assert mean == 1.0 and std == 0.0

    def test_every_run_scores_the_whole_pool(self, setup):
        # f1 from the flag counts of detect over the whole pool and the whole
        # anomaly set, whatever the number of runs.
        reference_db, pool, sa_set = setup
        params = ModelParams(1.0, 0.01, 0.1, 0.1)
        pool_profiles, sa_profiles = self.profiles(reference_db, pool, sa_set)
        tp = sum(detect(sa.mutated, reference_db, params).flagged for sa in sa_set)
        fp = sum(detect(record, reference_db, params).flagged for record in pool)
        expected = f1_metric(tp, fp, len(sa_set) - tp)
        assert 0 < fp < len(pool) and 0.0 < expected < 1.0
        for runs in (1, 3, 50):
            mean, std = f1_objective(params, pool_profiles, sa_profiles, runs=runs)
            assert mean == pytest.approx(expected, abs=1e-15) and std < 1e-15

    def test_empty_sa_set_rejected(self, setup):
        reference_db, pool, _ = setup
        pool_profiles, _ = self.profiles(reference_db, pool, [])
        with pytest.raises(InvalidTrainingSet):
            f1_objective(ModelParams(1, 1, 0.05, 0.05), pool_profiles, [], runs=1)

    def test_profile_of_another_reference_set_rejected(self, setup):
        reference_db, pool, sa_set = setup
        other_db = build_historical_db(list(reference_db.records))
        pool_profiles, sa_profiles = self.profiles(reference_db, pool, sa_set)
        pool_profiles[0] = QueryProfile(pool[0], other_db)
        with pytest.raises(ValueError, match="built against another reference set"):
            f1_objective(ModelParams(1, 1, 0.05, 0.05), pool_profiles, sa_profiles, runs=1)


class TestSearchSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchSpace(budget=0)
        with pytest.raises(ValueError):
            SearchSpace(strategy="anneal")

    @pytest.mark.parametrize("field", ["budget", "runs_per_point"])
    def test_sizes_past_the_cap_rejected(self, field):
        # Rejected before the search allocates its columns or the objective
        # its runs.
        with pytest.raises(ValueError, match=f"{field} must lie in \\[1, 1000000\\], got 1000001"):
            SearchSpace(**{field: MAX_SEARCH_SIZE + 1})
        assert getattr(SearchSpace(**{field: MAX_SEARCH_SIZE}), field) == MAX_SEARCH_SIZE


class TestSearchParameters:
    def test_budget_one(self, setup):
        reference_db, pool, sa_set = setup
        space = SearchSpace(budget=1, runs_per_point=2, strategy="random")
        outcome = search_parameters(space, reference_db, pool, sa_set, seed=0)
        assert len(outcome.trace) == 1
        assert outcome.best is outcome.trace[0]

    def test_grid_sixteen_gives_two_levels_per_axis(self, setup):
        reference_db, pool, sa_set = setup
        space = SearchSpace(budget=16, runs_per_point=1, strategy="grid")
        outcome = search_parameters(space, reference_db, pool, sa_set, seed=0)
        assert len(outcome.trace) == 16
        assert {entry.params.a for entry in outcome.trace} == {1.0, 2.0}
        assert {entry.params.mu for entry in outcome.trace} == {0.05, 0.1}

    @pytest.mark.parametrize("budget, levels", [(100, 3), (256, 4)])
    def test_grid_levels_stay_in_range(self, setup, budget, levels):
        # k = 3 put the top mu and nu level at 0.1 * 3 / 3 > 0.1, which
        # ModelParams rejects.
        reference_db, pool, sa_set = setup
        space = SearchSpace(budget=budget, runs_per_point=1, strategy="grid")
        outcome = search_parameters(space, reference_db, pool, sa_set, seed=0)
        assert len(outcome.trace) == budget
        lattice = [entry.params for entry in outcome.trace[: levels ** 4]]
        for dim, (lo, hi) in enumerate(SEARCH_RANGES):
            values = {(p.a, p.b, p.mu, p.nu)[dim] for p in lattice}
            assert len(values) == levels
            assert all(lo < v <= hi for v in values)
            assert max(values) == hi

    def test_grid_sixteen_levels_unchanged(self, setup):
        reference_db, pool, sa_set = setup
        space = SearchSpace(budget=16, runs_per_point=1, strategy="grid")
        outcome = search_parameters(space, reference_db, pool, sa_set, seed=0)
        expected = [
            [lo + (hi - lo) * (j + 1) / 2 for j in range(2)] for lo, hi in SEARCH_RANGES
        ]
        got = [entry.params for entry in outcome.trace]
        assert got == [
            ModelParams(a, b, mu, nu)
            for a in expected[0] for b in expected[1]
            for mu in expected[2] for nu in expected[3]
        ]

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
        assert outcome.best.f1_mean == best
        first = next(e for e in outcome.trace if e.f1_mean == best)
        assert outcome.best is first

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
        assert outcome.best.f1_mean >= 0.9

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

    def test_adaptive_trace_bytes_unchanged(self, setup):
        # The pinned bytes of one adaptive search: a change to the search or
        # the objective that moves any point or score, even in its last bit,
        # shows here.
        reference_db, pool, sa_set = setup
        space = SearchSpace(budget=12, runs_per_point=3, strategy="adaptive")
        outcome = search_parameters(space, reference_db, pool, sa_set, seed=4)
        buffer = io.StringIO()
        write_trace_csv(buffer, outcome)
        assert buffer.getvalue() == PINNED_ADAPTIVE_TRACE

    def test_trace_csv(self, setup, tmp_path):
        reference_db, pool, sa_set = setup
        space = SearchSpace(budget=5, runs_per_point=1, strategy="random")
        outcome = search_parameters(space, reference_db, pool, sa_set, seed=0)
        buffer = io.StringIO()
        write_trace_csv(buffer, outcome)
        lines = buffer.getvalue().strip().split("\n")
        assert lines[0] == "eval_index,a,b,mu,nu,f1_mean,f1_std"
        assert len(lines) == 6


def _scalar_choice(candidates, good_by_dim, bad_by_dim, bandwidths):
    """The candidate loop of the adaptive search with the scalar _kde: the
    first candidate of highest log density ratio."""
    best, best_score = None, -math.inf
    for index, values in enumerate(candidates):
        score = 0.0
        for dim, x in enumerate(values):
            bw = bandwidths[dim]
            score += math.log(_kde(x, good_by_dim[dim], bw)) - math.log(_kde(x, bad_by_dim[dim], bw))
        if score > best_score:
            best, best_score = index, score
    return best


_COORDINATE = st.floats(0.0, 2.0, allow_subnormal=False)
_POINT = st.tuples(_COORDINATE, _COORDINATE, _COORDINATE, _COORDINATE)


@seed(20212)
@settings(deadline=None, max_examples=300, database=None)
@given(
    good=st.lists(_POINT, min_size=2, max_size=8),
    bad=st.lists(_POINT, min_size=1, max_size=20),
    candidates=st.lists(_POINT, min_size=1, max_size=24),
    copies=st.lists(st.tuples(st.integers(0, 23), st.integers(0, 24), st.booleans()), max_size=6),
    bandwidths=st.tuples(*[st.floats(0.005, 0.7)] * 4),
)
def test_best_candidate_matches_scalar_scoring(good, bad, candidates, copies, bandwidths):
    # Exact duplicates, and copies one ulp away, tie or nearly tie in score.
    candidates = [list(values) for values in candidates]
    for source, position, nudge in copies:
        values = list(candidates[source % len(candidates)])
        if nudge:
            values[0] = float(np.nextafter(values[0], 3.0))
        candidates.insert(position % (len(candidates) + 1), values)
    good_by_dim, bad_by_dim = list(zip(*good)), list(zip(*bad))
    chosen = _best_candidate(candidates, good_by_dim, bad_by_dim, bandwidths)
    assert chosen == _scalar_choice(candidates, good_by_dim, bad_by_dim, bandwidths)


def _reference_in_range(value, lo, hi):
    tiny = (hi - lo) * 1e-9
    return min(max(value, lo + tiny), hi)


def _reference_draw_uniform(rng):
    return ModelParams(*[
        _reference_in_range(lo + (hi - lo) * float(rng.random()), lo, hi) for lo, hi in SEARCH_RANGES
    ])


def _reference_adaptive_search(space, evaluate, rng):
    """The adaptive search's loop as it was when it re-sorted the whole trace
    and rebuilt the good and bad points on every iteration."""
    n_init = min(space.budget, max(5, space.budget // 5))
    n_candidates = 24
    gamma = 0.25

    trace = [evaluate(_reference_draw_uniform(rng)) for _ in range(n_init)]
    for index in range(n_init, space.budget):
        order = sorted(range(len(trace)), key=lambda k: (-trace[k].f1_mean, k))
        n_good = max(2, int(math.ceil(gamma * len(trace))))
        good = [_param_values(trace[k].params) for k in order[:n_good]]
        bad = [_param_values(trace[k].params) for k in order[n_good:]] or good
        good_by_dim = list(zip(*good))
        bad_by_dim = list(zip(*bad))
        progress = index / space.budget
        bandwidths = [(hi - lo) * max(0.35 * (1.0 - progress), 0.05) for lo, hi in SEARCH_RANGES]

        candidates = []
        for _ in range(n_candidates):
            values = []
            for dim, (lo, hi) in enumerate(SEARCH_RANGES):
                anchor = good[int(rng.integers(len(good)))][dim]
                values.append(_reference_in_range(anchor + bandwidths[dim] * float(rng.standard_normal()), lo, hi))
            candidates.append(values)
        best = _best_candidate(candidates, good_by_dim, bad_by_dim, bandwidths)
        trace.append(evaluate(ModelParams(*candidates[best])))
    return trace


@seed(20227)
@settings(deadline=None, max_examples=200, database=None)
@given(
    budget=st.one_of(st.integers(5, 8), st.integers(1, 60)),
    generator_seed=st.integers(0, 2**64 - 1),
    levels=st.lists(st.sampled_from([0.0, 0.5, 2 / 3, 1.0]), min_size=1, max_size=3, unique=True),
    data=st.data(),
)
def test_adaptive_search_matches_the_re_sorting_loop(budget, generator_seed, levels, data):
    # f1 from two or three values, or one: most points tie, and the order
    # among equal f1 decides which points are good. Budgets 5-8 leave the
    # fewest bad points, one at budget 5.
    scores = data.draw(st.lists(st.sampled_from(levels), min_size=budget, max_size=budget))
    space = SearchSpace(budget=budget, runs_per_point=1)
    results = []
    for search in (_adaptive_search, _reference_adaptive_search):
        rng = np.random.default_rng(generator_seed)
        scored = iter(scores)
        trace = search(space, lambda params: TraceEntry(params, next(scored), 0.0), rng)
        points = [tuple(map(repr, _param_values(entry.params))) for entry in trace]
        results.append((points, rng.bit_generator.state))
    assert results[0] == results[1]
