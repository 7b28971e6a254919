from __future__ import annotations

import math
import tracemalloc
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from rxcheck import distance
from rxcheck.detector import WARN_INSUFFICIENT_SAME_RX, ModelParams, detect, verdict_to_dict
from rxcheck.distance import (
    IncomparablePair,
    InsufficientNeighbors,
    QueryProfile,
    RxScaler,
    ScaledRx,
    _edges,
    _gower,
    closest_m_rx_distance,
    closest_n_feature_distance,
    distinct_rx,
    encode_features,
    gower_distance,
    pairwise_histograms,
    pairwise_means,
    rx_distance,
    scale_rx,
)
from rxcheck.ingest import build_historical_db
from rxcheck.records import Prescription

from conftest import random_db, random_record, rec
from oracles import (
    close,
    oracle_closest_m,
    oracle_closest_n,
    oracle_gower,
    oracle_rho,
    oracle_schema,
    oracle_theta_tau,
)


def scaler(f_lo=0, f_hi=10, d_lo=0, d_hi=1000):
    return RxScaler(f_lo, f_hi, d_lo, d_hi)


class TestScaleRx:
    def test_min_maps_to_zero(self):
        s = scale_rx(Prescription(0, 0, 0, 0), scaler())
        assert (s.f, s.d) == (0.0, 0.0)

    def test_max_maps_to_one(self):
        s = scale_rx(Prescription(10, 1000, 10000, 10000), scaler())
        assert (s.f, s.d) == (1.0, 1.0)

    def test_midpoint(self):
        s = scale_rx(Prescription(20, 500, 10000, 10000), RxScaler(10, 30, 0, 1000))
        assert s.f == 0.5

    def test_degenerate_dimension_contributes_zero(self):
        s = scale_rx(Prescription(7, 500, 3500, 3500), RxScaler(5, 5, 0, 1000))
        assert s.f == 0.0

    def test_out_of_range_allowed(self):
        s = scale_rx(Prescription(20, 2000, 40000, 40000), scaler())
        assert s.f == 2.0 and s.d == 2.0


class TestRxDistance:
    def test_identical_is_zero(self):
        assert rx_distance(ScaledRx(0.3, 0.7), ScaledRx(0.3, 0.7)) == 0.0

    def test_three_four_five(self):
        assert rx_distance(ScaledRx(0.0, 0.0), ScaledRx(0.3, 0.4)) == pytest.approx(0.5)

    def test_opposite_corners(self):
        assert rx_distance(ScaledRx(0, 0), ScaledRx(1, 1)) == pytest.approx(math.sqrt(2))

    def test_metric_axioms(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b, c = (ScaledRx(*rng.uniform(0, 1, 2)) for _ in range(3))
            assert rx_distance(a, b) >= 0
            assert rx_distance(a, b) == rx_distance(b, a)
            assert rx_distance(a, a) == 0.0
            assert rx_distance(a, c) <= rx_distance(a, b) + rx_distance(b, c) + 1e-12


class TestGowerDistance:
    def test_identical_records(self):
        r = rec("a", 5, 400, energy="x06", intent="curative", icd10="C34.10",
                morphology="80463", age_at_tx=60)
        bound = oracle_schema([r, r])
        assert gower_distance(r, r, bound) == 0.0

    def test_one_categorical_differs_gives_point_two(self):
        # Five equal-weight features; a single categorical mismatch is 1/5.
        r1 = rec("a", 5, 400, energy="x06", intent="curative", icd10="C34.10",
                 morphology="80463", age_at_tx=60)
        r2 = replace(r1, record_id="b", intent="palliative")
        bound = oracle_schema([r1, r2])
        assert gower_distance(r1, r2, bound) == pytest.approx(0.2)

    def test_maximal_distance(self):
        r1 = rec("a", 5, 400, energy="x06", intent="curative", icd10="C34.10",
                 morphology="80463", age_at_tx=20)
        r2 = rec("b", 5, 400, energy="x15", intent="palliative", icd10="C15.9",
                 morphology="81406", age_at_tx=90)
        bound = oracle_schema([r1, r2])
        assert gower_distance(r1, r2, bound) == 1.0

    def test_missing_sides_drop_from_both_sums(self):
        r1 = rec("a", 5, 400, energy="x06", intent=None, icd10="C34.10",
                 morphology="80463", age_at_tx=60)
        r2 = rec("b", 5, 400, energy="x15", intent="palliative", icd10="C34.10",
                 morphology="80463", age_at_tx=60)
        bound = oracle_schema([r1, r2])
        # intent missing on one side: 4 comparable features, one differs.
        assert gower_distance(r1, r2, bound) == pytest.approx(0.25)

    def test_out_of_range_numeric_clamped(self):
        r1 = rec("a", 5, 400, age_at_tx=50)
        r2 = rec("b", 5, 400, age_at_tx=60)
        bound = oracle_schema([r1, r2])
        query = rec("q", 5, 400, age_at_tx=120)
        # only age comparable; |120-50|/10 clamps to 1
        assert gower_distance(query, r1, bound) == 1.0

    def test_incomparable_pair_raises(self):
        r1 = rec("a", 5, 400, energy="x06", icd10="C34.10", age_at_tx=None)
        r2 = rec("b", 5, 400, intent="curative", morphology="80463", age_at_tx=None)
        bound = oracle_schema([r1, r2])
        with pytest.raises(IncomparablePair):
            gower_distance(r1, r2, bound)

    def test_unbound_numeric_range_rejected(self, schema):
        r = rec("a", 5, 400, age_at_tx=60)
        with pytest.raises(ValueError):
            gower_distance(r, r, schema)

    def test_symmetry_and_range_on_random_pairs(self):
        rng = np.random.default_rng(4)
        records = [random_record(rng, i, missing_rate=0.3) for i in range(40)]
        bound = oracle_schema(records)
        for _ in range(300):
            i, j = rng.integers(0, len(records), 2)
            try:
                g1 = gower_distance(records[i], records[j], bound)
            except IncomparablePair:
                continue
            g2 = gower_distance(records[j], records[i], bound)
            assert g1 == g2
            assert 0.0 <= g1 <= 1.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(6)
        records = [random_record(rng, i, missing_rate=0.2) for i in range(30)]
        bound = oracle_schema(records)
        for _ in range(200):
            i, j = rng.integers(0, len(records), 2)
            expected = oracle_gower(records[i], records[j], bound)
            if expected is None:
                with pytest.raises(IncomparablePair):
                    gower_distance(records[i], records[j], bound)
            else:
                assert close(gower_distance(records[i], records[j], bound), expected)

    def test_affine_invariance(self):
        rng = np.random.default_rng(7)
        records = [random_record(rng, i) for i in range(25)]
        bound = oracle_schema(records)
        alpha, beta = 3.7, -12.0
        transformed = [
            replace(r, age_at_tx=None if r.age_at_tx is None else alpha * r.age_at_tx + beta)
            for r in records
        ]
        bound_t = oracle_schema(transformed)
        for _ in range(100):
            i, j = rng.integers(0, len(records), 2)
            try:
                g = gower_distance(records[i], records[j], bound)
            except IncomparablePair:
                continue
            g_t = gower_distance(transformed[i], transformed[j], bound_t)
            assert close(g, g_t)


class TestClosestGroups:
    def test_r_zero_when_rx_occurs_m_times(self, small_db):
        profile = QueryProfile(small_db.records[0], small_db)
        assert closest_m_rx_distance(profile, 4) == 0.0
        # two profiles share (10, 200)
        assert profile.same_rx_count == 8

    def test_r_full_set_mean(self, small_db):
        query = small_db.records[0]
        result = closest_m_rx_distance(QueryProfile(query, small_db), small_db.size)
        rhos = []
        from oracles import _ranked

        for rho, _, _, _ in _ranked(query, list(small_db.records), small_db.feature_schema):
            rhos.append(rho)
        assert close(result, sum(rhos) / len(rhos))

    def test_r_nondecreasing_in_m(self, small_db):
        query = rec("q", 12, 250, energy="x06", intent="curative",
                    icd10="C34.10", morphology="80463", age_at_tx=61)
        profile = QueryProfile(query, small_db)
        values = [closest_m_rx_distance(profile, m) for m in range(1, small_db.size + 1)]
        assert all(values[k] <= values[k + 1] + 1e-15 for k in range(len(values) - 1))

    def test_f_zero_when_identical_to_n_records(self):
        twins = [rec(f"t{i}", 10, 200, energy="x06", intent="curative",
                     icd10="C34.10", morphology="80463", age_at_tx=60)
                 for i in range(3)]
        others = [rec(f"o{i}", 20, 300, energy="x15", intent="palliative",
                      icd10="C15.9", morphology="81406", age_at_tx=40 + i)
                  for i in range(3)]
        db = build_historical_db(twins + others)
        query = rec("q", 10, 200, energy="x06", intent="curative",
                    icd10="C34.10", morphology="80463", age_at_tx=60)
        assert closest_n_feature_distance(QueryProfile(query, db), 3) == 0.0

    # nu = 0.1 of 12 records rounds to n = 1; a = 100 lets R pass, so F runs.
    FEATURE_STEP = ModelParams(a=100.0, b=1.0, mu=0.1, nu=0.1)

    def test_f_warning_when_same_rx_insufficient(self, small_db):
        query = rec("q", 13, 275, energy="x06", intent="curative",
                    icd10="C34.10", morphology="80463", age_at_tx=61)
        verdict = detect(query, small_db, self.FEATURE_STEP)
        assert verdict.f is not None
        assert verdict.same_rx_count == 0
        assert WARN_INSUFFICIENT_SAME_RX in verdict.warnings

    def test_f_no_warning_within_same_rx(self, small_db):
        query = small_db.records[0]
        verdict = detect(query, small_db, self.FEATURE_STEP)
        assert verdict.f is not None
        assert verdict.same_rx_count == 8
        assert WARN_INSUFFICIENT_SAME_RX not in verdict.warnings

    def test_group_bounds_validated(self, small_db):
        profile = QueryProfile(small_db.records[0], small_db)
        with pytest.raises(InsufficientNeighbors):
            closest_m_rx_distance(profile, 0)
        with pytest.raises(InsufficientNeighbors):
            closest_m_rx_distance(profile, small_db.size + 1)
        with pytest.raises(InsufficientNeighbors):
            closest_n_feature_distance(profile, small_db.size + 1)

    def test_members_match_value(self, small_db):
        query = rec("q", 11, 210, energy="x15", intent="palliative",
                    icd10="C34.90", morphology="81406", age_at_tx=71)
        profile = QueryProfile(query, small_db)
        r = closest_m_rx_distance(QueryProfile(query, small_db), 5)
        assert close(r, sum(profile.sorted_rho[:5].tolist()) / 5)
        take, g = profile.nearest_comparable(5)
        assert len(take) == 5
        assert close(closest_n_feature_distance(QueryProfile(query, small_db), 5), sum(g.tolist()) / 5)

    def test_matches_oracle_on_random_dbs(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            db = random_db(rng, int(rng.integers(5, 30)))
            _assert_groups_match_oracle(rng, db, random_record(rng, 999))
        # Edges of the array kernels: a reference spanning several pair
        # blocks, a constant (degenerate) age column, and queries with an
        # unseen category and an age outside the reference range.
        large = random_db(rng, 300)
        ages = [random_record(rng, i) for i in range(40)]
        constant_age = build_historical_db(
            [r if r.age_at_tx is None else replace(r, age_at_tx=60) for r in ages]
        )
        for db in (large, constant_age):
            theta, tau = oracle_theta_tau(list(db.records), db.feature_schema)
            assert close(db.theta, theta) and close(db.tau, tau)
            for k, (energy, age) in enumerate(((None, None), ("x99", 140), ("x99", 5), (None, 60))):
                query = random_record(rng, 900 + k)
                if energy is not None:
                    query = replace(query, energy=energy, icd10="Z99.9")
                if age is not None:
                    query = replace(query, age_at_tx=age)
                _assert_groups_match_oracle(rng, db, query)

    def test_f_nondecreasing_in_n_within_same_rx(self):
        rng = np.random.default_rng(12)
        records = [
            rec(f"r{i}", 10, 200, energy=str(rng.choice(("x06", "x10", "x15"))),
                intent=str(rng.choice(("curative", "palliative"))),
                icd10="C34.10", morphology="80463", age_at_tx=int(rng.integers(40, 80)))
            for i in range(15)
        ]
        db = build_historical_db(records)
        assert db.rx_scaler.degenerate == ("fractions", "dose_per_fraction")
        query = records[0]
        same = db.rx_index[query.rx]
        values = [closest_n_feature_distance(QueryProfile(query, db), n) for n in range(1, same + 1)]
        assert all(values[k] <= values[k + 1] + 1e-15 for k in range(len(values) - 1))


def _assert_groups_match_oracle(rng, db, query, profile=None):
    # profile is what the group functions get: a fresh one by default, or
    # one reused across calls.
    profile = QueryProfile(query, db) if profile is None else profile
    m = int(rng.integers(1, db.size + 1))
    n = int(rng.integers(1, db.size + 1))
    _assert_sizes_match_oracle(query, db, m, n, profile)


def _assert_members_match_oracle(query, db, profile, n, ids):
    """The profile's first n comparable records are the records at ids, in
    order, each with the oracle's g."""
    records, schema = list(db.records), db.feature_schema
    take, g = profile.nearest_comparable(n)
    assert take.tolist() == list(ids)
    for value, i in zip(g.tolist(), ids):
        expected = oracle_gower(query, records[i], schema)
        assert expected is not None and close(value, expected)


class TestQueryProfile:
    """A profile computed once and reused across parameter points gives what
    a record passed as is gives, and what the oracle computes."""

    def test_profile_path_matches_record_path_and_oracle(self):
        rng = np.random.default_rng(16)
        dbs = [random_db(rng, int(rng.integers(5, 30))) for _ in range(8)]
        dbs.append(random_db(rng, 300))
        ages = [random_record(rng, i) for i in range(40)]
        dbs.append(build_historical_db(
            [r if r.age_at_tx is None else replace(r, age_at_tx=60) for r in ages]
        ))
        for db in dbs:
            for k in range(3):
                query = random_record(rng, 900 + k)
                profile = QueryProfile(query, db)
                for _ in range(4):
                    params = ModelParams(
                        a=float(rng.uniform(0.05, 3.0)), b=float(rng.uniform(0.05, 3.0)),
                        mu=float(rng.uniform(0.001, 0.1)), nu=float(rng.uniform(0.001, 0.1)),
                    )
                    assert _outcome(profile, db, params) == _outcome(query, db, params)
                for _ in range(3):
                    _assert_groups_match_oracle(rng, db, query, profile)

    def test_all_missing_query(self):
        rng = np.random.default_rng(17)
        db = random_db(rng, 40)
        query = rec("blank", 12, 300)
        profile = QueryProfile(query, db)
        assert len(profile.nearest_comparable(db.size)[0]) == 0
        for candidate in (query, profile):
            # detect takes either; the group functions take a profile, a
            # fresh one for the record.
            given = profile if candidate is profile else QueryProfile(query, db)
            expected, _ = oracle_closest_m(query, list(db.records), db.feature_schema, 5)
            assert close(closest_m_rx_distance(given, 5), expected)
            with pytest.raises(InsufficientNeighbors):
                closest_n_feature_distance(given, 1)
            with pytest.raises(InsufficientNeighbors):
                detect(candidate, db, ModelParams(a=100.0, b=1.0, mu=0.1, nu=0.1))

    def test_a_query_without_features_does_not_walk(self):
        # No reference record shares a feature with it, so the kernel never
        # runs; the failure is the one a walk over every record would give.
        db = random_db(np.random.default_rng(17), 40)
        with mock.patch.object(distance, "_gower", side_effect=AssertionError("walked")) as kernel:
            profile = QueryProfile(rec("blank", 12, 300), db)
            index, g = profile.nearest_comparable(db.size)
            assert (index.tolist(), g.tolist()) == ([], [])
            with pytest.raises(InsufficientNeighbors) as raised:
                closest_n_feature_distance(profile, 7)
        assert raised.value.args == ("only 0 comparable reference records for n=7",)
        kernel.assert_not_called()

    def test_profile_of_another_reference_rejected(self):
        rng = np.random.default_rng(18)
        db, other = random_db(rng, 10), random_db(rng, 10)
        profile = QueryProfile(random_record(rng, 900), db)
        params = ModelParams(a=100.0, b=1.0, mu=0.1, nu=0.1)
        assert _outcome(profile, db, params) == _outcome(profile.record, db, params)
        with pytest.raises(ValueError, match="another reference set"):
            detect(profile, other, params)

    def test_a_group_size_that_raises_raises_again(self):
        # Records without an age are incomparable to a query that has only
        # its age: 3 of the 6 are comparable.
        db = build_historical_db([
            rec(f"r{k}", 10 + k, 200 + 10 * k, energy="x06", age_at_tx=50 + k if k % 2 else None)
            for k in range(6)
        ])
        profile = QueryProfile(rec("q", 12, 220, age_at_tx=55), db)
        fresh = QueryProfile(profile.record, db)
        for _ in range(2):
            with pytest.raises(InsufficientNeighbors, match="^only 3 comparable reference records for n=4$"):
                closest_n_feature_distance(profile, 4)
            with pytest.raises(InsufficientNeighbors, match=r"^m=7 outside \[1, 6\]$"):
                closest_m_rx_distance(profile, 7)
            assert closest_n_feature_distance(profile, 3) == closest_n_feature_distance(fresh, 3)
            assert closest_m_rx_distance(profile, 6) == closest_m_rx_distance(fresh, 6)


def _outcome(query, db, params):
    try:
        return verdict_to_dict(detect(query, db, params))
    except InsufficientNeighbors as exc:
        return str(exc)


class TestCharacteristicDistances:
    def test_matches_brute_force_three_records(self, schema):
        records = [
            rec("a", 5, 400, energy="x06", intent="curative", icd10="C34.10",
                morphology="80463", age_at_tx=50),
            rec("b", 10, 300, energy="x15", intent="curative", icd10="C34.90",
                morphology="80463", age_at_tx=60),
            rec("c", 20, 180, energy="x10", intent="palliative", icd10="C15.9",
                morphology="81406", age_at_tx=70),
        ]
        db = build_historical_db(records)
        theta, tau = oracle_theta_tau(records, db.feature_schema)
        assert close(db.theta, theta) and close(db.tau, tau)

    def test_all_identical_gives_zero(self):
        records = [rec(f"r{i}", 5, 400, energy="x06", icd10="C34.10", age_at_tx=60)
                   for i in range(4)]
        db = build_historical_db(records)
        assert (db.theta, db.tau) == (0.0, 0.0)
        assert db.rx_scaler.degenerate == ("fractions", "dose_per_fraction")

    def test_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            db = random_db(rng, int(rng.integers(3, 25)))
            theta, tau = db.theta, db.tau
            assert 0.0 <= theta <= math.sqrt(2) + 1e-12
            assert 0.0 <= tau <= 1.0


def _means_inputs(records):
    """pairwise_means' inputs for records, as build_historical_db makes them
    but in the records' order."""
    fractions = np.array([r.prescription.fractions for r in records], dtype=np.float64)
    doses = np.array([r.prescription.dose_per_fraction for r in records], dtype=np.float64)
    rx_scaler = RxScaler(fractions.min(), fractions.max(), doses.min(), doses.max())
    return distinct_rx(fractions, doses, rx_scaler), encode_features(records)


class TestPairwiseMeans:
    def test_no_comparable_pair_raises(self):
        records = [rec("a", 5, 400, energy="x06"), rec("b", 6, 400, intent="curative"),
                   rec("c", 7, 400)]
        with pytest.raises(IncomparablePair):
            pairwise_means(*_means_inputs(records))


_ENERGY = st.sampled_from(("x06", "x10", "x15"))
_INTENT = st.sampled_from(("curative", "palliative"))
_ICD10 = st.sampled_from(("C34.10", "C15.9"))
_MORPHOLOGY = st.sampled_from(("80463", "81406", "87203"))
_AGE_MODES = {
    "clinical": st.integers(0, 120),
    "extreme": st.integers(-(2 ** 63), 2 ** 63),
    "constant": st.just(60),
}


@st.composite
def _reference_sets(draw, max_size=24, rx_int=st.integers(1, 40) | st.integers(1, 2 ** 53), max_rx=4):
    """Records of one technique: a few repeated prescriptions (possibly
    huge), random missingness including rows with every feature missing,
    and an age column that is clinical, extreme or constant."""
    prescriptions = draw(st.lists(st.tuples(rx_int, rx_int), min_size=1, max_size=max_rx))
    ages = _AGE_MODES[draw(st.sampled_from(sorted(_AGE_MODES)))]
    size = draw(st.integers(2, max_size))
    records = []
    for index in range(size):
        fractions, dose = draw(st.sampled_from(prescriptions))
        records.append(rec(
            f"r{index}", fractions, dose,
            energy=draw(st.none() | _ENERGY),
            intent=draw(st.none() | _INTENT),
            icd10=draw(st.none() | _ICD10),
            morphology=draw(st.none() | _MORPHOLOGY),
            age_at_tx=draw(st.none() | ages),
        ))
    return records


def _brute_force_incomparable(records, schema):
    return sum(
        oracle_gower(a, b, schema) is None
        for j, a in enumerate(records) for k, b in enumerate(records) if j != k
    )


@seed(20211)
@settings(deadline=None, max_examples=120, database=None)
@given(records=_reference_sets(), data=st.data())
def test_pairwise_means_matches_oracle_and_ignores_order(records, data):
    schema = oracle_schema(records)
    order = data.draw(st.permutations(range(len(records))))
    shuffled = [records[k] for k in order]
    theta, tau = oracle_theta_tau(records, schema)
    if tau is None:
        for rows in (records, shuffled):
            with pytest.raises(IncomparablePair):
                pairwise_means(*_means_inputs(rows))
        return
    got = pairwise_means(*_means_inputs(records))
    assert close(got[0], theta) and close(got[1], tau)
    assert got[2] == _brute_force_incomparable(records, schema)
    assert pairwise_means(*_means_inputs(shuffled)) == got


@seed(20218)
@settings(deadline=None, max_examples=60, database=None)
@given(records=_reference_sets(max_size=40, max_rx=16))
def test_pair_blocks_give_one_theta_and_one_prescription_histogram(records):
    # Each block size splits the rows differently, so a row's own pairs sit
    # in a different block; the blocks still hold every pair once.
    rows, encoded = _means_inputs(records)
    size = len(records)
    results = []
    for block in (1, 2, 7, distance._PAIR_BLOCK):
        with mock.patch.object(distance, "_PAIR_BLOCK", block):
            assert sum(int(pairs.sum()) for _, pairs in distance._row_pairs(rows)) == size * (size - 1) // 2
            try:
                theta = pairwise_means(rows, encoded)[0].hex()
            except IncomparablePair:  # tau has no pair; theta is not returned
                theta = None
            # The masses are the counts over one total, S(S-1)/2.
            rx_mass = distance._histogram(distance._row_pairs(rows), distance.RX_DISTANCE_MAX, 0.05).mass
        results.append((theta, rx_mass.tolist()))
    assert all(result == results[0] for result in results)


@seed(20213)
@settings(deadline=None, max_examples=120, database=None)
@given(records=_reference_sets(rx_int=(
    st.integers(1, 40) | st.integers(2 ** 53 - 3, 2 ** 53 + 3)
    | st.integers(-(2 ** 53), 2 ** 53) | st.integers(-(2 ** 63), 2 ** 63 - 1)
)))
def test_build_over_int64_prescriptions_rejects_or_matches_oracle(records):
    # float64 holds every integer up to 2**53 exactly: beyond that the build
    # must refuse rather than scale distinct prescriptions to one point.
    if any(abs(part) > 2 ** 53 for r in records for part in r.rx):
        with pytest.raises(ValueError, match="RxTooLarge"):
            build_historical_db(records)
        return
    try:
        db = build_historical_db(records)
    except IncomparablePair:
        assert oracle_theta_tau(records, oracle_schema(records))[1] is None
        return
    theta, tau = oracle_theta_tau(records, db.feature_schema)
    assert close(db.theta, theta) and close(db.tau, tau)


_PRESCRIPTION_PART = st.integers(1, 40) | st.integers(2 ** 53 - 3, 2 ** 53)
_SCHEMA_AGE_MODES = {
    "missing": st.none(),
    "clinical": st.none() | st.integers(0, 120),
    "past 2**53": st.none() | st.integers(2 ** 53 - 2, 2 ** 63) | st.integers(-(2 ** 63), 2 - 2 ** 53),
}


@st.composite
def _column_references(draw):
    """Records whose columns hold the edges of the derived values: one
    prescription (both dimensions degenerate) or a few, up to 2**53; ages
    all missing, clinical, or past 2**53, where float64 rounds them; and
    energies of a one-label vocabulary or of three labels."""
    prescriptions = draw(st.lists(st.tuples(_PRESCRIPTION_PART, _PRESCRIPTION_PART), min_size=1, max_size=3))
    ages = _SCHEMA_AGE_MODES[draw(st.sampled_from(sorted(_SCHEMA_AGE_MODES)))]
    energies = draw(st.sampled_from((st.just("x06"), _ENERGY)))
    return [
        rec(f"r{k}", *draw(st.sampled_from(prescriptions)), energy=draw(energies),
            intent=draw(st.none() | _INTENT), age_at_tx=draw(ages))
        for k in range(draw(st.integers(2, 12)))
    ]


@seed(20261)
@settings(deadline=None, max_examples=80, database=None)
@given(records=_column_references())
@example(records=[rec("a", 5, 400, energy="x06"), rec("b", 5, 400, energy="x06")])
@example(records=[rec("a", 5, 400, energy="x06", age_at_tx=2 ** 53 + 1),
                  rec("b", 6, 2 ** 53, energy="x10", age_at_tx=2 ** 60 + 3)])
def test_build_derives_schema_and_scaler_from_its_columns(records):
    # Each range and vocabulary is the oracle's feature by feature, and the
    # scaler holds the integer prescriptions' min and max exactly: Python
    # compares a float with an int exactly.
    db = build_historical_db(records)
    assert db.feature_schema == oracle_schema(records)
    fs = [r.prescription.fractions for r in records]
    ds = [r.prescription.dose_per_fraction for r in records]
    assert astuple(db.rx_scaler) == (min(fs), max(fs), min(ds), max(ds))
    assert db.rx_scaler.degenerate == tuple(
        name for name, values in (("fractions", fs), ("dose_per_fraction", ds)) if min(values) == max(values)
    )


@st.composite
def _mirrored_references(draw, max_size=30, ages=st.integers(40, 90)):
    """A query at the centre of its reference set's scaled range, and
    records at prescriptions mirrored around it, so distinct prescriptions
    lie at exactly equal rho from the query. The half-widths are 0 (a
    degenerate dimension) or powers of two, so scaling and the differences
    to the centre are exact. Some records miss every feature, and so may the
    query. Ages from a small pool make many records tie in g."""
    half_f, half_d = draw(st.tuples(*[st.sampled_from((0, 1, 2, 4, 8))] * 2))
    cf, cd = draw(st.tuples(st.integers(9, 40), st.integers(9, 40)))
    offsets = draw(st.lists(
        st.tuples(st.integers(0, half_f), st.integers(0, half_d)), min_size=1, max_size=4
    ))
    mirrored = sorted({
        (cf + sf * i, cd + sd * j) for i, j in offsets for sf in (1, -1) for sd in (1, -1)
    })
    # The two corners pin the scaler's range with the query at its centre.
    prescriptions = [(cf - half_f, cd - half_d), (cf + half_f, cd + half_d)]
    size = draw(st.integers(2, max_size))
    prescriptions += draw(st.lists(st.sampled_from(mirrored), min_size=size - 2, max_size=size - 2))

    def features():
        if draw(st.integers(0, 4)) == 0:
            return {}
        return dict(
            energy=draw(st.none() | _ENERGY),
            intent=draw(st.none() | _INTENT),
            icd10=draw(st.none() | _ICD10),
            morphology=draw(st.none() | _MORPHOLOGY),
            age_at_tx=draw(st.none() | ages),
        )

    records = [rec(f"r{k}", f, d, **features()) for k, (f, d) in enumerate(prescriptions)]
    return rec("q", cf, cd, **features()), records


def _level_sizes(query, db):
    """Group sizes that end inside a level of equal rho, at its boundary and
    just past it, counted over all records and over the comparable ones,
    plus 1 and S."""
    records, schema = list(db.records), db.feature_schema
    bounds = (db.rx_scaler.f_min, db.rx_scaler.f_max, db.rx_scaler.d_min, db.rx_scaler.d_max)
    rho = [oracle_rho(query.prescription, r.prescription, *bounds) for r in records]
    comparable = [oracle_gower(query, r, schema) is not None for r in records]
    sizes = {1, db.size}
    for level in sorted(set(rho)):
        below = [k for k, value in enumerate(rho) if value <= level]
        for count in (len(below), sum(comparable[k] for k in below)):
            sizes.update((count - 1, count, count + 1))
    return sorted(k for k in sizes if 1 <= k <= db.size)


@seed(20214)
@settings(deadline=None, max_examples=150, database=None)
@given(drawn=_mirrored_references(), data=st.data())
def test_groups_over_equal_rho_levels_match_oracle(drawn, data):
    query, records = drawn
    try:
        db = build_historical_db(records)
    except IncomparablePair:
        return
    sizes = _level_sizes(query, db)
    pairs = data.draw(st.lists(
        st.tuples(st.sampled_from(sizes), st.sampled_from(sizes)), min_size=1, max_size=6
    ))
    for m, n in pairs:
        _assert_sizes_match_oracle(query, db, m, n, QueryProfile(query, db))
    # One profile reused over growing and then shrinking group sizes, as the
    # search reuses it, extends its walked prefix and reads it back.
    profile = QueryProfile(query, db)
    for m, n in sorted(pairs) + sorted(pairs, reverse=True):
        _assert_sizes_match_oracle(query, db, m, n, profile)


def _oracle_feature_order(query, db):
    """(rho, g, index) of every comparable reference record, sorted: the
    feature group's order by brute force."""
    records, schema = list(db.records), db.feature_schema
    bounds = (db.rx_scaler.f_min, db.rx_scaler.f_max, db.rx_scaler.d_min, db.rx_scaler.d_max)
    keyed = []
    for index, record in enumerate(records):
        g = oracle_gower(query, record, schema)
        if g is not None:
            keyed.append((oracle_rho(query.prescription, record.prescription, *bounds), g, index))
    return sorted(keyed)


@seed(20215)
@settings(deadline=None, max_examples=100, database=None)
@given(
    drawn=st.sampled_from((st.just(60), st.sampled_from((50, 70)), st.integers(40, 90))).flatmap(
        lambda ages: _mirrored_references(max_size=60, ages=ages)
    ),
    data=st.data(),
)
def test_nearest_comparable_is_a_prefix_of_the_brute_force_order(drawn, data):
    # One profile answers group sizes in any order, below, at and beyond
    # the comparable count, and ranks only part of the level it cuts.
    query, records = drawn
    try:
        db = build_historical_db(records)
    except IncomparablePair:
        return
    expected = _oracle_feature_order(query, db)
    profile = QueryProfile(query, db)
    for k in data.draw(st.lists(st.integers(1, db.size + 2), min_size=1, max_size=8)):
        take, g = profile.nearest_comparable(k)
        assert take.tolist() == [index for _, _, index in expected[:k]]
        assert all(close(got, want) for got, (_, want, _) in zip(g.tolist(), expected[:k]))


def _value_or_reason(group, profile, k):
    try:
        return group(profile, k)
    except InsufficientNeighbors as exc:
        return str(exc)


@seed(20217)
@settings(deadline=None, max_examples=120, database=None)
@given(drawn=_mirrored_references(), data=st.data())
def test_reused_profile_gives_the_values_of_fresh_profiles(drawn, data):
    # One profile keeps R by m and F by n. Over group sizes in any order,
    # repeated and beyond the reference set or its comparable records, it
    # gives bit-equal values and the same raises as a fresh profile per
    # call, and detect on it gives the verdict of the record.
    query, records = drawn
    try:
        db = build_historical_db(records)
    except IncomparablePair:
        return
    sizes = st.integers(1, db.size + 1)
    pairs = data.draw(st.lists(st.tuples(sizes, sizes), min_size=1, max_size=8))
    pairs += data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=8))
    profile = QueryProfile(query, db)
    for m, n in pairs:
        for group, k in ((closest_m_rx_distance, m), (closest_n_feature_distance, n)):
            assert _value_or_reason(group, profile, k) == _value_or_reason(group, QueryProfile(query, db), k)
    params = ModelParams(
        a=data.draw(st.floats(0.05, 50.0)), b=data.draw(st.floats(0.05, 50.0)),
        mu=data.draw(st.floats(0.001, 0.1)), nu=data.draw(st.floats(0.001, 0.1)),
    )
    expected = _outcome(query, db, params)
    assert _outcome(profile, db, params) == expected
    assert _outcome(profile, db, params) == expected


def _assert_sizes_match_oracle(query, db, m, n, profile):
    records, schema = list(db.records), db.feature_schema
    expected, _ = oracle_closest_m(query, records, schema, m)
    assert close(closest_m_rx_distance(profile, m), expected)
    expected_f, ids_f = oracle_closest_n(query, records, schema, n)
    if expected_f is None:
        with pytest.raises(InsufficientNeighbors):
            closest_n_feature_distance(profile, n)
    else:
        assert close(closest_n_feature_distance(profile, n), expected_f)
        _assert_members_match_oracle(query, db, profile, n, ids_f)


def _r_f_status(query, db, params):
    try:
        verdict = detect(query, db, params)
    except InsufficientNeighbors as exc:
        return str(exc)
    return verdict.r, verdict.f, verdict.status


@seed(20212)
@settings(deadline=None, max_examples=60, database=None)
@given(
    records=_reference_sets(),
    queries=_reference_sets(max_size=4),
    fractions=st.tuples(st.floats(0.01, 0.1), st.floats(0.01, 0.1)),
    multipliers=st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 2.0)),
    data=st.data(),
)
def test_detect_ignores_reference_order(records, queries, fractions, multipliers, data):
    order = data.draw(st.permutations(range(len(records))))
    try:
        db = build_historical_db(records)
    except IncomparablePair:
        return
    shuffled = build_historical_db([records[k] for k in order])
    params = ModelParams(*multipliers, *fractions)
    for query in queries:
        assert _r_f_status(query, shuffled, params) == _r_f_status(query, db, params)


def _gower_or_nan(a, b, schema):
    try:
        return gower_distance(a, b, schema)
    except IncomparablePair:
        return math.nan


@st.composite
def _kernel_queries(draw, records):
    """A query at one of the reference's prescriptions or anywhere, with
    categories the reference never saw (x18, adjuvant, C99.9, 99999) and ages
    that may lie outside the reference's range."""
    fractions, dose = draw(
        st.sampled_from([r.rx for r in records]) | st.tuples(st.integers(1, 40), st.integers(1, 40))
    )
    return rec(
        "q", fractions, dose,
        energy=draw(st.none() | _ENERGY | st.just("x18")),
        intent=draw(st.none() | _INTENT | st.just("adjuvant")),
        icd10=draw(st.none() | _ICD10 | st.just("C99.9")),
        morphology=draw(st.none() | _MORPHOLOGY | st.just("99999")),
        age_at_tx=draw(st.none() | st.integers(-500, 500)),
    )


@seed(20215)
@settings(deadline=None, max_examples=120, database=None)
@given(records=_reference_sets(), data=st.data())
def test_array_gower_equals_scalar_gower_exactly(records, data):
    # The array kernel promises gower_distance's bits, not the oracles'
    # tolerance: over the pairs of a reference set and along a profile's
    # walk, with a constant (degenerate) or extreme age column, out-of-range
    # query ages and unseen query categories.
    schema = oracle_schema(records)
    expected = [
        _gower_or_nan(records[j], records[k], schema)
        for j in range(len(records)) for k in range(j + 1, len(records))
    ]
    encoded = encode_features(records)
    assert encoded.schema == schema
    columns = encoded.columns
    pairs = [(col, col.values[:, None], col.values, col.present[:, None] & col.present) for col in columns]
    pattern = encoded.pattern
    got = _gower(pairs, encoded.denominators[pattern[:, None], pattern])[np.triu_indices(len(records), 1)]
    assert np.array_equal(got, expected, equal_nan=True)

    try:
        db = build_historical_db(records)
    except IncomparablePair:
        return
    assert db.feature_schema == schema
    for query in data.draw(st.lists(_kernel_queries(records), min_size=1, max_size=4)):
        index, g = QueryProfile(query, db).nearest_comparable(db.size)
        scalar = [_gower_or_nan(query, r, schema) for r in db.records]
        assert sorted(index.tolist()) == [i for i, value in enumerate(scalar) if not math.isnan(value)]
        assert g.tolist() == [scalar[i] for i in index.tolist()]


def _presence_code(flags) -> int:
    """flags as a binary number, the first flag the most significant bit."""
    return int("".join("1" if flag else "0" for flag in flags), 2)


def test_denominators_count_the_features_two_patterns_share():
    encoded = encode_features([rec("r0", 5, 400)])
    size = 1 << len(encoded.columns)
    assert encoded.denominators.shape == (size, size)
    for q in range(size):
        for p in range(size):
            shared = bin(q & p).count("1")
            if shared:
                assert encoded.denominators[q, p] == shared
            else:
                assert math.isnan(encoded.denominators[q, p])


@seed(20216)
@settings(deadline=None, max_examples=80, database=None)
@given(records=_reference_sets(), data=st.data())
def test_presence_patterns_give_the_comparable_records(records, data):
    # A record's pattern reads its presence flags in schema order, the first
    # feature the most significant bit, so the distinct patterns ascend in
    # the order of the distinct presence rows. A walk gives exactly the
    # records whose pattern shares a bit with the query's.
    encoded = encode_features(records)
    present = np.column_stack([col.present for col in encoded.columns])
    assert encoded.pattern.tolist() == [_presence_code(row) for row in present]
    assert np.unique(encoded.pattern).tolist() == [_presence_code(row) for row in np.unique(present, axis=0)]
    try:
        db = build_historical_db(records)
    except IncomparablePair:
        return
    pattern = db.encoded.pattern
    for query in data.draw(st.lists(_kernel_queries(records), min_size=1, max_size=4)):
        mask = _presence_code(getattr(query, col.name) is not None for col in db.encoded.columns)
        index, _ = QueryProfile(query, db).nearest_comparable(db.size)
        assert sorted(index.tolist()) == sorted(db.rx_rows.members[(pattern & mask) != 0].tolist())


def test_row_grouped_layout_keeps_build_outputs_and_record_indices():
    # Five regimens drawn at random interleave in input order, so the
    # encoded features, grouped by prescription row, are a true permutation
    # of db.records, and a query at a regimen walks a single-row level first.
    rng = np.random.default_rng(19)
    regimens = [(5, 400), (10, 300), (20, 200), (25, 180), (30, 200)]

    def at_regimen(record):
        fractions, dose = regimens[int(rng.integers(len(regimens)))]
        return replace(record, prescription=Prescription(fractions, dose, fractions * dose, fractions * dose))

    records = [at_regimen(random_record(rng, i, missing_rate=0.3)) for i in range(300)]
    db = build_historical_db(records)
    assert not np.array_equal(db.rx_rows.members, np.arange(db.size))
    shuffled = build_historical_db([records[k] for k in rng.permutation(len(records))])
    assert (shuffled.theta, shuffled.tau, shuffled.incomparable_pairs) == (
        db.theta, db.tau, db.incomparable_pairs
    )
    for ours, theirs in zip(pairwise_histograms(db, 0.02), pairwise_histograms(shuffled, 0.02)):
        assert np.array_equal(ours.mass, theirs.mass)
    queries = [at_regimen(random_record(rng, 900 + k)) for k in range(10)]
    queries += [random_record(rng, 950 + k) for k in range(10)]
    for query in queries:
        profile = QueryProfile(query, db)
        for k in (1, 60, db.size):
            index, g = profile.nearest_comparable(k)
            assert g.tolist() == [
                gower_distance(query, db.records[i], db.feature_schema) for i in index.tolist()
            ]


class TestPairwiseHistograms:
    def test_degenerate_db_single_zero_bin(self):
        records = [rec(f"r{i}", 5, 400, energy="x06", icd10="C34.10", age_at_tx=60)
                   for i in range(3)]
        db = build_historical_db(records)
        assert db.rx_scaler.degenerate == ("fractions", "dose_per_fraction")
        rx_hist, f_hist = pairwise_histograms(db, 0.1)
        assert rx_hist.mass[0] == 1.0 and rx_hist.mass[1:].sum() == 0.0
        assert f_hist.mass[0] == 1.0

    def test_two_record_db_one_bin_each(self, schema):
        r1 = rec("a", 5, 400, energy="x06", icd10="C34.10", age_at_tx=60)
        r2 = rec("b", 10, 300, energy="x15", icd10="C34.90", age_at_tx=70)
        db = build_historical_db([r1, r2])
        rx_hist, f_hist = pairwise_histograms(db, 0.05)
        assert (rx_hist.mass > 0).sum() == 1
        assert (f_hist.mass > 0).sum() == 1

    def test_masses_sum_to_one_and_cover_ranges(self):
        rng = np.random.default_rng(14)
        db = random_db(rng, 24)
        rx_hist, f_hist = pairwise_histograms(db, 0.03)
        assert abs(rx_hist.mass.sum() - 1.0) < 1e-9
        assert abs(f_hist.mass.sum() - 1.0) < 1e-9
        assert rx_hist.bin_edges[-1] >= math.sqrt(2)
        assert f_hist.bin_edges[-1] >= 1.0

    def test_shared_prescriptions_spike_at_zero(self, small_db):
        rx_hist, _ = pairwise_histograms(small_db, 0.05)
        assert rx_hist.mass[0] == rx_hist.mass.max()

    def test_counts_match_oracle_pair_distances(self):
        # In the 257-record reference every seventh record has no feature at
        # all. The last reference has a constant age column.
        rng = np.random.default_rng(15)
        records = [random_record(rng, i) for i in range(300)]
        featureless = [
            replace(r, energy=None, intent=None, icd10=None, morphology=None, age_at_tx=None)
            if i % 7 == 0 else r
            for i, r in enumerate(records[:257])
        ]
        constant_age = [r if r.age_at_tx is None else replace(r, age_at_tx=60) for r in records[:40]]
        # Two records at opposite corners, both distances at the top of their
        # range, which a width of sqrt(2) / 10 ends just below.
        corners = [rec("a", 5, 200, energy="x06", age_at_tx=40), rec("b", 10, 400, energy="x15", age_at_tx=80)]
        for records, width in ((records, 0.05), (records[:256], 0.05), (featureless, 0.05),
                               (constant_age, 0.05), (corners, math.sqrt(2) / 10)):
            db = build_historical_db(records)
            refs, schema = list(db.records), db.feature_schema
            f_lo, f_hi, d_lo, d_hi = (db.rx_scaler.f_min, db.rx_scaler.f_max,
                                      db.rx_scaler.d_min, db.rx_scaler.d_max)
            rhos, gowers = [], []
            for j in range(db.size):
                for k in range(j + 1, db.size):
                    rhos.append(oracle_rho(refs[j].prescription, refs[k].prescription,
                                           f_lo, f_hi, d_lo, d_hi))
                    g = oracle_gower(refs[j], refs[k], schema)
                    if g is not None:
                        gowers.append(g)
            for hist, values in zip(pairwise_histograms(db, width), (rhos, gowers)):
                counts = np.histogram(values, bins=hist.bin_edges)[0]
                assert counts.sum() == len(values)
                assert np.array_equal(np.rint(hist.mass * len(values)), counts)

    @pytest.mark.parametrize("bin_width", [math.sqrt(2) / 10, 1 / 49])
    def test_pairs_at_the_top_of_the_range_stay_in(self, bin_width):
        # Opposite corners of the prescription range, every feature
        # different: count * bin_width rounds just below sqrt(2) for the
        # first width and just below 1 for the second.
        db = build_historical_db([rec("a", 5, 200, energy="x06", icd10="C34.10", age_at_tx=40),
                                  rec("b", 10, 400, energy="x15", icd10="C61", age_at_tx=80)])
        for hist in pairwise_histograms(db, bin_width):
            assert hist.mass[-1] == 1.0 and hist.mass.sum() == 1.0

    def test_last_edge_reaches_the_top_of_the_range(self):
        widths = {1 / k for k in range(1, 200)} | {k / 1000 for k in range(1, 1000)}
        for upper in (distance.RX_DISTANCE_MAX, 1.0):
            for width in widths | {upper / k for k in range(1, 200)}:
                edges = _edges(upper, width)
                assert edges[-1] >= upper
                assert np.array_equal(edges[:-1], width * np.arange(len(edges) - 1, dtype=np.float64))

    def test_bad_bin_width(self, small_db):
        with pytest.raises(ValueError):
            pairwise_histograms(small_db, 0.0)

    def test_bin_width_past_the_bin_bound_rejected_before_allocation(self, small_db):
        # One prescription bin too many; its edges alone would take 8 MB.
        width = distance.RX_DISTANCE_MAX / (distance.MAX_HISTOGRAM_BINS + 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as raised:
                pairwise_histograms(small_db, width)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(raised.value) == f"bin_width {width!r} gives 1000001 bins over [0, sqrt(2)], more than 1000000"
        assert peak < 1 << 20


@st.composite
def _histogram_references(draw):
    """Records drawn from a small pool of feature rows, so rows repeat and a
    categorical tuple holds one record or many. A row may miss every
    feature; ages may be missing, constant (a zero-width range), clinical or
    extreme."""
    ages = _AGE_MODES[draw(st.sampled_from(sorted(_AGE_MODES)))]

    def features():
        if draw(st.integers(0, 5)) == 0:
            return {}
        return dict(
            energy=draw(st.none() | _ENERGY),
            intent=draw(st.none() | _INTENT),
            icd10=draw(st.none() | _ICD10),
            morphology=draw(st.none() | _MORPHOLOGY),
            age_at_tx=draw(st.none() | ages),
        )

    pool = [features() for _ in range(draw(st.integers(1, 6)))]
    size = draw(st.integers(2, 30))
    return [
        rec(f"r{k}", draw(st.integers(1, 5)), 200,
            **(draw(st.sampled_from(pool)) if draw(st.booleans()) else features()))
        for k in range(size)
    ]


@seed(20216)
@settings(deadline=None, max_examples=100, database=None)
@given(
    records=_histogram_references(),
    bin_width=st.sampled_from((0.05, 0.1, 0.25, 1.0, 1 / 49)),
    cell_block=st.sampled_from((1, 64, distance._CELL_BLOCK)),
)
def test_feature_histogram_counts_match_oracle_pairs(records, bin_width, cell_block):
    # The counts from pair classes against every pair's oracle distance,
    # binned by the histogram's own edges; small cell blocks split the ages
    # into several blocks.
    schema = oracle_schema(records)
    gowers = [
        g for j, a in enumerate(records) for b in records[j + 1:]
        if (g := oracle_gower(a, b, schema)) is not None
    ]
    try:
        db = build_historical_db(records)
    except IncomparablePair:
        assert gowers == []
        return
    with mock.patch.object(distance, "_CELL_BLOCK", cell_block):
        _, hist = pairwise_histograms(db, bin_width)
    counts = np.histogram(gowers, bins=_edges(1.0, bin_width))[0]
    assert np.array_equal(np.rint(hist.mass * len(gowers)), counts)
