"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The synthetic end-to-end experiment (criteria 6-8) uses planted-cluster
cohorts where separability is known by construction; the expected values in
the fill-rule fixture (criterion 5) are hand-enumerated.
"""

from __future__ import annotations

import dataclasses
import io
import time

import numpy as np
import pytest

from rxcheck.detector import ModelParams, detect
from rxcheck.distance import (
    IncomparablePair,
    InsufficientNeighbors,
    QueryProfile,
    ScaledRx,
    closest_m_rx_distance,
    closest_n_feature_distance,
    gower_distance,
    rx_distance,
    scale_rx,
)
from rxcheck.evaluate import (
    ConfusionMatrix,
    LabeledPrediction,
    consensus_analysis,
    macro_metrics,
)
from rxcheck.ingest import build_historical_db
from rxcheck.ranges import Boundaries, QuantityBounds, TechniqueBounds
from rxcheck.seeding import substream
from rxcheck.simulate import (
    KIND_FEATURE,
    KIND_RX_SWAP,
    generate_sa_set,
    mutate_features,
    swap_leading_digits,
    verify_rarity,
    write_sa_set,
)
from rxcheck.train import (
    SearchSpace,
    f1_metric,
    search_parameters,
    split_holdout,
    write_trace_csv,
)

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
from synth import make_cohort

PIPELINE_SEED = 101
ALTERNATE_SEED = 202


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: metric oracle equivalence on 200 random reference sets
# ---------------------------------------------------------------------------

def test_criterion_01_metric_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(1001)
    checked = 0
    for _ in range(200):
        size = int(rng.integers(3, 51))
        db = random_db(rng, size, missing_rate=0.15)
        records = list(db.records)
        schema = db.feature_schema

        theta, tau = oracle_theta_tau(records, schema)
        assert close(db.theta, theta) and close(db.tau, tau)

        query = random_record(rng, 10_000)
        for j in map(int, rng.integers(0, size, 3)):
            expected_rho = oracle_rho(
                query.prescription, records[j].prescription,
                db.rx_scaler.f_min, db.rx_scaler.f_max,
                db.rx_scaler.d_min, db.rx_scaler.d_max,
            )
            scaled_q = scale_rx(query.prescription, db.rx_scaler)
            scaled_j = scale_rx(records[j].prescription, db.rx_scaler)
            assert close(rx_distance(scaled_q, scaled_j), expected_rho)
            expected_g = oracle_gower(query, records[j], schema)
            if expected_g is not None:
                assert close(gower_distance(query, records[j], schema), expected_g)

        profile = QueryProfile(query, db)
        m = int(rng.integers(1, size + 1))
        expected_r, _ = oracle_closest_m(query, records, schema, m)
        assert close(closest_m_rx_distance(profile, m), expected_r)

        n = int(rng.integers(1, size + 1))
        expected_f, _ = oracle_closest_n(query, records, schema, n)
        if expected_f is None:
            with pytest.raises(InsufficientNeighbors):
                closest_n_feature_distance(profile, n)
        else:
            assert close(closest_n_feature_distance(profile, n), expected_f)
        checked += 1
    elapsed = time.monotonic() - started
    _report(1, checked == 200 and elapsed < 60.0,
            f"200 random reference sets match brute force at 1e-12 in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: metric axioms
# ---------------------------------------------------------------------------

def test_criterion_02_metric_axioms():
    rng = np.random.default_rng(1002)

    # Prescription distance axioms on random scaled points.
    for _ in range(1000):
        a, b = (ScaledRx(*rng.uniform(-0.2, 1.2, 2)) for _ in range(2))
        assert rx_distance(a, b) >= 0.0
        assert rx_distance(a, b) == rx_distance(b, a)
        assert rx_distance(a, a) == 0.0

    # Feature distance on 10^4 random pairs including missing values.
    records = [random_record(rng, i, missing_rate=0.25) for i in range(250)]
    schema = oracle_schema(records)
    pairs_checked = 0
    for _ in range(10_000):
        i, j = map(int, rng.integers(0, len(records), 2))
        try:
            g = gower_distance(records[i], records[j], schema)
        except IncomparablePair:
            continue
        assert 0.0 <= g <= 1.0
        assert g == gower_distance(records[j], records[i], schema)
        pairs_checked += 1
    for record in records[:50]:
        if any(getattr(record, spec.name) is not None for spec in schema):
            assert gower_distance(record, record, schema) == 0.0

    # Affine invariance: positive rescalings of the numeric feature leave
    # every pairwise feature distance unchanged.
    base = [random_record(rng, i, missing_rate=0.1) for i in range(40)]
    bound = oracle_schema(base)
    worst = 0.0
    for _ in range(100):
        alpha = float(rng.uniform(0.1, 10.0))
        beta = float(rng.uniform(-50.0, 50.0))
        transformed = [
            dataclasses.replace(
                r, age_at_tx=None if r.age_at_tx is None else alpha * r.age_at_tx + beta)
            for r in base
        ]
        bound_t = oracle_schema(transformed)
        for _ in range(20):
            i, j = map(int, rng.integers(0, len(base), 2))
            try:
                g = gower_distance(base[i], base[j], bound)
            except IncomparablePair:
                continue
            g_t = gower_distance(transformed[i], transformed[j], bound_t)
            assert close(g, g_t)
            worst = max(worst, abs(g - g_t))
    _report(2, True,
            f"axioms hold on {pairs_checked} comparable pairs; affine drift <= {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion 3: monotonicity suite
# ---------------------------------------------------------------------------

def test_criterion_03_monotonicity():
    rng = np.random.default_rng(1003)

    for _ in range(100):  # R(i, m) non-decreasing in m
        db = random_db(rng, int(rng.integers(4, 26)))
        profile = QueryProfile(random_record(rng, 20_000), db)
        values = [closest_m_rx_distance(profile, m) for m in range(1, db.size + 1)]
        assert all(values[k] <= values[k + 1] + 1e-15 for k in range(len(values) - 1))

    for _ in range(100):  # F(i, n) non-decreasing while n <= same_rx_count
        db = random_db(rng, int(rng.integers(6, 26)), missing_rate=0.0)
        query = db.records[int(rng.integers(0, db.size))]
        same = db.rx_index[query.rx]
        profile = QueryProfile(query, db)
        values = [closest_n_feature_distance(profile, n) for n in range(1, same + 1)]
        assert all(values[k] <= values[k + 1] + 1e-15 for k in range(len(values) - 1))

    shrank = 0
    for _ in range(100):  # flag sets shrink as a or b increases
        db = random_db(rng, int(rng.integers(6, 22)))
        queries = [random_record(rng, 30_000 + q) for q in range(6)]
        a, b = float(rng.uniform(0.05, 1.2)), float(rng.uniform(0.05, 1.2))
        mu, nu = float(rng.uniform(0.01, 0.1)), float(rng.uniform(0.01, 0.1))
        base = ModelParams(a, b, mu, nu)
        harder_a = ModelParams(a * float(rng.uniform(1.2, 3.0)), b, mu, nu)
        harder_b = ModelParams(a, b * float(rng.uniform(1.2, 3.0)), mu, nu)

        def flagged(params):
            return {q.record_id for q in queries if detect(q, db, params).flagged}

        base_set = flagged(base)
        assert flagged(harder_a) <= base_set
        assert flagged(harder_b) <= base_set
        shrank += 1
    _report(3, shrank == 100, "R/F monotone in m/n; flag sets shrink in a and b (100 each)")


# ---------------------------------------------------------------------------
# Criterion 4: decision-logic conformance (all 8 combinations)
# ---------------------------------------------------------------------------

def test_criterion_04_decision_logic():
    records = []
    for k in range(8):
        records.append(rec(f"a{k}", 10, 200, energy="x06", intent="curative",
                           icd10="C34.10", morphology="80463", age_at_tx=60 + k))
    for k in range(4):
        records.append(rec(f"b{k}", 20, 300, energy="x15", intent="palliative",
                           icd10="C15.9", morphology="81406", age_at_tx=50 + k))
    db = build_historical_db(records)
    params = ModelParams(a=0.5, b=0.5, mu=0.1, nu=0.1)

    def boundaries(fx_bounds, dose_bounds):
        return Boundaries(
            by_technique={"3D": TechniqueBounds(
                bed=QuantityBounds(0, 10**9),
                fractions=QuantityBounds(*fx_bounds),
                dose_per_fraction=QuantityBounds(*dose_bounds))},
            check_bed=False,
        )

    passing_bounds = boundaries((1, 35), (150, 2000))
    cases = []
    for range_violation in (False, True):
        for r_high in (False, True):
            for f_high in (False, True):
                kwargs = dict(energy="x06", intent="curative", icd10="C34.10",
                              morphology="80463", age_at_tx=62)
                if f_high:
                    kwargs = dict(energy="x15", intent="palliative", icd10="C15.9",
                                  morphology="81406", age_at_tx=62)
                fx, dose = (2, 1900) if r_high else (10, 200)
                record = rec("q", fx, dose, **kwargs)
                if range_violation:
                    bounds = boundaries((5, 35), (150, 2000)) if r_high else \
                        boundaries((1, 35), (150, 180))
                else:
                    bounds = passing_bounds
                verdict = detect(record, db, params, bounds)
                if range_violation:
                    expected = "RangeFlag"
                elif r_high:
                    expected = "Type1Flag"
                elif f_high:
                    expected = "Type2Flag"
                else:
                    expected = "Pass"
                cases.append(verdict.status == expected)
                # Invariant restated on the verdict itself.
                assert (verdict.status == "Type1Flag") == (
                    not verdict.range_violations and verdict.r > verdict.t_rx)
                assert (verdict.status == "Type2Flag") == (
                    not verdict.range_violations and verdict.r <= verdict.t_rx
                    and verdict.f is not None and verdict.f > verdict.t_f)
    _report(4, all(cases), "all 8 {range, R, F} combinations map to the required status")


# ---------------------------------------------------------------------------
# Criterion 5: closest-n fill rule against hand-enumerated neighbors
# ---------------------------------------------------------------------------

def test_criterion_05_fill_rule_fixture():
    base = dict(energy="x06", intent="curative", icd10="C34.10", morphology="80463")
    alt = dict(energy="x15", intent="palliative", icd10="C15.9", morphology="81406")

    def profile(k_diffs):
        fields = dict(base)
        for name in list(fields)[:k_diffs]:
            fields[name] = alt[name]
        return fields

    records = []
    # Exactly 12 records sharing the query prescription (10, 200); their
    # feature distances to the query are k/5 for k differing categoricals.
    same_diffs = [0, 1, 1, 1, 2, 2, 3, 3, 4, 4, 2, 1]
    for idx, k in enumerate(same_diffs):
        records.append(rec(f"s{idx:02d}", 10, 200, age_at_tx=60, **profile(k)))
    # 15 next-closest records at (11, 200).
    next_diffs = [0, 0, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 4]
    for idx, k in enumerate(next_diffs):
        records.append(rec(f"t{idx:02d}", 11, 200, age_at_tx=60, **profile(k)))
    # Far prescriptions to pin the scaler and stretch the age range.
    records.append(rec("u00", 30, 800, age_at_tx=40, **base))
    records.append(rec("u01", 30, 800, age_at_tx=80, **alt))

    db = build_historical_db(records)
    query = rec("query", 10, 200, age_at_tx=60, **base)
    assert db.rx_index[query.rx] == 12

    # n = 10: the ten smallest feature distances within the same-Rx dozen.
    profile = QueryProfile(query, db)
    assert profile.same_rx_count == 12  # at least 10: no fill needed
    expected10 = ["s00", "s01", "s02", "s03", "s11", "s04", "s05", "s10", "s06", "s07"]
    assert _group_ids(profile, 10) == expected10
    got10 = closest_n_feature_distance(profile, 10)
    assert got10 == pytest.approx((0 + 0.2 * 4 + 0.4 * 3 + 0.6 * 2) / 10, rel=1e-12)

    # n = 20: all 12 same-Rx terms first, then 8 drawn from the next-closest
    # prescription ordered by feature distance then input order.
    # Fewer same-Rx records (12) than n = 20, so the group is filled.
    expected20 = expected10 + ["s08", "s09"] + [
        "t00", "t01", "t02", "t03", "t04", "t05", "t06", "t07"]
    assert _group_ids(profile, 20) == expected20
    got20 = closest_n_feature_distance(profile, 20)
    same_sum = 0 + 0.2 * 4 + 0.4 * 3 + 0.6 * 2 + 0.8 * 2
    fill_sum = 0 + 0 + 0.2 * 3 + 0.4 * 3
    assert got20 == pytest.approx((same_sum + fill_sum) / 20, rel=1e-12)

    _report(5, True, "n=10 and n=20 selections equal the hand-enumerated neighbor lists")


def _group_ids(profile, n):
    """Record ids of the profile's feature group of size n, in order."""
    return [profile.db.records[k].record_id for k in profile.nearest_comparable(n)[0].tolist()]


# ---------------------------------------------------------------------------
# Criteria 6-8: synthetic end-to-end experiment
# ---------------------------------------------------------------------------

COHORT_SEEDS = {"3D": 71, "IMRT": 72, "SBRT": 73}


def _forge_out_of_sample(bases, reference_db, seed):
    """5 digit swaps + 5 feature mutations built from records outside the
    reference set, each verified rare against it."""
    rng = substream(seed, "oos-forge")
    anomalies = []
    for base in bases[:5]:
        mutated, descriptor = swap_leading_digits(base)
        check = verify_rarity(mutated, reference_db, 1, descriptor)
        assert check.accepted
        anomalies.append(mutated)
    vocabularies = {spec.name: spec.vocabulary for spec in reference_db.feature_schema}
    for base in bases[5:10]:
        fields = [str(f) for f in rng.choice(("energy", "intent", "icd10"), 2, replace=False)]
        updates = {}
        for name in fields:
            choices = [v for v in vocabularies[name] if v != getattr(base, name)]
            updates[name] = choices[int(rng.integers(len(choices)))]
        mutated, descriptor = mutate_features(base, updates)
        check = verify_rarity(mutated, reference_db, 1, descriptor)
        assert check.accepted
        anomalies.append(mutated)
    return anomalies


def run_experiment(technique: str, seed: int):
    """The full pipeline on one synthetic technique cohort; returns every
    artifact needed by criteria 6, 7, and 8."""
    cohort, extras = make_cohort(
        technique, per_cluster=100, seed=COHORT_SEEDS[technique], extra=20)
    reference, pool = split_holdout(cohort, 20, substream(seed, f"split:{technique}"))
    reference_db = build_historical_db(reference)
    sa_set = generate_sa_set(
        reference_db,
        {KIND_RX_SWAP: 10, KIND_FEATURE: 10},
        threshold=1,
        rng=substream(seed, f"forge:{technique}"),
    )
    space = SearchSpace(budget=100, runs_per_point=50, strategy="adaptive")
    outcome = search_parameters(space, reference_db, pool, sa_set, seed=seed)

    oos_normals = extras[:10]
    oos_anomalies = _forge_out_of_sample(extras[10:20], reference_db, seed)
    flagged_anomalies = sum(
        detect(record, reference_db, outcome.best.params).flagged
        for record in oos_anomalies
    )
    flagged_normals = sum(
        detect(record, reference_db, outcome.best.params).flagged
        for record in oos_normals
    )
    oos_f1 = f1_metric(
        tp=flagged_anomalies,
        fp=flagged_normals,
        fn=len(oos_anomalies) - flagged_anomalies,
    )

    sa_csv = io.StringIO()
    sa_json = io.StringIO()
    write_sa_set(sa_csv, sa_json, sa_set)
    trace_csv = io.StringIO()
    write_trace_csv(trace_csv, outcome)
    return {
        "reference_db": reference_db,
        "pool_ids": tuple(r.record_id for r in pool),
        "sa_set": sa_set,
        "outcome": outcome,
        "oos_f1": oos_f1,
        "bytes": (
            sa_csv.getvalue() + sa_json.getvalue() + trace_csv.getvalue()
        ).encode(),
    }


@pytest.fixture(scope="module")
def experiments():
    started = time.monotonic()
    results = {tech: run_experiment(tech, PIPELINE_SEED) for tech in ("3D", "IMRT", "SBRT")}
    results["elapsed"] = time.monotonic() - started
    return results


def test_criterion_06_synthetic_end_to_end(experiments):
    summaries = []
    ok = True
    for technique in ("3D", "IMRT", "SBRT"):
        result = experiments[technique]
        training_f1 = result["outcome"].best.f1_mean
        oos_f1 = result["oos_f1"]
        ok = ok and training_f1 >= 0.90 and oos_f1 >= 0.80
        summaries.append(f"{technique}: train {training_f1:.3f}, oos {oos_f1:.3f}")
    elapsed = experiments["elapsed"]
    ok = ok and elapsed < 600.0
    _report(6, ok, "; ".join(summaries) + f"; total {elapsed:.1f}s")


def test_criterion_07_reproducibility(experiments):
    first = experiments["3D"]
    repeat = run_experiment("3D", PIPELINE_SEED)
    identical = (
        repeat["bytes"] == first["bytes"]
        and repeat["pool_ids"] == first["pool_ids"]
        and repeat["outcome"] == first["outcome"]
    )

    alternate = run_experiment("3D", ALTERNATE_SEED)
    traces_differ = [e.params for e in alternate["outcome"].trace] != [
        e.params for e in first["outcome"].trace
    ]
    train_drift = abs(alternate["outcome"].best.f1_mean - first["outcome"].best.f1_mean)
    oos_drift = abs(alternate["oos_f1"] - first["oos_f1"])
    ok = identical and traces_differ and train_drift <= 0.05 and oos_drift <= 0.05
    _report(7, ok,
            f"same seed byte-identical: {identical}; new-seed drift "
            f"train {train_drift:.3f}, oos {oos_drift:.3f}")


def test_criterion_08_rarity_verification(experiments):
    violations = 0
    checked = 0
    for technique in ("3D", "IMRT", "SBRT"):
        result = experiments[technique]
        records = result["reference_db"].records
        for sa in result["sa_set"]:
            checked += 1
            if sa.mutation.kind == KIND_RX_SWAP:
                count = sum(1 for r in records if r.rx == sa.mutated.rx)
                if count > 1:
                    violations += 1
            else:
                for change in sa.mutation.changes:
                    count = sum(
                        1 for r in records
                        if r.rx == sa.mutated.rx
                        and getattr(r, change.field) == change.new
                    )
                    if count > 1:
                        violations += 1
    _report(8, violations == 0,
            f"{checked} anomalies re-scanned; {violations} conditional counts above 1")


# ---------------------------------------------------------------------------
# Criterion 9: f1 metric cross-check
# ---------------------------------------------------------------------------

def test_criterion_09_f1_cross_check():
    rng = np.random.default_rng(1009)
    for _ in range(100):
        tp = int(rng.integers(1, 100))
        fp = int(rng.integers(0, 100))
        fn = int(rng.integers(0, 100))
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        harmonic = 2 * precision * recall / (precision + recall)
        assert close(f1_metric(tp, fp, fn), harmonic)
    perfect = macro_metrics(ConfusionMatrix(10, 0, 0, 10))
    assert dataclasses.astuple(perfect) == (1.0, 1.0, 1.0, 1.0)
    _report(9, True, "f1 equals 2PR/(P+R) on 100 triples; perfect macro metrics are all 1")


# ---------------------------------------------------------------------------
# Criterion 10: consensus semantics
# ---------------------------------------------------------------------------

def test_criterion_10_consensus_semantics():
    rng = np.random.default_rng(1010)
    truths = [1] * 17 + [0] * 30  # the mock peer-review class sizes
    for trial in range(50):
        raters = {}
        for k in range(3):
            accuracy = float(rng.uniform(0.3, 0.95))
            raters[f"md{k}"] = [
                LabeledPrediction(
                    f"r{i}", t, t if rng.random() < accuracy else 1 - t, f"md{k}")
                for i, t in enumerate(truths)
            ]
        best, worst, _ = consensus_analysis(raters)
        rater_correct = {
            source: {p.record_id for p in predictions if p.correct}
            for source, predictions in raters.items()
        }
        best_correct = {p.record_id for p in best if p.correct}
        worst_correct = {p.record_id for p in worst if p.correct}
        # Exact set-wise semantics, no tolerance.
        assert best_correct == set.union(*rater_correct.values())
        assert worst_correct == set.intersection(*rater_correct.values())
        for correct in rater_correct.values():
            assert len(best_correct) >= len(correct)
            assert len(worst_correct) <= len(correct)
    _report(10, True, "best/worst consensus brackets every rater on 50 random panels")
