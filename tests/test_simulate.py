from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from rxcheck.ingest import build_historical_db
from rxcheck.simulate import (
    KIND_FEATURE,
    KIND_RX_SWAP,
    DegenerateSwap,
    GenerationExhausted,
    InvalidMutation,
    generate_sa_set,
    mutate_features,
    swap_leading_digits,
    verify_rarity,
    write_sa_set,
)

from conftest import ENERGIES, ICD10S, random_db, random_record, rec
from synth import make_cohort


@pytest.fixture(scope="module")
def db():
    records, _ = make_cohort("3D", per_cluster=12, seed=3)
    return build_historical_db(records)


class TestSwapLeadingDigits:
    def test_5x400_becomes_4x500(self):
        mutated, descriptor = swap_leading_digits(rec("a", 5, 400))
        assert mutated.rx == (4, 500)
        assert mutated.prescription.total_dose == 2000
        assert mutated.prescription.accumulated_dose == 2000
        assert descriptor.kind == KIND_RX_SWAP

    def test_10x300_becomes_30x100(self):
        mutated, _ = swap_leading_digits(rec("a", 10, 300))
        assert mutated.rx == (30, 100)

    def test_equal_leading_digits_degenerate(self):
        with pytest.raises(DegenerateSwap):
            swap_leading_digits(rec("a", 3, 300))

    def test_involution_on_consistent_records(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            record = rec("a", int(rng.integers(1, 60)), int(rng.integers(1, 40)) * 100)
            try:
                once, _ = swap_leading_digits(record)
            except DegenerateSwap:
                continue
            twice, _ = swap_leading_digits(once)
            assert twice.prescription == record.prescription

    def test_descriptor_names_exactly_the_changed_fields(self):
        record = rec("a", 5, 400)
        mutated, descriptor = swap_leading_digits(record)
        changed = {
            f.name
            for f in dataclasses.fields(record.prescription)
            if getattr(record.prescription, f.name) != getattr(mutated.prescription, f.name)
        }
        assert {c.field for c in descriptor.changes} == changed


class TestMutateFeatures:
    def test_explicit_values(self):
        record = rec("a", 5, 1000, technique="SBRT", energy="x06FFF",
                     intent="curative", icd10="R91.1", age_at_tx=91)
        mutated, descriptor = mutate_features(
            record, {"intent": "palliative", "age_at_tx": 10})
        assert mutated.intent == "palliative" and mutated.age_at_tx == 10
        assert mutated.rx == record.rx and mutated.energy == record.energy
        assert {c.field for c in descriptor.changes} == {"intent", "age_at_tx"}

    def test_two_categorical_fields(self):
        record = rec("a", 4, 1200, technique="SBRT", energy="x06",
                     intent="palliative", icd10="C34.30", morphology="87203",
                     age_at_tx=49)
        mutated, descriptor = mutate_features(
            record, {"icd10": "C15.9", "energy": "x10"})
        assert mutated.icd10 == "C15.9" and mutated.energy == "x10"
        assert {c.field for c in descriptor.changes} == {"icd10", "energy"}

    def test_empty_spec_is_identity(self):
        record = rec("a", 5, 400)
        mutated, descriptor = mutate_features(record, {})
        assert mutated == record and descriptor.changes == ()

    def test_rx_fields_rejected(self):
        with pytest.raises(InvalidMutation):
            mutate_features(rec("a", 5, 400), {"fractions": 4})
        with pytest.raises(InvalidMutation):
            mutate_features(rec("a", 5, 400), {"technique": "IMRT"})

    def test_forged_values_differ_from_the_base(self, db):
        sas = generate_sa_set(db, {KIND_FEATURE: 20}, rng=np.random.default_rng(2))
        by_id = {r.record_id: r for r in db.records}
        for sa in sas:
            base = by_id[sa.base_record_id]
            for change in sa.mutation.changes:
                assert change.old == getattr(base, change.field) != change.new

    def test_forged_ages_leave_observed_range(self, db):
        age = db.feature_schema[0]
        assert age.name == "age_at_tx"
        lo, hi = age.value_range
        sas = generate_sa_set(db, {KIND_FEATURE: 50}, rng=np.random.default_rng(3))
        ages = [c.new for sa in sas for c in sa.mutation.changes if c.field == "age_at_tx"]
        assert ages
        for value in ages:
            assert value < lo or value > hi
            assert 0 <= value <= 120


class TestVerifyRarity:
    def test_swapped_rx_count_at_most_threshold_accepted(self, db):
        base = db.records[0]
        mutated, descriptor = swap_leading_digits(base)
        check = verify_rarity(mutated, db, 1, descriptor)
        assert check.accepted
        assert check.evidence[0].count == 0  # swaps land outside every cluster

    def test_count_exactly_one_accepted_at_threshold_one(self):
        # The swapped prescription already occurs once; a single historical
        # occurrence is still rare enough at the default threshold.
        records = [rec(f"r{i}", 5, 400, energy="x06", icd10="C34.10", age_at_tx=60 + i)
                   for i in range(5)]
        records.append(rec("lone", 4, 500, energy="x06", icd10="C34.10", age_at_tx=70))
        db = build_historical_db(records)
        mutated, descriptor = swap_leading_digits(records[0])
        assert mutated.rx == (4, 500)
        check = verify_rarity(mutated, db, 1, descriptor)
        assert check.accepted and check.evidence[0].count == 1
        assert not verify_rarity(mutated, db, 0, descriptor).accepted

    def test_unmutated_common_rx_rejected(self, db):
        base = db.records[0]
        descriptor_like = swap_leading_digits(base)[1]
        # Pretend the base itself was the swap result: its own prescription is
        # common, so it must be rejected.
        check = verify_rarity(base, db, 1, descriptor_like)
        assert not check.accepted
        assert check.evidence[0].count == db.rx_index[base.rx]

    def test_feature_condition_counts(self, db):
        base = db.records[0]
        mutated, descriptor = mutate_features(base, {"intent": "palliative"})
        check = verify_rarity(mutated, db, 1, descriptor)
        assert check.accepted
        (evidence,) = check.evidence
        assert evidence.count == 0  # this cluster's Rx never pairs with palliative

    def test_unknown_kind_rejected(self, db):
        base = db.records[0]
        mutated, descriptor = mutate_features(base, {"intent": "palliative"})
        unknown = dataclasses.replace(descriptor, kind="NoSuchKind")
        with pytest.raises(InvalidMutation, match="unknown mutation kind"):
            verify_rarity(mutated, db, 1, unknown)

    def test_evidence_matches_independent_scan(self, db):
        rng = np.random.default_rng(5)
        sas = generate_sa_set(
            db, {KIND_RX_SWAP: 5, KIND_FEATURE: 5}, threshold=1, rng=rng)
        for sa in sas:
            for evidence in sa.rarity_evidence:
                if sa.mutation.kind == KIND_RX_SWAP:
                    expected = sum(1 for r in db.records if r.rx == sa.mutated.rx)
                else:
                    # re-derive the per-field conditional count by brute force
                    field_name = evidence.condition.split("& ")[1].split("=")[0]
                    value = getattr(sa.mutated, field_name)
                    expected = sum(
                        1 for r in db.records
                        if r.rx == sa.mutated.rx and getattr(r, field_name) == value
                    )
                assert evidence.count == expected


class TestGenerateSaSet:
    def test_exact_counts_per_kind(self, db):
        sas = generate_sa_set(db, {KIND_RX_SWAP: 4, KIND_FEATURE: 6},
                              rng=np.random.default_rng(6))
        kinds = [sa.mutation.kind for sa in sas]
        assert kinds.count(KIND_RX_SWAP) == 4
        assert kinds.count(KIND_FEATURE) == 6

    def test_zero_counts_empty(self, db):
        assert generate_sa_set(db, {}, rng=np.random.default_rng(0)) == []

    def test_deterministic_per_seed(self, db):
        a = generate_sa_set(db, {KIND_RX_SWAP: 3, KIND_FEATURE: 3},
                            rng=np.random.default_rng(7))
        b = generate_sa_set(db, {KIND_RX_SWAP: 3, KIND_FEATURE: 3},
                            rng=np.random.default_rng(7))
        assert a == b

    def test_mutants_differ_exactly_in_descriptor_fields(self, db):
        sas = generate_sa_set(db, {KIND_RX_SWAP: 5, KIND_FEATURE: 5},
                              rng=np.random.default_rng(8))
        by_id = {r.record_id: r for r in db.records}
        for sa in sas:
            base = by_id[sa.base_record_id]
            if sa.mutation.kind == KIND_RX_SWAP:
                assert sa.mutated.rx != base.rx
                stripped = dataclasses.replace(sa.mutated, prescription=base.prescription)
                assert dataclasses.replace(stripped, record_id=base.record_id) == base
            else:
                diff = {
                    name for name in ("energy", "intent", "icd10", "morphology", "age_at_tx")
                    if getattr(base, name) != getattr(sa.mutated, name)
                }
                assert diff == {c.field for c in sa.mutation.changes}

    @pytest.mark.parametrize("counts", [
        {"Technique" "Relabel": 2},  # the name of a kind that is no longer forged
        {"FeatureMutations": 3},
        {KIND_RX_SWAP: 1, "FeatureMutations": 3},
        {KIND_RX_SWAP: -2},
        {KIND_RX_SWAP: 2, KIND_FEATURE: -1},
    ], ids=["relabel", "misspelled", "misspelled-with-valid", "negative", "negative-with-valid"])
    def test_unknown_or_negative_counts_rejected(self, db, counts):
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"drew {name} before rejecting the counts")

        with pytest.raises(InvalidMutation):
            generate_sa_set(db, counts, rng=NoDraws())

    def test_generation_exhausted_when_no_candidate_is_rare(self):
        # Every record shares the same prescription, so every digit swap is
        # degenerate-adjacent: swaps produce one fixed rare Rx, but feature
        # mutation candidates can never be rare at threshold -1.
        records = [rec(f"r{i}", 5, 400, energy="x06", icd10="C34.10", age_at_tx=60)
                   for i in range(6)]
        db = build_historical_db(records)
        assert db.rx_scaler.degenerate == ("fractions", "dose_per_fraction")
        with pytest.raises(GenerationExhausted):
            generate_sa_set(db, {KIND_FEATURE: 2}, threshold=-1,
                            rng=np.random.default_rng(1))

    def test_serialization(self, db, tmp_path):
        sas = generate_sa_set(db, {KIND_RX_SWAP: 2, KIND_FEATURE: 2},
                              rng=np.random.default_rng(10))
        csv_path = tmp_path / "sa.csv"
        json_path = tmp_path / "sa.json"
        write_sa_set(csv_path, json_path, sas)
        assert csv_path.read_text().count("\n") == len(sas) + 1
        payload = json.loads(json_path.read_text())
        assert [entry["record_id"] for entry in payload] == [sa.mutated.record_id for sa in sas]
        assert all("rarity_evidence" in entry for entry in payload)


def _edge_db():
    """Ages spanning the whole [0, 120] domain (no out-of-range age left), a
    one-value intent vocabulary and an empty morphology vocabulary."""
    rng = np.random.default_rng(21)
    records = []
    for i in range(40):
        fractions, dose = [(5, 400), (10, 300), (3, 800), (25, 200)][i % 4]
        energy, icd10 = str(rng.choice(ENERGIES)), str(rng.choice(ICD10S))
        age = (0, 120)[i % 2] if i < 4 else int(rng.integers(1, 120))
        records.append(rec(
            f"e{i:02d}", fractions, dose,
            energy=energy, intent="curative", icd10=icd10, morphology=None, age_at_tx=age,
        ))
    return build_historical_db(records)


def _summary(sas):
    return [
        (
            sa.base_record_id,
            tuple((c.field, c.old, c.new) for c in sa.mutation.changes),
            tuple((e.condition, e.count) for e in sa.rarity_evidence),
        )
        for sa in sas
    ]


class TestGoldenOutput:
    """generate_sa_set's output for fixed generators, pinned: a change to how
    or in what order replacement values are drawn shows here."""

    def test_planted_clusters(self, db):
        sas = generate_sa_set(db, {KIND_RX_SWAP: 2, KIND_FEATURE: 5}, rng=np.random.default_rng(12))
        assert _summary(sas) == [
            ("3D-c3-008",
             (("fractions", 7, 1), ("dose_per_fraction", 1750, 7750),
              ("total_dose", 12250, 7750), ("accumulated_dose", 12250, 7750)),
             (("rx=1x7750", 0),)),
            ("3D-c1-006",
             (("fractions", 5, 1), ("dose_per_fraction", 1000, 5000)),
             (("rx=1x5000", 0),)),
            ("3D-c5-010",
             (("morphology", None, "80463"), ("age_at_tx", 61, 90)),
             (("rx=9x1900 & morphology=80463", 0), ("rx=9x1900 & age_at_tx=90", 0))),
            ("3D-c2-001",
             (("energy", "x15", "x10"),),
             (("rx=6x1500 & energy=x10", 0),)),
            ("3D-c4-000",
             (("age_at_tx", 71, 22), ("morphology", "81403", "87203")),
             (("rx=8x1100 & age_at_tx=22", 0), ("rx=8x1100 & morphology=87203", 0))),
            ("3D-c4-008",
             (("intent", "curative", "palliative"),),
             (("rx=8x1100 & intent=palliative", 0),)),
            ("3D-c3-002",
             (("age_at_tx", 68, 100),),
             (("rx=7x1750 & age_at_tx=100", 0),)),
        ]

    def test_mostly_missing_reference(self):
        db = random_db(np.random.default_rng(4), 80, missing_rate=0.95)
        sas = generate_sa_set(db, {KIND_RX_SWAP: 1, KIND_FEATURE: 5}, rng=np.random.default_rng(13))
        assert _summary(sas) == [
            ("r0071",
             (("fractions", 8, 5), ("dose_per_fraction", 500, 800)),
             (("rx=5x800", 0),)),
            ("r0069",
             (("icd10", None, "R91.1"), ("age_at_tx", None, 14)),
             (("rx=7x2900 & icd10=R91.1", 0), ("rx=7x2900 & age_at_tx=14", 0))),
            ("r0013",
             (("icd10", None, "R91.1"),),
             (("rx=12x700 & icd10=R91.1", 0),)),
            ("r0048",
             (("icd10", None, "R91.1"), ("age_at_tx", None, 7)),
             (("rx=23x1100 & icd10=R91.1", 0), ("rx=23x1100 & age_at_tx=7", 0))),
            ("r0078",
             (("energy", None, "x10"), ("intent", None, "curative")),
             (("rx=32x2200 & energy=x10", 0), ("rx=32x2200 & intent=curative", 0))),
            ("r0052",
             (("energy", None, "x10"),),
             (("rx=30x2500 & energy=x10", 0),)),
        ]

    def test_reference_without_ages_forges_no_age(self):
        # An age-less reference has the age range (0, 0); the presence
        # test, not the range, keeps age out of the forged changes.
        rng = np.random.default_rng(5)
        db = build_historical_db(
            [dataclasses.replace(random_record(rng, i), age_at_tx=None) for i in range(200)]
        )
        assert db.feature_schema[0].value_range == (0.0, 0.0)
        sas = generate_sa_set(db, {KIND_FEATURE: 20}, rng=np.random.default_rng(15))
        assert len(sas) == 20
        changed = {c.field for sa in sas for c in sa.mutation.changes}
        assert changed <= {"energy", "intent", "icd10", "morphology"}

    def test_empty_vocabulary_and_replacement_pools(self):
        # Every candidate drawing age, intent or morphology is dropped; the
        # generator stream still shows where each was dropped.
        sas = generate_sa_set(_edge_db(), {KIND_FEATURE: 6}, rng=np.random.default_rng(14))
        assert _summary(sas) == [
            ("e13",
             (("icd10", "C15.9", "C34.90"), ("energy", "x06", "mixed photon")),
             (("rx=10x300 & icd10=C34.90", 1), ("rx=10x300 & energy=mixed photon", 1))),
            ("e30", (("icd10", "C34.30", "C78.1"),), (("rx=3x800 & icd10=C78.1", 0),)),
            ("e10", (("icd10", "C34.90", "C78.1"),), (("rx=3x800 & icd10=C78.1", 0),)),
            ("e32", (("icd10", "C34.30", "C34.10"),), (("rx=5x400 & icd10=C34.10", 1),)),
            ("e11", (("icd10", "C15.9", "C78.1"),), (("rx=25x200 & icd10=C78.1", 1),)),
            ("e38", (("icd10", "C34.90", "R91.1"),), (("rx=3x800 & icd10=R91.1", 0),)),
        ]
