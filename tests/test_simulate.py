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
    extreme_value_sampler,
    generate_sa_set,
    mutate_features,
    swap_leading_digits,
    verify_rarity,
    vocabulary_sampler,
    write_sa_set,
)

from conftest import rec
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
        assert set(descriptor.fields) == changed


class TestMutateFeatures:
    def test_explicit_values(self):
        record = rec("a", 5, 1000, technique="SBRT", energy="x06FFF",
                     intent="curative", icd10="R91.1", age_at_tx=91)
        mutated, descriptor = mutate_features(
            record, {"intent": "palliative", "age_at_tx": 10})
        assert mutated.intent == "palliative" and mutated.age_at_tx == 10
        assert mutated.rx == record.rx and mutated.energy == record.energy
        assert set(descriptor.fields) == {"intent", "age_at_tx"}

    def test_two_categorical_fields(self):
        record = rec("a", 4, 1200, technique="SBRT", energy="x06",
                     intent="palliative", icd10="C34.30", morphology="87203",
                     age_at_tx=49)
        mutated, descriptor = mutate_features(
            record, {"icd10": "C15.9", "energy": "x10"})
        assert mutated.icd10 == "C15.9" and mutated.energy == "x10"
        assert set(descriptor.fields) == {"icd10", "energy"}

    def test_empty_spec_is_identity(self):
        record = rec("a", 5, 400)
        mutated, descriptor = mutate_features(record, {})
        assert mutated == record and descriptor.changes == ()

    def test_rx_fields_rejected(self):
        with pytest.raises(InvalidMutation):
            mutate_features(rec("a", 5, 400), {"fractions": 4})
        with pytest.raises(InvalidMutation):
            mutate_features(rec("a", 5, 400), {"technique": "IMRT"})

    def test_samplers_exclude_current_value(self, db):
        sampler = vocabulary_sampler(db.feature_schema, "intent")
        rng = np.random.default_rng(2)
        record = db.records[0]
        for _ in range(20):
            assert sampler(rng, record.intent) != record.intent

    def test_extreme_sampler_leaves_observed_range(self, db):
        sampler = extreme_value_sampler(db.feature_schema, "age_at_tx")
        lo, hi = db.feature_schema.spec("age_at_tx").value_range
        rng = np.random.default_rng(3)
        for _ in range(50):
            value = sampler(rng, 60)
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
                stripped = sa.mutated.with_prescription(base.prescription)
                assert dataclasses.replace(stripped, record_id=base.record_id) == base
            else:
                diff = {
                    name for name in ("energy", "intent", "icd10", "morphology", "age_at_tx")
                    if getattr(base, name) != getattr(sa.mutated, name)
                }
                assert diff == set(sa.mutation.fields)

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

    def test_generation_exhausted_reports_partial(self):
        # Every record shares the same prescription, so every digit swap is
        # degenerate-adjacent: swaps produce one fixed rare Rx, but feature
        # mutation candidates can never be rare at threshold -1.
        records = [rec(f"r{i}", 5, 400, energy="x06", icd10="C34.10", age_at_tx=60)
                   for i in range(6)]
        with pytest.warns(UserWarning, match="degenerate prescription dimension"):
            db = build_historical_db(records)
        with pytest.raises(GenerationExhausted) as excinfo:
            generate_sa_set(db, {KIND_FEATURE: 2}, threshold=-1,
                            rng=np.random.default_rng(1))
        assert excinfo.value.partial == []

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
