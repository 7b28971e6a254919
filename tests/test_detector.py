from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

from rxcheck.detector import (
    STATUS_PASS,
    STATUS_RANGE,
    STATUS_TYPE1,
    STATUS_TYPE2,
    WARN_INSUFFICIENT_SAME_RX,
    WARN_RX_SCALED_OUT_OF_RANGE,
    MalformedParams,
    ModelParams,
    detect,
    explain,
    load_params_json,
    params_for_technique,
    thresholds,
    verdict_json,
    verdict_to_dict,
)
from rxcheck.ingest import build_historical_db
from rxcheck.ranges import Boundaries, QuantityBounds, TechniqueBounds, UnsupportedTechnique
from rxcheck.distance import query_profile
from rxcheck.records import DOSE_MISMATCH, REPLAN_SUSPECT, RX_TOO_LARGE

from conftest import rec, random_db, random_record

PARAMS = ModelParams(a=0.5, b=0.5, mu=0.1, nu=0.1)


def bounds_3d(fx=(1, 35), dose=(150, 2000)):
    return Boundaries(
        by_technique={
            "3D": TechniqueBounds(
                bed=QuantityBounds(0, 10**9),
                fractions=QuantityBounds(*fx),
                dose_per_fraction=QuantityBounds(*dose),
            )
        },
        check_bed=False,
    )


@pytest.fixture
def db():
    # Two prescriptions; the (10, 200) group has two feature profiles, one
    # common and one rare, so feature mismatches are detectable.
    records = []
    for k in range(8):
        records.append(rec(f"a{k}", 10, 200, energy="x06", intent="curative",
                           icd10="C34.10", morphology="80463", age_at_tx=60 + k))
    for k in range(4):
        records.append(rec(f"b{k}", 20, 300, energy="x15", intent="palliative",
                           icd10="C15.9", morphology="81406", age_at_tx=50 + k))
    return build_historical_db(records)


class TestModelParams:
    def test_group_sizes_round_half_up_with_floor_one(self):
        assert ModelParams(1, 1, 0.01, 0.01).group_sizes(10) == (1, 1)
        assert ModelParams(1, 1, 0.05, 0.1).group_sizes(10) == (1, 1)
        assert ModelParams(1, 1, 0.1, 0.1).group_sizes(15) == (2, 2)  # 1.5 rounds up
        assert ModelParams(1, 1, 0.1, 0.1).group_sizes(500) == (50, 50)

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            ModelParams(0, 1, 0.05, 0.05)
        with pytest.raises(ValueError):
            ModelParams(1, 1, 0.2, 0.05)
        with pytest.raises(ValueError):
            ModelParams(1, 1, 0.05, 0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_a_and_b_rejected(self, value):
        # NaN compares False both ways, so "a <= 0" alone lets it through.
        with pytest.raises(ValueError, match="finite and positive"):
            ModelParams(value, 1, 0.05, 0.05)
        with pytest.raises(ValueError, match="finite and positive"):
            ModelParams(1, value, 0.05, 0.05)
        with pytest.raises(ValueError, match="finite and positive"):
            ModelParams.from_dict({"a": value, "b": 1.0, "mu": 0.05, "nu": 0.05})

    def test_round_trip_dict(self):
        params = ModelParams(0.4, 0.7, 0.02, 0.03)
        assert ModelParams.from_dict(params.as_dict()) == params

    @pytest.mark.parametrize("payload, problem", [
        ({"a": 1, "nu": 0.1}, "missing key 'b', 'mu'"),
        ([1, 2], "expected an object with keys a, b, mu, nu, got \\[1, 2\\]"),
        ({"a": "1", "b": 1, "mu": 0.05, "nu": 0.05}, "key 'a': expected a number, got '1'"),
        ({"a": 1, "b": None, "mu": 0.05, "nu": 0.05}, "key 'b': expected a number, got None"),
        ({"a": 1, "b": 1, "mu": True, "nu": 0.05}, "key 'mu': expected a number, got True"),
    ])
    def test_malformed_payload_rejected(self, payload, problem):
        with pytest.raises(MalformedParams, match=problem):
            ModelParams.from_dict(payload)


class TestThresholds:
    def test_identity_multiplier(self, db):
        params = ModelParams(a=1.0, b=1.0, mu=0.05, nu=0.05)
        t_rx, t_f = thresholds(params, db)
        assert t_rx == db.theta and t_f == db.tau

    def test_documented_in_sample_products(self):
        # a * theta and b * tau reproduce the published two-decimal thresholds.
        db_3d = SimpleNamespace(theta=0.206, tau=0.581)
        t_rx, _ = thresholds(ModelParams(a=0.010, b=0.717, mu=0.01, nu=0.037), db_3d)
        assert t_rx == pytest.approx(0.00206)
        db_sbrt = SimpleNamespace(theta=0.142, tau=0.501)
        _, t_f = thresholds(ModelParams(a=1.926, b=0.465, mu=0.075, nu=0.01), db_sbrt)
        assert round(t_f, 2) == 0.23


class TestDecisionLogic:
    def normal(self):
        return rec("q-normal", 10, 200, energy="x06", intent="curative",
                   icd10="C34.10", morphology="80463", age_at_tx=62)

    def rare_rx(self):
        return rec("q-rare-rx", 2, 1900, energy="x06", intent="curative",
                   icd10="C34.10", morphology="80463", age_at_tx=62)

    def mismatched(self):
        return rec("q-mismatch", 10, 200, energy="x15", intent="palliative",
                   icd10="C15.9", morphology="81406", age_at_tx=62)

    def test_pass(self, db):
        verdict = detect(self.normal(), db, PARAMS)
        assert verdict.status == STATUS_PASS
        assert verdict.r == 0.0 and verdict.f is not None

    def test_type1(self, db):
        verdict = detect(self.rare_rx(), db, PARAMS)
        assert verdict.status == STATUS_TYPE1
        assert verdict.r > verdict.t_rx
        assert verdict.f is None  # short-circuited

    def test_type2(self, db):
        verdict = detect(self.mismatched(), db, PARAMS)
        assert verdict.status == STATUS_TYPE2
        assert verdict.r <= verdict.t_rx and verdict.f > verdict.t_f

    def test_range_flag_short_circuits_status_not_diagnostics(self, db):
        record = rec("q", 40, 200, energy="x06", intent="curative",
                     icd10="C34.10", morphology="80463", age_at_tx=62)
        verdict = detect(record, db, PARAMS, bounds_3d(fx=(1, 35)))
        assert verdict.status == STATUS_RANGE
        assert verdict.range_violations[0].quantity == "fractions"
        assert verdict.r >= 0.0 and verdict.t_rx > 0.0

    def test_truth_table_all_eight_combinations(self, db):
        # Axes: range violation, R vs t_Rx, F vs t_F. Queries are built so
        # each axis is controlled independently; F is vacuous when R flags.
        cases = [
            (False, False, False, STATUS_PASS),
            (False, False, True, STATUS_TYPE2),
            (False, True, False, STATUS_TYPE1),
            (False, True, True, STATUS_TYPE1),
            (True, False, False, STATUS_RANGE),
            (True, False, True, STATUS_RANGE),
            (True, True, False, STATUS_RANGE),
            (True, True, True, STATUS_RANGE),
        ]
        for range_violation, r_high, f_high, expected in cases:
            fx = 10 if not r_high else 2
            dose = 200 if not r_high else 1900
            kwargs = dict(energy="x06", intent="curative", icd10="C34.10",
                          morphology="80463", age_at_tx=62)
            if f_high:
                kwargs.update(energy="x15", intent="palliative", icd10="C15.9",
                              morphology="81406")
            record = rec("q", fx, dose, **kwargs)
            boundaries = bounds_3d(fx=(5, 35) if range_violation and r_high else (1, 35),
                                   dose=(150, 180) if range_violation and not r_high else (150, 2000))
            verdict = detect(record, db, PARAMS, boundaries)
            assert verdict.status == expected, (range_violation, r_high, f_high)

    def test_technique_mismatch(self, db):
        record = rec("q", 10, 200, technique="SBRT", energy="x06",
                     icd10="C34.10", age_at_tx=60)
        with pytest.raises(UnsupportedTechnique):
            detect(record, db, PARAMS)

    def test_warnings(self, db):
        replan = rec("q", 10, 200, total_dose=2000, accumulated_dose=5000,
                     energy="x06", intent="curative", icd10="C34.10",
                     morphology="80463", age_at_tx=62)
        verdict = detect(replan, db, PARAMS)
        assert REPLAN_SUSPECT in verdict.warnings

        huge = rec("q", 2 ** 62, 200, energy="x06", intent="curative",
                   icd10="C34.10", morphology="80463", age_at_tx=62)
        assert RX_TOO_LARGE in detect(huge, db, PARAMS).warnings

        out_of_range = rec("q", 30, 200, energy="x06", intent="curative",
                           icd10="C34.10", morphology="80463", age_at_tx=62)
        verdict = detect(out_of_range, db, PARAMS)
        assert WARN_RX_SCALED_OUT_OF_RANGE in verdict.warnings

        # nu = 0.1 of 12 records rounds to n = 1; a query with an unseen
        # prescription has same_rx_count = 0 < n when F is computed.
        params = ModelParams(a=5.0, b=0.5, mu=0.1, nu=0.1)
        unseen = rec("q", 15, 250, energy="x06", intent="curative",
                     icd10="C34.10", morphology="80463", age_at_tx=62)
        verdict = detect(unseen, db, params)
        assert verdict.f is not None
        assert WARN_INSUFFICIENT_SAME_RX in verdict.warnings

    def test_warning_order(self, db):
        # Validation kinds in validate_record's order, then the scaling
        # warning (both from the query profile), then the same-prescription
        # warning of the feature step.
        record = rec("q", 30, 200, total_dose=2000, accumulated_dose=5000,
                     energy="x06", intent="curative", icd10="C34.10",
                     morphology="80463", age_at_tx=62)
        expected = (DOSE_MISMATCH, REPLAN_SUSPECT, WARN_RX_SCALED_OUT_OF_RANGE)
        profile = query_profile(record, db)
        assert profile.warnings == expected
        params = ModelParams(a=50.0, b=0.5, mu=0.1, nu=0.1)
        for query in (record, profile):
            verdict = detect(query, db, params)
            assert verdict.f is not None
            assert verdict.warnings == expected + (WARN_INSUFFICIENT_SAME_RX,)

    def test_identical_record_passes_when_thresholds_positive(self, db):
        verdict = detect(self.normal(), db, ModelParams(0.9, 0.9, 0.1, 0.1))
        assert verdict.status == STATUS_PASS

    def test_deterministic(self, db):
        v1 = detect(self.mismatched(), db, PARAMS)
        v2 = detect(self.mismatched(), db, PARAMS)
        assert v1 == v2

    def test_flag_sets_shrink_as_a_and_b_increase(self):
        rng = np.random.default_rng(21)
        for trial in range(25):
            db = random_db(rng, int(rng.integers(6, 25)))
            queries = [random_record(rng, 1000 + q) for q in range(8)]
            a, b = float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 1.0))
            mu, nu = float(rng.uniform(0.01, 0.1)), float(rng.uniform(0.01, 0.1))
            base = ModelParams(a, b, mu, nu)
            bigger_a = ModelParams(a * (1 + rng.uniform(0.1, 2.0)), b, mu, nu)
            bigger_b = ModelParams(a, b * (1 + rng.uniform(0.1, 2.0)), mu, nu)

            def flagged(params):
                return {q.record_id for q in queries if detect(q, db, params).flagged}

            assert flagged(bigger_a) <= flagged(base)
            assert flagged(bigger_b) <= flagged(base)


class TestExplainAndWire:
    def test_type1_line_format(self, db):
        verdict = detect(rec("q", 2, 1900, energy="x06", intent="curative",
                             icd10="C34.10", morphology="80463", age_at_tx=62),
                         db, PARAMS)
        lines = explain(verdict)
        assert lines[0].startswith("Type 1 anomaly. R = ")
        assert f"t_Rx = {verdict.t_rx:.3f}" in lines[0]

    def test_type2_line_format(self, db):
        verdict = detect(rec("q", 10, 200, energy="x15", intent="palliative",
                             icd10="C15.9", morphology="81406", age_at_tx=62),
                         db, PARAMS)
        lines = explain(verdict)
        assert lines[0] == f"Type 2 anomaly. F = {verdict.f:.3f}, t_F = {verdict.t_f:.3f}"

    def test_published_formats_reproduced(self):
        # The wording matches the reporting convention used in practice.
        verdict = SimpleNamespace(
            status=STATUS_TYPE1, r=1.982, t_rx=0.002, f=None, t_f=0.4,
            same_rx_count=0, warnings=(), range_violations=())
        assert explain(verdict)[0] == "Type 1 anomaly. R = 1.982, t_Rx = 0.002"
        verdict = SimpleNamespace(
            status=STATUS_TYPE2, r=0.0, t_rx=0.1, f=0.269, t_f=0.234,
            same_rx_count=185, warnings=(), range_violations=())
        assert explain(verdict)[0] == "Type 2 anomaly. F = 0.269, t_F = 0.234"

    def test_numbers_from_a_million_up_in_exponent_form(self, db):
        # Fixed point would print R of a record at 10**150 fractions x
        # 10**150 cGy with about 150 digits before the point.
        verdict = detect(rec("q", 10 ** 150, 10 ** 150, energy="x06", intent="curative",
                             icd10="C34.10", morphology="80463", age_at_tx=62),
                         db, PARAMS)
        assert verdict.status == STATUS_TYPE1 and verdict.r > 1e140
        assert explain(verdict)[0] == f"Type 1 anomaly. R = {verdict.r:.3e}, t_Rx = {verdict.t_rx:.3f}"
        verdict = SimpleNamespace(
            status=STATUS_PASS, r=999999.9994, t_rx=1e6, f=0.25, t_f=2.5e300,
            same_rx_count=0, warnings=(), range_violations=())
        assert explain(verdict)[:2] == ["R = 999999.999 <= t_Rx = 1.000e+06", "F = 0.250 <= t_F = 2.500e+300"]

    def test_pass_states_both_comparisons(self, db):
        verdict = detect(rec("q", 10, 200, energy="x06", intent="curative",
                             icd10="C34.10", morphology="80463", age_at_tx=62),
                         db, PARAMS)
        lines = explain(verdict)
        assert lines[0].startswith("R = ") and "<= t_Rx" in lines[0]
        assert lines[1].startswith("F = ") and "<= t_F" in lines[1]
        assert any("Same-prescription records in history: 8" == line for line in lines)

    def test_wire_format_fields(self, db):
        verdict = detect(rec("q", 10, 200, energy="x06", intent="curative",
                             icd10="C34.10", morphology="80463", age_at_tx=62),
                         db, PARAMS)
        payload = verdict_to_dict(verdict)
        assert set(payload) == {
            "record_id", "status", "R", "t_rx", "F", "t_f", "same_rx_count",
            "warnings", "range_violations", "explanation",
        }
        json.dumps(payload)  # serializable

    def test_jsonl_stream(self, db):
        verdict = detect(rec("q", 10, 200, energy="x06", intent="curative",
                             icd10="C34.10", morphology="80463", age_at_tx=62),
                         db, PARAMS)
        lines = (verdict_json(verdict) + verdict_json(verdict)).strip().split("\n")
        assert len(lines) == 2
        assert json.loads(lines[0])["record_id"] == "q"
        # A finite verdict keeps the bytes of a plain json.dumps.
        assert verdict_json(verdict) == json.dumps(verdict_to_dict(verdict), sort_keys=True) + "\n"


class TestParamsIo:
    @pytest.mark.parametrize("value, problem", [
        ('"x"', "key 'a': expected a number, got 'x'"),
        ("null", "key 'a': expected a number, got None"),
        ("0", "a and b must be finite and positive, got a=0.0, b=1.0"),
        pytest.param("1" + "0" * 400, "key 'a': 401-digit integer overflows a float", id="huge-integer"),
    ])
    def test_bad_value_named_with_file_and_technique(self, tmp_path, value, problem):
        # A pathlib.Path source is named by its full path, not its file name.
        path = tmp_path / "params.json"
        path.write_text(f'{{"3D": {{"a": {value}, "b": 1, "mu": 0.05, "nu": 0.05}}}}')
        with pytest.raises(MalformedParams) as raised:
            load_params_json(path)
        assert str(raised.value) == f"{path}: technique '3D': {problem}"

    @pytest.mark.parametrize("value, problem", [
        ("NaN", "NaN is not valid JSON"),
        ("Infinity", "Infinity is not valid JSON"),
        ("1e999", "1e999 overflows a float"),
    ])
    def test_non_finite_value_named_with_file(self, tmp_path, value, problem):
        # Refused as the file is read, before any technique's entry.
        path = tmp_path / "params.json"
        path.write_text(f'{{"3D": {{"a": {value}, "b": 1, "mu": 0.05, "nu": 0.05}}}}')
        with pytest.raises(ValueError) as raised:
            load_params_json(path)
        assert str(raised.value) == f"{path}: {problem}"

    def test_per_technique_and_flat(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"3D": PARAMS.as_dict()}))
        loaded = load_params_json(path)
        assert params_for_technique(loaded, "3D") == PARAMS
        with pytest.raises(UnsupportedTechnique):
            params_for_technique(loaded, "SBRT")

        path.write_text(json.dumps(PARAMS.as_dict()))
        loaded = load_params_json(path)
        assert params_for_technique(loaded, "SBRT") == PARAMS
