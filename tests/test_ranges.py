from __future__ import annotations

import json

import numpy as np
import pytest

from rxcheck.ingest import build_historical_db
from rxcheck.ranges import (
    Boundaries,
    Quantile,
    QuantityBounds,
    RangeViolation,
    TechniqueBounds,
    UnsupportedTechnique,
    check_range,
    compute_bed,
    derive_boundaries,
    load_boundaries,
    table_preset,
    write_boundaries,
)

from conftest import rec, random_db


class TestComputeBed:
    def test_dose_equal_to_alpha_beta_doubles(self):
        # One fraction at d = alpha/beta gives 2d.
        assert compute_bed(1, 1000) == 2000

    def test_hand_value_4x1200(self):
        # 4 * 1200 * (1 + 1200/1000) = 4800 * 2.2
        assert compute_bed(4, 1200) == pytest.approx(10560)

    def test_hand_value_5x1000(self):
        assert compute_bed(5, 1000) == pytest.approx(10000)

    def test_strictly_increasing_in_each_argument(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            fx = int(rng.integers(1, 40))
            d = int(rng.integers(100, 2000))
            base = compute_bed(fx, d)
            assert compute_bed(fx + 1, d) > base
            assert compute_bed(fx, d + 1) > base

    def test_arrays_equal_scalars_bit_for_bit(self):
        rng = np.random.default_rng(6)
        fx = rng.integers(1, 41, size=200)
        d = rng.integers(100, 3001, size=200)
        beds = compute_bed(fx.astype(np.float64), d.astype(np.float64))
        assert beds.tolist() == [compute_bed(int(f), int(x)) for f, x in zip(fx, d)]


class TestTablePreset:
    def test_sbrt_row(self):
        preset = table_preset()
        sbrt = preset.by_technique["SBRT"]
        assert sbrt.fractions == QuantityBounds(1, 5)
        assert sbrt.dose_per_fraction == QuantityBounds(400, 3000)
        assert sbrt.bed == QuantityBounds(82000, 903000)

    def test_bed_check_disabled_by_default(self):
        # The published BED column's units are unconfirmed against the
        # configured linear-quadratic form, so the preset must not flag on it.
        assert table_preset().check_bed is False

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "bounds.json"
        write_boundaries(path, table_preset())
        loaded = load_boundaries(path)
        assert loaded == table_preset()

    _SBRT = {"min_bed": 0, "max_bed": 9, "min_fractions": 1, "max_fractions": 5,
             "min_dose_per_fraction": 400, "max_dose_per_fraction": 3000}

    @pytest.mark.parametrize("entry, expected", [({}, True), ({"check_bed": False}, False)])
    def test_check_bed_is_a_boolean_defaulting_to_true(self, tmp_path, entry, expected):
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps({**entry, "techniques": {"SBRT": self._SBRT}}))
        assert load_boundaries(path).check_bed is expected

    @pytest.mark.parametrize("text, problem", [
        ("[]", 'expected a JSON object with a "techniques" object, got []'),
        ('{"check_bed": true}', 'expected a JSON object with a "techniques" object, got {\'check_bed\': True}'),
        ('{"techniques": 5}', 'expected a JSON object with a "techniques" object, got {\'techniques\': 5}'),
        ('{"techniques": {"SBRT": 5}}', "technique 'SBRT': expected an object, got 5"),
        ('{"techniques": {"SBRT": {"min_bed": 0, "min_fractions": 1, "max_fractions": 5}}}',
         "technique 'SBRT': missing key 'max_bed', 'min_dose_per_fraction', 'max_dose_per_fraction'"),
        (json.dumps({"techniques": {"SBRT": {**_SBRT, "min_bed": "a"}}}),
         "technique 'SBRT': key 'min_bed': expected a number, got 'a'"),
        (json.dumps({"techniques": {"SBRT": {**_SBRT, "max_bed": None}}}),
         "technique 'SBRT': key 'max_bed': expected a number, got None"),
        (json.dumps({"techniques": {"SBRT": {**_SBRT, "min_bed": True}}}),
         "technique 'SBRT': key 'min_bed': expected a number, got True"),
        (json.dumps({"techniques": {"SBRT": {**_SBRT, "max_dose_per_fraction": float("nan")}}}),
         "NaN is not valid JSON"),
        (json.dumps({"techniques": {"SBRT": {**_SBRT, "min_bed": -10 ** 400}}}),
         "technique 'SBRT': key 'min_bed': 401-digit integer overflows a float"),
        (json.dumps({"techniques": {"SBRT": {**_SBRT, "min_fractions": 5, "max_fractions": 1}}}),
         "technique 'SBRT': key 'min_fractions' 5 exceeds key 'max_fractions' 1"),
        (json.dumps({"check_bed": "no", "techniques": {"SBRT": _SBRT}}),
         "key 'check_bed': expected a boolean, got 'no'"),
        (json.dumps({"check_bed": 0, "techniques": {"SBRT": _SBRT}}),
         "key 'check_bed': expected a boolean, got 0"),
        (json.dumps({"check_bed": None, "techniques": {"SBRT": _SBRT}}),
         "key 'check_bed': expected a boolean, got None"),
        # A misspelt check_bed would otherwise turn on the BED check a preset turns off.
        (json.dumps({"checkbed": False, "techniques": {"SBRT": _SBRT}}), "unknown key 'checkbed'"),
        (json.dumps({"techniques": {"SBRT": {**_SBRT, "max_bedd": 9}}}),
         "technique 'SBRT': unknown key 'max_bedd'"),
    ], ids=["not-an-object", "no-techniques", "techniques-not-an-object", "entry-not-an-object", "missing-keys",
            "string-bound", "null-bound", "bool-bound", "nan-bound", "huge-integer-bound", "inverted-bounds",
            "string-check-bed", "int-check-bed", "null-check-bed", "unknown-key", "unknown-entry-key"])
    def test_malformed_preset_named(self, tmp_path, text, problem):
        path = tmp_path / "bounds.json"
        path.write_text(text)
        with pytest.raises(ValueError) as raised:
            load_boundaries(str(path))
        assert str(raised.value) == f"{path}: {problem}"

    def test_path_source_named_in_full(self, tmp_path):
        path = tmp_path / "bounds.json"
        path.write_text("[]")
        with pytest.raises(ValueError) as raised:
            load_boundaries(path)
        assert str(raised.value).startswith(f"{path}: expected a JSON object")


class TestDeriveBoundaries:
    def test_full_range_quantiles_match_observed(self, small_db):
        bounds = derive_boundaries(small_db, Quantile(0, 1)).by_technique["3D"]
        fx = [r.prescription.fractions for r in small_db.records]
        d = [r.prescription.dose_per_fraction for r in small_db.records]
        assert bounds.fractions == QuantityBounds(min(fx), max(fx))
        assert bounds.dose_per_fraction == QuantityBounds(min(d), max(d))

    def test_degenerate_quantile_is_median(self, small_db):
        bounds = derive_boundaries(small_db, Quantile(0.5, 0.5)).by_technique["3D"]
        fx = np.median([r.prescription.fractions for r in small_db.records])
        assert bounds.fractions.lo == bounds.fractions.hi == fx

    def test_float_bounds_survive_write_and_load(self, tmp_path):
        db = random_db(np.random.default_rng(12), 40)
        derived = derive_boundaries(db, Quantile(0.1, 0.9))
        bounds = derived.by_technique["3D"]
        assert not bounds.fractions.lo.is_integer() and not bounds.bed.hi.is_integer()
        beds = [compute_bed(r.prescription.fractions, r.prescription.dose_per_fraction) for r in db.records]
        assert bounds.bed == QuantityBounds(float(np.quantile(beds, 0.1)), float(np.quantile(beds, 0.9)))
        path = tmp_path / "derived.json"
        write_boundaries(path, derived)
        assert load_boundaries(path) == derived

    def test_prescription_counts_give_the_quantiles_of_a_record_walk(self):
        # The columns come from db.rx_index in its own order; the quantiles
        # of the records' multiset do not depend on it. The second reference
        # of each seed adds records at three regimens, so prescriptions repeat.
        levels = [(0, 1), (0.005, 0.995), (0.1, 0.9), (0.25, 0.75), (0.5, 0.5)]
        regimens = [(5, 400), (10, 300), (25, 180)]
        for seed in range(6):
            base = random_db(np.random.default_rng(seed), 10 + 15 * seed)
            repeated = [rec(f"x{k}", *regimens[k % 3]) for k in range(20 + seed)]
            for db in (base, build_historical_db([*base.records, *repeated])):
                self._assert_record_walk_quantiles(db, levels)

    @staticmethod
    def _assert_record_walk_quantiles(db, levels):
        fractions = np.array([r.prescription.fractions for r in db.records], dtype=np.float64)
        doses = np.array([r.prescription.dose_per_fraction for r in db.records], dtype=np.float64)
        for low, high in levels:
            walked = [np.quantile(value, (low, high)).tolist()
                      for value in (fractions, doses, compute_bed(fractions, doses))]
            bounds = derive_boundaries(db, Quantile(low, high)).by_technique["3D"]
            assert [[bounds.fractions.lo, bounds.fractions.hi],
                    [bounds.dose_per_fraction.lo, bounds.dose_per_fraction.hi],
                    [bounds.bed.lo, bounds.bed.hi]] == walked

    def test_invalid_quantiles(self):
        with pytest.raises(ValueError):
            Quantile(0.9, 0.1)


class TestCheckRange:
    def test_fractions_over_3d_maximum(self):
        record = rec("a", 36, 200, technique="3D")
        violations = check_range(record, table_preset())
        assert [v.quantity for v in violations] == ["fractions"]
        assert violations[0].high == 35

    def test_sbrt_5x1000_no_fractions_or_dose_violations(self):
        record = rec("a", 5, 1000, technique="SBRT")
        assert check_range(record, table_preset()) == []

    def test_boundary_values_inclusive(self):
        record = rec("a", 5, 3000, technique="SBRT")  # both exactly at max
        assert check_range(record, table_preset()) == []

    def test_bed_checked_when_enabled(self):
        bounds = Boundaries(
            by_technique={
                "SBRT": TechniqueBounds(
                    bed=QuantityBounds(0, 9000),
                    fractions=QuantityBounds(1, 5),
                    dose_per_fraction=QuantityBounds(400, 3000),
                )
            },
            check_bed=True,
        )
        record = rec("a", 5, 1000, technique="SBRT")  # BED = 10000
        violations = check_range(record, bounds)
        assert [v.quantity for v in violations] == ["bed"]

    def test_every_quantity_out_of_range_reported_in_order(self):
        limits = TechniqueBounds(
            bed=QuantityBounds(0, 9000),
            fractions=QuantityBounds(1, 5),
            dose_per_fraction=QuantityBounds(400, 3000),
        )
        record = rec("a", 6, 3100, technique="SBRT")  # BED = 6 * 3100 * 4.1
        expected = [
            RangeViolation("fractions", 6.0, 1, 5),
            RangeViolation("dose_per_fraction", 3100.0, 400, 3000),
            RangeViolation("bed", 76260.0, 0, 9000),
        ]
        assert check_range(record, Boundaries({"SBRT": limits}, check_bed=True)) == expected
        assert check_range(record, Boundaries({"SBRT": limits}, check_bed=False)) == expected[:2]

    def test_bed_overflowing_a_float_raises(self):
        # 10**300 fits a float; BED multiplies it by about 10**147.
        record = rec("a", 10 ** 150, 10 ** 150, technique="SBRT")
        limits = TechniqueBounds(
            bed=QuantityBounds(0, 9000),
            fractions=QuantityBounds(1, 5),
            dose_per_fraction=QuantityBounds(400, 3000),
        )
        with pytest.raises(OverflowError, match="^bed overflows a float$"):
            check_range(record, Boundaries({"SBRT": limits}, check_bed=True))
        violations = check_range(record, Boundaries({"SBRT": limits}, check_bed=False))
        assert [v.quantity for v in violations] == ["fractions", "dose_per_fraction"]

    def test_unknown_technique(self):
        with pytest.raises(UnsupportedTechnique) as raised:
            check_range(rec("a", 5, 1000, technique="SBRT"),
                        Boundaries(by_technique={}))
        assert raised.value.args == ("no boundaries for technique 'SBRT'",)

    def test_in_sample_records_inside_full_range_quantiles(self):
        rng = np.random.default_rng(9)
        db = random_db(rng, 30)
        bounds = derive_boundaries(db, Quantile(0, 1))
        for record in db.records:
            assert check_range(record, bounds) == []

    def test_widening_never_adds_violations(self):
        rng = np.random.default_rng(10)
        db = random_db(rng, 25)
        tight = derive_boundaries(db, Quantile(0.25, 0.75))
        wide = derive_boundaries(db, Quantile(0.05, 0.95))
        for record in db.records:
            tight_q = {v.quantity for v in check_range(record, tight)}
            wide_q = {v.quantity for v in check_range(record, wide)}
            assert wide_q <= tight_q
