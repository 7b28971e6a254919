from __future__ import annotations

import io

import pytest

from rxcheck.ingest import build_historical_db, parse_dataset
from rxcheck.records import (
    AGE_OUT_OF_RANGE,
    DOSE_MISMATCH,
    NON_POSITIVE_RX,
    REPLAN_SUSPECT,
    RX_TOO_LARGE,
    FeatureSpec,
    Prescription,
    RecordTable,
    TreatmentRecord,
    default_schema,
    json_object,
    read_json,
    record_to_row,
    validate_record,
    write_csv,
    write_json,
)

from conftest import rec, records_csv_text


class TestValidateRecord:
    def test_consistent_record_is_ok(self):
        # 4 x 1200 = 4800 on both totals.
        record = rec("a", 4, 1200, total_dose=4800, accumulated_dose=4800)
        assert validate_record(record) == ()

    def test_dose_mismatch(self):
        # 5 x 400 = 2000, not 2200.
        record = rec("a", 5, 400, total_dose=2200, accumulated_dose=2200)
        assert [v.kind for v in validate_record(record)] == [DOSE_MISMATCH]

    def test_replan_suspect(self):
        record = rec("a", 10, 300, total_dose=3000, accumulated_dose=6000)
        assert [v.kind for v in validate_record(record)] == [REPLAN_SUSPECT]

    def test_replan_reported_regardless_of_other_fields(self):
        record = rec("a", 0, 300, total_dose=999, accumulated_dose=6000, age_at_tx=130)
        kinds = {v.kind for v in validate_record(record)}
        assert REPLAN_SUSPECT in kinds
        assert {NON_POSITIVE_RX, DOSE_MISMATCH, AGE_OUT_OF_RANGE} <= kinds

    def test_age_bounds(self):
        assert validate_record(rec("a", 1, 100, age_at_tx=0)) == ()
        assert validate_record(rec("a", 1, 100, age_at_tx=120)) == ()
        assert validate_record(rec("a", 1, 100, age_at_tx=121)) != ()
        assert validate_record(rec("a", 1, 100, age_at_tx=None)) == ()

    def test_rx_above_2_53(self):
        # float64 holds every integer up to 2**53 exactly, and no more.
        assert validate_record(rec("a", 2 ** 53, 100)) == ()
        assert validate_record(rec("a", 5, 2 ** 53)) == ()
        for record in (rec("a", 2 ** 53 + 1, 100), rec("a", 5, 2 ** 62)):
            assert [v.kind for v in validate_record(record)] == [RX_TOO_LARGE]
        kinds = [v.kind for v in validate_record(rec("a", -(2 ** 60), 100))]
        assert kinds == [NON_POSITIVE_RX, RX_TOO_LARGE]

    def test_deterministic_and_pure(self):
        record = rec("a", 5, 400, total_dose=2200)
        assert validate_record(record) == validate_record(record)


class TestSchema:
    def test_default_schema_features(self, schema):
        names = tuple(spec.name for spec in schema)
        assert names == ("age_at_tx", "energy", "intent", "icd10", "morphology")
        kinds = {spec.name: spec.kind for spec in schema}
        assert kinds["age_at_tx"] == "numeric"

    def test_reference_set_fixes_ranges_and_vocab(self):
        records = [
            rec("a", 1, 100, energy="x15", age_at_tx=70),
            rec("b", 1, 100, energy="x06", age_at_tx=40),
        ]
        age, energy, intent, _, _ = build_historical_db(records).feature_schema
        assert (age.name, age.value_range, age.vocabulary) == ("age_at_tx", (40.0, 70.0), None)
        assert (energy.name, energy.vocabulary, energy.value_range) == ("energy", ("x06", "x15"), None)
        assert intent.vocabulary == ()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FeatureSpec("age_at_tx", "ordinal")


def parse_rows(*rows: dict[str, str]):
    """parse_dataset of a CSV with one line per record_to_row dict."""
    buffer = io.StringIO()
    write_csv(buffer, rows[0], (row.values() for row in rows))
    buffer.seek(0)
    return parse_dataset(buffer)


class TestCsvRoundTrip:
    def test_round_trip_preserves_record(self):
        record = rec(
            "P1/1", 4, 1200, technique="SBRT",
            energy="x06FFF", intent="palliative", icd10="C15.6",
            morphology="87203", age_at_tx=49,
        )
        (parsed,), diagnostics = parse_dataset(io.StringIO(records_csv_text([record])))
        assert diagnostics == []
        assert parsed == record
        assert validate_record(parsed) == validate_record(record)

    def test_missing_fields_round_trip(self):
        record = rec("P2/1", 5, 400, intent=None, morphology=None, age_at_tx=None,
                     energy="mixed photon", icd10="C34.90")
        (parsed,), diagnostics = parse_dataset(io.StringIO(records_csv_text([record])))
        assert diagnostics == []
        assert parsed == record
        assert parsed.intent is None and parsed.age_at_tx is None

    def test_empty_and_dash_cells_mean_missing(self):
        row = record_to_row(rec("a", 5, 400, icd10="C34.90", energy="x06"))
        row["intent"] = "-"
        row["morphology"] = ""
        (parsed,), diagnostics = parse_rows(row)
        assert diagnostics == []
        assert parsed.intent is None and parsed.morphology is None

    def test_required_cell_missing_raises(self):
        row = record_to_row(rec("a", 5, 400))
        row["fractions"] = ""
        records, diagnostics = parse_rows(row)
        assert records == []
        assert [(d.row, d.reason) for d in diagnostics] == [(1, "missing required value: fractions")]


class TestRecordTable:
    def test_reads_as_the_records_it_holds(self):
        records = [rec("a", 5, 400, energy="x06"), rec("b", 10, 300, age_at_tx=60),
                   rec("c", 5, 400, energy="x06")]
        table = RecordTable.of(records)
        assert len(table) == 3 and table[1] == records[1] and table[-1] == records[2]
        assert list(table) == records and table == records and records == table
        assert table != records[:2] and table != tuple(records)
        assert table.labels[0] is table.labels[2]
        assert RecordTable.of(table) is table

    @pytest.mark.parametrize("window", [slice(0, 2), slice(1, None), slice(None, None, -1),
                                        slice(-1, 0, -2), slice(5, 9), slice(None)])
    def test_slice_is_a_table_of_the_sliced_records(self, window):
        records = [rec("a", 5, 400, energy="x06"), rec("b", 10, 300, age_at_tx=60),
                   rec("c", 5, 400, energy="x06"), rec("d", 20, 200, intent="curative", age_at_tx=71)]
        table, _ = parse_dataset(io.StringIO(records_csv_text(records)))
        sliced = table[window]
        assert isinstance(sliced, RecordTable)
        assert list(sliced) == list(table)[window] == records[window]
        assert len(sliced) == len(records[window])


class TestJson:
    @pytest.mark.parametrize("text, problem", [
        ('{"a": NaN}', "NaN is not valid JSON"),
        ('[1, Infinity]', "Infinity is not valid JSON"),
        ('{"a": {"b": -Infinity}}', "-Infinity is not valid JSON"),
        ('[1e999]', "1e999 overflows a float"),
        ('{"a": -1.5e400}', "-1.5e400 overflows a float"),
    ])
    def test_non_finite_number_named_with_the_file(self, tmp_path, text, problem):
        path = tmp_path / "in.json"
        path.write_text(text)
        with pytest.raises(ValueError) as raised:
            read_json(path)
        assert str(raised.value) == f"{path}: {problem}"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_write_json_refuses_a_non_finite_number_and_writes_nothing(self, tmp_path, value):
        path = tmp_path / "out.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json(path, {"a": [1.0, value]})
        assert not path.exists()

    def test_finite_numbers_read_as_python_does(self):
        assert read_json(io.StringIO('{"a": [1.5, -0.0, 1e308, 10]}')) == {"a": [1.5, -0.0, 1e308, 10]}

    @pytest.mark.parametrize("value, kwargs, problem", [
        ([1], {}, "f: expected an object, got [1]"),
        ("x", {"expected": "a JSON object"}, "f: expected a JSON object, got 'x'"),
        ({"c": 1, "d": 2}, {"names": "ab"}, "f: unknown key 'c'"),
        ({"c": 1}, {"names": "ab", "what": "field"}, "f: unknown field 'c'"),
        ({"c": 1}, {"names": "ab", "required": True}, "f: missing key 'a', 'b'"),
        ({"b": 1, "c": 1}, {"names": "ab", "required": True}, "f: missing key 'a'"),
    ])
    def test_object_checks_name_the_first_fault(self, value, kwargs, problem):
        with pytest.raises(ValueError) as raised:
            json_object("f", value, **kwargs)
        assert str(raised.value) == problem

    def test_object_passes_through(self):
        value = {"a": 1}
        assert json_object("f", value, "ab") is value

        class Malformed(ValueError):
            pass

        with pytest.raises(Malformed) as raised:
            json_object("", value, "b", error=Malformed)
        assert str(raised.value) == "unknown key 'a'"


class TestPrescription:
    def test_rx_pair(self):
        assert Prescription(5, 400, 2000, 2000).rx == (5, 400)

    def test_create_defaults_totals(self):
        record = TreatmentRecord.create("a", 5, 400, "3D")
        assert record.prescription.total_dose == 2000
        assert record.prescription.accumulated_dose == 2000
