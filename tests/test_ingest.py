from __future__ import annotations

import contextlib
import csv
import io
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from rxcheck import cli
from rxcheck.distance import InsufficientData
from rxcheck.ingest import (
    DEFAULT_ENERGY_WHITELIST,
    DEFAULT_ICD10_WHITELIST,
    DEFAULT_LABEL_MAPPINGS,
    EXCLUSION_COLUMNS,
    RULE_AGE,
    RULE_DIAGNOSIS,
    RULE_DOSE,
    RULE_ENERGY,
    RULE_NON_POSITIVE_RX,
    RULE_REPLAN,
    RULE_REPLAN_INITIAL,
    RULE_RX_TOO_LARGE,
    RULE_TECHNIQUE,
    CohortConfig,
    SchemaError,
    build_historical_db,
    filter_cohort,
    normalize_dataset,
    parse_dataset,
)
from rxcheck.records import (
    CSV_COLUMNS,
    Prescription,
    TreatmentRecord,
)

from conftest import rec, records_csv_text
from oracles import (
    close,
    oracle_degenerate_lines,
    oracle_filter,
    oracle_normalize,
    oracle_parse,
    oracle_schema,
    oracle_theta_tau,
)


def csv_of(records):
    return io.StringIO(records_csv_text(records))


class TestParseDataset:
    def test_well_formed_rows_pass_through(self):
        records = [rec("a", 5, 400), rec("b", 10, 300), rec("c", 4, 1200)]
        parsed, diagnostics = parse_dataset(csv_of(records))
        assert parsed == records
        assert diagnostics == []

    def test_bad_cell_yields_diagnostic_with_row_number(self):
        text = records_csv_text([rec("a", 5, 400), rec("b", 10, 300)])
        text = text.replace("10,300", "ten,300")
        parsed, diagnostics = parse_dataset(io.StringIO(text))
        assert [r.record_id for r in parsed] == ["a"]
        assert len(diagnostics) == 1 and diagnostics[0].row == 2

    def test_empty_file_with_header(self):
        text = records_csv_text([])
        parsed, diagnostics = parse_dataset(io.StringIO(text))
        assert parsed == [] and diagnostics == []

    def test_malformed_header_raises(self):
        with pytest.raises(SchemaError):
            parse_dataset(io.StringIO("record_id,fractions\n1,2\n"))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            parse_dataset(tmp_path / "nope.csv")

    def test_column_descriptor_renames_header(self):
        text = records_csv_text([rec("a", 5, 400, energy="x06")])
        text = text.replace("record_id", "plan_id").replace("fractions", "fx")
        with pytest.raises(SchemaError):
            parse_dataset(io.StringIO(text))

    def test_non_utf8_byte_spoils_only_its_cell(self, tmp_path):
        path = tmp_path / "raw.csv"
        text = records_csv_text([rec(f"r{i}", 5, 400, energy="x06") for i in range(4)])
        path.write_bytes(text.encode().replace(b"r2", b"r\xff2"))
        records, diagnostics = parse_dataset(path)
        assert diagnostics == []
        assert [r.record_id for r in records] == ["r0", "r1", "r\ufffd2", "r3"]


# An export whose header holds every required column and any of the optional
# ones, in any order and with duplicates. Each of up to `rows` lines is one
# CSV record or a blank line: a cell is the column's valid value, that value
# with whitespace around it, a missing-value cell, a quoted cell holding a
# delimiter or a line break, or random bytes (a lone byte of 0x80 or above is
# not UTF-8); rows may be cut short or carry extra cells. A positive clean
# adds that weight to a cell's valid value and to a row's keeping all its
# cells.
_VALID_CELLS = dict(zip(CSV_COLUMNS, (b"P1/1", b"5", b"400", b"2000", b"2000", b"3D", b"x06",
                                      b"curative", b"C34.10", b"80463", b"60")))
_RANDOM_CELL = st.binary(max_size=6).map(lambda raw: bytes(b for b in raw if b not in b',"\r\n'))
_ODD_CELL = st.sampled_from([b"", b"-", b" - ", b"  ", b'"a,b"', b'"line\nbreak"', b'"x""y"',
                             b'" 5 "', b'"-"', b'""'])


@st.composite
def _export(draw, rows=6, clean=0):
    required, optional = list(CSV_COLUMNS[:6]), list(CSV_COLUMNS[6:])
    columns = required + draw(st.lists(st.sampled_from(optional), unique=True))
    columns += draw(st.lists(st.sampled_from(CSV_COLUMNS), max_size=2))
    columns = draw(st.permutations(columns))
    lines = []
    for _ in range(draw(st.integers(1, rows))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(b"")
            continue
        cells = []
        for column in columns:
            kind = draw(st.integers(0, 5 + clean))
            if kind == 0:
                cells.append(draw(_RANDOM_CELL))
            elif kind == 1:
                cells.append(draw(_ODD_CELL))
            elif kind == 2:
                cells.append(b" " + _VALID_CELLS[column] + b"\t")
            else:
                cells.append(_VALID_CELLS[column])
        cells += [draw(_RANDOM_CELL) for _ in range(draw(st.integers(0, 2)))]
        lines.append(b",".join(cells[: draw(st.integers(1, len(cells) + clean))]))
    return b"\n".join([",".join(columns).encode(), *lines]) + b"\n", lines


@seed(20210)
@settings(deadline=None, max_examples=300, database=None)
@given(export=_export(clean=25))
def test_parse_yields_one_record_or_diagnostic_per_row(tmp_path_factory, export):
    # clean=25 makes about as many records as diagnostics: 406 and 401 over
    # the 300 examples, 216 of which hold a record.
    data, lines = export
    path = tmp_path_factory.mktemp("parse") / "rows.csv"
    path.write_bytes(data)
    records, diagnostics = parse_dataset(path)
    assert len(records) + len(diagnostics) == sum(line != b"" for line in lines)
    assert [d.row for d in diagnostics] == sorted({d.row for d in diagnostics})
    assert all(1 <= d.row <= len(lines) for d in diagnostics)
    assert (records, [(d.row, d.reason) for d in diagnostics]) == oracle_parse(path)


_INGEST_SUMMARY = re.compile(r"ingest: kept (\d+) records, excluded (\d+), parse diagnostics (\d+),")


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


@seed(20212)
@settings(deadline=None, max_examples=100, database=None)
@given(export=_export(rows=16, clean=20))
def test_ingest_command_accounts_for_every_row(tmp_path_factory, export):
    # The `ingest` command, in process: its summary, exclusions.csv and the
    # reference CSVs against the row-at-a-time oracles.
    data, lines = export
    work = tmp_path_factory.mktemp("ingest")
    path, out = work / "rows.csv", work / "out"
    path.write_bytes(data)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert cli.run(["ingest", "--input", str(path), "--out", str(out)]) == cli.EX_OK
    kept, excluded, diagnostics = map(int, _INGEST_SUMMARY.match(stdout.getvalue()).groups())
    assert kept + excluded + diagnostics == sum(line != b"" for line in lines)
    config = CohortConfig()
    normalized, _ = oracle_normalize(oracle_parse(path)[0], config.label_mappings)
    expected_kept, expected_exclusions = oracle_filter(normalized, config)
    assert _csv_rows(out / "exclusions.csv") == [list(EXCLUSION_COLUMNS), *map(list, expected_exclusions)]
    references = {technique: rows for technique, rows in expected_kept.items() if len(rows) >= 2}
    assert sum(len(_csv_rows(db)) - 1 for db in out.glob("db_*.csv")) == sum(map(len, references.values()))
    # Every admitted row of these exports has the same prescription.
    assert sorted(stderr.getvalue().splitlines()) == oracle_degenerate_lines(references)


class TestNormalizeLabels:
    def test_mapping_applies(self):
        record = rec("a", 5, 400, energy="6X")
        (out,), unmapped = normalize_dataset([record], {"energy": {"6X": "x06"}})
        assert out.energy == "x06"
        assert not unmapped

    def test_pass_through_without_mapping(self):
        record = rec("a", 5, 400, energy="x06")
        (out,), unmapped = normalize_dataset([record], {})
        assert out == record
        assert not unmapped

    def test_empty_cell_parses_to_missing(self):
        text = records_csv_text([rec("a", 5, 400, intent=None)])
        (parsed,), _ = parse_dataset(io.StringIO(text))
        assert parsed.intent is None

    def test_unmapped_labels_counted(self):
        records = [rec("a", 5, 400, energy="exotic"), rec("b", 5, 400, energy="exotic")]
        _, unmapped = normalize_dataset(records, {"energy": {"6X": "x06"}})
        assert unmapped == {("energy", "exotic"): 2}

    def test_canonical_target_not_counted_as_unmapped(self):
        records = [rec("a", 5, 400, energy="x06")]
        _, unmapped = normalize_dataset(records, {"energy": {"6X": "x06"}})
        assert not unmapped


def good(record_id, technique="SBRT", **kwargs):
    defaults = dict(energy="x06FFF", icd10="C34.10", intent="curative", age_at_tx=60)
    defaults.update(kwargs)
    return rec(record_id, 5, 1000, technique=technique, **defaults)


class TestFilterCohort:
    def test_excluded_technique(self):
        kept, exclusions = filter_cohort([good("a", technique="Brachy")])
        assert not any(kept.values())
        [(_, rule, _)] = exclusions
        assert rule == RULE_TECHNIQUE

    def test_rare_energy_for_technique(self):
        # x06FFF is whitelisted for SBRT but has zero historical use in 3D.
        record = good("a", technique="3D", energy="x06FFF")
        kept, exclusions = filter_cohort([record])
        assert not any(kept.values())
        [(_, rule, _)] = exclusions
        assert rule == RULE_ENERGY

    def test_whitelisted_sbrt_record_kept(self):
        record = good("a", technique="SBRT", energy="x06FFF", icd10="C34.10")
        kept, exclusions = filter_cohort([record])
        assert kept["SBRT"] == [record] and exclusions == []

    def test_diagnosis_whitelist(self):
        kept, exclusions = filter_cohort([good("a", icd10="C61")])
        assert not any(kept.values())
        [(_, rule, _)] = exclusions
        assert rule == RULE_DIAGNOSIS

    def test_dose_inconsistency_excluded(self):
        record = good("a")
        record = replace(record, prescription=Prescription(5, 1000, 4999, 4999))
        _, exclusions = filter_cohort([record])
        [(_, rule, _)] = exclusions
        assert rule == RULE_DOSE

    def test_replan_and_initial_both_dropped(self):
        initial = good("P1/1")  # 5 x 1000, accumulated 5000
        replan = rec("P1/2", 2, 1000, technique="SBRT", energy="x06FFF",
                     icd10="C34.10", total_dose=2000, accumulated_dose=7000,
                     age_at_tx=60)
        other = good("P2/1")
        kept, exclusions = filter_cohort([initial, replan, other])
        rules = {record_id: rule for record_id, rule, _ in exclusions}
        assert rules["P1/2"] == RULE_REPLAN
        assert rules["P1/1"] == RULE_REPLAN_INITIAL
        assert kept["SBRT"] == [other]

    def test_record_sharing_a_replan_id_named_as_such(self):
        replan = rec("P1/1", 2, 1000, technique="SBRT", energy="x06FFF", icd10="C34.10",
                     accumulated_dose=4000)
        consistent = rec("P1/1", 2, 1000, technique="SBRT", energy="x06FFF", icd10="C34.10")
        _, exclusions = filter_cohort([replan, consistent])
        assert exclusions == [
            ("P1/1", RULE_REPLAN, "accumulated_dose=4000 != total_dose=2000"),
            ("P1/1", RULE_REPLAN, "record_id shared with a re-plan / cone-down"),
        ]

    def test_nothing_silently_dropped(self):
        records = [
            good("a"), good("b", technique="Brachy"), good("c", icd10="C61"),
            good("d", technique="3D", energy="x06"),
        ]
        kept, exclusions = filter_cohort(records)
        kept_ids = {r.record_id for rows in kept.values() for r in rows}
        logged_ids = {record_id for record_id, _, _ in exclusions}
        assert kept_ids | logged_ids == {r.record_id for r in records}
        assert kept_ids & logged_ids == set()

    def test_order_independent(self):
        rng = np.random.default_rng(3)
        records = [good(f"r{i}") for i in range(10)] + [good("bad", icd10="C61")]
        records += [good(f"t{i}", technique="3D", energy="x15") for i in range(5)]
        shuffled = list(records)
        rng.shuffle(shuffled)
        kept_a, _ = filter_cohort(records)
        kept_b, _ = filter_cohort(shuffled)
        for tech in kept_a:
            assert {r.record_id for r in kept_a[tech]} == {r.record_id for r in kept_b[tech]}

    def test_non_positive_rx_excluded(self):
        zero = rec("a", 0, 1000, technique="SBRT", energy="x06FFF", icd10="C34.10")
        negative = rec("b", 5, -200, technique="SBRT", energy="x06FFF", icd10="C34.10")
        kept, exclusions = filter_cohort([zero, negative, good("c")])
        assert [(record_id, rule) for record_id, rule, _ in exclusions] == [
            ("a", RULE_NON_POSITIVE_RX), ("b", RULE_NON_POSITIVE_RX)]
        assert kept["SBRT"] == [good("c")]

    def test_age_out_of_range_excluded(self):
        records = [good("a", age_at_tx=500), good("b", age_at_tx=-1),
                   good("c", age_at_tx=120), good("d", age_at_tx=None)]
        kept, exclusions = filter_cohort(records)
        assert [(record_id, rule) for record_id, rule, _ in exclusions] == [("a", RULE_AGE), ("b", RULE_AGE)]
        assert [r.record_id for r in kept["SBRT"]] == ["c", "d"]

    def test_rx_above_2_53_excluded_last(self):
        huge = rec("a", 2 ** 62, 1000, technique="SBRT", energy="x06FFF", icd10="C34.10")
        huge_and_old = rec("b", 2 ** 62, 1000, technique="SBRT", energy="x06FFF",
                           icd10="C34.10", age_at_tx=500)
        kept, exclusions = filter_cohort([huge, huge_and_old, good("c")])
        assert [(record_id, rule) for record_id, rule, _ in exclusions] == [
            ("a", RULE_RX_TOO_LARGE), ("b", RULE_AGE)]
        assert kept["SBRT"] == [good("c")]

    def test_validation_rules_come_after_the_others(self):
        # Each of these also fails validate_record, but an earlier rule names it.
        mismatch = replace(good("a", age_at_tx=500), prescription=Prescription(5, 1000, 4999, 4999))
        replan = rec("P1/2", 0, 1000, technique="SBRT", energy="x06FFF",
                     icd10="C34.10", accumulated_dose=7000)
        diagnosis = good("c", icd10="C61", age_at_tx=500)
        _, exclusions = filter_cohort([mismatch, replan, diagnosis])
        assert [rule for _, rule, _ in exclusions] == [RULE_DOSE, RULE_REPLAN, RULE_DIAGNOSIS]


# Records for normalize and filter: canonical, mapped, excluded and unmapped
# labels; consistent and inconsistent prescriptions, re-plans whose
# accumulated dose adds a common course total, and ids drawn from a few
# subjects with repeats, so initial plans, duplicate ids and subjects with
# several re-plans occur.
_LABEL_VARIANTS = (
    ("3D", "3d", "3D-CRT", "IMRT", "vmat", "SBRT", "sbrt", "Brachy", "Brachytherapy", "Gamma"),
    (None, "x06", "6X", "x06FFF", "6XFFF", "x10", "X10", "x15", "Mix Photon", "mixed mode", "x18"),
    (None, "curative", "Curative", "PALLIATIVE", "palliative", "adjuvant"),
    (None, "C34.10", "C34.1", "C34.90", "C15.9", "C61"),
    (None, "80463", "81406"),
)
_MAPPING_VARIANTS = (
    DEFAULT_LABEL_MAPPINGS,
    {"energy": {"6X": "x06", "x18": "x18"}, "icd10": {"C34.1": "C34.10"}},
    {**DEFAULT_LABEL_MAPPINGS, "morphology": {}},
    {},
)


@st.composite
def _raw_record(draw):
    fractions = draw(st.sampled_from((0, 1, 2, 5, 2 ** 60)))
    dose = draw(st.sampled_from((-200, 200, 1000)))
    total = fractions * dose + draw(st.sampled_from((0, 0, 0, 1)))
    accumulated = total + draw(st.sampled_from((0, 0, 0, 1000, 2000, 5000)))
    labels = [draw(st.sampled_from(values)) for values in _LABEL_VARIANTS]
    return TreatmentRecord(
        f"P{draw(st.integers(0, 2))}/{draw(st.integers(0, 2))}",
        Prescription(fractions, dose, total, accumulated),
        *labels,
        draw(st.sampled_from((None, 60, 130))),
    )


@seed(20211)
@settings(deadline=None, max_examples=300, database=None)
@given(
    records=st.lists(_raw_record(), max_size=12),
    mappings=st.sampled_from(_MAPPING_VARIANTS),
    delimiter=st.sampled_from(("/", "-")),
)
def test_normalize_and_filter_match_oracles(records, mappings, delimiter):
    normalized, unmapped = normalize_dataset(records, mappings)
    expected, expected_unmapped = oracle_normalize(records, mappings)
    assert normalized == expected
    assert list(unmapped.items()) == list(expected_unmapped.items())
    assert [normalize_dataset([r], mappings)[0][0] for r in records] == expected
    config = CohortConfig(subject_delimiter=delimiter)
    assert filter_cohort(normalized, config) == oracle_filter(normalized, config)


class TestCohortConfig:
    def test_defaults_cover_modeled_techniques(self):
        config = CohortConfig()
        assert set(config.energy_whitelist) == {"3D", "IMRT", "SBRT"}
        assert "C34.10" in config.icd10_whitelist

    def test_empty_whitelist_rejected(self):
        with pytest.raises(ValueError):
            CohortConfig(energy_whitelist={"3D": frozenset(), "IMRT": frozenset({"x06"}),
                                           "SBRT": frozenset({"x06"})})

    def test_empty_subject_delimiter_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="subject_delimiter"):
            CohortConfig(subject_delimiter="")
        path = tmp_path / "cohort.json"
        path.write_text('{"subject_delimiter": ""}')
        with pytest.raises(ValueError, match="subject_delimiter"):
            CohortConfig.from_json(path)

    def test_json_round_trip(self, tmp_path):
        config = CohortConfig()
        path = tmp_path / "cohort.json"
        config.to_json(path)
        loaded = CohortConfig.from_json(path)
        assert loaded.energy_whitelist == {
            k: frozenset(v) for k, v in DEFAULT_ENERGY_WHITELIST.items()
        }
        assert loaded.icd10_whitelist == DEFAULT_ICD10_WHITELIST
        assert loaded.subject_delimiter == config.subject_delimiter
        assert loaded == config

    @pytest.mark.parametrize("text, problem", [
        ("[]", "expected a JSON object, got []"),
        ('{"icd10_whitelist": [], "excluded_technique": ["SRS"]}', "unknown key 'excluded_technique'"),
        ('{"icd10_whitelist": "C34.10"}', "key 'icd10_whitelist': expected a list of strings, got 'C34.10'"),
        ('{"icd10_whitelist": ["C34.10", 1]}',
         "key 'icd10_whitelist': expected a list of strings, got ['C34.10', 1]"),
        ('{"excluded_techniques": ["IMPT"]}', "unknown key 'excluded_techniques'"),
        ('{"energy_whitelist": ["x06"]}', "key 'energy_whitelist': expected an object, got ['x06']"),
        ('{"energy_whitelist": {"3D": "x06"}}',
         "key 'energy_whitelist': technique '3D': expected a list of strings, got 'x06'"),
        ('{"energy_whitelist": {"3d": ["x06"]}}', "key 'energy_whitelist': unknown technique '3d'"),
        # A modeled technique the whitelist leaves out is missing, not empty.
        ('{"energy_whitelist": {"3D": ["x06"]}}', "no energy whitelist for IMRT"),
        ('{"energy_whitelist": {"3D": ["x06"], "IMRT": [], "SBRT": ["x06"]}}', "empty energy whitelist for IMRT"),
        ('{"label_mappings": {"energy": ["x06"]}}',
         "key 'label_mappings': field 'energy': expected an object of strings, got ['x06']"),
        ('{"label_mappings": {"energy": {"6X": null}}}',
         "key 'label_mappings': field 'energy': expected an object of strings, got {'6X': None}"),
        ('{"label_mappings": {"energi": {"6X": "x06"}}}', "key 'label_mappings': unknown field 'energi'"),
        ('{"subject_delimiter": 5}', "subject_delimiter must be a non-empty string, got 5"),
    ], ids=["array", "unknown-key", "string-whitelist", "non-string-item", "removed-key",
            "whitelist-array", "technique-string", "unknown-technique", "missing-technique",
            "empty-technique", "mapping-array",
            "mapping-null", "unknown-field", "delimiter-number"])
    def test_malformed_config_named(self, tmp_path, text, problem):
        path = tmp_path / "cohort.json"
        path.write_text(text)
        with pytest.raises(ValueError) as raised:
            CohortConfig.from_json(path)
        assert str(raised.value) == f"{path}: {problem}"


class TestBuildHistoricalDb:
    def test_identical_records_give_zero_characteristics(self):
        records = [good("a"), good("b")]
        db = build_historical_db(records)
        assert db.theta == 0.0 and db.tau == 0.0
        assert db.rx_scaler.degenerate == ("fractions", "dose_per_fraction")

    def test_single_pair_full_separation(self):
        r1 = rec("a", 5, 1000, technique="SBRT", energy="x06", intent="curative",
                 icd10="C34.10", morphology="80463", age_at_tx=40)
        r2 = rec("b", 10, 1000, technique="SBRT", energy="x15", intent="palliative",
                 icd10="C15.9", morphology="81406", age_at_tx=80)
        # Scaled prescriptions differ by (1, 0); every feature fully differs.
        db = build_historical_db([r1, r2])
        assert db.rx_scaler.degenerate == ("dose_per_fraction",)
        assert db.theta == 1.0
        assert db.tau == 1.0

    def test_matches_brute_force(self, schema):
        rng = np.random.default_rng(11)
        from conftest import random_record

        records = [random_record(rng, i) for i in range(17)]
        db = build_historical_db(records)
        theta, tau = oracle_theta_tau(records, db.feature_schema)
        assert close(db.theta, theta)
        assert close(db.tau, tau)

    def test_rx_index_counts_sum_to_size(self, small_db):
        assert sum(small_db.rx_index.values()) == small_db.size

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            build_historical_db([good("a")])

    def test_rx_above_2_53_rejected(self):
        # float64 scaling merges 2**62 and 2**62 + 3, which would give theta
        # 0.667 where the exact value is 1.011.
        records = [rec("a", 2 ** 62, 100), rec("b", 2 ** 62 + 3, 200),
                   rec("c", 2 ** 62 + 3, 300)]
        theta, _ = oracle_theta_tau(records, oracle_schema(records))
        assert close(theta, (math.sqrt(1.25) + math.sqrt(2) + 0.5) / 3)
        with pytest.raises(ValueError, match="RxTooLarge"):
            build_historical_db(records)

    def test_mixed_techniques_rejected(self):
        with pytest.raises(ValueError):
            build_historical_db([good("a"), good("b", technique="3D", energy="x06")])
