from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from rxcheck import cli
from rxcheck.cli import EX_ERROR, EX_FLAGGED, EX_NOINPUT, EX_OK, EX_USAGE, run
from rxcheck.detector import ModelParams, detect, verdict_to_dict, write_params_json
from rxcheck.ingest import (
    EXCLUSION_COLUMNS,
    CohortConfig,
    build_historical_db,
    filter_cohort,
    normalize_dataset,
    parse_dataset,
)
from rxcheck.ranges import Boundaries, table_preset, write_boundaries
from rxcheck.records import Prescription, TreatmentRecord, validate_record, write_records_csv
from rxcheck.simulate import swap_leading_digits

from conftest import rec, records_csv_text
from oracles import (
    close,
    oracle_closest_m,
    oracle_closest_n,
    oracle_degenerate_lines,
    oracle_filter,
    oracle_normalize,
    oracle_parse,
    oracle_scale,
    oracle_schema,
    oracle_theta_tau,
)
from synth import make_cohort

PARAMS = ModelParams(a=0.5, b=0.25, mu=0.05, nu=0.05)


def unforgeable_imrt():
    """40 IMRT records from which no anomaly can be forged: every digit swap
    of 3x300, 2x200 and 5x500 is itself and every categorical has one value."""
    return [
        rec(f"imrt{i}", *((3, 300), (2, 200), (5, 500))[i % 3], technique="IMRT", energy="x06",
            intent="curative", icd10="C34.10", morphology="80703", age_at_tx=(0, 120)[i % 2])
        for i in range(40)
    ]


def _not_json(constant):
    raise ValueError(f"{constant} is not valid JSON")


def verdict_lines(text):
    """check's JSONL output, one dict per line, each parsed as strict JSON:
    a NaN or an Infinity in any verdict fails the test."""
    return [json.loads(line, parse_constant=_not_json) for line in text.splitlines()]


def predictions_csv(path):
    """Three raters over 20 records, about 80% right each."""
    rng = np.random.default_rng(40)
    rows = ["record_id,truth,prediction,source"]
    for source in ("md1", "md2", "model"):
        for i in range(20):
            truth = 1 if i < 8 else 0
            prediction = truth if rng.random() < 0.8 else 1 - truth
            rows.append(f"r{i},{truth},{prediction},{source}")
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture(scope="module")
def cohort_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "historical.csv"
    records, _ = make_cohort("3D", per_cluster=15, seed=20)
    write_records_csv(path, records)
    return path


@pytest.fixture(scope="module")
def params_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("params") / "params.json"
    write_params_json(path, {"3D": PARAMS})
    return path


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        assert run(["frobnicate"]) == EX_USAGE

    def test_unknown_flag_is_usage_error(self):
        assert run(["ingest", "--input", "x.csv", "--out", "y", "--bogus"]) == EX_USAGE

    def test_flags_the_handler_does_not_read_are_usage_errors(self, tmp_path, capsys):
        for command, flag, value in [("ingest", "--seed", "1"), ("check", "--seed", "1"),
                                     ("hist", "--seed", "1"), ("evaluate", "--seed", "1"),
                                     ("evaluate", "--technique", "3D")]:
            argv = [command, "--input", "x.csv", "--out", str(tmp_path), flag, value]
            assert run(argv) == EX_USAGE, argv
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["train", "--budget", "0"],
        ["train", "--runs", "0"],
        ["train", "--runs", "-5"],
        ["train", "--budget", "1000001"],
        ["train", "--runs", "1000001"],
        ["train", "--sn", "-1"],
        ["train", "--rarity-threshold", "-1"],
        ["simulate", "--rarity-threshold", "-1"],
        ["hist", "--bin-width", "0"],
        ["hist", "--bin-width", "-0.1"],
        ["hist", "--bin-width", "nan"],
        ["hist", "--bin-width", "inf"],
        ["train", "--seed", "-1"],
        ["simulate", "--seed", "-1"],
    ])
    def test_out_of_range_numbers_are_usage_errors(self, argv, tmp_path, capsys):
        # Rejected before any input is read: the input file does not exist,
        # which would otherwise be exit 66.
        command, flag, value = argv
        code = run([command, "--input", str(tmp_path / "absent.csv"),
                    "--out", str(tmp_path / "out"), flag, value])
        assert code == EX_USAGE
        assert f"argument {flag}: must be " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_file_is_noinput(self, tmp_path, params_json):
        code = run([
            "check", "--input", str(tmp_path / "absent.csv"),
            "--historical", str(tmp_path / "alsoabsent.csv"),
            "--params", str(params_json),
        ])
        assert code == EX_NOINPUT


class TestIngest:
    def test_outputs(self, cohort_csv, tmp_path):
        out = tmp_path / "ingested"
        assert run(["ingest", "--input", str(cohort_csv), "--out", str(out)]) == EX_OK
        assert (out / "db_3D.csv").exists()
        assert (out / "exclusions.csv").exists()
        meta = json.loads((out / "db_meta.json").read_text())
        assert meta["3D"]["size"] == 90
        assert 0 < meta["3D"]["theta"] < 2**0.5

    def test_exclusions_csv_holds_the_filter_rows(self, tmp_path):
        records, _ = make_cohort("3D", per_cluster=15, seed=20)
        excluded = [rec("brachy", 1, 800, technique="Brachy", energy="x06", icd10="C34.10"),
                    rec("prostate", 10, 300, energy="x06", icd10="C61"),
                    rec("old", 10, 300, energy="x06", icd10="C34.10", age_at_tx=500)]
        path = tmp_path / "export.csv"
        write_records_csv(path, excluded[:2] + records + excluded[2:])
        out = tmp_path / "ingested"
        assert run(["ingest", "--input", str(path), "--out", str(out)]) == EX_OK
        normalized, _ = normalize_dataset(parse_dataset(path)[0], CohortConfig().label_mappings)
        _, exclusions = filter_cohort(normalized)
        assert [row[0] for row in exclusions] == ["brachy", "prostate", "old"]
        with open(out / "exclusions.csv", newline="") as handle:
            assert list(csv.reader(handle)) == [list(EXCLUSION_COLUMNS), *map(list, exclusions)]

    def test_outputs_are_utf8_under_an_ascii_locale(self, tmp_path):
        # A child process whose locale encoding is ASCII: the outputs are
        # UTF-8 all the same, so a label outside ASCII is written as read.
        records = [rec(f"r{i}", 10 + i, 300 - i, energy="x06", icd10="C34.10", morphology="80003\u00e9", age_at_tx=60)
                   for i in range(3)]
        path = tmp_path / "export.csv"
        write_records_csv(path, records)
        out = tmp_path / "ingested"
        env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
               "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-m", "rxcheck.cli", "ingest", "--input", str(path), "--out", str(out)],
                              env=env, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (EX_OK, "")
        assert "80003\u00e9" in (out / "db_3D.csv").read_bytes().decode("utf-8")


class TestCheck:
    def test_pass_and_flag_exit_codes(self, cohort_csv, params_json, tmp_path, capsys):
        records, _ = make_cohort("3D", per_cluster=15, seed=20)
        normal = records[0]
        query_path = tmp_path / "query.csv"
        write_records_csv(query_path, [normal])
        code = run([
            "check", "--input", str(query_path),
            "--historical", str(cohort_csv), "--params", str(params_json),
        ])
        [payload] = verdict_lines(capsys.readouterr().out)
        assert payload["status"] == "Pass"
        assert code == EX_OK

        swapped, _ = swap_leading_digits(normal)
        write_records_csv(query_path, [swapped])
        code = run([
            "check", "--input", str(query_path),
            "--historical", str(cohort_csv), "--params", str(params_json),
        ])
        [payload] = verdict_lines(capsys.readouterr().out)
        assert payload["status"] == "Type1Flag"
        assert code == EX_FLAGGED

    def test_out_directory_jsonl(self, cohort_csv, params_json, tmp_path):
        records, _ = make_cohort("3D", per_cluster=15, seed=20)
        query_path = tmp_path / "query.csv"
        write_records_csv(query_path, records[:3])
        out = tmp_path / "verdicts"
        code = run([
            "check", "--input", str(query_path),
            "--historical", str(cohort_csv), "--params", str(params_json),
            "--out", str(out),
        ])
        assert code == EX_OK
        assert len(verdict_lines((out / "verdicts.jsonl").read_text())) == 3

    def test_cli_matches_library_composition(self, cohort_csv, params_json, tmp_path, capsys):
        records, _ = make_cohort("3D", per_cluster=15, seed=20)
        queries = [records[0], swap_leading_digits(records[1])[0]]
        query_path = tmp_path / "query.csv"
        write_records_csv(query_path, queries)
        run([
            "check", "--input", str(query_path),
            "--historical", str(cohort_csv), "--params", str(params_json),
        ])
        cli_lines = verdict_lines(capsys.readouterr().out)

        kept, _ = filter_cohort(records)
        db = build_historical_db(kept["3D"])
        library_lines = [verdict_to_dict(detect(q, db, PARAMS)) for q in queries]
        assert cli_lines == library_lines

    def test_missing_params_flag_is_usage_error(self, cohort_csv, tmp_path):
        query = tmp_path / "query.csv"
        records, _ = make_cohort("3D", per_cluster=15, seed=20)
        write_records_csv(query, records[:1])
        code = run(["check", "--input", str(query), "--historical", str(cohort_csv)])
        assert code == EX_USAGE

    def test_quantile_boundaries_mode(self, cohort_csv, params_json, tmp_path, capsys):
        # Fractions in the cohort span [4, 9]; 12 fractions violates the
        # full-range quantile boundaries and must produce a RangeFlag.
        query = tmp_path / "oor.csv"
        write_records_csv(query, [
            rec("oor", 12, 1250, energy="x06", intent="curative",
                icd10="C34.10", morphology="80463", age_at_tx=60)
        ])
        code = run([
            "check", "--input", str(query), "--historical", str(cohort_csv),
            "--params", str(params_json), "--quantile-boundaries", "0,1",
        ])
        [payload] = verdict_lines(capsys.readouterr().out)
        assert payload["status"] == "RangeFlag"
        assert code == EX_FLAGGED
        for bad in ("nonsense", "0.9,0.1", "nan,1"):
            assert run([
                "check", "--input", str(query), "--historical", str(cohort_csv),
                "--params", str(params_json), "--quantile-boundaries", bad,
            ]) == EX_USAGE, bad
        # The value is checked before the history is read.
        assert run([
            "check", "--input", str(query), "--historical", str(tmp_path / "absent.csv"),
            "--params", str(params_json), "--quantile-boundaries", "0.9,0.1",
        ]) == EX_USAGE

    def test_record_without_comparable_neighbors_does_not_abort_batch(
        self, cohort_csv, params_json, tmp_path, capsys
    ):
        records, _ = make_cohort("3D", per_cluster=15, seed=20)
        blank = rec("blank", 4, 1250)  # a common prescription, every feature missing
        queries = [records[0], blank, records[1]]
        query_path = tmp_path / "query.csv"
        write_records_csv(query_path, queries)
        argv = ["check", "--input", str(query_path),
                "--historical", str(cohort_csv), "--params", str(params_json)]
        assert run(argv) == EX_ERROR
        captured = capsys.readouterr()
        kept, _ = filter_cohort(records)
        db = build_historical_db(kept["3D"])
        expected = [verdict_to_dict(detect(q, db, PARAMS)) for q in (records[0], records[1])]
        assert verdict_lines(captured.out) == expected
        assert captured.err.count("rxcheck: record blank: ") == 1

        out = tmp_path / "verdicts"
        assert run(argv + ["--out", str(out)]) == EX_ERROR
        assert (out / "verdicts.jsonl").read_text() == captured.out

    def test_non_finite_verdict_is_that_records_diagnostic(
        self, cohort_csv, params_json, tmp_path, capsys, monkeypatch
    ):
        # No input is known to give a verdict a non-finite number, so detect
        # is made to return one for the middle record.
        records, _ = make_cohort("3D", per_cluster=15, seed=20)
        query_path = tmp_path / "query.csv"
        write_records_csv(query_path, records[:3])
        argv = ["check", "--input", str(query_path),
                "--historical", str(cohort_csv), "--params", str(params_json)]
        assert run(argv) == EX_OK
        finite = capsys.readouterr().out.splitlines(keepends=True)

        def detect_inf(record, *args):
            verdict = detect(record, *args)
            return replace(verdict, r=math.inf) if record.record_id == records[1].record_id else verdict

        monkeypatch.setattr(cli, "detect", detect_inf)
        assert run(argv) == EX_ERROR
        captured = capsys.readouterr()
        assert captured.out == finite[0] + finite[2]
        assert captured.err == f"rxcheck: record {records[1].record_id}: R = inf: not a finite number\n"

    def test_record_without_model_does_not_abort_batch(
        self, cohort_csv, params_json, tmp_path, capsys
    ):
        records, _ = make_cohort("3D", per_cluster=15, seed=20)
        imrt, _ = make_cohort("IMRT", per_cluster=15, seed=21)
        query_path = tmp_path / "query.csv"
        write_records_csv(query_path, [records[0], imrt[0], records[1]])
        kept, _ = filter_cohort(records)
        db = build_historical_db(kept["3D"])
        expected = [verdict_to_dict(detect(q, db, PARAMS)) for q in (records[0], records[1])]

        def check(historical):
            return run(["check", "--input", str(query_path),
                        "--historical", str(historical), "--params", str(params_json)])

        # No IMRT reference set in a 3D-only history.
        assert check(cohort_csv) == EX_ERROR
        captured = capsys.readouterr()
        assert verdict_lines(captured.out) == expected
        assert captured.err == (
            f"rxcheck: record {imrt[0].record_id}: "
            "no reference database for technique 'IMRT'\n"
        )

        # An IMRT reference set, but no IMRT parameters.
        both_path = tmp_path / "both.csv"
        write_records_csv(both_path, records + imrt)
        assert check(both_path) == EX_ERROR
        captured = capsys.readouterr()
        assert verdict_lines(captured.out) == expected
        assert captured.err == (
            f"rxcheck: record {imrt[0].record_id}: "
            "no trained parameters for technique 'IMRT'\n"
        )

    @pytest.mark.parametrize("flags", [[], ["--quantile-boundaries", "0.005,0.995"]],
                             ids=["no-range-check", "quantile-boundaries"])
    def test_integer_too_large_for_a_float_does_not_abort_batch(
        self, cohort_csv, params_json, tmp_path, capsys, flags
    ):
        records, _ = make_cohort("3D", per_cluster=15, seed=20)
        huge = 10 ** 400  # a 401-digit cell, which the parser keeps
        queries = [records[0], rec("huge-fx", huge, 1250), rec("huge-age", 4, 1250, age_at_tx=huge), records[1]]
        query_path = tmp_path / "query.csv"
        write_records_csv(query_path, queries)
        assert run(["check", "--input", str(query_path), "--historical", str(cohort_csv),
                    "--params", str(params_json), *flags]) == EX_ERROR
        captured = capsys.readouterr()
        assert [v["record_id"] for v in verdict_lines(captured.out)] == [
            records[0].record_id, records[1].record_id]
        assert captured.err == (
            "rxcheck: record huge-fx: fractions: 401-digit integer overflows a float\n"
            "rxcheck: record huge-age: age_at_tx: 401-digit integer overflows a float\n"
        )

    def test_bed_too_large_for_a_float_does_not_abort_batch(self, cohort_csv, params_json, tmp_path, capsys):
        records, _ = make_cohort("3D", per_cluster=15, seed=20)
        # Each part fits a float; their product, which BED starts from, does not.
        queries = [rec("huge-bed", 10 ** 200, 10 ** 200), records[0]]
        query_path = tmp_path / "query.csv"
        write_records_csv(query_path, queries)
        assert run(["check", "--input", str(query_path), "--historical", str(cohort_csv),
                    "--params", str(params_json), "--quantile-boundaries", "0.005,0.995"]) == EX_ERROR
        captured = capsys.readouterr()
        assert [v["record_id"] for v in verdict_lines(captured.out)] == [records[0].record_id]
        assert captured.err == (
            "rxcheck: record huge-bed: fractions x dose_per_fraction: product overflows a float\n"
        )

    def test_infinite_bed_does_not_abort_batch(self, cohort_csv, params_json, tmp_path, capsys):
        records, _ = make_cohort("3D", per_cluster=15, seed=20)
        # The product 10**300 and R fit a float; BED does not, so no verdict
        # may carry a range violation of value Infinity.
        queries = [records[0], rec("huge-bed", 10 ** 150, 10 ** 150), records[1]]
        query_path = tmp_path / "query.csv"
        write_records_csv(query_path, queries)
        assert run(["check", "--input", str(query_path), "--historical", str(cohort_csv),
                    "--params", str(params_json), "--quantile-boundaries", "0.005,0.995"]) == EX_ERROR
        captured = capsys.readouterr()
        assert [v["record_id"] for v in verdict_lines(captured.out)] == [
            records[0].record_id, records[1].record_id]
        assert captured.err == "rxcheck: record huge-bed: fractions, dose_per_fraction: BED overflows a float\n"

    @pytest.mark.parametrize("flags", [[], ["--quantile-boundaries", "0.005,0.995"]],
                             ids=["no-range-check", "quantile-boundaries"])
    def test_distance_too_large_for_a_float_does_not_abort_batch(
        self, cohort_csv, params_json, tmp_path, capsys, flags
    ):
        records, _ = make_cohort("3D", per_cluster=15, seed=20)
        # Every part fits a float, and so does 10**200 x 1, but the scaled
        # squares of R do not: no verdict may carry an infinite R.
        queries = [rec("huge-rho", 10 ** 200, 1), rec("huge-both", 10 ** 200, 10 ** 200), records[0]]
        query_path = tmp_path / "query.csv"
        write_records_csv(query_path, queries)
        assert run(["check", "--input", str(query_path), "--historical", str(cohort_csv),
                    "--params", str(params_json), *flags]) == EX_ERROR
        captured = capsys.readouterr()
        assert [v["record_id"] for v in verdict_lines(captured.out)] == [records[0].record_id]
        assert captured.err == (
            "rxcheck: record huge-rho: fractions, dose_per_fraction: prescription distance overflows a float\n"
            "rxcheck: record huge-both: fractions x dose_per_fraction: product overflows a float\n"
        )

    @pytest.mark.parametrize("flags", [[], ["--quantile-boundaries", "0.005,0.995"]],
                             ids=["no-range-check", "quantile-boundaries"])
    def test_overflow_names_the_step_that_raised(self, cohort_csv, params_json, tmp_path, capsys, flags):
        records, _ = make_cohort("3D", per_cluster=15, seed=20)
        # The product 10**200 fits a float and BED does not, but the
        # prescription distance, computed before the range check, overflows
        # first; without a range check no BED is computed at all.
        queries = [rec("huge-dose", 1, 10 ** 200), records[0]]
        query_path = tmp_path / "query.csv"
        write_records_csv(query_path, queries)
        assert run(["check", "--input", str(query_path), "--historical", str(cohort_csv),
                    "--params", str(params_json), *flags]) == EX_ERROR
        captured = capsys.readouterr()
        assert [v["record_id"] for v in verdict_lines(captured.out)] == [records[0].record_id]
        assert captured.err == (
            "rxcheck: record huge-dose: fractions, dose_per_fraction: prescription distance overflows a float\n"
        )

    def test_run_config_supplies_paths(self, cohort_csv, params_json, tmp_path, capsys):
        records, _ = make_cohort("3D", per_cluster=15, seed=20)
        query = tmp_path / "query.csv"
        write_records_csv(query, records[:1])
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "historical": str(cohort_csv), "params": str(params_json)}))
        code = run(["check", "--input", str(query), "--config", str(config)])
        assert code == EX_OK
        assert [v["status"] for v in verdict_lines(capsys.readouterr().out)] == ["Pass"]

        # A byte that is not UTF-8, here in the historical path, is replaced
        # as in the other readers.
        (tmp_path / "caf\ufffd.csv").write_bytes(cohort_csv.read_bytes())
        text = json.dumps({"historical": str(tmp_path / "caf?.csv"), "params": str(params_json)})
        config.write_bytes(text.encode().replace(b"caf?", b"caf\xe9"))
        code = run(["check", "--input", str(query), "--config", str(config)])
        assert code == EX_OK
        assert [v["status"] for v in verdict_lines(capsys.readouterr().out)] == ["Pass"]

    def test_byte_order_mark_is_dropped(self, cohort_csv, tmp_path, capsys):
        # Spreadsheet tools often save UTF-8 with a leading byte order mark.
        def with_bom(path, text):
            path.write_bytes(b"\xef\xbb\xbf" + text.encode())
            return str(path)

        records, _ = make_cohort("3D", per_cluster=15, seed=20)
        history = with_bom(tmp_path / "history.csv", cohort_csv.read_text())
        query = with_bom(tmp_path / "query.csv", records_csv_text(records[:1]))
        params = with_bom(tmp_path / "params.json", json.dumps({"3D": PARAMS.as_dict()}))
        cohort = tmp_path / "cohort.json"
        CohortConfig().to_json(cohort)
        cohort = with_bom(cohort, cohort.read_text())
        config = with_bom(tmp_path / "run.json", json.dumps(
            {"historical": history, "params": params, "cohort_config": cohort}))

        out = tmp_path / "ingested"
        assert run(["ingest", "--input", history, "--out", str(out), "--config", config]) == EX_OK
        assert json.loads((out / "db_meta.json").read_text())["3D"]["size"] == 90
        capsys.readouterr()
        assert run(["check", "--input", query, "--config", config]) == EX_OK
        assert [v["status"] for v in verdict_lines(capsys.readouterr().out)] == ["Pass"]

    @pytest.mark.parametrize("broken", ["params", "boundaries", "run-config", "cohort-config"])
    def test_json_syntax_error_names_the_file(self, cohort_csv, params_json, tmp_path, capsys, broken):
        records, _ = make_cohort("3D", per_cluster=15, seed=20)
        query = tmp_path / "query.csv"
        write_records_csv(query, records[:1])
        bad = tmp_path / "bad.json"
        bad.write_text('{"3D": {"a": 1,')
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"cohort_config": str(bad)}))
        flags = {
            "params": ["--params", str(bad)],
            "boundaries": ["--params", str(params_json), "--boundaries", str(bad)],
            "run-config": ["--params", str(params_json), "--config", str(bad)],
            "cohort-config": ["--params", str(params_json), "--config", str(config)],
        }[broken]
        code = run(["check", "--input", str(query), "--historical", str(cohort_csv), *flags])
        assert code == EX_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"rxcheck: error: {bad}: ")

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_params_rejected_before_any_verdict(
        self, cohort_csv, tmp_path, capsys, value
    ):
        # Python's json reads these constants, but they are not JSON. A flat
        # file and a per-technique one are both refused as they are read.
        records, _ = make_cohort("3D", per_cluster=15, seed=20)
        query = tmp_path / "query.csv"
        write_records_csv(query, records[:3])
        params = tmp_path / "params.json"
        entry = f'{{"a": {value}, "b": 0.25, "mu": 0.05, "nu": 0.05}}'
        for text in (entry, f'{{"3D": {entry}}}'):
            params.write_text(text)
            code = run(["check", "--input", str(query), "--historical", str(cohort_csv),
                        "--params", str(params)])
            assert code == EX_ERROR
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"rxcheck: error: {params}: {value} is not valid JSON\n"

    @pytest.mark.parametrize("value, problem", [
        ("-Infinity", "-Infinity is not valid JSON"),
        ("-1e999", "-1e999 overflows a float"),
    ])
    def test_non_finite_boundary_rejected_before_any_verdict(
        self, cohort_csv, params_json, tmp_path, capsys, value, problem
    ):
        # Read as -inf, the bound would pass the preset's checks and be
        # written into a range violation as -Infinity, which is not JSON.
        records, _ = make_cohort("3D", per_cluster=15, seed=20)
        query = tmp_path / "query.csv"
        write_records_csv(query, records[:2])
        boundaries = tmp_path / "bounds.json"
        boundaries.write_text(json.dumps({"techniques": {"3D": {
            "min_bed": 0, "max_bed": 10 ** 6, "min_fractions": "LOW", "max_fractions": 40,
            "min_dose_per_fraction": 100, "max_dose_per_fraction": 900}}}).replace('"LOW"', value))
        code = run(["check", "--input", str(query), "--historical", str(cohort_csv),
                    "--params", str(params_json), "--boundaries", str(boundaries)])
        assert code == EX_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"rxcheck: error: {boundaries}: {problem}\n"

    @pytest.mark.parametrize("entry, problem", [
        ('{"a": 1}', "missing key 'b', 'mu', 'nu'"),
        ("5", "expected an object with keys a, b, mu, nu, got 5"),
        ('{"a": "x", "b": 1, "mu": 0.05, "nu": 0.05}', "key 'a': expected a number, got 'x'"),
        ('{"a": NaN, "b": 1, "mu": 0.05, "nu": 0.05}', "NaN is not valid JSON"),
        ('{"a": 0, "b": 1, "mu": 0.05, "nu": 0.05}', "a and b must be finite and positive, got a=0.0, b=1.0"),
        ('{"a": 1, "b": 1, "mu": 0.05, "nu": 0.05, "nux": 0.05}', "unknown key 'nux'"),
    ])
    def test_malformed_params_entry_named_before_any_verdict(
        self, cohort_csv, tmp_path, capsys, entry, problem
    ):
        records, _ = make_cohort("3D", per_cluster=15, seed=20)
        query = tmp_path / "query.csv"
        write_records_csv(query, records[:3])
        params = tmp_path / "params.json"
        params.write_text(f'{{"3D": {entry}}}')
        out = tmp_path / "out"
        code = run(["check", "--input", str(query), "--historical", str(cohort_csv),
                    "--params", str(params), "--out", str(out)])
        assert code == EX_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        # NaN is not JSON: the file is refused as it is read, before any
        # entry is looked at, so the message names the file alone.
        where = "" if "NaN" in entry else "technique '3D': "
        assert captured.err == f"rxcheck: error: {params}: {where}{problem}\n"
        assert not (out / "verdicts.jsonl").exists()

    def test_record_without_boundaries_does_not_abort_batch(
        self, cohort_csv, params_json, tmp_path, capsys
    ):
        records, _ = make_cohort("3D", per_cluster=15, seed=20)
        query = tmp_path / "query.csv"
        write_records_csv(query, records[:2])
        boundaries = tmp_path / "bounds.json"
        write_boundaries(boundaries, Boundaries(
            by_technique={"SBRT": table_preset().by_technique["SBRT"]}, check_bed=False))
        code = run(["check", "--input", str(query), "--historical", str(cohort_csv),
                    "--params", str(params_json), "--boundaries", str(boundaries)])
        assert code == EX_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "".join(
            f"rxcheck: record {r.record_id}: no boundaries for technique '3D'\n" for r in records[:2]
        )

    def test_malformed_boundaries_named_before_any_verdict(
        self, cohort_csv, params_json, tmp_path, capsys
    ):
        records, _ = make_cohort("3D", per_cluster=15, seed=20)
        query = tmp_path / "query.csv"
        write_records_csv(query, records[:2])
        boundaries = tmp_path / "bounds.json"
        boundaries.write_text(json.dumps({"techniques": {"3D": {
            "min_bed": 0, "min_fractions": 1, "max_fractions": 40,
            "min_dose_per_fraction": 100, "max_dose_per_fraction": 900}}}))
        code = run(["check", "--input", str(query), "--historical", str(cohort_csv),
                    "--params", str(params_json), "--boundaries", str(boundaries)])
        assert code == EX_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"rxcheck: error: {boundaries}: technique '3D': missing key 'max_bed'\n"

    @pytest.mark.parametrize("bad, problem", [
        ({"min_bed": "a"}, "key 'min_bed': expected a number, got 'a'"),
        ({"max_bed": None}, "key 'max_bed': expected a number, got None"),
        ({"min_fractions": True}, "key 'min_fractions': expected a number, got True"),
        ({"min_bed": 5, "max_bed": 1}, "key 'min_bed' 5 exceeds key 'max_bed' 1"),
        ({"max_bedd": 10 ** 6}, "unknown key 'max_bedd'"),
    ])
    def test_bad_boundary_values_named_before_any_verdict(
        self, cohort_csv, params_json, tmp_path, capsys, bad, problem
    ):
        records, _ = make_cohort("3D", per_cluster=15, seed=20)
        query = tmp_path / "query.csv"
        write_records_csv(query, records[:2])
        boundaries = tmp_path / "bounds.json"
        boundaries.write_text(json.dumps({"techniques": {"3D": {
            "min_bed": 0, "max_bed": 10 ** 6, "min_fractions": 1, "max_fractions": 40,
            "min_dose_per_fraction": 100, "max_dose_per_fraction": 900, **bad}}}))
        out = tmp_path / "out"
        code = run(["check", "--input", str(query), "--historical", str(cohort_csv),
                    "--params", str(params_json), "--boundaries", str(boundaries), "--out", str(out)])
        assert code == EX_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"rxcheck: error: {boundaries}: technique '3D': {problem}\n"
        assert not (out / "verdicts.jsonl").exists()


class TestTrain:
    def test_budget_one_trace(self, cohort_csv, tmp_path):
        out = tmp_path / "trained"
        code = run([
            "train", "--input", str(cohort_csv), "--out", str(out),
            "--budget", "1", "--runs", "2", "--sn", "6", "--seed", "0",
            "--strategy", "random",
        ])
        assert code == EX_OK
        trace = (out / "trace_3D.csv").read_text().strip().split("\n")
        assert len(trace) == 2  # header + one evaluation
        params = json.loads((out / "params.json").read_text())
        assert set(params["3D"]) == {"a", "b", "mu", "nu"}
        assert (out / "sa_3D.csv").exists() and (out / "sa_3D.json").exists()

    def test_technique_too_small_to_split_is_skipped(self, tmp_path, capsys):
        three_d, _ = make_cohort("3D", per_cluster=5, seed=21)
        sbrt, _ = make_cohort("SBRT", per_cluster=3, seed=22)  # 18 rows
        path = tmp_path / "mixed.csv"
        write_records_csv(path, three_d + sbrt)
        out = tmp_path / "trained"
        code = run([
            "train", "--input", str(path), "--out", str(out),
            "--budget", "1", "--runs", "2", "--sn", "20", "--seed", "0",
            "--strategy", "random",
        ])
        assert code == EX_ERROR
        assert set(json.loads((out / "params.json").read_text())) == {"3D"}
        err = capsys.readouterr().err
        assert err.count("rxcheck: train[SBRT]: skipped: ") == 1
        assert not (out / "trace_SBRT.csv").exists()

    def test_technique_that_cannot_be_forged_is_skipped(self, tmp_path, capsys):
        three_d, _ = make_cohort("3D", per_cluster=15, seed=20)
        path = tmp_path / "mixed.csv"
        write_records_csv(path, three_d + unforgeable_imrt())
        out = tmp_path / "trained"
        code = run([
            "train", "--input", str(path), "--out", str(out),
            "--budget", "1", "--runs", "2", "--sn", "6", "--seed", "0",
            "--strategy", "random",
        ])
        assert code == EX_ERROR
        assert set(json.loads((out / "params.json").read_text())) == {"3D"}
        err = capsys.readouterr().err
        assert err.count("rxcheck: train[IMRT]: skipped: gave up after ") == 1
        assert not (out / "trace_IMRT.csv").exists()

    def test_no_technique_trainable_is_usage_error(self, tmp_path, capsys):
        sbrt, _ = make_cohort("SBRT", per_cluster=3, seed=22)
        path = tmp_path / "small.csv"
        write_records_csv(path, sbrt)
        out = tmp_path / "trained"
        code = run(["train", "--input", str(path), "--out", str(out), "--sn", "20"])
        assert code == EX_USAGE
        assert "train[SBRT]: skipped" in capsys.readouterr().err
        assert not (out / "params.json").exists()

    def test_trained_model_flags_fresh_swap(self, cohort_csv, tmp_path, capsys):
        out = tmp_path / "trained2"
        code = run([
            "train", "--input", str(cohort_csv), "--out", str(out),
            "--budget", "30", "--runs", "5", "--sn", "10", "--seed", "1",
        ])
        assert code == EX_OK
        capsys.readouterr()  # drain the training progress lines
        records, _ = make_cohort("3D", per_cluster=15, seed=20)
        swapped, _ = swap_leading_digits(records[7])
        query = tmp_path / "sa_query.csv"
        write_records_csv(query, [swapped])
        code = run([
            "check", "--input", str(query), "--historical", str(cohort_csv),
            "--params", str(out / "params.json"),
        ])
        assert code == EX_FLAGGED
        assert [v["status"] for v in verdict_lines(capsys.readouterr().out)] == ["Type1Flag"]


class TestSimulateEvaluateHist:
    def test_simulate_outputs(self, cohort_csv, tmp_path):
        out = tmp_path / "sa"
        code = run([
            "simulate", "--input", str(cohort_csv), "--out", str(out), "--seed", "3",
        ])
        assert code == EX_OK
        payload = json.loads((out / "sa_3D.json").read_text())
        assert len(payload) == 20  # 10 swaps + 10 feature mutations

    @pytest.mark.parametrize("text, problem", [
        ('["x"]', "expected a JSON object, got ['x']"),
        ('{"historicl": "history.csv"}', "unknown key 'historicl'"),
        ('{"seed": "abc"}', "key 'seed': expected an integer, got 'abc'"),
        ('{"seed": true}', "key 'seed': expected an integer, got True"),
        ('{"seed": -1}', "key 'seed': must be at least 0, got -1"),
        ('{"out": 5}', "key 'out': expected a string, got 5"),
    ], ids=["array", "misspelled-key", "string-seed", "boolean-seed", "negative-seed", "number-path"])
    def test_malformed_run_config_named(self, cohort_csv, tmp_path, capsys, text, problem):
        config = tmp_path / "run.json"
        config.write_text(text)
        code = run(["simulate", "--input", str(cohort_csv), "--out", str(tmp_path / "sa"),
                    "--config", str(config)])
        assert code == EX_ERROR
        assert capsys.readouterr().err == f"rxcheck: error: {config}: {problem}\n"

    def test_simulate_skips_technique_that_cannot_be_forged(self, tmp_path, capsys):
        three_d, _ = make_cohort("3D", per_cluster=15, seed=20)
        path = tmp_path / "mixed.csv"
        write_records_csv(path, unforgeable_imrt() + three_d)
        out = tmp_path / "sa"
        assert run(["simulate", "--input", str(path), "--out", str(out), "--seed", "3"]) == EX_ERROR
        assert len(json.loads((out / "sa_3D.json").read_text())) == 20
        assert not (out / "sa_IMRT.json").exists()
        assert capsys.readouterr().err.count("rxcheck: simulate[IMRT]: skipped: gave up after ") == 1

    @pytest.mark.parametrize("command", ["hist", "evaluate"])
    def test_run_config_supplies_out(self, cohort_csv, tmp_path, capsys, command):
        source = predictions_csv(tmp_path / "preds.csv") if command == "evaluate" else cohort_csv
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"out": str(tmp_path / "out")}))
        assert run([command, "--input", str(source), "--config", str(config)]) == EX_OK
        written = "summary.json" if command == "evaluate" else "hist_rx_3D.csv"
        assert (tmp_path / "out" / written).exists()

        # Without --out or a config out there is nowhere to write.
        assert run([command, "--input", str(source)]) == EX_USAGE
        assert capsys.readouterr().err.endswith(f"rxcheck: {command} needs --out (or a config with one)\n")

    def test_simulate_deterministic(self, cohort_csv, tmp_path):
        out1, out2 = tmp_path / "sa1", tmp_path / "sa2"
        for out in (out1, out2):
            assert run(["simulate", "--input", str(cohort_csv),
                        "--out", str(out), "--seed", "9"]) == EX_OK
        assert (out1 / "sa_3D.csv").read_bytes() == (out2 / "sa_3D.csv").read_bytes()

    def test_evaluate_bundle(self, tmp_path):
        path = predictions_csv(tmp_path / "preds.csv")
        out = tmp_path / "report"
        assert run(["evaluate", "--input", str(path), "--out", str(out)]) == EX_OK
        summary = json.loads((out / "summary.json").read_text())
        assert {"md1", "md2", "model", "consensus-best", "consensus-worst"} <= set(
            summary["metrics"]
        )
        assert "venn" in summary

    def test_hist_outputs(self, cohort_csv, tmp_path):
        out = tmp_path / "hists"
        assert run(["hist", "--input", str(cohort_csv), "--out", str(out),
                    "--bin-width", "0.1"]) == EX_OK
        text = (out / "hist_rx_3D.csv").read_text()
        assert text.startswith("bin_low,bin_high,mass")
        masses = [float(line.split(",")[2]) for line in text.strip().split("\n")[1:]]
        assert abs(sum(masses) - 1.0) < 1e-9
        assert (out / "hist_feature_3D.csv").exists()

    def test_evaluate_rejects_a_repeated_record(self, tmp_path, capsys):
        path = tmp_path / "preds.csv"
        path.write_text("record_id,truth,prediction,source\n"
                        "r1,1,1,md\nr2,0,0,md\nr1,1,0,md\nr1,1,1,model\nr2,0,0,model\n")
        out = tmp_path / "report"
        assert run(["evaluate", "--input", str(path), "--out", str(out)]) == EX_ERROR
        assert capsys.readouterr().err == f"rxcheck: error: {path}: row 3: record 'r1' of source 'md' repeats row 1\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("source", ["consensus-best", "none"])
    def test_evaluate_rejects_a_reserved_source(self, tmp_path, capsys, source):
        # A rater named as one of the report's own rows would share its
        # cells: consensus-best's confusion row, or the Venn region of the
        # records in no set.
        path = tmp_path / "preds.csv"
        path.write_text("record_id,truth,prediction,source\n"
                        f"r1,1,1,md\nr2,0,0,md\nr3,0,0,md\nr1,1,1,{source}\nr2,0,1,{source}\nr3,0,0,{source}\n")
        out = tmp_path / "report"
        assert run(["evaluate", "--input", str(path), "--out", str(out)]) == EX_ERROR
        assert capsys.readouterr().err == f"rxcheck: error: {path}: row 4: column 'source': {source!r} is a reserved name\n"
        assert list(out.iterdir()) == []

    def test_hist_rejects_a_bin_width_with_too_many_bins(self, cohort_csv, tmp_path, capsys):
        # sqrt(2) / 1.4142e-06 is just past the bound of 10**6 bins.
        out = tmp_path / "hists"
        assert run(["hist", "--input", str(cohort_csv), "--out", str(out), "--bin-width", "1.4142e-06"]) == EX_ERROR
        assert capsys.readouterr().err == (
            "rxcheck: error: bin_width 1.4142e-06 gives 1000010 bins over [0, sqrt(2)], more than 1000000\n"
        )
        assert list(out.iterdir()) == []


class TestRunConfig:
    """A run config (--config) fills each setting whose flag is not given."""

    @pytest.fixture
    def query(self, tmp_path):
        records, _ = make_cohort("3D", per_cluster=15, seed=20)
        path = tmp_path / "query.csv"
        write_records_csv(path, [records[0], swap_leading_digits(records[1])[0], records[2]])
        return path

    def test_boundary_flags_exclude_each_other(self, query, cohort_csv, params_json, tmp_path, capsys):
        bounds = tmp_path / "bounds.json"
        write_boundaries(bounds, table_preset())
        assert run(["check", "--input", str(query), "--historical", str(cohort_csv),
                    "--params", str(params_json), "--boundaries", str(bounds),
                    "--quantile-boundaries", "0,1"]) == EX_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument --boundaries" in captured.err

    @pytest.mark.parametrize("key", ["historical", "params", "boundaries", "out"])
    def test_flag_beats_config(self, query, cohort_csv, params_json, tmp_path, key):
        bounds = tmp_path / "bounds.json"
        write_boundaries(bounds, table_preset())
        out = tmp_path / "out"
        flags = {"historical": cohort_csv, "params": params_json, "boundaries": bounds, "out": out}
        argv = ["check", "--input", str(query)]
        for name, value in flags.items():
            argv += [f"--{name}", str(value)]
        code = run(argv)
        expected = (out / "verdicts.jsonl").read_text()
        (out / "verdicts.jsonl").unlink()
        # The config's value names nothing: read, it would stop the run (exit
        # 66); as the out directory, it would be made.
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: str(tmp_path / "absent")}))
        assert run([*argv, "--config", str(config)]) == code
        assert (out / "verdicts.jsonl").read_text() == expected
        assert not (tmp_path / "absent").exists()

    def test_seed_flag_beats_config(self, cohort_csv, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"seed": 1}))
        forged = {}
        for name, flags in {"flag": ["--seed", "9"], "both": ["--seed", "9", "--config", str(config)],
                            "config": ["--config", str(config)]}.items():
            out = tmp_path / name
            assert run(["simulate", "--input", str(cohort_csv), "--out", str(out), *flags]) == EX_OK
            forged[name] = (out / "sa_3D.csv").read_bytes()
        assert forged["both"] == forged["flag"] != forged["config"]

    def test_quantile_boundaries_replace_config_boundaries(
        self, query, cohort_csv, params_json, tmp_path, capsys
    ):
        # A preset whose bounds no record meets: alone, it flags every record.
        narrow = tmp_path / "narrow.json"
        narrow.write_text(json.dumps({"techniques": {"3D": {
            "min_bed": 0, "max_bed": 1, "min_fractions": 1, "max_fractions": 1,
            "min_dose_per_fraction": 1, "max_dose_per_fraction": 1}}}))
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"historical": str(cohort_csv), "params": str(params_json),
                                      "boundaries": str(narrow)}))
        check = ["check", "--input", str(query), "--config", str(config)]
        assert run(check) == EX_FLAGGED
        assert {v["status"] for v in verdict_lines(capsys.readouterr().out)} == {"RangeFlag"}

        quantile = ["--quantile-boundaries", "0.005,0.995"]
        code = run(["check", "--input", str(query), "--historical", str(cohort_csv),
                    "--params", str(params_json), *quantile])
        expected = capsys.readouterr().out
        assert {v["status"] for v in verdict_lines(expected)} != {"RangeFlag"}
        assert run([*check, *quantile]) == code
        assert capsys.readouterr().out == expected

        # The config's preset is still read before the quantiles replace it.
        config.write_text(json.dumps({"historical": str(cohort_csv), "params": str(params_json),
                                      "boundaries": str(tmp_path / "absent.json")}))
        assert run([*check, *quantile]) == EX_NOINPUT


# ---------------------------------------------------------------------------
# check against the oracles, end to end
# ---------------------------------------------------------------------------

_TECHNIQUE_LABELS = {"3D": ("3D", "3d", "3D-CRT"), "IMRT": ("IMRT", "vmat"), "SBRT": ("SBRT", "sbrt")}
_RX_POOL = ((5, 400), (10, 300), (20, 200), (30, 180), (3, 1000), (25, 200))
_ENERGY_LABELS = ("x06",) * 6 + ("6X", "x10", "X10", "x15", None, "x18")
_INTENT_LABELS = (None, "curative", "Curative", "palliative")
_ICD10_LABELS = ("C34.10",) * 6 + ("C34.1", "C15.9", "C61", None)
_MORPHOLOGY_LABELS = (None, "80463", "81406")
_AGES = (None, 45, 60, 60, 75, 60, 45, 130)
_QUANTILES = ("0.05,0.95", "0,1", "0.2,0.8")


@st.composite
def _check_inputs(draw):
    """(history CSV, batch CSV, params) for a check run. The history spans
    two or three techniques, with label variants, missing cells, and rows the
    cohort filter excludes: an energy or diagnosis off its whitelist, an
    unmodeled technique, a dose mismatch, a re-plan, an age out of range.
    Batch records may be of a technique without a reference set, miss every
    feature, or hold a prescription the history lacks; a batch row may be
    malformed."""
    techniques = draw(st.lists(st.sampled_from(sorted(_TECHNIQUE_LABELS)), min_size=2, max_size=3, unique=True))
    pool = draw(st.lists(st.sampled_from(_RX_POOL), min_size=1, max_size=4, unique=True))

    def record(record_id, technique, rx, features=True):
        fractions, dose = rx
        total = fractions * dose + draw(st.sampled_from((0,) * 11 + (1,)))
        accumulated = total + draw(st.sampled_from((0,) * 11 + (2000,)))
        labels = [draw(st.sampled_from(choices)) if features else None
                  for choices in (_ENERGY_LABELS, _INTENT_LABELS, _ICD10_LABELS, _MORPHOLOGY_LABELS)]
        age = draw(st.sampled_from(_AGES)) if features else None
        return TreatmentRecord(record_id, Prescription(fractions, dose, total, accumulated), technique, *labels, age)

    def technique_label(extra=()):
        return draw(st.sampled_from([label for t in techniques for label in _TECHNIQUE_LABELS[t]] + list(extra)))

    history = [
        record(f"P{draw(st.integers(0, 4))}/{k}", technique_label(("Brachy",)), draw(st.sampled_from(pool)))
        for k in range(draw(st.integers(8, 40)))
    ]
    batch = [
        record(f"Q{k}", technique_label(("SBRT", "Gamma")),
               draw(st.sampled_from(pool + [(1, 5000), (40, 150), (0, 200)])), draw(st.integers(0, 5)) > 0)
        for k in range(draw(st.integers(1, 6)))
    ]
    batch_csv = records_csv_text(batch)
    if draw(st.booleans()):
        batch_csv += "Q9,five,200,1000,1000,3D,x06,,C34.10,,\n"
    params = ModelParams(
        a=draw(st.floats(0.2, 3.0)), b=draw(st.floats(0.2, 3.0)),
        mu=draw(st.floats(0.01, 0.1)), nu=draw(st.floats(0.01, 0.1)),
    )
    return records_csv_text(history), batch_csv, params, draw(st.sampled_from(_QUANTILES))


def _oracle_quantile(values, q):
    """numpy's default quantile (linear interpolation between the order
    statistics around (len - 1) * q), in pure Python."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    a, b = ordered[low], ordered[min(low + 1, len(ordered) - 1)]
    t = position - low
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _oracle_bed(fractions, dose):
    return fractions * dose * (1.0 + dose / 1000.0)


def _oracle_verdict(record, reference, params, quantile):
    """What check prints for a record against its technique's kept history
    records, by the oracles alone: the verdict's fields, or None where no
    verdict exists (no reference set, or too few comparable records)."""
    if reference is None:
        return None
    schema = oracle_schema(reference)
    theta, tau = oracle_theta_tau(reference, schema)
    size = len(reference)
    m, n = (max(1, math.floor(fraction * size + 0.5)) for fraction in (params.mu, params.nu))
    t_rx, t_f = params.a * theta, params.b * tau
    fs = [r.prescription.fractions for r in reference]
    ds = [r.prescription.dose_per_fraction for r in reference]
    p = record.prescription
    warnings = [v.kind for v in validate_record(record)]
    scaled = (oracle_scale(p.fractions, min(fs), max(fs)), oracle_scale(p.dose_per_fraction, min(ds), max(ds)))
    if not all(0.0 <= value <= 1.0 for value in scaled):
        warnings.append("RxScaledOutOfRange")
    same = sum(r.rx == record.rx for r in reference)
    r_value, _ = oracle_closest_m(record, reference, schema, m)
    f_value = None
    if r_value <= t_rx:
        f_value, _ = oracle_closest_n(record, reference, schema, n)
        if f_value is None:
            return None
        if same < n:
            warnings.append("InsufficientSameRx")
    violated = False
    if quantile is not None:
        low, high = (float(q) for q in quantile.split(","))
        for value_of in (lambda f, d: f, lambda f, d: d, _oracle_bed):
            values = [float(value_of(float(f), float(d))) for f, d in zip(fs, ds)]
            value = value_of(p.fractions, p.dose_per_fraction)
            violated |= not _oracle_quantile(values, low) <= value <= _oracle_quantile(values, high)
    if violated:
        status = "RangeFlag"
    elif r_value > t_rx:
        status = "Type1Flag"
    else:
        status = "Type2Flag" if f_value > t_f else "Pass"
    # A sum that lands within the tolerance of its threshold, but not on it,
    # may fall on either side of it in the program's summation order.
    undecided = any(value is not None and value != limit and close(value, limit)
                    for value, limit in ((r_value, t_rx), (f_value, t_f)))
    return {"status": status, "R": r_value, "t_rx": t_rx, "F": f_value, "t_f": t_f,
            "same_rx_count": same, "warnings": warnings, "undecided": undecided}


_RECORD_LINE = re.compile(r"rxcheck: record (\S+): (.+)")


@seed(20216)
@settings(deadline=None, max_examples=60, database=None)
@given(inputs=_check_inputs())
def test_check_matches_the_oracle_chain(tmp_path_factory, inputs):
    history_text, batch_text, params, quantile = inputs
    work = tmp_path_factory.mktemp("check")
    history, batch, params_path = work / "history.csv", work / "batch.csv", work / "params.json"
    history.write_text(history_text)
    batch.write_text(batch_text)
    write_params_json(params_path, {"*": params})

    config = CohortConfig()
    kept, _ = oracle_filter(oracle_normalize(oracle_parse(history)[0], config.label_mappings)[0], config)
    references = {technique: rows for technique, rows in kept.items() if len(rows) >= 2}
    records, row_diagnostics = oracle_parse(batch)
    records, _ = oracle_normalize(records, config.label_mappings)
    for flags in ([], ["--quantile-boundaries", quantile]):
        expected = {
            r.record_id: _oracle_verdict(r, references.get(r.technique), params, quantile if flags else None)
            for r in records
        }
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["check", "--input", str(batch), "--historical", str(history),
                        "--params", str(params_path), *flags])
        verdicts = {v["record_id"]: v for v in verdict_lines(out.getvalue())}
        # The reference sets are built, and name their degenerate prescription
        # dimensions, before the batch is read.
        degenerate = oracle_degenerate_lines(references)
        lines = err.getvalue().splitlines()
        assert sorted(lines[:len(degenerate)]) == degenerate
        lines = lines[len(degenerate):]
        assert sum(line.startswith("rxcheck: row ") for line in lines) == len(row_diagnostics)
        unscored = [_RECORD_LINE.fullmatch(line).group(1) for line in lines if not line.startswith("rxcheck: row ")]
        assert sorted(unscored + list(verdicts)) == sorted(expected)
        assert all(expected[record_id] is None for record_id in unscored)
        for record_id, got in verdicts.items():
            want = expected[record_id]
            assert want is not None
            for key in ("R", "t_rx", "t_f"):
                assert close(got[key], want[key])
            assert got["same_rx_count"] == want["same_rx_count"]
            if want["undecided"]:
                continue
            assert (got["status"], got["warnings"]) == (want["status"], want["warnings"])
            assert (got["F"] is None) == (want["F"] is None)
            assert got["F"] is None or close(got["F"], want["F"])
        flagged = any(v["status"] != "Pass" for v in verdicts.values())
        assert code == (EX_ERROR if unscored else EX_FLAGGED if flagged else EX_OK)
