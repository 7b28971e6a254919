from __future__ import annotations

import json

import numpy as np
import pytest

from rxcheck.cli import EX_ERROR, EX_FLAGGED, EX_NOINPUT, EX_OK, EX_USAGE, run
from rxcheck.detector import ModelParams, detect, verdict_to_dict, write_params_json
from rxcheck.ingest import CohortConfig, build_historical_db, filter_cohort
from rxcheck.ranges import Boundaries, table_preset, write_boundaries
from rxcheck.records import write_records_csv
from rxcheck.simulate import swap_leading_digits

from conftest import rec, records_csv_text
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
        ["train", "--sn", "-1"],
        ["train", "--rarity-threshold", "-1"],
        ["simulate", "--rarity-threshold", "-1"],
        ["hist", "--bin-width", "0"],
        ["hist", "--bin-width", "-0.1"],
        ["hist", "--bin-width", "nan"],
        ["hist", "--bin-width", "inf"],
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
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["status"] == "Pass"
        assert code == EX_OK

        swapped, _ = swap_leading_digits(normal)
        write_records_csv(query_path, [swapped])
        code = run([
            "check", "--input", str(query_path),
            "--historical", str(cohort_csv), "--params", str(params_json),
        ])
        payload = json.loads(capsys.readouterr().out.strip())
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
        lines = (out / "verdicts.jsonl").read_text().strip().split("\n")
        assert len(lines) == 3

    def test_cli_matches_library_composition(self, cohort_csv, params_json, tmp_path, capsys):
        records, _ = make_cohort("3D", per_cluster=15, seed=20)
        queries = [records[0], swap_leading_digits(records[1])[0]]
        query_path = tmp_path / "query.csv"
        write_records_csv(query_path, queries)
        run([
            "check", "--input", str(query_path),
            "--historical", str(cohort_csv), "--params", str(params_json),
        ])
        cli_lines = [json.loads(line) for line in capsys.readouterr().out.strip().split("\n")]

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
        payload = json.loads(capsys.readouterr().out.strip())
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
        assert [json.loads(line) for line in captured.out.strip().split("\n")] == expected
        assert captured.err.count("rxcheck: record blank: ") == 1

        out = tmp_path / "verdicts"
        assert run(argv + ["--out", str(out)]) == EX_ERROR
        assert (out / "verdicts.jsonl").read_text() == captured.out

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
        assert [json.loads(line) for line in captured.out.strip().split("\n")] == expected
        assert captured.err == (
            f"rxcheck: record {imrt[0].record_id}: "
            "no reference database for technique 'IMRT'\n"
        )

        # An IMRT reference set, but no IMRT parameters.
        both_path = tmp_path / "both.csv"
        write_records_csv(both_path, records + imrt)
        assert check(both_path) == EX_ERROR
        captured = capsys.readouterr()
        assert [json.loads(line) for line in captured.out.strip().split("\n")] == expected
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
        assert [json.loads(line)["record_id"] for line in captured.out.splitlines()] == [
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
        assert json.loads(captured.out)["record_id"] == records[0].record_id
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
        assert [json.loads(line)["record_id"] for line in captured.out.splitlines()] == [
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
        assert json.loads(captured.out)["record_id"] == records[0].record_id
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
        assert json.loads(captured.out)["record_id"] == records[0].record_id
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
        assert json.loads(capsys.readouterr().out.strip())["status"] == "Pass"

        # A byte that is not UTF-8, here in the historical path, is replaced
        # as in the other readers.
        (tmp_path / "caf\ufffd.csv").write_bytes(cohort_csv.read_bytes())
        text = json.dumps({"historical": str(tmp_path / "caf?.csv"), "params": str(params_json)})
        config.write_bytes(text.encode().replace(b"caf?", b"caf\xe9"))
        code = run(["check", "--input", str(query), "--config", str(config)])
        assert code == EX_OK
        assert json.loads(capsys.readouterr().out.strip())["status"] == "Pass"

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
        assert json.loads(capsys.readouterr().out.strip())["status"] == "Pass"

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_params_rejected_before_any_verdict(
        self, cohort_csv, tmp_path, capsys, value
    ):
        records, _ = make_cohort("3D", per_cluster=15, seed=20)
        query = tmp_path / "query.csv"
        write_records_csv(query, records[:3])
        params = tmp_path / "params.json"
        params.write_text(f'{{"a": {value}, "b": 0.25, "mu": 0.05, "nu": 0.05}}')
        code = run(["check", "--input", str(query), "--historical", str(cohort_csv),
                    "--params", str(params)])
        assert code == EX_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"rxcheck: error: {params}: technique '*': "
                                f"a and b must be finite and positive, got a={float(value)}, b=0.25\n")

    @pytest.mark.parametrize("entry, problem", [
        ('{"a": 1}', "missing key 'b', 'mu', 'nu'"),
        ("5", "expected an object with keys a, b, mu, nu, got 5"),
        ('{"a": "x", "b": 1, "mu": 0.05, "nu": 0.05}', "key 'a': expected a number, got 'x'"),
        ('{"a": NaN, "b": 1, "mu": 0.05, "nu": 0.05}', "a and b must be finite and positive, got a=nan, b=1.0"),
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
        assert captured.err == f"rxcheck: error: {params}: technique '3D': {problem}\n"
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
        assert json.loads(capsys.readouterr().out.strip())["status"] == "Type1Flag"


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
        ('{"out": 5}', "key 'out': expected a string, got 5"),
    ], ids=["array", "misspelled-key", "string-seed", "boolean-seed", "number-path"])
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
