from __future__ import annotations

import filecmp
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from rxcheck.evaluate import (
    ConfusionMatrix,
    LabeledPrediction,
    MismatchedRecords,
    UndefinedMacro,
    confusion,
    consensus_analysis,
    emit_report,
    macro_metrics,
    read_predictions_csv,
)

from oracles import oracle_confusion, oracle_consensus


def preds(source, truths, predictions):
    return [
        LabeledPrediction(f"r{i}", t, p, source)
        for i, (t, p) in enumerate(zip(truths, predictions))
    ]


def random_rater(rng, truths, source, accuracy=0.7):
    return [
        LabeledPrediction(
            f"r{i}", t, t if rng.random() < accuracy else 1 - t, source)
        for i, t in enumerate(truths)
    ]


class TestConfusion:
    def test_perfect_rater(self):
        cm = confusion(preds("m", [1] * 5 + [0] * 5, [1] * 5 + [0] * 5))
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (5, 0, 0, 5)

    def test_all_negative_predictions(self):
        # 17 anomalies and 30 normals, nothing flagged.
        cm = confusion(preds("m", [1] * 17 + [0] * 30, [0] * 47))
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (0, 0, 17, 30)

    def test_single_false_negative(self):
        cm = confusion([LabeledPrediction("r", 1, 0, "m")])
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (0, 0, 1, 0)

    def test_matches_per_record_loop(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            truths = [int(rng.integers(0, 2)) for _ in range(40)]
            predictions = [int(rng.integers(0, 2)) for _ in range(40)]
            rows = preds("m", truths, predictions)
            cm = confusion(rows)
            assert (cm.tp, cm.fp, cm.fn, cm.tn) == oracle_confusion(rows)

    def test_cells_sum_to_total(self):
        cm = confusion(preds("m", [1, 0, 1, 0], [1, 1, 0, 0]))
        assert cm.total == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            confusion([])


class TestMacroMetrics:
    def test_perfect_matrix(self):
        metrics = macro_metrics(ConfusionMatrix(5, 0, 0, 5))
        assert astuple(metrics) == (1.0, 1.0, 1.0, 1.0)

    def test_all_negative_case(self):
        metrics = macro_metrics(ConfusionMatrix(0, 0, 17, 30))
        assert metrics.accuracy == pytest.approx(30 / 47)
        # anomaly-class precision/recall/f1 are all zero-denominator -> 0
        normal_precision = 30 / 47
        assert metrics.precision == pytest.approx(normal_precision / 2)

    def test_symmetric_matrix(self):
        metrics = macro_metrics(ConfusionMatrix(10, 3, 3, 10))
        assert metrics.precision == pytest.approx(metrics.recall)

    def test_all_in_unit_interval(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            cm = ConfusionMatrix(*(int(rng.integers(0, 20)) for _ in range(4)))
            if cm.tp + cm.fn == 0 or cm.fp + cm.tn == 0:
                continue
            for value in astuple(macro_metrics(cm)):
                assert 0.0 <= value <= 1.0

    def test_absent_class_undefined(self):
        with pytest.raises(UndefinedMacro):
            macro_metrics(ConfusionMatrix(0, 0, 0, 10))


class TestConsensus:
    def test_one_perfect_rater_makes_best_case_perfect(self):
        truths = [1, 0, 1, 0, 1]
        raters = {
            "md1": preds("md1", truths, truths),
            "md2": preds("md2", truths, [0, 1, 0, 1, 0]),
        }
        best, _, _ = consensus_analysis(raters)
        assert all(p.correct for p in best)

    def test_two_identical_raters(self):
        truths = [1, 0, 1, 0]
        votes = [1, 1, 0, 0]
        raters = {"a": preds("a", truths, votes), "b": preds("b", truths, votes)}
        best, worst, _ = consensus_analysis(raters)
        assert [p.prediction for p in best] == votes
        assert [p.prediction for p in worst] == votes

    def test_best_and_worst_bracket_raters(self):
        rng = np.random.default_rng(32)
        truths = [1] * 17 + [0] * 30
        raters = {f"md{k}": random_rater(rng, truths, f"md{k}") for k in range(3)}
        best, worst, _ = consensus_analysis(raters)
        accuracies = [
            sum(p.correct for p in r) / len(r) for r in raters.values()
        ]
        best_accuracy = sum(p.correct for p in best) / len(best)
        worst_accuracy = sum(p.correct for p in worst) / len(worst)
        assert best_accuracy >= max(accuracies)
        assert worst_accuracy <= min(accuracies)

    def test_error_sets(self):
        rng = np.random.default_rng(33)
        truths = [int(rng.integers(0, 2)) for _ in range(30)]
        raters = {f"md{k}": random_rater(rng, truths, f"md{k}") for k in range(3)}
        best, worst, _ = consensus_analysis(raters)
        error_sets = [
            {p.record_id for p in r if not p.correct} for r in raters.values()
        ]
        best_errors = {p.record_id for p in best if not p.correct}
        worst_errors = {p.record_id for p in worst if not p.correct}
        assert best_errors == set.intersection(*error_sets)
        assert worst_errors == set.union(*error_sets)

    def test_mismatched_record_sets_rejected(self):
        raters = {
            "a": preds("a", [1, 0], [1, 0]),
            "b": [LabeledPrediction("other", 1, 1, "b"),
                  LabeledPrediction("r1", 0, 0, "b")],
        }
        with pytest.raises(MismatchedRecords):
            consensus_analysis(raters)

    def test_inconsistent_truth_rejected(self):
        raters = {
            "a": [LabeledPrediction("r0", 1, 1, "a")],
            "b": [LabeledPrediction("r0", 0, 1, "b")],
        }
        with pytest.raises(MismatchedRecords):
            consensus_analysis(raters)

    def test_single_rater_rejected(self):
        with pytest.raises(MismatchedRecords):
            consensus_analysis({"a": preds("a", [1], [1])})

    @pytest.mark.parametrize("repeated", ["first", "second"])
    def test_repeated_record_rejected(self, repeated):
        # Two rows for one record would count it twice in the rater's
        # confusion matrix, while the consensus could keep only one.
        raters = {"a": preds("a", [1, 0], [1, 0]), "md": preds("md", [1, 0], [1, 0])}
        source = "a" if repeated == "first" else "md"
        raters[source] = raters[source] + [LabeledPrediction("r1", 0, 1, source)]
        with pytest.raises(MismatchedRecords) as raised:
            consensus_analysis(raters)
        assert str(raised.value) == f"rater {source!r} repeats a record"

    @pytest.mark.parametrize("source", ["consensus-best", "consensus-worst", "truth", "none", "md&model"])
    def test_reserved_rater_name_rejected(self, source):
        # A rater 'none' that flags a normal record would put it in one
        # region with the records in no set.
        raters = {"md": preds("md", [1, 0, 0], [1, 0, 0]), source: preds(source, [1, 0, 0], [1, 1, 0])}
        with pytest.raises(MismatchedRecords) as raised:
            consensus_analysis(raters)
        assert str(raised.value) == f"rater {source!r} has a reserved name"

    def test_overlap_regions_cover_all_records(self):
        rng = np.random.default_rng(34)
        truths = [int(rng.integers(0, 2)) for _ in range(25)]
        raters = {f"md{k}": random_rater(rng, truths, f"md{k}") for k in range(3)}
        _, _, regions = consensus_analysis(raters)
        assert sum(regions.values()) == 25


@st.composite
def _panels(draw):
    """2-4 raters, in a drawn order, over one set of 1-30 records, each
    rater's predictions in a drawn order."""
    names = draw(st.lists(st.sampled_from(["md2", "md1", "model", "b", "a-b"]), min_size=2, max_size=4, unique=True))
    truths = draw(st.lists(st.integers(0, 1), min_size=1, max_size=30))
    panel = {}
    for name in names:
        votes = draw(st.lists(st.integers(0, 1), min_size=len(truths), max_size=len(truths)))
        panel[name] = draw(st.permutations(preds(name, truths, votes)))
    return panel


@seed(20251)
@settings(deadline=None, max_examples=200, database=None)
@given(raters=_panels())
def test_consensus_matches_the_set_oracle(raters):
    best, worst, regions = consensus_analysis(raters)
    expected_best, expected_worst, expected_regions = oracle_consensus(raters)
    assert best == expected_best
    assert worst == expected_worst
    assert list(regions.items()) == list(expected_regions.items())


class TestEmitReport:
    def test_bundle_files_and_determinism(self, tmp_path):
        cm = ConfusionMatrix(10, 2, 3, 20)
        for run in ("one", "two"):
            written = emit_report({"model": cm}, tmp_path / run)
            names = {p.name for p in written}
            assert {"summary.json", "confusion.csv", "metrics.csv", "venn.csv"} <= names
        for name in ("summary.json", "confusion.csv", "metrics.csv", "venn.csv"):
            assert filecmp.cmp(tmp_path / "one" / name, tmp_path / "two" / name, shallow=False)

    def test_empty_inputs_still_valid_bundle(self, tmp_path):
        written = emit_report({}, tmp_path / "empty")
        assert len(written) == 4
        assert (tmp_path / "empty" / "metrics.csv").read_text().startswith("source,")

    def test_row_per_source(self, tmp_path):
        cms = {
            "md1": ConfusionMatrix(10, 2, 7, 28),
            "md2": ConfusionMatrix(12, 4, 5, 26),
            "md3": ConfusionMatrix(9, 1, 8, 29),
            "model": ConfusionMatrix(14, 4, 3, 26),
        }
        emit_report(cms, tmp_path / "four")
        lines = (tmp_path / "four" / "metrics.csv").read_text().strip().split("\n")
        assert len(lines) == 5  # header + one per rater + the model

    def test_metrics_are_each_sources_macro_metrics(self, tmp_path):
        cms = {"md2": ConfusionMatrix(12, 4, 5, 26), "md1": ConfusionMatrix(10, 2, 7, 28)}
        emit_report(cms, tmp_path / "two")
        rows = (tmp_path / "two" / "metrics.csv").read_text().splitlines()
        assert rows[1:] == [
            ",".join([source, *map(repr, astuple(macro_metrics(cms[source])))]) for source in ("md1", "md2")
        ]

    def test_one_class_source_leaves_no_file(self, tmp_path):
        cms = {"md1": ConfusionMatrix(10, 2, 7, 28), "md2": ConfusionMatrix(0, 0, 0, 10)}
        with pytest.raises(UndefinedMacro):
            emit_report(cms, tmp_path / "report")
        assert not (tmp_path / "report").exists()


class TestPredictionsCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text(
            "record_id,truth,prediction,source\n"
            "r0,1,1,model\nr1,0,0,model\nr0,1,0,md1\nr1,0,0,md1\n"
        )
        grouped = read_predictions_csv(path)
        assert set(grouped) == {"model", "md1"}
        assert grouped["model"][0].prediction == 1

    def test_bad_header(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("record_id,truth\nr0,1\n")
        with pytest.raises(ValueError):
            read_predictions_csv(path)

    @pytest.mark.parametrize("text", ["record_id,truth,prediction\nr0,1,1\n", ""],
                             ids=["no-source-column", "empty-file"])
    def test_missing_column_names_the_file(self, tmp_path, text):
        path = tmp_path / "preds.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as raised:
            read_predictions_csv(path)
        assert str(raised.value) == (
            f"{path}: prediction file must have columns ['prediction', 'record_id', 'source', 'truth']"
        )

    @pytest.mark.parametrize("row, problem", [
        ("r1,x,0,md1", "column 'truth': expected 0 or 1, got 'x'"),
        ("r1,2,0,md1", "column 'truth': expected 0 or 1, got '2'"),
        ("r1,0,,md1", "column 'prediction': expected 0 or 1, got ''"),
        ("r1,0", "column 'prediction': expected 0 or 1, got None"),
        ("r1,1,0", "column 'source': missing cell"),
        ("r1,1,1,", "column 'source': missing cell"),
        ("r1,1,1, ", "column 'source': missing cell"),
        (",1,1,md1", "column 'record_id': missing cell"),
        ("r1,1,1,consensus-best", "column 'source': 'consensus-best' is a reserved name"),
        ("r1,1,1,consensus-worst", "column 'source': 'consensus-worst' is a reserved name"),
        ("r1,1,1,truth", "column 'source': 'truth' is a reserved name"),
        ("r1,1,1,none", "column 'source': 'none' is a reserved name"),
        ("r1,1,1,md1&md2", "column 'source': 'md1&md2' is a reserved name"),
    ], ids=["not-a-number", "not-binary", "empty", "short-row", "short-row-without-source",
            "empty-source", "blank-source", "empty-record-id", "consensus-best-source",
            "consensus-worst-source", "truth-source", "none-source", "joined-source"])
    def test_bad_label_named_with_file_row_and_column(self, tmp_path, row, problem):
        path = tmp_path / "preds.csv"
        path.write_text(f"record_id,truth,prediction,source\nr0,1,1,md1\n{row}\n")
        with pytest.raises(ValueError) as raised:
            read_predictions_csv(path)
        assert str(raised.value) == f"{path}: row 2: {problem}"

    def test_repeated_record_named_with_both_rows(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("record_id,truth,prediction,source\nr1,1,1,md\nr2,0,0,md\nr1,1,1,model\nr1,1,0,md\n")
        with pytest.raises(ValueError) as raised:
            read_predictions_csv(path)
        assert str(raised.value) == f"{path}: row 4: record 'r1' of source 'md' repeats row 1"

    def test_short_row_without_record_id_named(self, tmp_path):
        # The columns may come in any order, so a short row can lack any cell.
        path = tmp_path / "preds.csv"
        path.write_text("truth,prediction,source,record_id\n1,1,md1,r0\n1,0,md1\n")
        with pytest.raises(ValueError) as raised:
            read_predictions_csv(path)
        assert str(raised.value) == f"{path}: row 2: column 'record_id': missing cell"

    def test_invalid_utf8_byte_is_replaced(self, tmp_path):
        # As in the other readers: the bad byte spoils its cell, not the read.
        path = tmp_path / "preds.csv"
        path.write_bytes(b"record_id,truth,prediction,source\nr0,1,1,md\xff1\n")
        grouped = read_predictions_csv(path)
        assert [p.record_id for p in grouped["md\ufffd1"]] == ["r0"]
