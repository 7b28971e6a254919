"""Scoring against truth labels: confusion matrices, macro-averaged metrics,
multi-rater consensus analysis, and a plot-ready report bundle."""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .records import source_name, text_stream, write_csv, write_json


class MismatchedRecords(ValueError):
    """Raters do not cover the same record set with consistent truth labels."""


class UndefinedMacro(ValueError):
    """A class is absent from the truth labels; macro averages are undefined."""


# The report's own names: two consensus sources and two Venn regions, whose keys join names with '&'.
_RESERVED_SOURCES = ("consensus-best", "consensus-worst", "truth", "none")


def _reserved(source: str) -> bool:
    return source in _RESERVED_SOURCES or "&" in source


@dataclass(frozen=True)
class LabeledPrediction:
    record_id: str
    truth: int          # 1 = anomaly, 0 = normal
    prediction: int
    source: str

    def __post_init__(self) -> None:
        if self.truth not in (0, 1) or self.prediction not in (0, 1):
            raise ValueError("truth and prediction must be binary")

    @property
    def correct(self) -> bool:
        return self.truth == self.prediction


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion cells must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(predictions: Sequence[LabeledPrediction]) -> ConfusionMatrix:
    """Standard cell counts with anomaly as the positive class."""
    if not predictions:
        raise ValueError("no predictions to score")
    tp = sum(1 for p in predictions if p.truth == 1 and p.prediction == 1)
    fp = sum(1 for p in predictions if p.truth == 0 and p.prediction == 1)
    fn = sum(1 for p in predictions if p.truth == 1 and p.prediction == 0)
    tn = sum(1 for p in predictions if p.truth == 0 and p.prediction == 0)
    return ConfusionMatrix(tp, fp, fn, tn)


@dataclass(frozen=True)
class MacroMetrics:
    precision: float
    recall: float
    f1: float
    accuracy: float


def _safe_div(num: float, den: float) -> float:
    # Zero-denominator per-class metrics are defined as 0, so degenerate
    # raters score poorly instead of undefined.
    return num / den if den else 0.0


def macro_metrics(cm: ConfusionMatrix) -> MacroMetrics:
    """Unweighted mean of the per-class precision / recall / f1 over both
    classes, plus plain accuracy."""
    if cm.tp + cm.fn == 0 or cm.fp + cm.tn == 0:
        raise UndefinedMacro("both classes must be present in the truth labels")
    # Anomaly as positive.
    p1 = _safe_div(cm.tp, cm.tp + cm.fp)
    r1 = _safe_div(cm.tp, cm.tp + cm.fn)
    f1_1 = _safe_div(2 * p1 * r1, p1 + r1)
    # Normal as positive.
    p0 = _safe_div(cm.tn, cm.tn + cm.fn)
    r0 = _safe_div(cm.tn, cm.tn + cm.fp)
    f1_0 = _safe_div(2 * p0 * r0, p0 + r0)
    return MacroMetrics(
        precision=(p1 + p0) / 2,
        recall=(r1 + r0) / 2,
        f1=(f1_1 + f1_0) / 2,
        accuracy=(cm.tp + cm.tn) / cm.total,
    )


# ---------------------------------------------------------------------------
# Consensus analysis
# ---------------------------------------------------------------------------

def consensus_analysis(
    raters: Mapping[str, Sequence[LabeledPrediction]],
) -> tuple[list[LabeledPrediction], list[LabeledPrediction], dict[str, int]]:
    """Consolidate >= 2 raters into (best, worst, regions): the best- and
    worst-case consensus, each sorted by record id, and the record count of
    each Venn-style region, keys sorted.

    Best case (source consensus-best): correct on a record iff any rater was
    correct. Worst case (consensus-worst): incorrect iff any rater was wrong.
    A region's sets are raters' flagged records and the ground-truth anomaly
    set; its key joins their names with '&' (raters sorted, then 'truth'),
    and records in no set count under 'none'.

    Raises MismatchedRecords for fewer than two raters, for a rater with a
    reserved name, for a rater that repeats a record or covers another
    record set than the first rater, and for the first record, in id order,
    whose raters disagree on its truth.
    """
    if len(raters) < 2:
        raise MismatchedRecords("consensus needs at least two raters")

    indexes: dict[str, dict[str, LabeledPrediction]] = {}
    for source, predictions in raters.items():
        if _reserved(source):
            raise MismatchedRecords(f"rater {source!r} has a reserved name")
        index = indexes[source] = {p.record_id: p for p in predictions}
        if len(index) != len(predictions):
            raise MismatchedRecords(f"rater {source!r} repeats a record")
        if index.keys() != next(iter(indexes.values())).keys():
            raise MismatchedRecords(f"rater {source!r} covers a different record set")

    sources = sorted(indexes)
    best: list[LabeledPrediction] = []
    worst: list[LabeledPrediction] = []
    counts: dict[str, int] = {}
    for record_id in sorted(indexes[sources[0]]):
        per_source = [indexes[source][record_id] for source in sources]
        truth = per_source[0].truth
        if any(p.truth != truth for p in per_source):
            raise MismatchedRecords(f"inconsistent truth for record {record_id!r}")
        any_correct = any(p.correct for p in per_source)
        any_wrong = any(not p.correct for p in per_source)
        best.append(LabeledPrediction(record_id, truth, truth if any_correct else 1 - truth, "consensus-best"))
        worst.append(LabeledPrediction(record_id, truth, 1 - truth if any_wrong else truth, "consensus-worst"))
        members = [source for source, p in zip(sources, per_source) if p.prediction == 1]
        if truth == 1:
            members.append("truth")
        key = "&".join(members) if members else "none"
        counts[key] = counts.get(key, 0) + 1
    return best, worst, dict(sorted(counts.items()))


# ---------------------------------------------------------------------------
# Report bundle
# ---------------------------------------------------------------------------

def emit_report(
    cms: Mapping[str, ConfusionMatrix],
    destination: str | Path,
    venn: Mapping[str, int] | None = None,
) -> list[Path]:
    """Write summary.json, confusion.csv, metrics.csv and venn.csv under
    destination: each source's confusion matrix and its macro_metrics, and
    venn, consensus_analysis's region counts. Every metric is computed before
    the directory is created, so an UndefinedMacro leaves no file behind.
    Byte-stable for identical inputs."""
    metrics = {source: macro_metrics(cm) for source, cm in sorted(cms.items())}
    destination = Path(destination)
    destination.mkdir(parents=True, exist_ok=True)

    summary = {
        "sources": sorted(cms),
        "confusion": {
            source: {"tp": cm.tp, "fp": cm.fp, "fn": cm.fn, "tn": cm.tn}
            for source, cm in sorted(cms.items())
        },
        "metrics": {source: asdict(m) for source, m in metrics.items()},
    }
    if venn is not None:
        summary["venn"] = dict(venn)
    written = [destination / name for name in ("summary.json", "confusion.csv", "metrics.csv", "venn.csv")]
    summary_path, confusion_path, metrics_path, venn_path = written
    write_json(summary_path, summary)
    write_csv(
        confusion_path,
        ("source", "tp", "fp", "fn", "tn"),
        ((source, str(cm.tp), str(cm.fp), str(cm.fn), str(cm.tn)) for source, cm in sorted(cms.items())),
    )
    write_csv(
        metrics_path,
        ("source", "precision", "recall", "f1", "accuracy"),
        (
            (source, repr(m.precision), repr(m.recall), repr(m.f1), repr(m.accuracy))
            for source, m in metrics.items()
        ),
    )
    write_csv(
        venn_path,
        ("region", "count"),
        ((region, str(count)) for region, count in sorted(venn.items())) if venn is not None else (),
    )
    return written


def read_predictions_csv(source: str | Path) -> dict[str, list[LabeledPrediction]]:
    """Read rater predictions (columns record_id, truth, prediction, source),
    grouped by source. A missing column raises ValueError naming the file; a
    record_id or source cell that a short row lacks, or a truth or
    prediction cell that is not the integer 0 or 1, or a reserved source
    name, raises ValueError naming the file, the data row (1-based, header
    excluded) and the column; a record that its source already gave raises
    ValueError naming both rows."""
    grouped: dict[str, list[LabeledPrediction]] = {}
    first_rows: dict[tuple[str, str], int] = {}
    name = source_name(source)
    with text_stream(source) as handle:
        reader = csv.DictReader(handle)
        required = {"record_id", "truth", "prediction", "source"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ValueError(f"{name}: prediction file must have columns {sorted(required)}")
        for number, row in enumerate(reader, start=1):
            where = f"{name}: row {number}"
            prediction = LabeledPrediction(
                record_id=_present_cell(row, "record_id", where),
                truth=_binary_cell(row, "truth", where),
                prediction=_binary_cell(row, "prediction", where),
                source=_present_cell(row, "source", where),
            )
            if _reserved(prediction.source):
                raise ValueError(f"{where}: column 'source': {prediction.source!r} is a reserved name")
            first = first_rows.setdefault((prediction.source, prediction.record_id), number)
            if first != number:
                raise ValueError(
                    f"{where}: record {prediction.record_id!r} of source {prediction.source!r} repeats row {first}"
                )
            grouped.setdefault(prediction.source, []).append(prediction)
    return grouped


def _present_cell(row: Mapping[str, str | None], column: str, where: str) -> str:
    cell = row[column]
    if cell is None or not cell.strip():  # a short row, or an empty cell
        raise ValueError(f"{where}: column {column!r}: missing cell")
    return cell


def _binary_cell(row: Mapping[str, str | None], column: str, where: str) -> int:
    cell = row[column]
    try:
        value = int(cell)
    except (TypeError, ValueError):  # TypeError: a short row's cell is None
        value = None
    if value not in (0, 1):
        raise ValueError(f"{where}: column {column!r}: expected 0 or 1, got {cell!r}")
    return value
