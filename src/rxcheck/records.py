"""Treatment record data model: prescriptions, feature schema, validation, CSV I/O."""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import IO, Iterable, Iterator, Sequence

TECH_3D = "3D"
TECH_IMRT = "IMRT"
TECH_SBRT = "SBRT"
MODELED_TECHNIQUES = (TECH_3D, TECH_IMRT, TECH_SBRT)

NUMERIC = "numeric"
CATEGORICAL = "categorical"

# Violation kinds reported by validate_record. Violations are data, not errors.
DOSE_MISMATCH = "DoseMismatch"
REPLAN_SUSPECT = "ReplanSuspect"
AGE_OUT_OF_RANGE = "AgeOutOfRange"
NON_POSITIVE_RX = "NonPositiveRx"
RX_TOO_LARGE = "RxTooLarge"

# Prescriptions are scaled in float64, which holds every integer of magnitude
# up to 2**53 exactly; beyond it distinct prescriptions can scale to one point.
RX_EXACT_MAX = 2 ** 53

AGE_MIN = 0
AGE_MAX = 120

# Canonical one-row-per-record serialization. Empty cell means missing;
# a bare "-" is accepted as missing on input as well.
CSV_COLUMNS = (
    "record_id",
    "fractions",
    "dose_per_fraction",
    "total_dose",
    "accumulated_dose",
    "technique",
    "energy",
    "intent",
    "icd10",
    "morphology",
    "age_at_tx",
)

REQUIRED_COLUMNS = CSV_COLUMNS[:6]


@dataclass(frozen=True)
class Prescription:
    """One prescription event: session count, dose per session, course totals.

    All doses are integer cGy, so consistency checks are exact arithmetic.
    Inconsistent values are representable on purpose; validate_record reports
    them as violations.
    """

    fractions: int
    dose_per_fraction: int
    total_dose: int
    accumulated_dose: int

    @property
    def rx(self) -> tuple[int, int]:
        """(fractions, dose_per_fraction) pair used for identity and distance."""
        return (self.fractions, self.dose_per_fraction)


@dataclass(frozen=True)
class TreatmentRecord:
    """A single prescription event with its non-prescription features.

    Categorical fields use None as the explicit missing state, distinct from
    any vocabulary label.
    """

    record_id: str
    prescription: Prescription
    technique: str
    energy: str | None = None
    intent: str | None = None
    icd10: str | None = None
    morphology: str | None = None
    age_at_tx: int | None = None

    @classmethod
    def create(
        cls,
        record_id: str,
        fractions: int,
        dose_per_fraction: int,
        technique: str,
        *,
        total_dose: int | None = None,
        accumulated_dose: int | None = None,
        energy: str | None = None,
        intent: str | None = None,
        icd10: str | None = None,
        morphology: str | None = None,
        age_at_tx: int | None = None,
    ) -> "TreatmentRecord":
        """Build a record, defaulting totals to the consistent values."""
        total = fractions * dose_per_fraction if total_dose is None else total_dose
        accum = total if accumulated_dose is None else accumulated_dose
        return cls(
            record_id=record_id,
            prescription=Prescription(fractions, dose_per_fraction, total, accum),
            technique=technique,
            energy=energy,
            intent=intent,
            icd10=icd10,
            morphology=morphology,
            age_at_tx=age_at_tx,
        )

    @property
    def rx(self) -> tuple[int, int]:
        return self.prescription.rx

    def with_prescription(self, prescription: Prescription) -> "TreatmentRecord":
        return replace(self, prescription=prescription)


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str


@dataclass(frozen=True)
class ValidationResult:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_record(record: TreatmentRecord) -> ValidationResult:
    """Record-level consistency checks; pure and deterministic.

    Checks: total equals fractions times dose per fraction, accumulated equals
    total (anything else marks a re-plan / cone-down candidate), age within
    [0, 120] when present, positive fractions / dose per fraction, and
    fractions / dose per fraction of magnitude at most RX_EXACT_MAX.
    """
    p = record.prescription
    violations: list[Violation] = []
    if p.fractions < 1 or p.dose_per_fraction <= 0:
        violations.append(
            Violation(
                NON_POSITIVE_RX,
                f"fractions={p.fractions}, dose_per_fraction={p.dose_per_fraction}",
            )
        )
    if p.total_dose != p.fractions * p.dose_per_fraction:
        violations.append(
            Violation(
                DOSE_MISMATCH,
                f"total_dose={p.total_dose} != {p.fractions} x {p.dose_per_fraction}"
                f" = {p.fractions * p.dose_per_fraction}",
            )
        )
    if p.accumulated_dose != p.total_dose:
        violations.append(
            Violation(
                REPLAN_SUSPECT,
                f"accumulated_dose={p.accumulated_dose} != total_dose={p.total_dose}",
            )
        )
    if record.age_at_tx is not None and not (AGE_MIN <= record.age_at_tx <= AGE_MAX):
        violations.append(
            Violation(AGE_OUT_OF_RANGE, f"age_at_tx={record.age_at_tx}")
        )
    if not rx_exact_in_float(p.rx):
        violations.append(
            Violation(
                RX_TOO_LARGE,
                f"fractions={p.fractions}, dose_per_fraction={p.dose_per_fraction}:"
                f" above 2**53 in magnitude",
            )
        )
    return ValidationResult(tuple(violations))


def rx_exact_in_float(rx: tuple[int, int]) -> bool:
    """Whether float64 holds both parts of (fractions, dose per fraction)
    exactly."""
    return abs(rx[0]) <= RX_EXACT_MAX and abs(rx[1]) <= RX_EXACT_MAX


@dataclass(frozen=True)
class FeatureSpec:
    """One non-prescription feature: name, kind, weight, and its domain.

    value_range (numeric) and vocabulary (categorical) are fixed from a
    reference set via FeatureSchema.bind.
    """

    name: str
    kind: str
    weight: float = 1.0
    vocabulary: tuple[str, ...] | None = None
    value_range: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise ValueError(f"unknown feature kind: {self.kind!r}")
        # The array Gower kernel masks missing pairs by multiplying with 0,
        # which leaves a sum unchanged only for finite terms.
        if not 0 < self.weight < math.inf:
            raise ValueError(f"feature weight must be positive and finite: {self.name}")


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered non-prescription feature descriptors entering the Gower metric.

    Technique is a partition key for the historical databases, not a feature.
    """

    features: tuple[FeatureSpec, ...]

    def __iter__(self):
        return iter(self.features)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self.features)

    def spec(self, name: str) -> FeatureSpec:
        for spec in self.features:
            if spec.name == name:
                return spec
        raise KeyError(name)

    def bind(self, records: Sequence[TreatmentRecord]) -> "FeatureSchema":
        """Fix numeric ranges and categorical vocabularies from records."""
        bound: list[FeatureSpec] = []
        for spec in self.features:
            values = [getattr(r, spec.name) for r in records]
            values = [v for v in values if v is not None]
            if spec.kind == NUMERIC:
                if values:
                    rng = (float(min(values)), float(max(values)))
                else:
                    rng = (0.0, 0.0)
                bound.append(replace(spec, value_range=rng))
            else:
                vocab = tuple(sorted({str(v) for v in values}))
                bound.append(replace(spec, vocabulary=vocab))
        return FeatureSchema(tuple(bound))


def default_schema() -> FeatureSchema:
    """The default feature set: age plus four categorical descriptors."""
    return FeatureSchema(
        (
            FeatureSpec("age_at_tx", NUMERIC),
            FeatureSpec("energy", CATEGORICAL),
            FeatureSpec("intent", CATEGORICAL),
            FeatureSpec("icd10", CATEGORICAL),
            FeatureSpec("morphology", CATEGORICAL),
        )
    )


# ---------------------------------------------------------------------------
# Canonical CSV serialization
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    return "" if value is None else str(value)


def _missing(cell: str | None) -> bool:
    return cell is None or cell.strip() in ("", "-")


def record_to_row(record: TreatmentRecord) -> dict[str, str]:
    p = record.prescription
    return {
        "record_id": record.record_id,
        "fractions": str(p.fractions),
        "dose_per_fraction": str(p.dose_per_fraction),
        "total_dose": str(p.total_dose),
        "accumulated_dose": str(p.accumulated_dose),
        "technique": record.technique,
        "energy": _cell(record.energy),
        "intent": _cell(record.intent),
        "icd10": _cell(record.icd10),
        "morphology": _cell(record.morphology),
        "age_at_tx": _cell(record.age_at_tx),
    }


class _Cells(dict):
    """Raw cell -> convert(cell), or None for a missing cell; each distinct
    cell is resolved once. A cell that convert rejects raises on every use
    and is not stored."""

    def __init__(self, convert):
        super().__init__()
        self._convert = convert

    def __missing__(self, cell):
        value = self[cell] = None if _missing(cell) else self._convert(cell)
        return value


class RowParser:
    """The cell rules of the canonical CSV schema, for rows read under one
    header.

    Every required cell is checked for a missing value (empty, or a bare
    "-", after stripping) in CSV_COLUMNS order before any cell is converted;
    a malformed row raises ValueError naming the first failing cell. Each
    distinct label cell is stripped once, and rows with the same raw
    prescription cells share one Prescription, which is frozen.
    """

    def __init__(self, header: Sequence[str]):
        # The last of duplicate names wins, as in csv.DictReader; a column
        # the header lacks reads the None appended to every row.
        self._width = len(header)
        position = {name: index for index, name in enumerate(header)}
        self._take = itemgetter(*(position.get(column, self._width) for column in CSV_COLUMNS))
        self._labels = _Cells(str.strip)
        self._ages = _Cells(int)
        self._prescriptions: dict[tuple, Prescription] = {}

    def cells(self, row: list[str]) -> tuple[str | None, ...]:
        """A csv.reader row's cells in CSV_COLUMNS order. As in
        csv.DictReader, a short row reads None for its absent cells and extra
        cells are ignored."""
        if len(row) != self._width:
            row = (row + [None] * self._width)[: self._width]
        row.append(None)
        return self._take(row)

    def record(self, cells: Sequence[str | None]) -> TreatmentRecord:
        """The record of one row's cells, given in CSV_COLUMNS order."""
        (record_id, fractions, dose_per_fraction, total_dose, accumulated_dose,
         technique, energy, intent, icd10, morphology, age_at_tx) = cells
        labels = self._labels
        if _missing(record_id):
            raise ValueError("missing required value: record_id")
        rx_cells = (fractions, dose_per_fraction, total_dose, accumulated_dose)
        prescription = self._prescriptions.get(rx_cells)
        if prescription is None:
            for column, cell in zip(REQUIRED_COLUMNS[1:5], rx_cells):
                if _missing(cell):
                    raise ValueError(f"missing required value: {column}")
        technique = labels[technique]
        if technique is None:
            raise ValueError("missing required value: technique")
        if prescription is None:
            prescription = Prescription(
                int(fractions), int(dose_per_fraction), int(total_dose), int(accumulated_dose)
            )
            self._prescriptions[rx_cells] = prescription
        return TreatmentRecord(
            record_id.strip(),
            prescription,
            technique,
            labels[energy],
            labels[intent],
            labels[icd10],
            labels[morphology],
            self._ages[age_at_tx],
        )


@contextmanager
def text_stream(target: str | os.PathLike | IO[str], mode: str = "r") -> Iterator[IO[str]]:
    """An open text handle for target. A path (str or os.PathLike) is opened
    in mode with newline="" and closed on exit; a handle is used as it is.
    A path opened for reading decodes UTF-8, drops a leading byte order mark
    and replaces invalid bytes with U+FFFD, so one bad byte spoils a cell,
    not the whole read."""
    if isinstance(target, (str, os.PathLike)):
        if mode == "r":
            handle = open(target, mode, newline="", encoding="utf-8-sig", errors="replace")
        else:
            handle = open(target, mode, newline="")
        with handle:
            yield handle
    else:
        yield target


def source_name(source: str | os.PathLike | IO[str]):
    """How a message names a source: a path's full text, or a handle's
    name attribute (the handle itself when it has none)."""
    if isinstance(source, (str, os.PathLike)):
        return os.fspath(source)
    return getattr(source, "name", source)


def write_csv(destination: str | os.PathLike | IO[str], header: Sequence[str], rows: Iterable[Iterable]) -> None:
    """Write the header and then each row as CSV, every line ending in a
    bare newline."""
    with text_stream(destination, "w") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(destination: str | os.PathLike | IO[str], payload) -> None:
    """Write payload as JSON, indented by 2 with sorted keys, and a final
    newline."""
    with text_stream(destination, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_records_csv(destination: str | os.PathLike | IO[str], records: Iterable[TreatmentRecord]) -> None:
    # record_to_row's keys are in CSV_COLUMNS order.
    write_csv(destination, CSV_COLUMNS, (record_to_row(record).values() for record in records))
