"""Treatment record data model: prescriptions, feature schema, validation, CSV I/O."""

from __future__ import annotations

import csv
import io
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
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

_REQUIRED_COLUMNS = CSV_COLUMNS[:6]


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
    [0, 120] when present, and positive fractions / dose per fraction.
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
    return ValidationResult(tuple(violations))


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
        if self.weight <= 0:
            raise ValueError(f"feature weight must be positive: {self.name}")


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


def record_from_row(row: dict[str, str]) -> TreatmentRecord:
    """Parse one canonical CSV row; raises ValueError on malformed cells."""
    for column in _REQUIRED_COLUMNS:
        if _missing(row.get(column)):
            raise ValueError(f"missing required value: {column}")
    age_cell = row.get("age_at_tx")
    return TreatmentRecord(
        record_id=row["record_id"].strip(),
        prescription=Prescription(
            fractions=int(row["fractions"]),
            dose_per_fraction=int(row["dose_per_fraction"]),
            total_dose=int(row["total_dose"]),
            accumulated_dose=int(row["accumulated_dose"]),
        ),
        technique=row["technique"].strip(),
        energy=None if _missing(row.get("energy")) else row["energy"].strip(),
        intent=None if _missing(row.get("intent")) else row["intent"].strip(),
        icd10=None if _missing(row.get("icd10")) else row["icd10"].strip(),
        morphology=None if _missing(row.get("morphology")) else row["morphology"].strip(),
        age_at_tx=None if _missing(age_cell) else int(age_cell),
    )


@contextmanager
def text_stream(target: str | os.PathLike | IO[str], mode: str = "r") -> Iterator[IO[str]]:
    """An open text handle for target. A path (str or os.PathLike) is opened
    in mode with newline="" and closed on exit; a handle is used as it is."""
    if isinstance(target, (str, os.PathLike)):
        with open(target, mode, newline="") as handle:
            yield handle
    else:
        yield target


def write_records_csv(destination: str | os.PathLike | IO[str], records: Iterable[TreatmentRecord]) -> None:
    with text_stream(destination, "w") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for record in records:
            writer.writerow(record_to_row(record))


def records_csv_text(records: Iterable[TreatmentRecord]) -> str:
    buffer = io.StringIO()
    write_records_csv(buffer, records)
    return buffer.getvalue()


def read_records_csv(source: str | os.PathLike | IO[str]) -> list[TreatmentRecord]:
    """Strict reader for canonical files: any malformed row raises.

    Use ingest.parse_dataset for per-row diagnostics instead of exceptions.
    """
    with text_stream(source) as handle:
        return [record_from_row(row) for row in csv.DictReader(handle)]
