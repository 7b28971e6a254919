"""Treatment record data model: prescriptions, feature schema, validation,
the canonical CSV schema and its writers, and JSON I/O.

A RecordTable is a read-only sequence of records kept as columns that
builds a TreatmentRecord only when one is read. ingest.parse_dataset, the
one CSV record reader, fills it. A reference set stays a RecordTable from
the parse to its HistoricalDB, so no stage builds a record per row."""

from __future__ import annotations

import json
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter
from typing import IO, Collection, Iterable, Iterator, Mapping, Sequence

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
# The categorical fields, which normalization maps and a RecordTable keeps
# as one tuple per row.
LABEL_FIELDS = CSV_COLUMNS[5:10]


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


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str


def validate_record(record: TreatmentRecord) -> tuple[Violation, ...]:
    """Record-level consistency checks: the violations found, none if consistent.

    Checks: positive fractions / dose per fraction, total equals fractions
    times dose per fraction, accumulated equals total (anything else marks a
    re-plan / cone-down candidate), age within [0, 120] when present, and
    fractions / dose per fraction of magnitude at most RX_EXACT_MAX, in that
    order: prescription_violations and age_violations, with the age check
    before RxTooLarge.
    """
    return ordered_violations(prescription_violations(record.prescription), age_violations(record.age_at_tx))


def prescription_violations(p: Prescription) -> tuple[Violation, ...]:
    """validate_record's checks of a prescription, in its order."""
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
    if not rx_exact_in_float(p.rx):
        violations.append(
            Violation(
                RX_TOO_LARGE,
                f"fractions={p.fractions}, dose_per_fraction={p.dose_per_fraction}:"
                f" above 2**53 in magnitude",
            )
        )
    return tuple(violations)


def age_violations(age: int | None) -> tuple[Violation, ...]:
    """validate_record's check of an age at treatment."""
    if age is not None and not (AGE_MIN <= age <= AGE_MAX):
        return (Violation(AGE_OUT_OF_RANGE, f"age_at_tx={age}"),)
    return ()


def ordered_violations(rx: tuple[Violation, ...], age: tuple[Violation, ...]) -> tuple[Violation, ...]:
    """A record's violations from those of its prescription and its age, in
    validate_record's order: the age check comes before RxTooLarge."""
    if rx and rx[-1].kind == RX_TOO_LARGE:
        return rx[:-1] + age + rx[-1:]
    return rx + age


def rx_exact_in_float(rx: tuple[int, int]) -> bool:
    """Whether float64 holds both parts of (fractions, dose per fraction)
    exactly."""
    return abs(rx[0]) <= RX_EXACT_MAX and abs(rx[1]) <= RX_EXACT_MAX


@dataclass(frozen=True)
class FeatureSpec:
    """One non-prescription feature, of unit Gower weight: name, kind, domain.

    value_range (numeric) and vocabulary (categorical) are those of a
    reference set's columns, as a HistoricalDB's feature_schema holds them.
    """

    name: str
    kind: str
    vocabulary: tuple[str, ...] | None = None
    value_range: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise ValueError(f"unknown feature kind: {self.kind!r}")


def default_schema() -> tuple[FeatureSpec, ...]:
    """The default feature set entering the Gower metric, in order: age plus
    four categorical descriptors. Technique is a partition key for the
    historical databases, not a feature."""
    return (
        FeatureSpec("age_at_tx", NUMERIC),
        FeatureSpec("energy", CATEGORICAL),
        FeatureSpec("intent", CATEGORICAL),
        FeatureSpec("icd10", CATEGORICAL),
        FeatureSpec("morphology", CATEGORICAL),
    )


# ---------------------------------------------------------------------------
# Canonical CSV serialization
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    return "" if value is None else str(value)


def _row_cells(record_id: str, p: Prescription, labels: tuple, age: int | None) -> tuple[str, ...]:
    """A record's cells in CSV_COLUMNS order, from a RecordTable row."""
    return (record_id, str(p.fractions), str(p.dose_per_fraction), str(p.total_dose), str(p.accumulated_dose),
            *map(_cell, labels), _cell(age))


_labels_of = attrgetter(*LABEL_FIELDS)


class RecordTable(Sequence[TreatmentRecord]):
    """A read-only sequence of TreatmentRecords held as four columns.

    ids holds the record ids, prescriptions the Prescriptions, labels one
    (technique, energy, intent, icd10, morphology) tuple per row (LABEL_FIELDS
    order) and ages the ages. Rows with equal prescriptions or labels may
    share one object, so a stage can decide a rule once per distinct value.
    The front end's stages, the reference-set build and the readers that
    walk every reference record read these columns; a record is built each
    time one is read, and the table compares equal to a list of the same
    records.
    """

    __slots__ = ("ids", "prescriptions", "labels", "ages")

    def __init__(self, ids: list[str], prescriptions: list[Prescription],
                 labels: list[tuple], ages: list[int | None]):
        self.ids = ids
        self.prescriptions = prescriptions
        self.labels = labels
        self.ages = ages

    @classmethod
    def of(cls, records: Iterable[TreatmentRecord]) -> "RecordTable":
        """records as a table, whose rows share one tuple per distinct set of
        labels; a table is returned as it is."""
        if isinstance(records, RecordTable):
            return records
        records = list(records)
        shared: dict[tuple, tuple] = {}
        return cls(
            [record.record_id for record in records],
            [record.prescription for record in records],
            [shared.setdefault(labels, labels) for labels in map(_labels_of, records)],
            [record.age_at_tx for record in records],
        )

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows: Iterable[int]) -> "RecordTable":
        """A table of the rows at these indices, in their order."""
        rows = list(rows)
        return RecordTable(*(list(map(column.__getitem__, rows))
                             for column in (self.ids, self.prescriptions, self.labels, self.ages)))

    def __getitem__(self, index: int | slice) -> "TreatmentRecord | RecordTable":
        """The record at an int index, or a table of the rows a slice takes."""
        if isinstance(index, slice):
            return RecordTable(self.ids[index], self.prescriptions[index], self.labels[index], self.ages[index])
        return TreatmentRecord(self.ids[index], self.prescriptions[index], *self.labels[index], self.ages[index])

    def __iter__(self) -> Iterator[TreatmentRecord]:
        for record_id, prescription, labels, age in zip(self.ids, self.prescriptions, self.labels, self.ages):
            yield TreatmentRecord(record_id, prescription, *labels, age)

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, RecordTable)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None


@contextmanager
def text_stream(target: str | os.PathLike | IO[str], mode: str = "r") -> Iterator[IO[str]]:
    """An open text handle for target. A path (str or os.PathLike) is opened
    in mode with newline="" and closed on exit; a handle is used as it is.
    A path opened for reading decodes UTF-8, drops a leading byte order mark
    and replaces invalid bytes with U+FFFD, so one bad byte spoils a cell,
    not the whole read. A path opened for writing encodes UTF-8."""
    if isinstance(target, (str, os.PathLike)):
        if mode == "r":
            handle = open(target, mode, newline="", encoding="utf-8-sig", errors="replace")
        else:
            handle = open(target, mode, newline="", encoding="utf-8")
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


def read_json(source: str | os.PathLike | IO[str]):
    """The JSON value in source. Text that is not JSON raises ValueError
    naming the source, and so do the constants NaN, Infinity and -Infinity,
    which are not JSON though Python's json reads them, a number too large
    for a float, and an integer with more digits than Python converts from
    a string: no value read is a non-finite float."""
    name = source_name(source)

    def reject(constant):
        raise ValueError(f"{name}: {constant} is not valid JSON")

    def finite(text):
        value = float(text)
        if math.isinf(value):
            raise ValueError(f"{name}: {text} overflows a float")
        return value

    def whole(text):
        try:
            return int(text)
        except ValueError:
            raise ValueError(
                f"{name}: {len(text.lstrip('-'))}-digit integer exceeds Python's integer string limit"
            ) from None

    with text_stream(source) as handle:
        try:
            return json.load(handle, parse_constant=reject, parse_float=finite, parse_int=whole)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{name}: {exc}") from None


def json_object(where: str, value, names: Collection[str] | None = None, *, required: bool = False,
                what: str = "key", expected: str = "an object", error: type[ValueError] = ValueError) -> Mapping:
    """value, when it is a JSON object whose keys are all among names (any
    keys, without names) and, if required is set, include all of them.
    Otherwise raises error "<where>: <problem>", the problem being "expected
    <expected>, got <value>", "missing <what> " and every missing name, or
    "unknown <what> " and the first unknown key, checked in that order. An
    empty where drops the "<where>: " prefix."""
    def fail(problem: str) -> ValueError:
        return error(f"{where}: {problem}" if where else problem)

    if not isinstance(value, Mapping):
        raise fail(f"expected {expected}, got {value!r}")
    if names is not None:
        missing = [name for name in names if name not in value] if required else []
        if missing:
            raise fail(f"missing {what} " + ", ".join(repr(name) for name in missing))
        unknown = [key for key in value if key not in names]
        if unknown:
            raise fail(f"unknown {what} {unknown[0]!r}")
    return value


def json_number(where: str, value, error: type[ValueError] = ValueError) -> float:
    """float(value), when value is a JSON number that converts to a float.
    Otherwise raises error "<where>: expected a number, got <value>", or
    "<where>: N-digit integer overflows a float" for an integer float()
    cannot convert."""
    # A bool is an int to isinstance, and float() would take a string.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{where}: {len(str(abs(value)))}-digit integer overflows a float") from None


# Rows rendered per write: a block's text is joined in one go, and a file is
# never held as one string.
CSV_BLOCK_ROWS = 4096

_needs_quotes = re.compile('[",\n\r]').search


def _quoted(cell: str) -> str:
    """cell in double quotes, each quote doubled, when it holds a comma, a
    quote, a line feed or a carriage return; otherwise cell."""
    return '"' + cell.replace('"', '""') + '"' if _needs_quotes(cell) else cell


def _render(block: list[Sequence[str]]) -> str:
    """The CSV lines of block's rows, each ending in a newline. The rows are
    joined as they are unless the text holds a quote or a carriage return,
    or more commas or line feeds than the row and cell boundaries give; then
    every cell goes through _quoted."""
    text = "\n".join(map(",".join, block))
    if (text.count(",") > sum(map(len, block)) - len(block) or text.count("\n") >= len(block)
            or '"' in text or "\r" in text):
        text = "\n".join([",".join(map(_quoted, row)) for row in block])
    return text + "\n"


def write_csv(destination: str | os.PathLike | IO[str], header: Sequence[str],
              rows: Iterable[Sequence[str]]) -> None:
    """Write the header and then each row as CSV, every line ending in a
    bare newline. Cells are strings and a row has at least two cells. A cell
    is quoted when it holds a comma, a double quote, a line feed or a
    carriage return, and a quote in it is doubled: the csv module's
    QUOTE_MINIMAL, which leaves a carriage return bare under a "\n" line
    terminator, plus the carriage return. Rows are rendered and written
    CSV_BLOCK_ROWS at a time."""
    rows = iter(rows)
    with text_stream(destination, "w") as handle:
        block = [header, *islice(rows, CSV_BLOCK_ROWS - 1)]
        while block:
            handle.write(_render(block))
            block = list(islice(rows, CSV_BLOCK_ROWS))


def write_json(destination: str | os.PathLike | IO[str], payload) -> None:
    """Write payload as strict JSON, indented by 2 with sorted keys, and a
    final newline. A number that is not finite raises ValueError before
    anything is written."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with text_stream(destination, "w") as handle:
        handle.write(text)
        handle.write("\n")


def write_records_csv(destination: str | os.PathLike | IO[str], records: Iterable[TreatmentRecord]) -> None:
    """Write records as the canonical CSV, from the columns of their
    RecordTable."""
    table = RecordTable.of(records)
    write_csv(destination, CSV_COLUMNS, map(_row_cells, table.ids, table.prescriptions, table.labels, table.ages))
