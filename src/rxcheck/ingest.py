"""Raw data ingestion: parsing, label normalization, cohort filtering, and
construction of the immutable per-technique historical databases. The
HistoricalDB type is defined in distance, beside the kernels that read it;
build_historical_db here builds one.

The three front-end stages pass rows on as a records.RecordTable: parse
fills its columns, normalize maps each distinct set of labels once, and
filter decides each label rule once per distinct set of labels, so the
TreatmentRecords it returns are built for the kept rows alone.
parse_dataset is the one CSV record reader and holds every cell rule of
the schema."""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from . import distance
from .distance import HistoricalDB, InsufficientData, RxScaler
from .records import (
    AGE_OUT_OF_RANGE,
    CSV_COLUMNS,
    LABEL_FIELDS,
    MODELED_TECHNIQUES,
    NON_POSITIVE_RX,
    REQUIRED_COLUMNS,
    RX_TOO_LARGE,
    Prescription,
    RecordTable,
    TreatmentRecord,
    json_object,
    read_json,
    rx_exact_in_float,
    source_name,
    text_stream,
    validate_record,
    write_json,
)

# Exclusion rules, applied in this order; the first matching rule is logged.
RULE_TECHNIQUE = "TechniqueExcluded"
RULE_ENERGY = "EnergyRareForTechnique"
RULE_DIAGNOSIS = "DiagnosisNotWhitelisted"
RULE_DOSE = "DoseInconsistent"
RULE_REPLAN = "ReplanConeDown"
RULE_REPLAN_INITIAL = "ReplanInitial"
RULE_NON_POSITIVE_RX = NON_POSITIVE_RX
RULE_AGE = AGE_OUT_OF_RANGE
RULE_RX_TOO_LARGE = RX_TOO_LARGE

# Allowed energies per technique: the nonzero usage cells of the historical
# energy-by-technique tally.
DEFAULT_ENERGY_WHITELIST: Mapping[str, frozenset[str]] = {
    "3D": frozenset({"x06", "x10", "x15", "mixed photon", "mixed mode"}),
    "IMRT": frozenset({"x06", "x06FFF", "x10", "x10FFF", "x15", "mixed photon"}),
    "SBRT": frozenset({"x06", "x06FFF", "x10", "x15", "mixed photon"}),
}

# Thoracic diagnosis whitelist (lung, heart, esophagus primaries and the
# associated secondary / benign codes).
DEFAULT_ICD10_WHITELIST = frozenset(
    {
        "C15.3", "C15.4", "C15.5", "C15.9",
        "C33",
        "C34.00", "C34.01", "C34.02", "C34.10", "C34.12", "C34.2",
        "C34.30", "C34.31", "C34.32", "C34.80", "C34.81", "C34.82",
        "C34.90", "C34.91", "C34.92",
        "C37", "C38.1", "C38.2", "C38.3", "C38.4", "C38.8",
        "C45.0",
        "C77.1", "C78.00", "C78.01", "C78.02", "C78.1", "C78.2",
        "D15.0", "E85.8", "R91.1",
    }
)

# Static label-normalization tables (per field, raw -> canonical). Unmapped
# labels pass through unchanged and normalize_dataset tallies them.
DEFAULT_LABEL_MAPPINGS: Mapping[str, Mapping[str, str]] = {
    "technique": {
        "3d": "3D", "3D-CRT": "3D", "3DCRT": "3D",
        "imrt": "IMRT", "vmat": "IMRT", "VMAT": "IMRT",
        "sbrt": "SBRT",
        "impt": "IMPT", "2d": "2D", "brachy": "Brachy", "Brachytherapy": "Brachy",
    },
    "energy": {
        "6X": "x06", "x6": "x06", "X06": "x06",
        "6XFFF": "x06FFF", "x6fff": "x06FFF", "x06fff": "x06FFF",
        "10X": "x10", "X10": "x10",
        "10XFFF": "x10FFF", "x10fff": "x10FFF",
        "15X": "x15", "X15": "x15",
        "Mix Photon": "mixed photon", "mix photon": "mixed photon",
        "Mixed Photon": "mixed photon",
        "Mix Mode": "mixed mode", "mix mode": "mixed mode",
    },
    "intent": {
        "Curative": "curative", "CURATIVE": "curative",
        "Palliative": "palliative", "PALLIATIVE": "palliative",
    },
}


@dataclass(frozen=True)
class CohortConfig:
    """Cohort-building policy: whitelists, label mappings, subject keys.

    Every technique outside MODELED_TECHNIQUES is excluded. Re-plans and
    cone-downs are recognized by accumulated dose differing from total dose;
    the matching initial plan shares the subject key (the record_id prefix
    before subject_delimiter) and its accumulated total accounts for the
    re-plan's accumulated minus current course dose.
    """

    energy_whitelist: Mapping[str, frozenset[str]] = field(
        default_factory=lambda: dict(DEFAULT_ENERGY_WHITELIST)
    )
    icd10_whitelist: frozenset[str] = DEFAULT_ICD10_WHITELIST
    label_mappings: Mapping[str, Mapping[str, str]] = field(
        default_factory=lambda: {k: dict(v) for k, v in DEFAULT_LABEL_MAPPINGS.items()}
    )
    subject_delimiter: str = "/"

    def __post_init__(self) -> None:
        for technique in MODELED_TECHNIQUES:
            if technique not in self.energy_whitelist:
                raise ValueError(f"no energy whitelist for {technique}")
            if not self.energy_whitelist[technique]:
                raise ValueError(f"empty energy whitelist for {technique}")
        if not isinstance(self.subject_delimiter, str) or not self.subject_delimiter:
            raise ValueError(
                f"subject_delimiter must be a non-empty string, got {self.subject_delimiter!r}"
            )

    def subject_key(self, record_id: str) -> str:
        return record_id.split(self.subject_delimiter, 1)[0]

    @classmethod
    def from_json(cls, source: str | Path | IO[str]) -> "CohortConfig":
        """Read a config as to_json writes it; an absent key keeps its
        default. A payload that is not an object, an unknown key (at the top
        level, a technique outside MODELED_TECHNIQUES in energy_whitelist or
        a field outside LABEL_FIELDS in label_mappings), or a value that is
        not a list of strings where to_json writes a list, or not an object
        where it writes one, raises ValueError naming the file and the
        key."""
        name = source_name(source)
        payload = json_object(name, read_json(source), cls.__dataclass_fields__, expected="a JSON object")
        kwargs = {}
        for key, value in payload.items():
            where = f"{name}: key {key!r}"
            if key == "icd10_whitelist":
                value = frozenset(_strings(where, value, list))
            elif key == "energy_whitelist":
                value = {
                    tech: frozenset(_strings(f"{where}: technique {tech!r}", values, list))
                    for tech, values in json_object(where, value, MODELED_TECHNIQUES, what="technique").items()
                }
            elif key == "label_mappings":
                value = {
                    fld: _strings(f"{where}: field {fld!r}", table, dict)
                    for fld, table in json_object(where, value, LABEL_FIELDS, what="field").items()
                }
            kwargs[key] = value
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None

    def to_json(self, destination: str | Path | IO[str]) -> None:
        payload = {
            "energy_whitelist": {
                tech: sorted(values) for tech, values in sorted(self.energy_whitelist.items())
            },
            "icd10_whitelist": sorted(self.icd10_whitelist),
            "label_mappings": {
                fld: dict(sorted(table.items()))
                for fld, table in sorted(self.label_mappings.items())
            },
            "subject_delimiter": self.subject_delimiter,
        }
        write_json(destination, payload)


def _strings(where: str, value, kind: type):
    """value, when it is a kind (list or dict) whose items (values, for a
    dict) are all strings."""
    items = value.values() if isinstance(value, dict) else value
    if not isinstance(value, kind) or not all(isinstance(item, str) for item in items):
        raise ValueError(f"{where}: expected {'a list' if kind is list else 'an object'} of strings, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParseDiagnostic:
    row: int            # 1-based data row number, header excluded
    reason: str


class SchemaError(ValueError):
    """The input header does not match the canonical record schema."""


def _missing(cell: str | None) -> bool:
    return cell is None or cell.strip() in ("", "-")


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


def parse_dataset(
    source: str | Path | IO[str],
) -> tuple[RecordTable, list[ParseDiagnostic]]:
    """Parse a CSV export, keeping row order.

    Every input row yields either a record of the returned table or a
    diagnostic carrying the row number and reason; a blank line is no row. A
    file's leading byte order mark is dropped and its bytes that are not
    UTF-8 are replaced with U+FFFD. An unreadable source raises OSError; a
    header missing required columns raises SchemaError.

    The cell rules of the canonical CSV schema: as in csv.DictReader, the
    last of duplicate columns wins, a short row reads None for its absent
    cells and extra cells are ignored. Every required cell is checked for a
    missing value (empty, or a bare "-", after stripping) in CSV_COLUMNS
    order before any cell is converted: record_id, the four prescription
    cells and technique, then the integer conversions, then the age. A
    malformed row fails with a reason naming its first failing cell. Rows
    with the same raw prescription cells share one Prescription, and rows
    with the same raw label cells one tuple of stripped labels.
    """
    with text_stream(source) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise SchemaError("empty input: no header row")
        missing = [column for column in REQUIRED_COLUMNS if column not in header]
        if missing:
            raise SchemaError(f"header missing required columns: {', '.join(missing)}")
        # The last of duplicate names wins; a column the header lacks reads
        # the None appended to every row.
        width = len(header)
        position = {name: index for index, name in enumerate(header)}
        take = itemgetter(*(position.get(column, width) for column in CSV_COLUMNS))
        strip, to_age = _Cells(str.strip), _Cells(int)
        prescriptions: dict[tuple, Prescription] = {}
        labels_of: dict[tuple, tuple] = {}
        table = RecordTable([], [], [], [])
        add_id, add_prescription = table.ids.append, table.prescriptions.append
        add_labels, add_age = table.labels.append, table.ages.append
        diagnostics: list[ParseDiagnostic] = []
        number = 0
        for row in reader:
            if not row:
                continue
            number += 1
            if len(row) != width:
                row = (row + [None] * width)[:width]
            row.append(None)
            cells = take(row)
            try:
                if _missing(cells[0]):
                    raise ValueError("missing required value: record_id")
                rx_cells = cells[1:5]
                prescription = prescriptions.get(rx_cells)
                if prescription is None:
                    for column, cell in zip(REQUIRED_COLUMNS[1:5], rx_cells):
                        if _missing(cell):
                            raise ValueError(f"missing required value: {column}")
                label_cells = cells[5:10]
                labels = labels_of.get(label_cells)
                if labels is None:
                    labels = tuple(map(strip.__getitem__, label_cells))
                    if labels[0] is None:
                        raise ValueError("missing required value: technique")
                    labels_of[label_cells] = labels
                if prescription is None:
                    prescription = prescriptions[rx_cells] = Prescription(*map(int, rx_cells))
                age = to_age[cells[10]]
            except (ValueError, TypeError) as exc:
                diagnostics.append(ParseDiagnostic(number, str(exc)))
                continue
            add_id(cells[0].strip())
            add_prescription(prescription)
            add_labels(labels)
            add_age(age)
    return table, diagnostics


# ---------------------------------------------------------------------------
# Label normalization
# ---------------------------------------------------------------------------

def normalize_dataset(
    records: Sequence[TreatmentRecord],
    mappings: Mapping[str, Mapping[str, str]],
) -> tuple[RecordTable, Counter]:
    """Map each categorical field through its table; unmapped labels pass through.

    A field without a table is left untouched. Returns the records in input
    order, as a table whose rows share one label tuple per distinct set of
    mapped labels, and a Counter of the (field, label) occurrences whose
    field has a table that neither maps the label nor has it as a canonical
    target, in order of first occurrence. Each distinct set of labels is
    mapped once.
    """
    table = RecordTable.of(records)
    unmapped: Counter = Counter()
    shared: dict[tuple, tuple] = {}
    mapped: dict[tuple, tuple] = {}
    # A Counter keeps first-occurrence order, so the unmapped labels are
    # counted in the order a row-by-row pass meets them.
    for labels, count in Counter(table.labels).items():
        new = []
        for name, label in zip(LABEL_FIELDS, labels):
            field_table = mappings.get(name)
            if label is not None and field_table is not None:
                if label in field_table:
                    label = field_table[label]
                elif label not in field_table.values():
                    unmapped[(name, label)] += count
            new.append(label)
        new = tuple(new)
        mapped[labels] = shared.setdefault(new, new)
    relabelled = RecordTable(table.ids, table.prescriptions, list(map(mapped.__getitem__, table.labels)), table.ages)
    return relabelled, unmapped


# ---------------------------------------------------------------------------
# Cohort filtering
# ---------------------------------------------------------------------------

EXCLUSION_COLUMNS = ("record_id", "rule", "detail")


def filter_cohort(
    records: Sequence[TreatmentRecord],
    config: CohortConfig | None = None,
) -> tuple[dict[str, list[TreatmentRecord]], list[tuple[str, str, str]]]:
    """Apply the cohort rules and split survivors by technique.

    Returns the kept records by technique and, in input order, one
    (record_id, rule, detail) row per excluded record: the rows of
    exclusions.csv, under EXCLUSION_COLUMNS. Decisions depend only on the
    record multiset, so permuting the input permutes nothing but the
    exclusion order: the per-technique sets are identical. Kept and excluded
    records always account for every input record, and every kept record
    passes validate_record.

    The technique, energy and diagnosis rules are decided once per distinct
    set of labels and the dose rule once per distinct prescription object;
    a TreatmentRecord is built only for a row that passes every rule before
    validate_record.
    """
    config = config or CohortConfig()
    table = RecordTable.of(records)
    replan_ids, initial_ids = _replan_and_initial_ids(table, config)

    label_rules: dict[tuple, tuple[str, str] | None] = {}
    dose_rules: dict[int, tuple[str, str] | None] = {}    # by id(prescription)
    kept: dict[str, list[TreatmentRecord]] = {t: [] for t in MODELED_TECHNIQUES}
    exclusions: list[tuple[str, str, str]] = []
    for record_id, p, labels, age in zip(table.ids, table.prescriptions, table.labels, table.ages):
        rule = label_rules.get(labels, False)
        if rule is False:
            rule = label_rules[labels] = _label_rule(labels, config)
        if rule is None:
            rule = dose_rules.get(id(p), False)
            if rule is False:
                rule = dose_rules[id(p)] = _dose_rule(p)
        if rule is None:
            if record_id in replan_ids:
                rule = RULE_REPLAN, (
                    f"accumulated_dose={p.accumulated_dose} != total_dose={p.total_dose}"
                    if p.accumulated_dose != p.total_dose
                    else "record_id shared with a re-plan / cone-down"
                )
            elif record_id in initial_ids:
                rule = RULE_REPLAN_INITIAL, "initial plan of a re-plan / cone-down"
            else:
                # What validate_record can still reject is a non-positive
                # prescription (RULE_NON_POSITIVE_RX), an implausible age
                # (RULE_AGE) or a prescription float64 cannot hold exactly
                # (RULE_RX_TOO_LARGE).
                record = TreatmentRecord(record_id, p, *labels, age)
                violations = validate_record(record)
                if not violations:
                    kept[record.technique].append(record)
                    continue
                rule = violations[0].kind, violations[0].detail
        exclusions.append((record_id, *rule))
    return kept, exclusions


def _label_rule(labels: tuple, config: CohortConfig) -> tuple[str, str] | None:
    technique, energy, _, icd10, _ = labels
    if technique not in MODELED_TECHNIQUES:
        return RULE_TECHNIQUE, f"technique={technique}"
    if energy is None or energy not in config.energy_whitelist.get(technique, frozenset()):
        return RULE_ENERGY, f"energy={energy} for {technique}"
    if icd10 is None or icd10 not in config.icd10_whitelist:
        return RULE_DIAGNOSIS, f"icd10={icd10}"
    return None


def _dose_rule(p: Prescription) -> tuple[str, str] | None:
    if p.total_dose != p.fractions * p.dose_per_fraction:
        return RULE_DOSE, f"total_dose={p.total_dose} != {p.fractions} x {p.dose_per_fraction}"
    return None


def _replan_and_initial_ids(table: RecordTable, config: CohortConfig) -> tuple[set[str], set[str]]:
    """The ids of the re-plans, and of the initial plans matched to them: a
    record of the same subject whose accumulated and total doses both equal
    the re-plan's accumulated minus total dose. A re-plan never matches
    itself, as its two doses differ; a record sharing a re-plan's id is
    named by RULE_REPLAN before RULE_REPLAN_INITIAL."""
    replan_ids: set[str] = set()
    priors_by_subject: dict[str, set[int]] = {}
    for record_id, p in zip(table.ids, table.prescriptions):
        if p.accumulated_dose != p.total_dose:
            replan_ids.add(record_id)
            priors_by_subject.setdefault(config.subject_key(record_id), set()).add(
                p.accumulated_dose - p.total_dose
            )
    initial_ids: set[str] = set()
    for record_id, p in zip(table.ids, table.prescriptions):
        if (p.accumulated_dose == p.total_dose
                and p.total_dose in priors_by_subject.get(config.subject_key(record_id), ())):
            initial_ids.add(record_id)
    return replan_ids, initial_ids


# ---------------------------------------------------------------------------
# Historical database
# ---------------------------------------------------------------------------

def build_historical_db(records: Sequence[TreatmentRecord]) -> HistoricalDB:
    """Freeze a filtered, single-technique record list into a HistoricalDB.

    Scaler bounds, numeric feature ranges, the prescription index, and the
    characteristic distances are all computed over exactly these records.
    A fraction count or dose per fraction above 2**53 in magnitude raises
    ValueError: float64 scaling could merge it with a distinct prescription.
    """
    records = tuple(records)
    if len(records) < 2:
        raise InsufficientData(f"need at least 2 records, got {len(records)}")
    techniques = {r.technique for r in records}
    if len(techniques) > 1:
        raise ValueError(f"records span multiple techniques: {sorted(techniques)}")
    rx_index = Counter(r.rx for r in records)
    inexact = sorted(rx for rx in rx_index if not rx_exact_in_float(rx))
    if inexact:
        raise ValueError(f"{RX_TOO_LARGE}: prescriptions above 2**53 in magnitude: {inexact[:3]}")

    # Every part is now exact in float64, so the scaler holds the ints' bounds.
    fractions = np.array([r.prescription.fractions for r in records], dtype=np.float64)
    doses = np.array([r.prescription.dose_per_fraction for r in records], dtype=np.float64)
    scaler = RxScaler(float(fractions.min()), float(fractions.max()), float(doses.min()), float(doses.max()))
    rx_rows = distance.distinct_rx(fractions, doses, scaler)
    encoded = distance.encode_features([records[i] for i in rx_rows.members])
    theta, tau, skipped = distance.pairwise_means(rx_rows, encoded)
    return HistoricalDB(
        technique=techniques.pop(),
        records=records,
        rx_scaler=scaler,
        feature_schema=encoded.schema,
        rx_index=dict(rx_index),
        theta=theta,
        tau=tau,
        incomparable_pairs=skipped,
        encoded=encoded,
        rx_rows=rx_rows,
    )
