"""Raw data ingestion: parsing, label normalization, cohort filtering, and
construction of the immutable per-technique historical databases."""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass, field
from operator import getitem
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

from . import distance
from .distance import DistinctRx, EncodedFeatures, InsufficientData, RxScaler
from .records import (
    AGE_OUT_OF_RANGE,
    MODELED_TECHNIQUES,
    NON_POSITIVE_RX,
    REQUIRED_COLUMNS,
    RX_TOO_LARGE,
    FeatureSchema,
    RowParser,
    TreatmentRecord,
    default_schema,
    rx_exact_in_float,
    source_name,
    text_stream,
    validate_record,
    write_csv,
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

DEFAULT_EXCLUDED_TECHNIQUES = frozenset({"IMPT", "2D", "Brachy"})

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
    """Cohort-building policy: exclusions, whitelists, label mappings.

    Re-plans and cone-downs are recognized by accumulated dose differing from
    total dose; the matching initial plan shares the subject key (the
    record_id prefix before subject_delimiter) and its accumulated total
    accounts for the re-plan's accumulated minus current course dose.
    """

    excluded_techniques: frozenset[str] = DEFAULT_EXCLUDED_TECHNIQUES
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
            if not self.energy_whitelist.get(technique):
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
        default. A payload that is not an object, an unknown key, or a value
        that is not a list of strings where to_json writes a list, or not an
        object where it writes one, raises ValueError naming the file and
        the key."""
        with text_stream(source) as handle:
            payload = json.load(handle)
        name = source_name(source)
        if not isinstance(payload, dict):
            raise ValueError(f"{name}: expected a JSON object, got {payload!r}")
        kwargs = {}
        for key, value in payload.items():
            where = f"{name}: key {key!r}"
            if key in ("excluded_techniques", "icd10_whitelist"):
                value = _string_set(where, value)
            elif key == "energy_whitelist":
                value = {
                    tech: _string_set(f"{where}: technique {tech!r}", values)
                    for tech, values in _object(where, value).items()
                }
            elif key == "label_mappings":
                value = {
                    fld: _object(f"{where}: field {fld!r}", table, strings=True)
                    for fld, table in _object(where, value).items()
                }
            elif key != "subject_delimiter":
                raise ValueError(f"{name}: unknown key {key!r}")
            kwargs[key] = value
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None

    def to_json(self, destination: str | Path | IO[str]) -> None:
        payload = {
            "excluded_techniques": sorted(self.excluded_techniques),
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


def _string_set(where: str, value) -> frozenset[str]:
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise ValueError(f"{where}: expected a list of strings, got {value!r}")
    return frozenset(value)


def _object(where: str, value, strings: bool = False) -> dict:
    """value, when it is a JSON object (whose values are all strings, if
    strings is set)."""
    if not isinstance(value, dict) or (strings and not all(isinstance(item, str) for item in value.values())):
        raise ValueError(f"{where}: expected an object{' of strings' if strings else ''}, got {value!r}")
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


def parse_dataset(
    source: str | Path | IO[str],
) -> tuple[list[TreatmentRecord], list[ParseDiagnostic]]:
    """Parse a CSV export, keeping row order.

    Every input row yields either a record or a diagnostic carrying the row
    number and reason; a blank line is no row. A file's leading byte order
    mark is dropped and its bytes that are not UTF-8 are replaced with
    U+FFFD. An unreadable source raises OSError; a header missing required
    columns raises SchemaError.
    """
    with text_stream(source) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise SchemaError("empty input: no header row")
        missing = [column for column in REQUIRED_COLUMNS if column not in header]
        if missing:
            raise SchemaError(f"header missing required columns: {', '.join(missing)}")
        parser = RowParser(header)
        records: list[TreatmentRecord] = []
        diagnostics: list[ParseDiagnostic] = []
        number = 0
        for row in reader:
            if not row:
                continue    # a blank line is no row, as in csv.DictReader
            number += 1
            try:
                records.append(parser.record(parser.cells(row)))
            except (ValueError, TypeError) as exc:
                diagnostics.append(ParseDiagnostic(number, str(exc)))
        return records, diagnostics


# ---------------------------------------------------------------------------
# Label normalization
# ---------------------------------------------------------------------------

_MAPPABLE_FIELDS = ("technique", "energy", "intent", "icd10", "morphology")


class _Resolved(dict):
    """One field's raw label -> label after mapping, each distinct label
    resolved once. A label that the field's table neither maps nor produces
    goes into `unmapped` as (field, label); without a table every label
    passes through as mapped."""

    def __init__(self, field_name: str, table: Mapping[str, str] | None, unmapped: set):
        super().__init__({None: None})
        self._field_name = field_name
        self._table = table
        self._unmapped = unmapped

    def __missing__(self, label: str) -> str:
        table = self._table
        if table is None:
            mapped = label
        elif label in table:
            mapped = table[label]
        else:
            mapped = label
            if label not in table.values():
                self._unmapped.add((self._field_name, label))
        self[label] = mapped
        return mapped


def normalize_dataset(
    records: Iterable[TreatmentRecord],
    mappings: Mapping[str, Mapping[str, str]],
) -> tuple[list[TreatmentRecord], Counter]:
    """Map each categorical field through its table; unmapped labels pass through.

    A field without a table is left untouched. Returns the records in input
    order and a Counter of the (field, label) occurrences whose field has a
    table that neither maps the label nor has it as a canonical target.
    """
    unmapped_labels: set[tuple[str, str]] = set()
    fields = tuple(_Resolved(name, mappings.get(name), unmapped_labels) for name in _MAPPABLE_FIELDS)
    unmapped: Counter = Counter()
    normalized: list[TreatmentRecord] = []
    for record in records:
        labels = (record.technique, record.energy, record.intent, record.icd10, record.morphology)
        mapped = tuple(map(getitem, fields, labels))
        if unmapped_labels:
            for field_label in zip(_MAPPABLE_FIELDS, labels):
                if field_label in unmapped_labels:
                    unmapped[field_label] += 1
        if mapped != labels:
            record = TreatmentRecord(record.record_id, record.prescription, *mapped, record.age_at_tx)
        normalized.append(record)
    return normalized, unmapped


# ---------------------------------------------------------------------------
# Cohort filtering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Exclusion:
    record_id: str
    rule: str
    detail: str


@dataclass
class ExclusionLog:
    exclusions: list[Exclusion] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.exclusions)

    def counts_by_rule(self) -> Counter:
        return Counter(e.rule for e in self.exclusions)

    def replan_fraction(self, total_records: int) -> float:
        """Share of the input removed by re-plan rules (a reportable statistic,
        not a filter parameter)."""
        if total_records == 0:
            return 0.0
        counts = self.counts_by_rule()
        return (counts[RULE_REPLAN] + counts[RULE_REPLAN_INITIAL]) / total_records

    def write_csv(self, destination: str | Path | IO[str]) -> None:
        write_csv(
            destination,
            ("record_id", "rule", "detail"),
            ((exclusion.record_id, exclusion.rule, exclusion.detail) for exclusion in self.exclusions),
        )


def filter_cohort(
    records: Sequence[TreatmentRecord],
    config: CohortConfig | None = None,
) -> tuple[dict[str, list[TreatmentRecord]], ExclusionLog]:
    """Apply the cohort rules and split survivors by technique.

    Decisions depend only on the record multiset, so permuting the input
    permutes nothing but log order: the per-technique sets are identical.
    Output plus the exclusion log always account for every input record, and
    every kept record passes validate_record.
    """
    config = config or CohortConfig()

    replan_ids, initial_ids = _replan_and_initial_ids(records, config)

    kept: dict[str, list[TreatmentRecord]] = {t: [] for t in MODELED_TECHNIQUES}
    log = ExclusionLog()
    for record in records:
        rule = _exclusion_rule(record, config, replan_ids, initial_ids)
        if rule is None:
            kept[record.technique].append(record)
        else:
            log.exclusions.append(Exclusion(record.record_id, rule[0], rule[1]))
    return kept, log


def _exclusion_rule(record, config, replan_ids, initial_ids) -> tuple[str, str] | None:
    p = record.prescription
    if record.technique not in MODELED_TECHNIQUES:
        return RULE_TECHNIQUE, f"technique={record.technique}"
    whitelist = config.energy_whitelist.get(record.technique, frozenset())
    if record.energy is None or record.energy not in whitelist:
        return RULE_ENERGY, f"energy={record.energy} for {record.technique}"
    if record.icd10 is None or record.icd10 not in config.icd10_whitelist:
        return RULE_DIAGNOSIS, f"icd10={record.icd10}"
    if p.total_dose != p.fractions * p.dose_per_fraction:
        return RULE_DOSE, (
            f"total_dose={p.total_dose} != {p.fractions} x {p.dose_per_fraction}"
        )
    if record.record_id in replan_ids:
        return RULE_REPLAN, (
            f"accumulated_dose={p.accumulated_dose} != total_dose={p.total_dose}"
        )
    if record.record_id in initial_ids:
        return RULE_REPLAN_INITIAL, "initial plan of a re-plan / cone-down"
    # Dose mismatches and re-plans were caught above; what validate_record
    # can still reject is a non-positive prescription (RULE_NON_POSITIVE_RX),
    # an implausible age (RULE_AGE) or a prescription float64 cannot hold
    # exactly (RULE_RX_TOO_LARGE).
    violations = validate_record(record).violations
    if violations:
        return violations[0].kind, violations[0].detail
    return None


def _replan_and_initial_ids(
    records: Sequence[TreatmentRecord], config: CohortConfig
) -> tuple[set[str], set[str]]:
    """The ids of the re-plans, and of the initial plans matched to them: a
    record of the same subject whose accumulated and total doses both equal
    the re-plan's accumulated minus total dose. A re-plan never matches
    itself, as its two doses differ; a record sharing a re-plan's id is
    named by RULE_REPLAN before RULE_REPLAN_INITIAL."""
    replan_ids: set[str] = set()
    priors_by_subject: dict[str, set[int]] = {}
    for record in records:
        p = record.prescription
        if p.accumulated_dose != p.total_dose:
            replan_ids.add(record.record_id)
            priors_by_subject.setdefault(config.subject_key(record.record_id), set()).add(
                p.accumulated_dose - p.total_dose
            )
    initial_ids: set[str] = set()
    for candidate in records:
        p = candidate.prescription
        if (p.accumulated_dose == p.total_dose
                and p.total_dose in priors_by_subject.get(config.subject_key(candidate.record_id), ())):
            initial_ids.add(candidate.record_id)
    return replan_ids, initial_ids


# ---------------------------------------------------------------------------
# Historical database
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HistoricalDB:
    """Immutable per-technique reference set.

    Carries the prescription scaler, the bound feature schema, the exact
    prescription occurrence index, and the characteristic pairwise distances
    theta (prescriptions) and tau (features); for the distance kernels, the
    records grouped by distinct scaled prescription (rx_rows) and their
    encoded features in that grouped order: position p of encoded is
    records[rx_rows.members[p]]. Safe to share across workers.
    """

    technique: str
    records: tuple[TreatmentRecord, ...]
    rx_scaler: RxScaler
    feature_schema: FeatureSchema
    rx_index: Mapping[tuple[int, int], int]
    theta: float
    tau: float
    incomparable_pairs: int
    encoded: EncodedFeatures = field(repr=False, compare=False)
    rx_rows: DistinctRx = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.records)


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

    schema = default_schema().bind(records)
    scaler = RxScaler.fit([r.prescription for r in records])
    rx_f, rx_d = distance.scaled_rx_arrays(records, scaler)
    rx_rows = distance.distinct_rx(rx_f, rx_d)
    encoded = distance.encode_features([records[i] for i in rx_rows.members], schema)
    theta, tau, skipped = distance.pairwise_means(rx_f, rx_d, encoded)
    return HistoricalDB(
        technique=techniques.pop(),
        records=records,
        rx_scaler=scaler,
        feature_schema=schema,
        rx_index=dict(rx_index),
        theta=theta,
        tau=tau,
        incomparable_pairs=skipped,
        encoded=encoded,
        rx_rows=rx_rows,
    )
