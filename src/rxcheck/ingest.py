"""Raw data ingestion: parsing, label normalization, cohort filtering, and
construction of the immutable per-technique historical databases."""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

from . import distance
from .distance import DistinctRx, EncodedFeatures, InsufficientData, RxScaler
from .records import (
    AGE_OUT_OF_RANGE,
    CSV_COLUMNS,
    MODELED_TECHNIQUES,
    NON_POSITIVE_RX,
    RX_TOO_LARGE,
    FeatureSchema,
    TreatmentRecord,
    default_schema,
    record_from_row,
    rx_exact_in_float,
    text_stream,
    validate_record,
)

REQUIRED_COLUMNS = CSV_COLUMNS[:6]

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
# labels pass through unchanged and are tallied in the normalization report.
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

    def subject_key(self, record_id: str) -> str:
        return record_id.split(self.subject_delimiter, 1)[0]

    @classmethod
    def from_json(cls, source: str | Path | IO[str]) -> "CohortConfig":
        with text_stream(source) as handle:
            payload = json.load(handle)
        kwargs = {}
        if "excluded_techniques" in payload:
            kwargs["excluded_techniques"] = frozenset(payload["excluded_techniques"])
        if "energy_whitelist" in payload:
            kwargs["energy_whitelist"] = {
                tech: frozenset(values) for tech, values in payload["energy_whitelist"].items()
            }
        if "icd10_whitelist" in payload:
            kwargs["icd10_whitelist"] = frozenset(payload["icd10_whitelist"])
        if "label_mappings" in payload:
            kwargs["label_mappings"] = {
                fld: dict(table) for fld, table in payload["label_mappings"].items()
            }
        if "subject_delimiter" in payload:
            kwargs["subject_delimiter"] = payload["subject_delimiter"]
        return cls(**kwargs)

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
        with text_stream(destination, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")


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
    number and reason; a file's bytes that are not UTF-8 are replaced with
    U+FFFD. An unreadable source raises OSError; a header missing required
    columns raises SchemaError.
    """
    with text_stream(source) as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames
        if header is None:
            raise SchemaError("empty input: no header row")
        missing = [column for column in REQUIRED_COLUMNS if column not in header]
        if missing:
            raise SchemaError(f"header missing required columns: {', '.join(missing)}")
        records: list[TreatmentRecord] = []
        diagnostics: list[ParseDiagnostic] = []
        for number, row in enumerate(reader, start=1):
            try:
                records.append(record_from_row(row))
            except (ValueError, TypeError) as exc:
                diagnostics.append(ParseDiagnostic(number, str(exc)))
        return records, diagnostics


# ---------------------------------------------------------------------------
# Label normalization
# ---------------------------------------------------------------------------

_MAPPABLE_FIELDS = ("technique", "energy", "intent", "icd10", "morphology")


@dataclass
class NormalizationReport:
    """Tally of labels that had a mapping table but no entry in it."""

    unmapped: Counter = field(default_factory=Counter)

    def add(self, field_name: str, label: str) -> None:
        self.unmapped[(field_name, label)] += 1


def normalize_labels(
    record: TreatmentRecord,
    mappings: Mapping[str, Mapping[str, str]],
    report: NormalizationReport | None = None,
) -> TreatmentRecord:
    """Map each categorical field through its table; unmapped labels pass through.

    A field without a table is left untouched. Labels that are already a
    canonical target of their table are not counted as unmapped.
    """
    updates: dict[str, str] = {}
    for field_name in _MAPPABLE_FIELDS:
        value = getattr(record, field_name)
        if value is None:
            continue
        table = mappings.get(field_name)
        if table is None:
            continue
        if value in table:
            mapped = table[value]
            if mapped != value:
                updates[field_name] = mapped
        elif report is not None and value not in table.values():
            report.add(field_name, value)
    return replace(record, **updates) if updates else record


def normalize_dataset(
    records: Iterable[TreatmentRecord],
    mappings: Mapping[str, Mapping[str, str]],
) -> tuple[list[TreatmentRecord], NormalizationReport]:
    report = NormalizationReport()
    return [normalize_labels(r, mappings, report) for r in records], report


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
        with text_stream(destination, "w") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("record_id", "rule", "detail"))
            for exclusion in self.exclusions:
                writer.writerow((exclusion.record_id, exclusion.rule, exclusion.detail))


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
    replans = [r for r in records if r.prescription.accumulated_dose != r.prescription.total_dose]
    replan_ids = {r.record_id for r in replans}
    by_subject: dict[str, list[TreatmentRecord]] = {}
    for r in records:
        by_subject.setdefault(config.subject_key(r.record_id), []).append(r)
    initial_ids: set[str] = set()
    for replan in replans:
        prior = replan.prescription.accumulated_dose - replan.prescription.total_dose
        for candidate in by_subject.get(config.subject_key(replan.record_id), []):
            if candidate.record_id == replan.record_id:
                continue
            cp = candidate.prescription
            if cp.accumulated_dose == cp.total_dose and cp.accumulated_dose == prior:
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
    encoded features and the records grouped by distinct scaled
    prescription. Safe to share across workers.
    """

    technique: str
    records: tuple[TreatmentRecord, ...]
    rx_scaler: RxScaler
    feature_schema: FeatureSchema
    rx_index: Mapping[tuple[int, int], int]
    theta: float
    tau: float
    incomparable_pairs: int = 0
    encoded: EncodedFeatures = field(repr=False, compare=False, default=None)
    rx_rows: DistinctRx = field(repr=False, compare=False, default=None)

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
    encoded = distance.encode_features(records, schema)
    rx_f, rx_d = distance.scaled_rx_arrays(records, scaler)
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
        rx_rows=distance.distinct_rx(rx_f, rx_d),
    )


def build_cohort_dbs(
    records: Sequence[TreatmentRecord],
    config: CohortConfig | None = None,
) -> tuple[dict[str, HistoricalDB], ExclusionLog]:
    """filter_cohort plus build_historical_db for every technique with >= 2
    surviving records."""
    kept, log = filter_cohort(records, config)
    dbs = {
        technique: build_historical_db(rows)
        for technique, rows in kept.items()
        if len(rows) >= 2
    }
    return dbs, log
