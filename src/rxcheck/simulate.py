"""Simulated-anomaly synthesis: digit-swapped prescriptions and mutated
features, each verified rare against the historical conditional
distributions before being admitted.

The construction is purely data driven: a candidate is accepted only when
every conditional count drawn from the reference set stays at or below the
rarity threshold, never by clinical judgment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from .distance import HistoricalDB, scale_rx
from .records import (
    AGE_MAX,
    AGE_MIN,
    LABEL_FIELDS,
    NUMERIC,
    FeatureSpec,
    Prescription,
    RecordTable,
    TreatmentRecord,
    write_json,
    write_records_csv,
)

KIND_RX_SWAP = "RxDigitSwap"
KIND_FEATURE = "FeatureMutation"
_KINDS = (KIND_RX_SWAP, KIND_FEATURE)

DEFAULT_RARITY_THRESHOLD = 1

_MAX_ATTEMPTS_PER_ITEM = 200

_RX_FIELDS = ("fractions", "dose_per_fraction", "total_dose", "accumulated_dose")


class DegenerateSwap(ValueError):
    """The mutation would leave the record unchanged; no anomaly produced."""


class InvalidMutation(ValueError):
    """A feature update named a prescription field or an unknown feature, a
    drawn feature is missing on every reference record or had no replacement
    value, or a generation request named an unknown kind or a negative
    count."""


class GenerationExhausted(RuntimeError):
    """The attempt budget ran out before the requested counts were met."""


@dataclass(frozen=True)
class FieldChange:
    field: str
    old: object
    new: object


@dataclass(frozen=True)
class MutationDescriptor:
    kind: str
    changes: tuple[FieldChange, ...]


@dataclass(frozen=True)
class RarityEvidence:
    condition: str
    count: int


@dataclass(frozen=True)
class RarityCheck:
    accepted: bool
    evidence: tuple[RarityEvidence, ...]


@dataclass(frozen=True)
class SimulatedAnomaly:
    base_record_id: str
    mutated: TreatmentRecord
    mutation: MutationDescriptor
    rarity_evidence: tuple[RarityEvidence, ...]


# ---------------------------------------------------------------------------
# Mutation operators
# ---------------------------------------------------------------------------

def swap_leading_digits(record: TreatmentRecord) -> tuple[TreatmentRecord, MutationDescriptor]:
    """Exchange the leading decimal digits of fractions and dose per fraction,
    recomputing the totals so the mutant stays internally consistent.

    5 x 400 becomes 4 x 500; 10 x 300 becomes 30 x 100. Equal leading digits
    raise DegenerateSwap. On consistent records the swap is an involution."""
    p = record.prescription
    f_digits = str(p.fractions)
    d_digits = str(p.dose_per_fraction)
    if f_digits[0] == d_digits[0]:
        raise DegenerateSwap(
            f"fractions and dose share the leading digit: {p.fractions} x {p.dose_per_fraction}"
        )
    new_fractions = int(d_digits[0] + f_digits[1:])
    new_dose = int(f_digits[0] + d_digits[1:])
    total = new_fractions * new_dose
    mutated = replace(record, prescription=Prescription(new_fractions, new_dose, total, total))
    changes = tuple(
        FieldChange(name, getattr(p, name), getattr(mutated.prescription, name))
        for name in _RX_FIELDS
        if getattr(p, name) != getattr(mutated.prescription, name)
    )
    return mutated, MutationDescriptor(KIND_RX_SWAP, changes)


def mutate_features(
    record: TreatmentRecord, updates: Mapping[str, object]
) -> tuple[TreatmentRecord, MutationDescriptor]:
    """Replace the listed non-prescription features with the given values.

    Prescription fields are rejected with InvalidMutation; everything not
    listed stays identical, and a value equal to the current one is no change.
    """
    changes: list[FieldChange] = []
    for field_name, new_value in updates.items():
        if field_name in _RX_FIELDS or field_name == "technique":
            raise InvalidMutation(f"{field_name!r} is not a mutable non-prescription feature")
        if not hasattr(record, field_name) or field_name in ("record_id", "prescription"):
            raise InvalidMutation(f"unknown feature: {field_name!r}")
        current = getattr(record, field_name)
        if new_value != current:
            changes.append(FieldChange(field_name, current, new_value))
    mutated = replace(record, **{c.field: c.new for c in changes}) if changes else record
    return mutated, MutationDescriptor(KIND_FEATURE, tuple(changes))


# ---------------------------------------------------------------------------
# Conditional rarity verification
# ---------------------------------------------------------------------------

def verify_rarity(
    candidate: TreatmentRecord,
    db: HistoricalDB,
    threshold: int,
    mutation: MutationDescriptor,
) -> RarityCheck:
    """Check the candidate's mutated pattern against historical conditionals.

    Prescription mutations count exact occurrences of the new prescription
    pair. Feature mutations count, per mutated field, reference records
    sharing the candidate's exact prescription and the mutated value; only
    the records of that prescription's group in db.rx_rows are read.
    Accepted iff every count is at or below the threshold.
    """
    evidence: list[RarityEvidence] = []
    rx = candidate.rx
    if mutation.kind == KIND_RX_SWAP:
        count = db.rx_index.get(rx, 0)
        evidence.append(RarityEvidence(f"rx={rx[0]}x{rx[1]}", count))
    elif mutation.kind == KIND_FEATURE:
        rows = _same_prescription(candidate.prescription, db)
        for change in mutation.changes:
            count = _values_at(db.records, rows, change.field).count(change.new)
            evidence.append(
                RarityEvidence(f"rx={rx[0]}x{rx[1]} & {change.field}={change.new}", count)
            )
    else:
        raise InvalidMutation(f"unknown mutation kind {mutation.kind!r}")
    accepted = all(item.count <= threshold for item in evidence)
    return RarityCheck(accepted, tuple(evidence))


def _same_prescription(p: Prescription, db: HistoricalDB) -> list[int]:
    """The indices into db.records of the records with p's exact (fractions,
    dose per fraction): those of the rx_rows group at p's scaled point whose
    integers match, since distinct integers may scale to one point."""
    if p.rx not in db.rx_index:
        return []
    # Every part in the reference is exact in float64, and scale_rx does the
    # build's arithmetic, so p lands on its group's point.
    scaled = scale_rx(p, db.rx_scaler)
    rows = db.rx_rows
    [group] = np.flatnonzero((rows.f == scaled.f) & (rows.d == scaled.d))
    start = rows.starts[group]
    members = rows.members[start:start + rows.counts[group]].tolist()
    # The group holds every record with p's integers; when it holds as many
    # records as they have, it holds no other.
    if len(members) == db.rx_index[p.rx]:
        return members
    prescriptions, rx = db.records.prescriptions, p.rx
    return [index for index in members if prescriptions[index].rx == rx]


def _values_at(table: RecordTable, rows: list[int], name: str) -> list:
    """The feature name of table's records at rows, read from its columns."""
    if name == "age_at_tx":
        return [table.ages[row] for row in rows]
    if name not in LABEL_FIELDS:
        raise InvalidMutation(f"unknown feature: {name!r}")
    at = LABEL_FIELDS.index(name)
    return [table.labels[row][at] for row in rows]


# ---------------------------------------------------------------------------
# Batch generation
# ---------------------------------------------------------------------------

def generate_sa_set(
    db: HistoricalDB,
    counts: Mapping[str, int],
    threshold: int = DEFAULT_RARITY_THRESHOLD,
    *,
    rng: np.random.Generator,
) -> list[SimulatedAnomaly]:
    """Produce exactly counts[kind] accepted anomalies per mutation kind, for
    the two kinds KIND_RX_SWAP and KIND_FEATURE.

    Base records are drawn from the reference set; each candidate must pass
    verify_rarity against that same set at the given threshold, and differs
    from its base by construction. Any other key in counts, or a negative
    count, raises InvalidMutation before any draw. A kind that is still short
    after _MAX_ATTEMPTS_PER_ITEM candidates per requested anomaly raises
    GenerationExhausted. Deterministic for a fixed generator.
    """
    invalid = {kind: wanted for kind, wanted in counts.items() if kind not in _KINDS or wanted < 0}
    if invalid:
        raise InvalidMutation(
            f"counts must map some of {list(_KINDS)} to non-negative numbers, got {invalid}"
        )
    out: list[SimulatedAnomaly] = []
    for kind in _KINDS:
        wanted = int(counts.get(kind, 0))
        if wanted == 0:
            continue
        produced = 0
        attempts = 0
        budget = _MAX_ATTEMPTS_PER_ITEM * wanted
        while produced < wanted:
            if attempts >= budget:
                raise GenerationExhausted(
                    f"gave up after {attempts} attempts with {produced}/{wanted} "
                    f"accepted {kind} anomalies"
                )
            attempts += 1
            base = db.records[int(rng.integers(db.size))]
            try:
                mutated, descriptor = _mutate(kind, base, db, rng)
            except (DegenerateSwap, InvalidMutation):
                continue
            check = verify_rarity(mutated, db, threshold, descriptor)
            if not check.accepted:
                continue
            produced += 1
            mutated = replace(mutated, record_id=f"{base.record_id}~sa{len(out) + 1}")
            out.append(SimulatedAnomaly(base.record_id, mutated, descriptor, check.evidence))
    return out


def _mutate(kind, base, db, rng):
    if kind == KIND_RX_SWAP:
        return swap_leading_digits(base)
    n_fields = int(rng.integers(1, 3))
    schema = db.feature_schema
    picked = rng.choice(len(schema), size=n_fields, replace=False)
    # A feature that no reference record has drops the candidate before any
    # value is drawn: no reference record could be compared on its new value.
    for i in picked:
        if not db.encoded.columns[i].present.any():
            raise InvalidMutation(f"feature {schema[i].name!r} is missing on every reference record")
    features = [schema[i] for i in picked]
    return mutate_features(
        base, {feature.name: _draw(feature, getattr(base, feature.name), rng) for feature in features}
    )


def _draw(feature: FeatureSpec, current, rng: np.random.Generator):
    """A replacement value drawn uniformly: an integer outside the observed
    range but inside the plausible [AGE_MIN, AGE_MAX] domain, creating a value
    never seen in the reference set, or another label of the vocabulary."""
    if feature.kind == NUMERIC:
        lo, hi = int(feature.value_range[0]), int(feature.value_range[1])
        pool = [*range(AGE_MIN, lo), *range(hi + 1, AGE_MAX + 1)]
    else:
        pool = [value for value in feature.vocabulary if value != current]
    if not pool:
        raise InvalidMutation(f"no replacement value for {feature.name!r}")
    return pool[int(rng.integers(len(pool)))]


# ---------------------------------------------------------------------------
# Serialization: canonical CSV plus a descriptor sidecar
# ---------------------------------------------------------------------------

def write_sa_set(
    csv_destination: str | Path | IO[str],
    json_destination: str | Path | IO[str],
    anomalies: Sequence[SimulatedAnomaly],
) -> None:
    write_records_csv(csv_destination, [sa.mutated for sa in anomalies])
    payload = [
        {
            "record_id": sa.mutated.record_id,
            "base_record_id": sa.base_record_id,
            "kind": sa.mutation.kind,
            "changes": [
                {"field": c.field, "old": c.old, "new": c.new} for c in sa.mutation.changes
            ],
            "rarity_evidence": [
                {"condition": e.condition, "count": e.count} for e in sa.rarity_evidence
            ],
        }
        for sa in anomalies
    ]
    write_json(json_destination, payload)
