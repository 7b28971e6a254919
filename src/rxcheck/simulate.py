"""Simulated-anomaly synthesis: digit-swapped prescriptions and mutated
features, each verified rare against the historical conditional
distributions before being admitted.

The construction is purely data driven: a candidate is accepted only when
every conditional count drawn from the reference set stays at or below the
rarity threshold, never by clinical judgment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Callable, Mapping, Sequence, TYPE_CHECKING

import numpy as np

from .records import (
    AGE_MAX,
    AGE_MIN,
    FeatureSchema,
    Prescription,
    TreatmentRecord,
    text_stream,
    write_records_csv,
)

if TYPE_CHECKING:  # pragma: no cover
    from .ingest import HistoricalDB

KIND_RX_SWAP = "RxDigitSwap"
KIND_FEATURE = "FeatureMutation"
_KINDS = (KIND_RX_SWAP, KIND_FEATURE)

DEFAULT_RARITY_THRESHOLD = 1

_MAX_ATTEMPTS_PER_ITEM = 200

_RX_FIELDS = ("fractions", "dose_per_fraction", "total_dose", "accumulated_dose")


class DegenerateSwap(ValueError):
    """The mutation would leave the record unchanged; no anomaly produced."""


class InvalidMutation(ValueError):
    """A mutation spec named a prescription field or an unknown feature, or a
    generation request named an unknown kind or a negative count."""


class GenerationExhausted(RuntimeError):
    """The attempt budget ran out before the requested counts were met."""

    def __init__(self, message: str, partial: list["SimulatedAnomaly"]):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class FieldChange:
    field: str
    old: object
    new: object


@dataclass(frozen=True)
class MutationDescriptor:
    kind: str
    changes: tuple[FieldChange, ...]

    @property
    def fields(self) -> tuple[str, ...]:
        return tuple(change.field for change in self.changes)


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
    mutated = record.with_prescription(Prescription(new_fractions, new_dose, total, total))
    changes = tuple(
        FieldChange(name, getattr(p, name), getattr(mutated.prescription, name))
        for name in _RX_FIELDS
        if getattr(p, name) != getattr(mutated.prescription, name)
    )
    return mutated, MutationDescriptor(KIND_RX_SWAP, changes)


def mutate_features(
    record: TreatmentRecord,
    spec: Mapping[str, object],
    rng: np.random.Generator | None = None,
) -> tuple[TreatmentRecord, MutationDescriptor]:
    """Replace the listed non-prescription features.

    spec maps a feature name to either a new value or a sampler called as
    sampler(rng, current_value). Prescription fields are rejected with
    InvalidMutation; everything not listed stays identical.
    """
    updates: dict[str, object] = {}
    changes: list[FieldChange] = []
    for field_name, new_value in spec.items():
        if field_name in _RX_FIELDS or field_name == "technique":
            raise InvalidMutation(f"{field_name!r} is not a mutable non-prescription feature")
        if not hasattr(record, field_name) or field_name in ("record_id", "prescription"):
            raise InvalidMutation(f"unknown feature: {field_name!r}")
        current = getattr(record, field_name)
        if callable(new_value):
            if rng is None:
                raise InvalidMutation("a sampler spec requires a seeded generator")
            new_value = new_value(rng, current)
        if new_value != current:
            updates[field_name] = new_value
            changes.append(FieldChange(field_name, current, new_value))
    mutated = replace(record, **updates) if updates else record
    return mutated, MutationDescriptor(KIND_FEATURE, tuple(changes))


# Samplers for mutate_features -----------------------------------------------

def vocabulary_sampler(schema: FeatureSchema, field_name: str) -> Callable:
    """Draw uniformly from the field's bound vocabulary, excluding the current
    value."""
    vocab = schema.spec(field_name).vocabulary
    if not vocab:
        raise InvalidMutation(f"feature {field_name!r} has no bound vocabulary")

    def sample(rng: np.random.Generator, current):
        choices = [v for v in vocab if v != current]
        if not choices:
            raise InvalidMutation(f"no alternative value for {field_name!r}")
        return choices[int(rng.integers(len(choices)))]

    return sample


def extreme_value_sampler(schema: FeatureSchema, field_name: str) -> Callable:
    """Draw an integer outside the field's observed range (but inside the
    plausible [AGE_MIN, AGE_MAX] domain), creating values never seen in the
    reference set."""
    value_range = schema.spec(field_name).value_range
    if value_range is None:
        raise InvalidMutation(f"feature {field_name!r} has no bound range")
    lo, hi = int(value_range[0]), int(value_range[1])

    def sample(rng: np.random.Generator, current):
        below = list(range(AGE_MIN, lo))
        above = list(range(hi + 1, AGE_MAX + 1))
        pool = below + above
        if not pool:
            raise InvalidMutation(f"observed range of {field_name!r} covers the whole domain")
        return pool[int(rng.integers(len(pool)))]

    return sample


# ---------------------------------------------------------------------------
# Conditional rarity verification
# ---------------------------------------------------------------------------

def verify_rarity(
    candidate: TreatmentRecord,
    db: "HistoricalDB",
    threshold: int,
    mutation: MutationDescriptor,
) -> RarityCheck:
    """Check the candidate's mutated pattern against historical conditionals.

    Prescription mutations count exact occurrences of the new prescription
    pair. Feature mutations count, per mutated field, reference records
    sharing the candidate's exact prescription and the mutated value.
    Accepted iff every count is at or below the threshold.
    """
    evidence: list[RarityEvidence] = []
    rx = candidate.rx
    if mutation.kind == KIND_RX_SWAP:
        count = db.rx_index.get(rx, 0)
        evidence.append(RarityEvidence(f"rx={rx[0]}x{rx[1]}", count))
    elif mutation.kind == KIND_FEATURE:
        for change in mutation.changes:
            count = _count_matching(db, rx, change.field, change.new)
            evidence.append(
                RarityEvidence(f"rx={rx[0]}x{rx[1]} & {change.field}={change.new}", count)
            )
    else:
        raise InvalidMutation(f"unknown mutation kind {mutation.kind!r}")
    accepted = all(item.count <= threshold for item in evidence)
    return RarityCheck(accepted, tuple(evidence))


def _count_matching(db: "HistoricalDB", rx: tuple[int, int], field_name: str, value) -> int:
    return sum(
        1 for record in db.records if record.rx == rx and getattr(record, field_name) == value
    )


# ---------------------------------------------------------------------------
# Batch generation
# ---------------------------------------------------------------------------

_MUTABLE_FIELDS = ("age_at_tx", "energy", "intent", "icd10", "morphology")


def generate_sa_set(
    db: "HistoricalDB",
    counts: Mapping[str, int],
    threshold: int = DEFAULT_RARITY_THRESHOLD,
    rng: np.random.Generator | None = None,
) -> list[SimulatedAnomaly]:
    """Produce exactly counts[kind] accepted anomalies per mutation kind, for
    the two kinds KIND_RX_SWAP and KIND_FEATURE.

    Base records are drawn from the reference set; each candidate must pass
    verify_rarity against that same set at the given threshold and must
    actually differ from its base. Any other key in counts, or a negative
    count, raises InvalidMutation before any draw. A kind that is still short
    after _MAX_ATTEMPTS_PER_ITEM candidates per requested anomaly raises
    GenerationExhausted. Deterministic for a fixed generator.
    """
    invalid = {kind: wanted for kind, wanted in counts.items() if kind not in _KINDS or wanted < 0}
    if invalid:
        raise InvalidMutation(
            f"counts must map some of {list(_KINDS)} to non-negative numbers, got {invalid}"
        )
    rng = rng if rng is not None else np.random.default_rng(0)
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
                    f"accepted {kind} anomalies",
                    partial=out,
                )
            attempts += 1
            base = db.records[int(rng.integers(db.size))]
            try:
                mutated, descriptor = _mutate(kind, base, db, rng)
            except (DegenerateSwap, InvalidMutation):
                continue
            if not descriptor.changes:
                continue
            check = verify_rarity(mutated, db, threshold, descriptor)
            if not check.accepted:
                continue
            produced += 1
            mutated = replace(mutated, record_id=f"{base.record_id}~sa{len(out) + 1}")
            out.append(
                SimulatedAnomaly(
                    base_record_id=base.record_id,
                    mutated=mutated,
                    mutation=descriptor,
                    rarity_evidence=check.evidence,
                )
            )
    return out


def _mutate(kind, base, db, rng):
    if kind == KIND_RX_SWAP:
        return swap_leading_digits(base)
    n_fields = int(rng.integers(1, 3))
    fields = list(rng.choice(_MUTABLE_FIELDS, size=n_fields, replace=False))
    spec = {}
    for field_name in fields:
        feature = db.feature_schema.spec(field_name)
        if feature.kind == "numeric":
            spec[field_name] = extreme_value_sampler(db.feature_schema, field_name)
        else:
            spec[field_name] = vocabulary_sampler(db.feature_schema, field_name)
    return mutate_features(base, spec, rng)


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
    with text_stream(json_destination, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
