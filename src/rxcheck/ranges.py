"""First-layer statistical range checking of prescription numerics.

Fractions, dose per fraction, and biologically effective dose (BED) are
compared against per-technique boundaries, either supplied explicitly or
derived as empirical quantiles of a historical database. Bounds are
inclusive on both ends. The table _QUANTITIES is the one place that names
these quantities; the check, the derivation, the preset and the JSON files
loop over it.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import IO, Mapping

import numpy as np

from .distance import HistoricalDB
from .records import (
    TECH_3D, TECH_IMRT, TECH_SBRT, TreatmentRecord, json_number, json_object, read_json, source_name, write_json,
)

# Linear-quadratic alpha/beta ratio, in cGy to match integer-cGy doses.
DEFAULT_ALPHA_BETA = 1000.0


class UnsupportedTechnique(ValueError):
    pass


def compute_bed(fractions: int, dose_per_fraction: float) -> float:
    """Biologically effective dose, linear-quadratic form:
    fractions * d * (1 + d / (alpha/beta)), in cGy."""
    return fractions * dose_per_fraction * (1.0 + dose_per_fraction / DEFAULT_ALPHA_BETA)


@dataclass(frozen=True)
class QuantityBounds:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"lower bound {self.lo} exceeds upper bound {self.hi}")

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi


@dataclass(frozen=True)
class TechniqueBounds:
    bed: QuantityBounds
    fractions: QuantityBounds
    dose_per_fraction: QuantityBounds


@dataclass(frozen=True)
class Boundaries:
    """Per-technique boundaries. check_bed disables the BED comparison when
    the boundary table's BED convention has not been confirmed against the
    default alpha/beta."""

    by_technique: Mapping[str, TechniqueBounds]
    check_bed: bool = True


@dataclass(frozen=True)
class Quantile:
    """Derive boundaries as empirical quantiles of the reference set."""

    low_q: float
    high_q: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.low_q <= self.high_q <= 1.0):
            raise ValueError(f"need 0 <= low_q <= high_q <= 1, got {self.low_q}, {self.high_q}")


# The checked quantities in report order, each with its value from (fractions,
# dose per fraction): plain arithmetic on integers and float64 arrays alike.
_QUANTITIES = (
    ("fractions", lambda fractions, dose_per_fraction: fractions),
    ("dose_per_fraction", lambda fractions, dose_per_fraction: dose_per_fraction),
    ("bed", compute_bed),
)


def _technique_bounds(pairs) -> TechniqueBounds:
    """TechniqueBounds from one (lo, hi) pair per quantity, in _QUANTITIES order."""
    return TechniqueBounds(
        **{quantity: QuantityBounds(lo, hi) for (quantity, _), (lo, hi) in zip(_QUANTITIES, pairs)}
    )


# Published per-technique boundary table, (lo, hi) in _QUANTITIES order. Its
# BED column's units and formula convention are not reconstructible from the
# configured linear-quadratic default, so the preset ships with the BED
# comparison disabled.
_TABLE_PRESET = {
    TECH_3D: ((1, 35), (150, 850), (16400, 292800)),
    TECH_IMRT: ((7, 47), (150, 700), (24000, 497000)),
    TECH_SBRT: ((1, 5), (400, 3000), (82000, 903000)),
}


def table_preset() -> Boundaries:
    return Boundaries(
        by_technique={technique: _technique_bounds(row) for technique, row in _TABLE_PRESET.items()},
        check_bed=False,
    )


def derive_boundaries(db: HistoricalDB, quantile: Quantile) -> Boundaries:
    """Empirical quantiles of fractions, dose per fraction, and BED over the
    database, as boundaries for its technique. The columns repeat each
    distinct prescription of db.rx_index by its count: the records'
    multiset, so the quantiles of a record walk."""
    counts = np.fromiter(db.rx_index.values(), dtype=np.intp, count=len(db.rx_index))
    fractions, doses = np.repeat(np.array(list(db.rx_index), dtype=np.float64), counts, axis=0).T
    levels = (quantile.low_q, quantile.high_q)
    pairs = (np.quantile(value_of(fractions, doses), levels).tolist() for _, value_of in _QUANTITIES)
    return Boundaries(by_technique={db.technique: _technique_bounds(pairs)}, check_bed=True)


@dataclass(frozen=True)
class RangeViolation:
    quantity: str
    value: float
    low: float
    high: float


def check_range(record: TreatmentRecord, boundaries: Boundaries) -> list[RangeViolation]:
    """Empty list iff fractions, dose per fraction, and (when enabled) BED all
    lie inside their inclusive bounds for the record's technique. A quantity
    that overflows a float, as BED can for finite inputs, raises
    OverflowError."""
    bounds = boundaries.by_technique.get(record.technique)
    if bounds is None:
        raise UnsupportedTechnique(f"no boundaries for technique {record.technique!r}")
    p = record.prescription
    violations: list[RangeViolation] = []
    # BED is last. The integer prescription goes in, so fractions * dose is
    # exact before BED rounds it.
    for quantity, value_of in _QUANTITIES if boundaries.check_bed else _QUANTITIES[:-1]:
        value = value_of(p.fractions, p.dose_per_fraction)
        if not math.isfinite(value):
            raise OverflowError(f"{quantity} overflows a float")
        limits = getattr(bounds, quantity)
        if not limits.contains(value):
            violations.append(RangeViolation(quantity, float(value), limits.lo, limits.hi))
    return violations


# ---------------------------------------------------------------------------
# JSON preset files (one object per technique, mirroring the boundary table)
# ---------------------------------------------------------------------------

# A file names each bound "<side>_<quantity>", side min for lo and max for hi.
# Messages list the keys in TechniqueBounds' field order: bed first.
_FIELD_QUANTITIES = tuple(field.name for field in fields(TechniqueBounds))
_BOUND_KEYS = tuple(f"{side}_{quantity}" for quantity in _FIELD_QUANTITIES for side in ("min", "max"))


def write_boundaries(destination: str | Path | IO[str], boundaries: Boundaries) -> None:
    payload = {
        "check_bed": boundaries.check_bed,
        "techniques": {
            technique: {
                f"{side}_{quantity}": value
                for quantity in _FIELD_QUANTITIES
                for side, value in zip(("min", "max"), astuple(getattr(bounds, quantity)))
            }
            for technique, bounds in sorted(boundaries.by_technique.items())
        },
    }
    write_json(destination, payload)


def load_boundaries(source: str | Path | IO[str]) -> Boundaries:
    """Read a boundaries preset as write_boundaries writes it.

    A payload that is not an object with a "techniques" object or has an
    unknown key, or a technique entry that is not an object, lacks a key,
    has an unknown key, holds a bound that is not a number or is too large
    for a float, or a lower bound above its upper bound, raises ValueError
    naming the file, the technique and the keys. A "check_bed" that is
    present must be a JSON boolean; it defaults to true.
    """
    name = source_name(source)
    expected = 'a JSON object with a "techniques" object'
    payload = json_object(name, read_json(source), ("techniques", "check_bed"), expected=expected)
    if not isinstance(payload.get("techniques"), dict):
        raise ValueError(f"{name}: expected {expected}, got {payload!r}")
    by_technique = {}
    for technique, row in payload["techniques"].items():
        where = f"{name}: technique {technique!r}"
        json_object(where, row, _BOUND_KEYS, required=True)
        # The bounds keep the file's numbers: an integer is written back as one.
        for key in _BOUND_KEYS:
            json_number(f"{where}: key {key!r}", row[key])
        bounds = {}
        for quantity in _FIELD_QUANTITIES:
            lo, hi = row[f"min_{quantity}"], row[f"max_{quantity}"]
            if lo > hi:
                raise ValueError(f"{where}: key 'min_{quantity}' {lo!r} exceeds key 'max_{quantity}' {hi!r}")
            bounds[quantity] = QuantityBounds(lo, hi)
        by_technique[technique] = TechniqueBounds(**bounds)
    check_bed = payload.get("check_bed", True)
    if not isinstance(check_bed, bool):
        raise ValueError(f"{name}: key 'check_bed': expected a boolean, got {check_bed!r}")
    return Boundaries(by_technique=by_technique, check_bed=check_bed)
