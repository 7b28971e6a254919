"""First-layer statistical range checking of prescription numerics.

Fractions, dose per fraction, and biologically effective dose (BED) are
compared against per-technique boundaries, either supplied explicitly or
derived as empirical quantiles of a historical database. Bounds are
inclusive on both ends. The table _QUANTITIES is the one place that names
these quantities; the check, the derivation, the preset and the JSON files
loop over it.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import IO, Mapping, TYPE_CHECKING

import numpy as np

from .records import TECH_3D, TECH_IMRT, TECH_SBRT, TreatmentRecord, source_name, text_stream, write_json

if TYPE_CHECKING:  # pragma: no cover
    from .ingest import HistoricalDB

# Linear-quadratic alpha/beta ratio, in cGy to match integer-cGy doses.
DEFAULT_ALPHA_BETA = 1000.0


class InvalidParameter(ValueError):
    pass


class UnsupportedTechnique(KeyError):
    pass


def compute_bed(fractions: int, dose_per_fraction: float, alpha_beta: float = DEFAULT_ALPHA_BETA) -> float:
    """Biologically effective dose, linear-quadratic form:
    fractions * d * (1 + d / (alpha/beta)), in cGy."""
    if alpha_beta <= 0:
        raise InvalidParameter(f"alpha_beta must be positive, got {alpha_beta}")
    return fractions * dose_per_fraction * (1.0 + dose_per_fraction / alpha_beta)


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


def derive_boundaries(db: "HistoricalDB", quantile: Quantile) -> Boundaries:
    """Empirical quantiles of fractions, dose per fraction, and BED over the
    database, as boundaries for its technique."""
    fractions = np.array([r.prescription.fractions for r in db.records], dtype=np.float64)
    doses = np.array([r.prescription.dose_per_fraction for r in db.records], dtype=np.float64)
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
    lie inside their inclusive bounds for the record's technique."""
    bounds = boundaries.by_technique.get(record.technique)
    if bounds is None:
        raise UnsupportedTechnique(f"no boundaries for technique {record.technique!r}")
    p = record.prescription
    violations: list[RangeViolation] = []
    # BED is last. The integer prescription goes in, so fractions * dose is
    # exact before BED rounds it.
    for quantity, value_of in _QUANTITIES if boundaries.check_bed else _QUANTITIES[:-1]:
        value = value_of(p.fractions, p.dose_per_fraction)
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

    A payload that is not an object with a "techniques" object, or a
    technique entry that is not an object, lacks a key, holds a bound that
    is not a number (NaN included) or a lower bound above its upper bound,
    raises ValueError naming the file, the technique and the keys. A
    "check_bed" that is present must be a JSON boolean; it defaults to true.
    """
    with text_stream(source) as handle:
        payload = json.load(handle)
    name = source_name(source)
    techniques = payload.get("techniques") if isinstance(payload, dict) else None
    if not isinstance(techniques, dict):
        raise ValueError(f"{name}: expected a JSON object with a \"techniques\" object, got {payload!r}")
    by_technique = {}
    for technique, row in techniques.items():
        where = f"{name}: technique {technique!r}"
        if not isinstance(row, dict):
            raise ValueError(f"{where}: expected an object, got {row!r}")
        missing = [key for key in _BOUND_KEYS if key not in row]
        if missing:
            raise ValueError(f"{where}: missing key " + ", ".join(repr(key) for key in missing))
        for key in _BOUND_KEYS:
            value = row[key]
            # A bool is an int to isinstance; NaN is the one float unequal to itself.
            if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
                raise ValueError(f"{where}: key {key!r}: expected a number, got {value!r}")
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
