"""Decision logic: range check, then prescription distance, then feature
distance, with one status per verdict and a full numeric explanation.

The flag thresholds scale the reference set's characteristic distances:
t_Rx = a * theta and t_F = b * tau. Group sizes scale with the reference set:
m = max(1, round(mu * S)) and n = max(1, round(nu * S)), halves rounding up.
Comparisons are strict: a distance exactly at its threshold passes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Mapping, TYPE_CHECKING

from .distance import (
    WARN_RX_SCALED_OUT_OF_RANGE,  # noqa: F401 - one of the verdict warnings
    QueryProfile,
    closest_m_rx_distance,
    closest_n_feature_distance,
    query_profile,
)
from .ranges import Boundaries, RangeViolation, UnsupportedTechnique, check_range
from .records import TreatmentRecord, json_object, read_json, source_name, write_json

if TYPE_CHECKING:  # pragma: no cover
    from .ingest import HistoricalDB

STATUS_PASS = "Pass"
STATUS_RANGE = "RangeFlag"
STATUS_TYPE1 = "Type1Flag"
STATUS_TYPE2 = "Type2Flag"

WARN_INSUFFICIENT_SAME_RX = "InsufficientSameRx"

_PARAM_KEYS = ("a", "b", "mu", "nu")


@dataclass(frozen=True)
class ModelParams:
    """The four trained parameters: threshold multipliers a, b and group-size
    fractions mu, nu (each in (0, 0.1], i.e. at most 10% of the reference)."""

    a: float
    b: float
    mu: float
    nu: float

    def __post_init__(self) -> None:
        if not (0.0 < self.a < math.inf and 0.0 < self.b < math.inf):  # NaN fails too
            raise ValueError(f"a and b must be finite and positive, got a={self.a}, b={self.b}")
        if not (0.0 < self.mu <= 0.1) or not (0.0 < self.nu <= 0.1):
            raise ValueError(
                f"mu and nu must lie in (0, 0.1], got mu={self.mu}, nu={self.nu}"
            )

    def group_sizes(self, size: int) -> tuple[int, int]:
        """(m, n) for a reference set of the given size, floored at 1."""
        return (
            max(1, math.floor(self.mu * size + 0.5)),
            max(1, math.floor(self.nu * size + 0.5)),
        )

    def as_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "mu": self.mu, "nu": self.nu}

    @classmethod
    def from_dict(cls, payload: Mapping[str, float]) -> "ModelParams":
        """Raises MalformedParams for a payload that is not an object, lacks
        a key, has an unknown key or holds a value that is not a JSON number
        or is an integer too large for a float, naming the keys."""
        json_object("", payload, _PARAM_KEYS, required=True,
                    expected=f"an object with keys {', '.join(_PARAM_KEYS)}", error=MalformedParams)
        values = {}
        for key in _PARAM_KEYS:
            value = payload[key]
            # A bool is an int to isinstance, and float() would take a string.
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise MalformedParams(f"key {key!r}: expected a number, got {value!r}")
            try:
                values[key] = float(value)
            except OverflowError:
                raise MalformedParams(f"key {key!r}: {len(str(value))}-digit integer overflows a float") from None
        return cls(**values)


class NonFiniteVerdict(ValueError):
    """A verdict holds a number that is not finite."""


class MalformedParams(ValueError):
    """A parameters entry that is not an object with the keys a, b, mu, nu."""


def thresholds(params: ModelParams, db: "HistoricalDB") -> tuple[float, float]:
    """(t_Rx, t_F) = (a * theta, b * tau) for this reference set."""
    return params.a * db.theta, params.b * db.tau


@dataclass(frozen=True)
class Verdict:
    """Pass/flag outcome with full diagnostics.

    r and t_rx are always present; f is None when the prescription comparison
    already flagged (the feature step never ran). Exactly one status holds:
    RangeFlag on any boundary violation, else Type1Flag iff r > t_rx, else
    Type2Flag iff f > t_f, else Pass.
    """

    record_id: str
    status: str
    r: float
    t_rx: float
    f: float | None
    t_f: float
    same_rx_count: int
    warnings: tuple[str, ...]
    range_violations: tuple[RangeViolation, ...]

    @property
    def flagged(self) -> bool:
        return self.status != STATUS_PASS


def detect(
    query: TreatmentRecord | QueryProfile,
    db: "HistoricalDB",
    params: ModelParams,
    boundaries: Boundaries | None = None,
) -> Verdict:
    """Classify one record, given as is or as its QueryProfile against db,
    against its technique's reference set.

    The query profile is built first, then the range check. A range
    violation decides the status but not the diagnostics: distances are
    still computed so the verdict stays explainable. A record whose
    prescription distance overflows a float therefore raises
    RxDistanceOverflow even when the range check would flag it: a RangeFlag
    verdict would carry an R that is not finite, which strict JSON cannot
    hold. Pure and deterministic for identical inputs.
    """
    profile = query_profile(query, db)
    record = profile.record
    if record.technique != db.technique:
        raise UnsupportedTechnique(
            f"record technique {record.technique!r} does not match reference {db.technique!r}"
        )
    t_rx, t_f = thresholds(params, db)
    m, n = params.group_sizes(db.size)

    violations = tuple(check_range(record, boundaries)) if boundaries else ()

    warnings = list(profile.warnings)
    r = closest_m_rx_distance(profile, db, m)
    f = None
    if r <= t_rx:
        f = closest_n_feature_distance(profile, db, n)
        if profile.same_rx_count < n:
            # The feature group was filled beyond the same-prescription records.
            warnings.append(WARN_INSUFFICIENT_SAME_RX)

    if violations:
        status = STATUS_RANGE
    elif r > t_rx:
        status = STATUS_TYPE1
    elif f > t_f:
        status = STATUS_TYPE2
    else:
        status = STATUS_PASS

    return Verdict(
        record_id=record.record_id,
        status=status,
        r=r,
        t_rx=t_rx,
        f=f,
        t_f=t_f,
        same_rx_count=profile.same_rx_count,
        warnings=tuple(warnings),
        range_violations=violations,
    )


def explain(verdict: Verdict) -> list[str]:
    """Human-readable lines: the triggered (or satisfied) comparisons with
    their numbers, the same-prescription count, and every violation/warning."""
    lines: list[str] = []
    if verdict.status == STATUS_RANGE:
        lines.append("Range anomaly.")
    for violation in verdict.range_violations:
        lines.append(
            f"Range violation: {violation.quantity} = {violation.value:g} "
            f"outside [{violation.low:g}, {violation.high:g}]"
        )
    r, t_rx, t_f = _number(verdict.r), _number(verdict.t_rx), _number(verdict.t_f)
    if verdict.status == STATUS_TYPE1:
        lines.append(f"Type 1 anomaly. R = {r}, t_Rx = {t_rx}")
    elif verdict.status == STATUS_TYPE2:
        lines.append(f"Type 2 anomaly. F = {_number(verdict.f)}, t_F = {t_f}")
    else:
        op = "<=" if verdict.r <= verdict.t_rx else ">"
        lines.append(f"R = {r} {op} t_Rx = {t_rx}")
        if verdict.f is not None:
            op = "<=" if verdict.f <= verdict.t_f else ">"
            lines.append(f"F = {_number(verdict.f)} {op} t_F = {t_f}")
    lines.append(f"Same-prescription records in history: {verdict.same_rx_count}")
    for warning in verdict.warnings:
        lines.append(f"Warning: {warning}")
    return lines


def _number(value: float) -> str:
    """Three decimals, in exponent form from 1e6 up, where fixed point would
    print every digit of a record far outside the reference range."""
    return f"{value:.3f}" if abs(value) < 1e6 else f"{value:.3e}"


def verdict_to_dict(verdict: Verdict) -> dict:
    """Wire format: one JSON object per record."""
    return {
        "record_id": verdict.record_id,
        "status": verdict.status,
        "R": verdict.r,
        "t_rx": verdict.t_rx,
        "F": verdict.f,
        "t_f": verdict.t_f,
        "same_rx_count": verdict.same_rx_count,
        "warnings": list(verdict.warnings),
        "range_violations": [asdict(v) for v in verdict.range_violations],
        "explanation": explain(verdict),
    }


def verdict_json(verdict: Verdict) -> str:
    """verdict_to_dict as one line of strict JSON, with sorted keys and a
    final newline. A number that is not finite, which strict JSON cannot
    carry, raises NonFiniteVerdict naming it."""
    payload = verdict_to_dict(verdict)
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        named = [f"{key} = {payload[key]!r}" for key in ("R", "t_rx", "F", "t_f")
                 if payload[key] is not None and not math.isfinite(payload[key])]
        raise NonFiniteVerdict(f"{', '.join(named) or 'range_violations'}: not a finite number") from None


def load_params_json(source) -> dict[str, ModelParams]:
    """Read trained parameters: either one flat object or a mapping keyed by
    technique. A flat object is returned under the wildcard key '*'.

    A file that is not an object raises ValueError naming the file; an entry
    that is not an object, lacks a key, has an unknown key, holds a value
    that is not a number, is too large for a float or is out of range raises
    MalformedParams naming the file, the technique and the keys.
    """
    name = source_name(source)
    payload = json_object(name, read_json(source), expected="a JSON object")
    if set(payload) >= set(_PARAM_KEYS):
        payload = {"*": payload}
    loaded = {}
    for technique, entry in payload.items():
        try:
            loaded[technique] = ModelParams.from_dict(entry)
        except ValueError as exc:
            raise MalformedParams(f"{name}: technique {technique!r}: {exc}") from None
    return loaded


def params_for_technique(params_by_technique: Mapping[str, ModelParams], technique: str) -> ModelParams:
    if technique in params_by_technique:
        return params_by_technique[technique]
    if "*" in params_by_technique:
        return params_by_technique["*"]
    raise UnsupportedTechnique(f"no trained parameters for technique {technique!r}")


def write_params_json(destination, params_by_technique: Mapping[str, ModelParams]) -> None:
    payload = {
        technique: params.as_dict()
        for technique, params in sorted(params_by_technique.items())
    }
    write_json(destination, payload)
