"""Dissimilarity metrics between treatment records and their group aggregations.

Two metrics drive the detector. The prescription distance is the Euclidean
distance between min-max scaled (fractions, dose per fraction) pairs, so it
lies in [0, sqrt(2)] for any pair inside the reference range. The feature
distance is a Gower distance over the non-prescription features: numeric
features contribute |difference| / range (clamped to 1 for out-of-range
queries), categorical features contribute 0 on match and 1 on mismatch, and
features missing on either side drop out of both numerator and denominator.

Group distances average each metric over the closest reference neighbors.
The feature group orders candidates by prescription distance first, feature
distance second, and stable input order last, so records sharing the query's
exact prescription are consumed before more distant prescriptions.

A QueryProfile holds what a query needs against one reference set that the
detector's parameters do not change: both distance vectors, the neighbour
order, the same-prescription count and the record's warnings. The group
functions and the detector take a record or its profile; training profiles
each record once and scores every parameter point from the profile.

The characteristic distances theta and tau, the means of both metrics over
all ordered pairs of a reference set, are grouped sums rather than a pair
loop. theta weights the distances between distinct prescriptions by their
counts, O(U^2) in U distinct prescriptions. tau groups the records by
presence pattern (which features they have, at most 2^k patterns): within a
pair of patterns the Gower denominator is constant, categorical mismatches
come from per-pattern value counts, and numeric |difference| sums from one
sort and per-pattern counts below each gap between sorted values. This
drops the clamp at 1, so it needs every numeric column's present values to
lie within the column's bound range, as they do when the schema was bound
to the same records; pairwise_means checks that. Only the histograms, which
need each pair's value, still visit every pair, in blocks.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, Sequence

import numpy as np

from .records import (
    CATEGORICAL,
    NUMERIC,
    FeatureSchema,
    Prescription,
    TreatmentRecord,
    text_stream,
    validate_record,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .ingest import HistoricalDB

RX_DISTANCE_MAX = math.sqrt(2.0)
WARN_RX_SCALED_OUT_OF_RANGE = "RxScaledOutOfRange"

_PAIR_BLOCK = 256


class IncomparablePair(ValueError):
    """Two records share no non-missing feature; no feature distance exists."""


class InsufficientNeighbors(ValueError):
    """A group size larger than the usable reference set was requested."""


class InsufficientData(ValueError):
    """Fewer than two records; pairwise characteristics are undefined."""


# ---------------------------------------------------------------------------
# Prescription distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaledRx:
    """Dimensionless prescription coordinates. Values inside the reference
    range land in [0, 1]; a new record may scale outside (allowed, reported
    by the detector as a warning)."""

    f: float
    d: float


@dataclass(frozen=True)
class RxScaler:
    """Per-dimension min and max of (fractions, dose per fraction) over a
    reference set. A degenerate dimension (min == max) contributes 0."""

    f_min: float
    f_max: float
    d_min: float
    d_max: float

    @classmethod
    def fit(cls, prescriptions: Sequence[Prescription]) -> "RxScaler":
        if not prescriptions:
            raise InsufficientData("cannot fit a scaler to zero prescriptions")
        fs = [p.fractions for p in prescriptions]
        ds = [p.dose_per_fraction for p in prescriptions]
        scaler = cls(float(min(fs)), float(max(fs)), float(min(ds)), float(max(ds)))
        if scaler.f_min == scaler.f_max or scaler.d_min == scaler.d_max:
            warnings.warn(
                "degenerate prescription dimension: it will contribute 0 to "
                "all prescription distances",
                stacklevel=2,
            )
        return scaler

    def scale(self, p: Prescription) -> ScaledRx:
        return ScaledRx(
            _scale_component(p.fractions, self.f_min, self.f_max),
            _scale_component(p.dose_per_fraction, self.d_min, self.d_max),
        )


def _scale_component(value: float, lo: float, hi: float) -> float:
    width = hi - lo
    if width <= 0:
        return 0.0
    return (value - lo) / width


def scale_rx(p: Prescription, scaler: RxScaler) -> ScaledRx:
    return scaler.scale(p)


def rx_distance(i: ScaledRx, j: ScaledRx) -> float:
    """Euclidean distance between two scaled prescriptions."""
    df = i.f - j.f
    dd = i.d - j.d
    return math.sqrt(df * df + dd * dd)


# ---------------------------------------------------------------------------
# Gower feature distance
# ---------------------------------------------------------------------------

def gower_distance(i: TreatmentRecord, j: TreatmentRecord, schema: FeatureSchema) -> float:
    """Weighted Gower dissimilarity over the schema's comparable features.

    Raises IncomparablePair when every feature is missing on one side or the
    other. Requires a schema with bound numeric ranges.
    """
    num = 0.0
    den = 0.0
    for spec in schema.features:
        a = getattr(i, spec.name)
        b = getattr(j, spec.name)
        if a is None or b is None:
            continue
        if spec.kind == NUMERIC:
            contribution = _numeric_contribution(float(a), float(b), spec)
        else:
            contribution = 0.0 if a == b else 1.0
        num += spec.weight * contribution
        den += spec.weight
    if den == 0.0:
        raise IncomparablePair(
            f"records {i.record_id!r} and {j.record_id!r} share no non-missing feature"
        )
    return num / den


def _numeric_contribution(a: float, b: float, spec) -> float:
    if spec.value_range is None:
        raise ValueError(
            f"numeric feature {spec.name!r} has no bound range; "
            "bind the schema to a reference set first"
        )
    lo, hi = spec.value_range
    width = hi - lo
    if width <= 0:
        # Degenerate reference range: any difference is maximal.
        return 0.0 if a == b else 1.0
    return min(abs(a - b) / width, 1.0)


# ---------------------------------------------------------------------------
# Array kernels: one left side (a query or a block of records) against every
# encoded reference record
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Column:
    name: str
    kind: str
    weight: float
    values: np.ndarray          # float64 values or int64 category codes
    present: np.ndarray         # bool mask, False where the value is missing
    width: float = 0.0
    codes: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EncodedFeatures:
    """Columnar view of a record list under a bound schema."""

    columns: tuple[_Column, ...]
    size: int


def encode_features(records: Sequence[TreatmentRecord], schema: FeatureSchema) -> EncodedFeatures:
    columns: list[_Column] = []
    for spec in schema.features:
        raw = [getattr(r, spec.name) for r in records]
        present = np.array([v is not None for v in raw], dtype=bool)
        if spec.kind == NUMERIC:
            if spec.value_range is None:
                raise ValueError(f"numeric feature {spec.name!r} has no bound range")
            lo, hi = spec.value_range
            values = np.array([0.0 if v is None else float(v) for v in raw], dtype=np.float64)
            columns.append(_Column(spec.name, NUMERIC, spec.weight, values, present, width=hi - lo))
        else:
            codes: dict[str, int] = {}
            encoded = np.empty(len(raw), dtype=np.int64)
            for k, v in enumerate(raw):
                if v is None:
                    encoded[k] = -1
                else:
                    encoded[k] = codes.setdefault(str(v), len(codes))
            columns.append(_Column(spec.name, CATEGORICAL, spec.weight, encoded, present, codes=codes))
    return EncodedFeatures(tuple(columns), len(records))


def scaled_rx_arrays(records: Sequence[TreatmentRecord], scaler: RxScaler) -> tuple[np.ndarray, np.ndarray]:
    """Scaled (fractions, dose per fraction) of every record, as RxScaler.scale
    computes them one at a time."""
    f = np.array([r.prescription.fractions for r in records], dtype=np.float64)
    d = np.array([r.prescription.dose_per_fraction for r in records], dtype=np.float64)
    return _scale_array(f, scaler.f_min, scaler.f_max), _scale_array(d, scaler.d_min, scaler.d_max)


def _scale_array(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    width = hi - lo
    if width <= 0:
        return np.zeros_like(values)
    return (values - lo) / width


def _rho(f, d, rx_f: np.ndarray, rx_d: np.ndarray) -> np.ndarray:
    """Prescription distances from scaled left coordinates (scalars or a
    column block) to every reference record."""
    df = f - rx_f
    dd = d - rx_d
    return np.sqrt(df * df + dd * dd)


def _gower(left, shape) -> np.ndarray:
    """Gower distances from a left side to every encoded record.

    left yields (column, values, valid) for each column the left side has:
    values are in the column's code space and broadcast against it, and
    valid marks the pairs where neither side misses the feature. Entries are
    NaN where the pair is incomparable. Accumulates features in schema order
    so results match the scalar gower_distance bit for bit.
    """
    num = np.zeros(shape, dtype=np.float64)
    den = np.zeros(shape, dtype=np.float64)
    for col, values, valid in left:
        if col.kind == NUMERIC and col.width > 0:
            contribution = np.minimum(np.abs(values - col.values) / col.width, 1.0)
        else:
            # Categories, or a degenerate numeric range: any difference is maximal.
            contribution = (values != col.values).astype(np.float64)
        num = np.where(valid, num + col.weight * contribution, num)
        den = np.where(valid, den + col.weight, den)
    return np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), np.nan)


def _query_features(record: TreatmentRecord, encoded: EncodedFeatures):
    # Only the query's present features, so a pair is valid wherever the
    # reference has the value. A category the reference never saw gets code
    # -2, which matches nothing.
    for col in encoded.columns:
        value = getattr(record, col.name)
        if value is None:
            continue
        yield col, float(value) if col.kind == NUMERIC else col.codes.get(str(value), -2), col.present


def _pair_blocks(rx_f: np.ndarray, rx_d: np.ndarray, encoded: EncodedFeatures):
    """Yields (rows, rho, g): the distances from records rows (a block of at
    most _PAIR_BLOCK) to every record, with one row per block record."""
    size = encoded.size
    for lo in range(0, size, _PAIR_BLOCK):
        hi = min(lo + _PAIR_BLOCK, size)
        block = slice(lo, hi)
        left = (
            (col, col.values[block, None], col.present[block, None] & col.present)
            for col in encoded.columns
        )
        # Gower before rho: the caller still holds the previous block's
        # arrays while this runs, and Gower's temporaries are the larger peak.
        g = _gower(left, (hi - lo, size))
        yield np.arange(lo, hi), _rho(rx_f[block, None], rx_d[block, None], rx_f, rx_d), g


# ---------------------------------------------------------------------------
# Group distances
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class QueryProfile:
    """What one record against one reference set needs that the parameters
    (a, b, mu, nu) do not change.

    rho and g are the prescription and Gower distances to every reference
    record (g is NaN where the pair is incomparable); order ranks the
    reference records by rho, then g (NaN last within ties), then input
    order; comparable is the subsequence of order with a defined g. warnings
    are the record's validate_record violation kinds, then
    RxScaledOutOfRange when its prescription scales outside [0, 1]. Build it
    with query_profile and reuse it for every group size and threshold.
    """

    record: TreatmentRecord
    db: "HistoricalDB" = field(repr=False)
    warnings: tuple[str, ...]
    rho: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)
    order: np.ndarray = field(repr=False)
    comparable: np.ndarray = field(repr=False)
    same_rx_count: int


def query_profile(query: TreatmentRecord | QueryProfile, db: "HistoricalDB") -> QueryProfile:
    """The profile of a record against db; a profile of db is returned as is."""
    if isinstance(query, QueryProfile):
        if query.db is not db:
            raise ValueError(
                f"profile of record {query.record.record_id!r} was built against another reference set"
            )
        return query
    scaled = db.rx_scaler.scale(query.prescription)
    rho = _rho(scaled.f, scaled.d, db.rx_f, db.rx_d)
    g = _gower(_query_features(query, db.encoded), db.size)
    # lexsort's last key is the primary one; it is stable, so input order
    # breaks the remaining ties.
    order = np.lexsort((g, rho))
    warnings = [v.kind for v in validate_record(query).violations]
    if not (0.0 <= scaled.f <= 1.0 and 0.0 <= scaled.d <= 1.0):
        warnings.append(WARN_RX_SCALED_OUT_OF_RANGE)
    return QueryProfile(
        record=query,
        db=db,
        warnings=tuple(warnings),
        rho=rho,
        g=g,
        order=order,
        comparable=order[~np.isnan(g[order])],
        same_rx_count=db.rx_index.get(query.rx, 0),
    )


@dataclass(frozen=True)
class GroupDistanceResult:
    """Mean distance over the selected neighbor group.

    indices are the averaged reference records' positions in the profile's
    reference set, in selection order. warning flags a feature group padded
    beyond the same-prescription records.
    """

    value: float
    warning: bool
    profile: QueryProfile = field(repr=False, compare=False)
    indices: np.ndarray = field(repr=False, compare=False)

    @property
    def members(self) -> tuple[tuple[str, float, float | None], ...]:
        """(record_id, rx_distance, feature_distance) of each averaged record,
        in selection order; the feature distance is None for an incomparable
        pair."""
        records = self.profile.db.records
        rho = self.profile.rho[self.indices].tolist()
        g = self.profile.g[self.indices].tolist()
        return tuple(
            (records[k].record_id, r, None if math.isnan(x) else x)
            for k, r, x in zip(self.indices.tolist(), rho, g)
        )

    @property
    def same_rx_count(self) -> int:
        return self.profile.same_rx_count


def closest_m_rx_distance(
    query: TreatmentRecord | QueryProfile, db: "HistoricalDB", m: int
) -> GroupDistanceResult:
    """Mean prescription distance over the m nearest reference records."""
    size = db.size
    if not 1 <= m <= size:
        raise InsufficientNeighbors(f"m={m} outside [1, {size}]")
    profile = query_profile(query, db)
    take = profile.order[:m]
    return GroupDistanceResult(math.fsum(profile.rho[take].tolist()) / m, False, profile, take)


def closest_n_feature_distance(
    query: TreatmentRecord | QueryProfile, db: "HistoricalDB", n: int
) -> GroupDistanceResult:
    """Mean feature distance over the n closest-prescription reference records.

    Candidates sort by prescription distance, then feature distance, then
    stable input order; incomparable candidates are skipped. The warning flag
    is set when fewer than n reference records share the query's exact
    prescription, in which case the group is filled from the next-closest
    prescriptions.
    """
    size = db.size
    if not 1 <= n <= size:
        raise InsufficientNeighbors(f"n={n} outside [1, {size}]")
    profile = query_profile(query, db)
    take = profile.comparable[:n]
    if len(take) < n:
        raise InsufficientNeighbors(
            f"only {len(take)} comparable reference records for n={n}"
        )
    value = math.fsum(profile.g[take].tolist()) / n
    return GroupDistanceResult(value, profile.same_rx_count < n, profile, take)


# ---------------------------------------------------------------------------
# Pairwise characteristics and histograms
# ---------------------------------------------------------------------------

def pairwise_means(
    rx_f: np.ndarray, rx_d: np.ndarray, encoded: EncodedFeatures
) -> tuple[float, float, int]:
    """Mean prescription and feature distance over ordered pairs j != k of
    the records behind scaled_rx_arrays and encode_features.

    Returns (theta, tau, incomparable_pairs). Incomparable pairs are skipped
    from tau's average and counted; theta always averages over S*(S-1) pairs.

    No pair is visited. theta sums count-weighted distances between the
    distinct scaled prescriptions. tau groups the records by which features
    they have (their presence pattern): the Gower denominator is constant
    within a pair of patterns, so each feature's numerator sum over a
    pattern pair comes from per-pattern counts. The clamp at 1 is dropped,
    which needs every numeric column's present values to span at most its
    width, as they do when the schema was bound to these records; a wider
    column raises ValueError. Raises IncomparablePair when no pair shares a
    feature.
    """
    size = len(rx_f)
    if size < 2:
        raise InsufficientData(f"need at least 2 records, got {size}")
    theta = 2.0 * _distinct_rx_sum(rx_f, rx_d) / (size * (size - 1))
    tau_sum, comparable = _pattern_gower_sum(encoded)
    if comparable == 0:
        raise IncomparablePair("no comparable pair in the reference set")
    return theta, tau_sum / comparable, size * (size - 1) - comparable


def _distinct_rx_sum(rx_f: np.ndarray, rx_d: np.ndarray) -> float:
    """Sum of prescription distances over unordered pairs of records, from
    the distinct (f, d) rows and their counts; equal prescriptions add 0."""
    rows, counts = np.unique(np.column_stack((rx_f, rx_d)), axis=0, return_counts=True)
    f, d = rows[:, 0], rows[:, 1]
    weights = counts.astype(np.float64)

    def upper_terms():
        # Rows lo..hi against rows lo.., keeping the pairs u < v.
        for lo in range(0, len(rows), _PAIR_BLOCK):
            hi = min(lo + _PAIR_BLOCK, len(rows))
            rho = _rho(f[lo:hi, None], d[lo:hi, None], f[lo:], d[lo:])
            terms = weights[lo:hi, None] * weights[lo:] * rho
            for u in range(hi - lo):
                yield from terms[u, u + 1:].tolist()

    return math.fsum(upper_terms())


def _pattern_gower_sum(encoded: EncodedFeatures) -> tuple[float, int]:
    """Sum of Gower distances over comparable ordered pairs j != k, and their
    number, from the records grouped by presence pattern."""
    present = np.column_stack([col.present for col in encoded.columns])
    patterns, pattern_of, sizes = np.unique(
        present, axis=0, return_inverse=True, return_counts=True
    )
    pattern_of = pattern_of.ravel()
    count = len(patterns)
    den = np.zeros((count, count))
    num = np.zeros((count, count))
    for f, col in enumerate(encoded.columns):
        both = np.outer(patterns[:, f], patterns[:, f])
        # Schema order, as in _gower, so each denominator rounds the same.
        den += np.where(both, col.weight, 0.0)
        if col.kind == NUMERIC:
            diffs = _numeric_abs_diff_sums(col, pattern_of, count)
        else:
            diffs = _mismatch_counts(col, pattern_of, count)
        num += np.where(both, col.weight * diffs, 0.0)
    pairs = np.outer(sizes, sizes) - np.diag(sizes)
    comparable = den > 0.0
    total = math.fsum((num[comparable] / den[comparable]).tolist())
    return total, int(pairs[comparable].sum())


def _pattern_counts(pattern_of: np.ndarray, value_of: np.ndarray, count: int, values: int) -> np.ndarray:
    """[p, v]: the number of records of pattern p with value index v."""
    return np.bincount(pattern_of * values + value_of, minlength=count * values).reshape(count, values)


def _mismatch_counts(col: _Column, pattern_of: np.ndarray, count: int) -> np.ndarray:
    """[p, q]: ordered pairs (j in p, k in q), both with the feature, whose
    codes differ."""
    per_code = _pattern_counts(pattern_of[col.present], col.values[col.present], count, len(col.codes))
    with_value = per_code.sum(axis=1)
    return np.outer(with_value, with_value) - per_code @ per_code.T


def _numeric_abs_diff_sums(col: _Column, pattern_of: np.ndarray, count: int) -> np.ndarray:
    """[p, q]: sum of |a_j - a_k| / width over ordered pairs (j in p, k in q)
    of records with the feature; 0 for a zero width.

    Each gap between consecutive distinct values adds its length once per
    pair it separates: below[p] * above[q] + below[q] * above[p]. Every term
    is non-negative, so the sum does not cancel.
    """
    values = col.values[col.present]
    if len(values) and values.max() - values.min() > col.width:
        raise ValueError(
            f"numeric feature {col.name!r}: present values span "
            f"{values.max() - values.min()!r}, more than the bound width {col.width!r}"
        )
    if col.width <= 0.0:
        return np.zeros((count, count))
    distinct, rank = np.unique(values, return_inverse=True)
    per_value = _pattern_counts(pattern_of[col.present], rank.ravel(), count, len(distinct))
    below = np.cumsum(per_value, axis=1)[:, :-1]
    above = per_value.sum(axis=1)[:, None] - below
    one_way = (below * np.diff(distinct)) @ above.T
    return (one_way + one_way.T) / col.width


@dataclass(frozen=True)
class Histogram:
    """Normalized histogram: mass[i] is the fraction of pairs whose distance
    falls in [bin_edges[i], bin_edges[i+1]) (last bin right-inclusive)."""

    bin_edges: np.ndarray
    mass: np.ndarray

    def rows(self) -> list[tuple[float, float, float]]:
        return [
            (float(self.bin_edges[i]), float(self.bin_edges[i + 1]), float(self.mass[i]))
            for i in range(len(self.mass))
        ]


def pairwise_histograms(db: "HistoricalDB", bin_width: float) -> tuple[Histogram, Histogram]:
    """Normalized histograms of pairwise prescription and feature distances.

    Bins cover [0, sqrt(2)] and [0, 1]; each histogram's masses sum to 1 over
    the unordered reference pairs (comparable pairs only, for features).
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    rho_edges = _edges(RX_DISTANCE_MAX, bin_width)
    g_edges = _edges(1.0, bin_width)
    rho_counts = np.zeros(len(rho_edges) - 1, dtype=np.int64)
    g_counts = np.zeros(len(g_edges) - 1, dtype=np.int64)
    cols = np.arange(db.size)
    for rows, rho, g in _pair_blocks(db.rx_f, db.rx_d, db.encoded):
        upper = cols[None, :] > rows[:, None]
        rho_counts += np.histogram(rho[upper], bins=rho_edges)[0]
        g_vals = g[upper & ~np.isnan(g)]
        g_counts += np.histogram(g_vals, bins=g_edges)[0]
    return (
        Histogram(rho_edges, _normalize(rho_counts)),
        Histogram(g_edges, _normalize(g_counts)),
    )


def _edges(upper: float, bin_width: float) -> np.ndarray:
    count = max(1, math.ceil(upper / bin_width - 1e-12))
    return bin_width * np.arange(count + 1, dtype=np.float64)


def _normalize(counts: np.ndarray) -> np.ndarray:
    total = counts.sum()
    if total == 0:
        return counts.astype(np.float64)
    return counts / float(total)


def write_histogram_csv(destination: str | Path | IO[str], histogram: Histogram) -> None:
    """Plot-ready export: columns bin_low, bin_high, mass."""
    with text_stream(destination, "w") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("bin_low", "bin_high", "mass"))
        for low, high, mass in histogram.rows():
            writer.writerow((f"{low:.10g}", f"{high:.10g}", repr(mass)))
