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
detector's parameters do not change, without sorting the reference set.
Both group distances take a profile, never a record, and read the reference
set from it; the detector builds the profile of a record it is given.
Every record of one distinct scaled prescription (row) lies at the same
rho, so the profile computes rho per row, U rows against S records, and
ranks the rows; rows at exactly equal rho form a level. The prescription
group sums the m smallest rho values from the rows' counts. The feature
group walks the levels in rho order, computes Gower only for the records of
the levels it reaches, drops the incomparable ones and stops once it holds
n comparable records; the walk does not sort. A reference set encodes its
features grouped by row: position p of its columns holds record
rx_rows.members[p], so each row's records are one contiguous run. A walk
step over one row reads every column as a slice, with no gather; a step
over several rows gathers their runs. Ranking is a second step, which
selects before it sorts: the level of the n-th walked record is cut, the
records below it all belong to the group, and of the cut level only those
whose g is at most the value np.partition (introselect) finds at the
remaining count do, ties at that value included. Only these are sorted by
rho, g and input order, so a level of a thousand records costs one
selection and a sort of the few dozen it gives up. The walked records and
the ranked prefix are cached on the profile and extended on demand:
training profiles each record once and scores every parameter point from
it. The walk is the only source of the feature group's members and their
distances. A group mean depends only on its members' multiset, as
math.fsum is correctly rounded. The profile keeps each R it gives by m and
each F by n, so a search that visits a group size again reads its mean
back; a group size that raises is not kept and raises again.

The characteristic distances theta and tau, the means of both metrics over
all ordered pairs of a reference set, are grouped sums rather than a pair
loop. theta weights the distances between distinct prescriptions by their
counts, O(U^2) in U distinct prescriptions. tau groups the records by
presence pattern (which features they have, at most 2^k patterns): within a
pair of patterns the Gower denominator is constant, read from
encode_features' table, categorical mismatches
come from per-pattern value counts, and numeric |difference| sums from one
sort and per-pattern counts below each gap between sorted values. This
drops the clamp at 1, so it needs every numeric column's present values to
lie within the column's range, as they do when encode_features takes the
range from those values. theta and the prescription histogram share one
pass over the pairs of rows, the pairs within a row included at distance 0,
each weighted by the number of record pairs it stands for.

The feature histogram needs each pair's value, but visits no pair either.
Under the default schema, age and four categories, a pair's Gower distance
depends only on its class (how many categories both records have, and how
many of those differ) and its two ages. The records group by categorical
tuple, the tuple pairs by class once, and integer counts per (class, age
pair) follow from the per-tuple age counts; each (class, age pair) gets its
distance once and weighs in with its count. The cost grows with the tuples
and distinct ages present, not with S^2.

The walk and the pair classes share one array Gower kernel. It adds up the
numerator only, in place and in schema order: a numeric feature's clipped
|difference| / width times the pair's validity mask, a categorical mismatch
where both sides have the feature. The caller supplies the denominators,
which depend only on which features the two sides have. encode_features
gives each record its presence pattern and a table of the features each pair
of patterns shares, NaN where none, so an incomparable pair divides to NaN;
the walk reads the query's row of that table at the records' patterns, and
the pair classes count a class's shared categories plus 1 when both ages
are present.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from .records import (
    CATEGORICAL,
    NUMERIC,
    FeatureSpec,
    Prescription,
    TreatmentRecord,
    default_schema,
    validate_record,
    write_csv,
)

RX_DISTANCE_MAX = math.sqrt(2.0)
WARN_RX_SCALED_OUT_OF_RANGE = "RxScaledOutOfRange"

# The most bins a pairwise histogram may have; pairwise_histograms checks a
# bin width against it before it allocates the bin edges.
MAX_HISTOGRAM_BINS = 10**6

_PAIR_BLOCK = 256
_CELL_BLOCK = 1 << 20


class IncomparablePair(ValueError):
    """Two records share no non-missing feature; no feature distance exists."""


class InsufficientNeighbors(ValueError):
    """A group size larger than the usable reference set was requested."""


class InsufficientData(ValueError):
    """Fewer than two records; pairwise characteristics are undefined."""


class RxDistanceOverflow(OverflowError):
    """A record's prescription distance to a reference set is too large for
    a float."""


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

    @property
    def degenerate(self) -> tuple[str, ...]:
        """The names of the degenerate dimensions, fractions first."""
        dimensions = (("fractions", self.f_min, self.f_max), ("dose_per_fraction", self.d_min, self.d_max))
        return tuple(name for name, lo, hi in dimensions if lo == hi)


def scale_rx(p: Prescription, scaler: RxScaler) -> ScaledRx:
    """p's coordinates under scaler: (value - min) / (max - min) per
    dimension, and 0.0 in a degenerate one."""
    f_width = scaler.f_max - scaler.f_min
    d_width = scaler.d_max - scaler.d_min
    return ScaledRx(
        0.0 if f_width <= 0 else (p.fractions - scaler.f_min) / f_width,
        0.0 if d_width <= 0 else (p.dose_per_fraction - scaler.d_min) / d_width,
    )


def rx_distance(i: ScaledRx, j: ScaledRx) -> float:
    """Euclidean distance between two scaled prescriptions."""
    df = i.f - j.f
    dd = i.d - j.d
    return math.sqrt(df * df + dd * dd)


# ---------------------------------------------------------------------------
# Gower feature distance
# ---------------------------------------------------------------------------

def gower_distance(i: TreatmentRecord, j: TreatmentRecord, schema: Sequence[FeatureSpec]) -> float:
    """Gower dissimilarity: the mean contribution of the schema's
    comparable features.

    Raises IncomparablePair when every feature is missing on one side or the
    other. Requires a schema with numeric ranges, as a reference set's
    feature_schema has.
    """
    num = 0.0
    den = 0
    for spec in schema:
        a = getattr(i, spec.name)
        b = getattr(j, spec.name)
        if a is None or b is None:
            continue
        if spec.kind == NUMERIC:
            contribution = _numeric_contribution(float(a), float(b), spec)
        else:
            contribution = 0.0 if a == b else 1.0
        num += contribution
        den += 1
    if den == 0:
        raise IncomparablePair(
            f"records {i.record_id!r} and {j.record_id!r} share no non-missing feature"
        )
    return num / den


def _numeric_contribution(a: float, b: float, spec) -> float:
    if spec.value_range is None:
        raise ValueError(
            f"numeric feature {spec.name!r} has no range; "
            "use a reference set's feature_schema"
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
    values: np.ndarray          # float64 values or int64 category codes
    present: np.ndarray         # bool mask, False where the value is missing
    width: float = 0.0
    codes: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EncodedFeatures:
    """Columnar view of a record list: position p of every column is the
    list's record p, and schema is default_schema fitted to the columns. A
    HistoricalDB encodes its records in rx_rows.members order, so each
    distinct prescription's records are one contiguous run of positions.

    pattern[p] is record p's presence pattern: bit k-1-f is set where it has
    feature f of the k, so feature 0 is the most significant bit and integer
    order is the row order np.unique(present, axis=0) gives. denominators[q,
    p] is the Gower denominator of a pair with patterns q and p, the number
    of features both have, and NaN where they share none."""

    columns: tuple[_Column, ...]
    size: int
    schema: tuple[FeatureSpec, ...]
    pattern: np.ndarray
    denominators: np.ndarray


def encode_features(records: Sequence[TreatmentRecord]) -> EncodedFeatures:
    """The default_schema features of records as columns, each read once.
    A numeric feature's range is the min and max of its present values,
    (0.0, 0.0) when it has none; a categorical feature's codes number its
    labels in first-seen order, and its vocabulary is the labels sorted."""
    columns: list[_Column] = []
    specs: list[FeatureSpec] = []
    pattern = np.zeros(len(records), dtype=np.intp)
    for spec in default_schema():
        raw = [getattr(r, spec.name) for r in records]
        present = np.array([v is not None for v in raw], dtype=bool)
        pattern <<= 1
        pattern |= present
        if spec.kind == NUMERIC:
            values = np.array([0.0 if v is None else float(v) for v in raw], dtype=np.float64)
            # Rounding to float64 is monotone, so these are float(min) and
            # float(max) of the integers.
            seen = values[present]
            lo, hi = (float(seen.min()), float(seen.max())) if len(seen) else (0.0, 0.0)
            columns.append(_Column(spec.name, NUMERIC, values, present, width=hi - lo))
            specs.append(FeatureSpec(spec.name, NUMERIC, value_range=(lo, hi)))
        else:
            codes: dict[str, int] = {}
            encoded = np.array([-1 if v is None else codes.setdefault(str(v), len(codes)) for v in raw],
                               dtype=np.int64)
            columns.append(_Column(spec.name, CATEGORICAL, encoded, present, codes=codes))
            specs.append(FeatureSpec(spec.name, CATEGORICAL, vocabulary=tuple(sorted(codes))))
    codes = np.arange(1 << len(columns))
    both = codes[:, None] & codes
    shared = sum((both >> bit) & 1 for bit in range(len(columns))).astype(np.float64)
    shared[shared == 0.0] = np.nan
    return EncodedFeatures(tuple(columns), len(records), tuple(specs), pattern, shared)


def _scale_array(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    width = hi - lo
    if width <= 0:
        return np.zeros_like(values)
    return (values - lo) / width


@dataclass(frozen=True)
class DistinctRx:
    """A reference set's records grouped by scaled prescription: the distinct
    (f, d) rows in ascending order and each row's record count. Row k's
    records are members[starts[k]:starts[k] + counts[k]], in input order."""

    f: np.ndarray
    d: np.ndarray
    counts: np.ndarray
    starts: np.ndarray
    members: np.ndarray

    def __len__(self) -> int:
        """The number of records."""
        return len(self.members)


@dataclass(frozen=True)
class HistoricalDB:
    """Immutable per-technique reference set, as ingest.build_historical_db
    builds it. It lives here, beside the kernels that read its fields.

    Carries the prescription scaler, the feature schema with the numeric
    ranges and vocabularies of its records, the exact prescription
    occurrence index, and the characteristic pairwise distances
    theta (prescriptions) and tau (features); for the distance kernels, the
    records grouped by distinct scaled prescription (rx_rows) and their
    encoded features in that grouped order: position p of encoded is
    records[rx_rows.members[p]]. Safe to share across workers.
    """

    technique: str
    records: tuple[TreatmentRecord, ...]
    rx_scaler: RxScaler
    feature_schema: tuple[FeatureSpec, ...]
    rx_index: Mapping[tuple[int, int], int]
    theta: float
    tau: float
    incomparable_pairs: int
    encoded: EncodedFeatures = field(repr=False, compare=False)
    rx_rows: DistinctRx = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.records)


def distinct_rx(fractions: np.ndarray, doses: np.ndarray, scaler: RxScaler) -> DistinctRx:
    """Group records by their float64 (fractions, dose per fraction) columns
    as scaler scales them, so every record of a row lies at exactly the
    row's distance from any point."""
    rx_f = _scale_array(fractions, scaler.f_min, scaler.f_max)
    rx_d = _scale_array(doses, scaler.d_min, scaler.d_max)
    # lexsort is stable: rows in (f, d) order, each row's records in input order.
    members = np.lexsort((rx_d, rx_f))
    f, d = rx_f[members], rx_d[members]
    starts = np.flatnonzero(np.r_[True, (f[1:] != f[:-1]) | (d[1:] != d[:-1])])
    return DistinctRx(
        f=f[starts], d=d[starts], counts=np.diff(np.r_[starts, len(members)]),
        starts=starts, members=members,
    )


def _rho(f, d, rx_f: np.ndarray, rx_d: np.ndarray) -> np.ndarray:
    """Prescription distances from scaled left coordinates (scalars or a
    column block) to scaled right coordinates."""
    df = f - rx_f
    dd = d - rx_d
    return np.sqrt(df * df + dd * dd)


def _gower(pairs, den) -> np.ndarray:
    """Gower distances between a left and a right side of encoded records.

    pairs yields (column, left, right, valid) for each column the left side
    has: left and right are values in the column's code space that broadcast
    to den's shape, and valid marks the pairs where neither side misses the
    feature. den holds each pair's number of shared features, NaN where the
    pair is incomparable, so those entries are NaN. Accumulates features in
    schema order, in place, so results match the scalar gower_distance bit
    for bit.
    """
    num = np.zeros(np.shape(den), dtype=np.float64)
    for col, left, right, valid in pairs:
        if col.kind == NUMERIC and col.width > 0:
            contribution = np.subtract(left, right)
            np.abs(contribution, out=contribution)
            contribution /= col.width
            np.minimum(contribution, 1.0, out=contribution)
            # Every term is finite and non-negative, so masking by
            # multiplication adds exactly 0.0 where a side misses the
            # feature, and x + 0.0 == x.
            contribution *= valid
            num += contribution
        else:
            # Categories, or a degenerate numeric range: any difference is
            # maximal, an exact 1.0.
            num += (left != right) & valid
    # num is 0.0 wherever den is NaN, and 0.0 / nan is nan.
    num /= den
    return num


def _against(features, positions):
    """_gower pairs of a query's (column, value) features against the
    encoded rows at positions, a slice or an index array."""
    for col, value in features:
        yield col, value, col.values[positions], col.present[positions]


def _row_pairs(rows: DistinctRx):
    """Yields (rho, pairs) for the pairs of rows u <= v, with u in one block
    of at most _PAIR_BLOCK rows at a time: their prescription distance and
    the number of record pairs they stand for, counts[u] * counts[v], or
    counts[u] * (counts[u] - 1) // 2 at rho 0 within row u. theta and the
    prescription histogram share this one pass over every pair of records."""
    count = len(rows.counts)
    for lo in range(0, count, _PAIR_BLOCK):
        hi = min(lo + _PAIR_BLOCK, count)
        rho = _rho(rows.f[lo:hi, None], rows.d[lo:hi, None], rows.f[lo:], rows.d[lo:])
        pairs = rows.counts[lo:hi, None] * rows.counts[lo:]
        own = rows.counts[lo:hi]
        np.fill_diagonal(pairs, own * (own - 1) // 2)
        upper = np.arange(count - lo)[None, :] >= np.arange(hi - lo)[:, None]
        yield rho[upper], pairs[upper]


def _class_pairs(encoded: EncodedFeatures):
    """Yields (g, pairs) for the comparable unordered pairs of records, one
    block of ages at a time: each distinct Gower distance of a (class, age
    pair) and the number of record pairs at it. No pair of records is
    visited.

    encode_features lays the columns out as default_schema does: one
    numeric feature (age) first, categorical ones after it. A pair's class
    is (s, k): the categories both records have, and how many of those
    differ. _gower adds the age term, then 0.0 or an exact 1.0 per
    category, and divides by s, plus 1 if both records have an age, so g
    depends on the class and the two ages only.

    Records group by categorical tuple, a missing value counting as a value,
    and cells[a, t] counts tuple t's records at age index a, the last index
    standing for a missing age. near[t, b, c] sums cells[b, u] over the
    tuples u of class c against t, and the ordered pairs of class c at ages
    (a, b) sum cells[a, t] * near[t, b, c] over t. Both sums run over the
    non-empty cells only, so a small reference stays cheap, and count in
    int64, which calls no BLAS.
    """
    age, *categories = encoded.columns
    tuple_of, first = np.zeros(encoded.size, dtype=np.int64), np.zeros(1, dtype=np.intp)
    for col in categories:
        _, first, tuple_of = np.unique(
            tuple_of * (len(col.codes) + 1) + col.values + 1, return_index=True, return_inverse=True
        )
    # The tuple pairs' classes, in the smallest integer type that holds them.
    count, kinds = len(first), len(categories) + 1
    small = np.min_scalar_type(kinds * kinds)
    shared = np.zeros((count, count), dtype=small)
    mismatched = np.zeros((count, count), dtype=small)
    for col in categories:
        values, present = col.values[first], col.present[first]
        both = present[:, None] & present
        shared += both
        mismatched += both & (values[:, None] != values)
    key = shared * kinds + mismatched
    classes = np.flatnonzero(np.bincount(key.ravel(), minlength=kinds * kinds))
    class_of = np.zeros(kinds * kinds, dtype=small)
    class_of[classes] = np.arange(len(classes))
    class_of = class_of[key]
    class_shared, class_mismatched = np.divmod(classes, kinds)

    ages, rank = np.unique(age.values[age.present], return_inverse=True)
    width = len(ages) + 1
    age_of = np.full(encoded.size, len(ages))
    age_of[age.present] = rank
    cells = np.bincount(age_of * count + tuple_of, minlength=width * count).reshape(width, count)
    cell_age, cell_tuple = np.nonzero(cells)         # by age, then tuple
    cell_records = cells[cell_age, cell_tuple]
    age_start = np.searchsorted(cell_age, np.arange(width + 1))
    # A tuple's class against itself holds its records' pairs with themselves.
    own = np.zeros((width, len(classes)), dtype=np.int64)
    np.add.at(own, (cell_age, class_of.diagonal()[cell_tuple]), cell_records)
    age_values = np.append(ages, 0.0)                # a missing age's value is masked out

    span = max(1, _CELL_BLOCK // (len(classes) * max(count, width)))
    for lo in range(0, width, span):
        hi = min(lo + span, width)
        block = slice(age_start[lo], age_start[hi])
        at, tuples = (cell_age[block] - lo) * len(classes), cell_tuple[block]
        # Sums of counts stay integers far below 2**53, exact in float64.
        records = cell_records[block].astype(np.float64)
        near = np.empty((count, (hi - lo) * len(classes)), dtype=np.int64)
        for t in range(count):
            near[t] = np.bincount(at + class_of[t, tuples], weights=records, minlength=near.shape[1])
        # pairs[a, b - lo, c] counts the ordered pairs of class c at age
        # indices a <= b; on the diagonal, drop the self pairs and count each
        # pair once.
        pairs = np.empty((hi, near.shape[1]), dtype=np.int64)
        for a in range(hi):
            run = slice(age_start[a], age_start[a + 1])
            pairs[a] = cell_records[run] @ near[cell_tuple[run]]
        pairs = pairs.reshape(hi, hi - lo, len(classes))
        diagonal = np.arange(lo, hi)
        pairs[diagonal, diagonal - lo] = (pairs[diagonal, diagonal - lo] - own[lo:hi]) // 2
        a, b, c = np.nonzero(pairs)
        upper = a <= b + lo
        a, b, c = a[upper], b[upper], c[upper]
        both_ages = (a < len(ages)) & (b + lo < len(ages))
        columns = [(age, age_values[a], age_values[b + lo], both_ages)]
        columns += [(col, False, class_mismatched[c] > i, class_shared[c] > i) for i, col in enumerate(categories)]
        den = (class_shared[c] + both_ages).astype(np.float64)
        den[den == 0.0] = np.nan
        g = _gower(columns, den)
        defined = ~np.isnan(g)
        yield g[defined], pairs[a, b, c][defined]


# ---------------------------------------------------------------------------
# Group distances
# ---------------------------------------------------------------------------

class QueryProfile:
    """What one record against one reference set needs that the parameters
    (a, b, mu, nu) do not change.

    warnings are the record's validate_record violation kinds, then
    RxScaledOutOfRange when its prescription scales outside [0, 1].
    same_rx_count is the number of reference records with its exact
    prescription. Build it once per record and reference set and reuse it
    for every group size and threshold: closest_m_rx_distance and
    closest_n_feature_distance take it and read the reference set from
    its db. A record at a prescription distance too large for a
    float raises RxDistanceOverflow.

    The profile does not sort the S reference records. It holds rho to each
    distinct scaled prescription of the reference (row), the rows in rho
    order and their record counts; rows at exactly equal rho form a
    level. The feature group's order ranks comparable records by rho, then
    g, then input order: it is the levels in rho order, each level's
    comparable records by (g, input order). The profile walks whole levels
    on demand, computing Gower only for the records of the levels it
    reaches, and keeps the walked comparable records with their g and rho,
    in level order but unsorted within a level. nearest_comparable ranks a
    prefix of them, at least twice as long as the last one: the records
    below the level it cuts, and the cut level's records with g up to the
    value np.partition selects, ties included; only these are sorted. A
    step over a single row reads the reference's row-grouped columns as
    slices; record indices into db.records come from rx_rows.members. The
    Gower denominators of a step are the query's row of the reference's
    denominators table read at the records' presence patterns; only a step
    whose denominators hold a NaN (a record sharing no feature with the
    query) gathers its comparable records. A query with no feature is
    comparable to no record and walks nothing. sorted_rho is every
    record's rho, ascending, from the rows' counts; every verdict reads it,
    so the constructor builds it. The group functions keep R keyed by m and
    F keyed by n on the profile, the very value they computed; a call that
    raises InsufficientNeighbors keeps nothing.
    """

    def __init__(self, record: TreatmentRecord, db: HistoricalDB):
        scaled = scale_rx(record.prescription, db.rx_scaler)
        warnings = [v.kind for v in validate_record(record)]
        if not (0.0 <= scaled.f <= 1.0 and 0.0 <= scaled.d <= 1.0):
            warnings.append(WARN_RX_SCALED_OUT_OF_RANGE)
        self.record = record
        self.db = db
        self.warnings = tuple(warnings)
        self.same_rx_count = db.rx_index.get(record.rx, 0)
        # Only the query's present features, so a pair is valid wherever the
        # reference has the value. A category the reference never saw gets
        # code -2, which matches nothing. The query's presence pattern,
        # feature 0 the most significant bit, picks its row of denominators,
        # one per reference pattern.
        features, mask = [], 0
        for col in db.encoded.columns:
            value = getattr(record, col.name)
            mask = 2 * mask + (value is not None)
            if value is not None:
                features.append((col, float(value) if col.kind == NUMERIC else col.codes.get(str(value), -2)))
        self._features = tuple(features)
        self._den = db.encoded.denominators[mask]
        # A prescription that scales far outside [0, 1] can square past the
        # float range; its R would be infinite, so it gets no profile.
        with np.errstate(over="ignore"):
            row_rho = _rho(scaled.f, scaled.d, db.rx_rows.f, db.rx_rows.d)
        # Rows of one level may come in any order: the walk orders a level's
        # records by (g, input order).
        self._rows = np.argsort(row_rho)
        self._level_rho = row_rho[self._rows]
        if self._level_rho[-1] == math.inf:
            raise RxDistanceOverflow(f"record {record.record_id!r}: prescription distance overflows a float")
        self._counts = db.rx_rows.counts[self._rows]
        self.sorted_rho = np.repeat(self._level_rho, self._counts)
        self._cumulative = np.cumsum(self._counts)
        # Rows walked, at a level end. A query with no feature is comparable
        # to no record, so it has nothing to walk.
        self._walked = len(self._rows) if mask == 0 else 0
        # The walked comparable records in level order, and a prefix of the
        # feature group's order ranked from them.
        self._index = np.empty(0, dtype=np.intp)
        self._g = np.empty(0, dtype=np.float64)
        self._rho = np.empty(0, dtype=np.float64)
        self._ranked_index = self._index
        self._ranked_g = self._g
        # R by m and F by n, as the group functions computed them.
        self._r_by_m: dict[int, float] = {}
        self._f_by_n: dict[int, float] = {}

    def nearest_comparable(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The first k comparable reference records in the feature group's
        order and their g; all of them when the reference set has fewer."""
        # Training asks a profile for one group size after another: most
        # calls find the ranked prefix long enough and only slice it.
        if len(self._ranked_index) < k:
            while len(self._index) < k and self._walked < len(self._rows):
                self._walk(k - len(self._index))
            ranked, walked = len(self._ranked_index), len(self._index)
            if ranked < walked:
                # At least twice the ranked prefix, so a profile reused over
                # growing group sizes ranks a few times only.
                self._rank(min(max(k, 2 * ranked), walked))
        return self._ranked_index[:k], self._ranked_g[:k]

    def _rank(self, t: int) -> None:
        """Rank a prefix of at least t records of the feature group's order.

        The prefix holds every walked record below the level of the t-th
        one and, of that cut level, the records whose g is at most the value
        np.partition puts at the remaining count; ties at that value come
        in and are ordered by input order. Only these records are sorted."""
        rho, g, index = self._rho, self._g, self._index
        cut = rho[t - 1]
        lo, hi = rho.searchsorted(cut), rho.searchsorted(cut, "right")
        take = g[:hi] <= np.partition(g[lo:hi], t - lo - 1)[t - lo - 1]
        take[:lo] = True
        take = take.nonzero()[0]
        # lexsort's last key is the primary one: levels in rho order, then g,
        # then input order.
        take = take[np.lexsort((index[take], g[take], rho[take]))]
        self._ranked_index, self._ranked_g = index[take], g[take]

    def _walk(self, wanted: int) -> None:
        """Append whole levels until at least wanted more records are walked,
        and at least twice as many as before, so a profile reused over
        growing group sizes extends its walk a few times only."""
        start, count = self._walked, len(self._rows)
        walked = int(self._cumulative[start - 1]) if start else 0
        stop = min(int(np.searchsorted(self._cumulative, max(walked + wanted, 2 * walked))) + 1, count)
        while stop < count and self._level_rho[stop] == self._level_rho[stop - 1]:
            stop += 1
        rows = self.db.rx_rows
        counts = self._counts[start:stop]
        # The positions of rows[start:stop] in db.encoded: one row is a run,
        # read as slices; several rows are gathered run by run.
        if stop - start == 1:
            first = rows.starts[self._rows[start]]
            positions = slice(first, first + counts[0])
        else:
            first = np.repeat(rows.starts[self._rows[start:stop]] - (np.cumsum(counts) - counts), counts)
            positions = first + np.arange(len(first))
        index = rows.members[positions]
        den = self._den[self.db.encoded.pattern[positions]]
        g = _gower(_against(self._features, positions), den)
        rho = np.repeat(self._level_rho[start:stop], counts)
        # The sum is NaN iff some record shares no feature with the query.
        if math.isnan(den.sum()):
            defined = ~np.isnan(den)
            index, g, rho = index[defined], g[defined], rho[defined]
        if start:
            index = np.concatenate((self._index, index))
            g = np.concatenate((self._g, g))
            rho = np.concatenate((self._rho, rho))
        self._index, self._g, self._rho = index, g, rho
        self._walked = stop


def closest_m_rx_distance(profile: QueryProfile, m: int) -> float:
    """Mean prescription distance over the m nearest records of profile.db."""
    r = profile._r_by_m.get(m)
    if r is None:
        size = profile.db.size
        if not 1 <= m <= size:
            raise InsufficientNeighbors(f"m={m} outside [1, {size}]")
        r = profile._r_by_m[m] = math.fsum(profile.sorted_rho[:m].tolist()) / m
    return r


def closest_n_feature_distance(profile: QueryProfile, n: int) -> float:
    """Mean feature distance over the n closest-prescription records of
    profile.db.

    Candidates sort by prescription distance, then feature distance, then
    stable input order; incomparable candidates are skipped. When fewer than
    n reference records share the query's exact prescription, the group is
    filled from the next-closest prescriptions.
    """
    f = profile._f_by_n.get(n)
    if f is None:
        size = profile.db.size
        if not 1 <= n <= size:
            raise InsufficientNeighbors(f"n={n} outside [1, {size}]")
        take, g = profile.nearest_comparable(n)
        if len(take) < n:
            raise InsufficientNeighbors(
                f"only {len(take)} comparable reference records for n={n}"
            )
        f = profile._f_by_n[n] = math.fsum(g.tolist()) / n
    return f


# ---------------------------------------------------------------------------
# Pairwise characteristics and histograms
# ---------------------------------------------------------------------------

def pairwise_means(rows: DistinctRx, encoded: EncodedFeatures) -> tuple[float, float, int]:
    """Mean prescription and feature distance over ordered pairs j != k of
    the records behind distinct_rx and encode_features; neither result
    depends on the order of the records, so the two may list them in
    different orders.

    Returns (theta, tau, incomparable_pairs). Incomparable pairs are skipped
    from tau's average and counted; theta always averages over S*(S-1) pairs.

    No pair is visited. theta sums count-weighted distances between the
    distinct scaled prescriptions. tau groups the records by which features
    they have (their presence pattern): the Gower denominator is constant
    within a pair of patterns, so each feature's numerator sum over a
    pattern pair comes from per-pattern counts. The clamp at 1 is dropped,
    which needs every numeric column's present values to span at most its
    width, as they do in encode_features' columns. Raises IncomparablePair
    when no pair shares a feature.
    """
    size = len(rows)
    if size < 2:
        raise InsufficientData(f"need at least 2 records, got {size}")
    # The pairs within a row add exact zeros, which keep the sum's bits.
    theta = 2.0 * math.fsum(t for rho, n in _row_pairs(rows) for t in (n * rho).tolist()) / (size * (size - 1))
    tau_sum, comparable = _pattern_gower_sum(encoded)
    if comparable == 0:
        raise IncomparablePair("no comparable pair in the reference set")
    return theta, tau_sum / comparable, size * (size - 1) - comparable


def _pattern_gower_sum(encoded: EncodedFeatures) -> tuple[float, int]:
    """Sum of Gower distances over comparable ordered pairs j != k, and their
    number, from the records grouped by presence pattern."""
    patterns, pattern_of, sizes = np.unique(encoded.pattern, return_inverse=True, return_counts=True)
    count = len(patterns)
    # The denominator of a pattern pair is the number of features both have.
    den = encoded.denominators[patterns[:, None], patterns]
    num = np.zeros((count, count))
    # Schema order, as in _gower, so each numerator rounds the same. A
    # pattern without a feature has no record with it, so it adds 0 there.
    for col in encoded.columns:
        if col.kind == NUMERIC:
            num += _numeric_abs_diff_sums(col, pattern_of, count)
        else:
            num += _mismatch_counts(col, pattern_of, count)
    pairs = np.outer(sizes, sizes) - np.diag(sizes)
    comparable = ~np.isnan(den)
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
    if col.width <= 0.0:
        return np.zeros((count, count))
    distinct, rank = np.unique(col.values[col.present], return_inverse=True)
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


def pairwise_histograms(db: HistoricalDB, bin_width: float) -> tuple[Histogram, Histogram]:
    """Normalized histograms of pairwise prescription and feature distances.

    Bins cover [0, sqrt(2)] and [0, 1]; each histogram's masses sum to 1 over
    the unordered reference pairs (comparable pairs only, for features). The
    feature counts come from pair classes. A bin_width that is not positive
    or gives more than MAX_HISTOGRAM_BINS bins raises ValueError.
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    # The prescription range is the longer one, so it has the most bins; a
    # subnormal width gives an infinite count.
    bins = RX_DISTANCE_MAX / bin_width
    if bins > MAX_HISTOGRAM_BINS:
        count = math.ceil(bins) if math.isfinite(bins) else bins
        raise ValueError(
            f"bin_width {bin_width!r} gives {count:.7g} bins over [0, sqrt(2)], more than {MAX_HISTOGRAM_BINS}"
        )
    return (
        _histogram(_row_pairs(db.rx_rows), RX_DISTANCE_MAX, bin_width),
        _histogram(_class_pairs(db.encoded), 1.0, bin_width),
    )


def _histogram(blocks, upper: float, bin_width: float) -> Histogram:
    """The normalized histogram over [0, upper] of (values, pairs) blocks,
    each value weighing in with its number of record pairs."""
    edges = _edges(upper, bin_width)
    counts = np.zeros(len(edges) - 1, dtype=np.int64)
    for values, pairs in blocks:
        counts += np.histogram(values, bins=edges, weights=pairs)[0]
    return Histogram(edges, counts / max(counts.sum(), 1))


def _edges(upper: float, bin_width: float) -> np.ndarray:
    count = max(1, math.ceil(upper / bin_width - 1e-12))
    edges = bin_width * np.arange(count + 1, dtype=np.float64)
    edges[-1] = max(edges[-1], upper)  # count * bin_width can round below upper
    return edges


def write_histogram_csv(destination: str | Path | IO[str], histogram: Histogram) -> None:
    """Plot-ready export: columns bin_low, bin_high, mass."""
    write_csv(
        destination,
        ("bin_low", "bin_high", "mass"),
        ((f"{low:.10g}", f"{high:.10g}", repr(mass)) for low, high, mass in histogram.rows()),
    )
