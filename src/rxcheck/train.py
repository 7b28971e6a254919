"""Parameter optimization: maximize the mean f1 score of the detector over a
labeled training set of simulated anomalies plus held-out normal records.

Every run scores the whole holdout pool and the whole anomaly set, and no
draw is made, so all runs score the same; the trace's f1_mean is the mean
of `runs` copies of one f1, and its f1_std is floating-point rounding noise
(0 or about 1e-16). The search over
(a, b, mu, nu) offers a near-uniform grid, uniform random draws, or an
adaptive density-ratio strategy that concentrates draws where past
evaluations scored well.

The adaptive search keeps its ranking of the evaluated points by insertion,
not by re-sorting. Its draws stay scalar and interleaved: PCG64 hands
rng.integers buffered 32-bit halves while the ziggurat rng.standard_normal
takes whole 64-bit words, so no batch reproduces the stream the trace needs.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .detector import ModelParams, detect
from .distance import HistoricalDB, InsufficientData, QueryProfile
from .records import RecordTable, TreatmentRecord, write_csv
from .seeding import substream
from .simulate import SimulatedAnomaly

STRATEGY_GRID = "grid"
STRATEGY_RANDOM = "random"
STRATEGY_ADAPTIVE = "adaptive"
STRATEGIES = (STRATEGY_GRID, STRATEGY_RANDOM, STRATEGY_ADAPTIVE)

# Half-open intervals (lo, hi] of a, b, mu and nu. mu and nu stay at or below
# 0.1 so the neighbor groups never exceed 10% of the reference set. The a and
# b ranges cover the multipliers observed to be useful in practice (up to 2x
# the characteristic distances).
SEARCH_RANGES = ((0.0, 2.0), (0.0, 2.0), (0.0, 0.1), (0.0, 0.1))

# The most evaluations of a search and runs per objective: the adaptive
# search allocates a (4, budget) array, and every evaluation a runs-long one.
MAX_SEARCH_SIZE = 10**6


class InvalidTrainingSet(ValueError):
    pass


class UndefinedMetric(ValueError):
    pass


@dataclass(frozen=True)
class SearchSpace:
    """The evaluation budget, the objective runs per point and the strategy
    of a search over SEARCH_RANGES. The budget and the runs each lie in
    [1, MAX_SEARCH_SIZE]."""

    budget: int = 100
    runs_per_point: int = 50
    strategy: str = STRATEGY_ADAPTIVE

    def __post_init__(self) -> None:
        for name in ("budget", "runs_per_point"):
            if not 1 <= getattr(self, name) <= MAX_SEARCH_SIZE:
                raise ValueError(f"{name} must lie in [1, {MAX_SEARCH_SIZE}], got {getattr(self, name)}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")


@dataclass(frozen=True)
class TraceEntry:
    params: ModelParams
    f1_mean: float
    f1_std: float


@dataclass(frozen=True)
class TrainingOutcome:
    """The search's trace, in evaluation order, and its best entry: the one
    with the highest f1_mean, the earliest of equal ones."""

    best: TraceEntry
    trace: tuple[TraceEntry, ...]


# ---------------------------------------------------------------------------
# Holdout split and the objective
# ---------------------------------------------------------------------------

def split_holdout(
    records: Sequence[TreatmentRecord], s_n: int, rng: np.random.Generator
) -> tuple[RecordTable, RecordTable]:
    """Disjoint (reference, holdout pool) split with a pool of size s_n, as
    RecordTables of the records' rows in input order.

    The reference set rebuilds its own database (scaler, theta, tau), so the
    held-out normals never influence the characteristic distances.
    Deterministic per generator state.
    """
    table = RecordTable.of(records)
    total = len(table)
    if s_n >= total:
        raise InsufficientData(f"s_n={s_n} must be smaller than the record count {total}")
    if s_n < 0:
        raise ValueError("s_n must be non-negative")
    held = np.zeros(total, dtype=bool)
    if s_n:
        held[rng.choice(total, size=s_n, replace=False)] = True
    return table.take(np.flatnonzero(~held).tolist()), table.take(np.flatnonzero(held).tolist())


def f1_metric(tp: int, fp: int, fn: int) -> float:
    """Standard f1 = 2*tp / (2*tp + fp + fn); 0 when nothing true was found."""
    if tp < 0 or fp < 0 or fn < 0:
        raise ValueError("counts must be non-negative")
    if tp == 0 and fp == 0 and fn == 0:
        raise UndefinedMetric("f1 undefined for all-zero counts")
    if tp == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


def f1_objective(
    params: ModelParams,
    holdout_pool: Sequence[QueryProfile],
    sa_set: Sequence[QueryProfile],
    runs: int,
) -> tuple[float, float]:
    """Mean and standard deviation of f1 over `runs` runs (anomaly =
    positive class), from the QueryProfiles of the holdout pool and of the
    mutated anomaly records against one reference set, the first anomaly
    profile's; a profile built against another raises ValueError.

    Every run scores the whole pool and the whole anomaly set, so all runs
    score the same. The mean of `runs` copies can still differ from the one
    score in its last bit, and the std from 0 by about 1e-16.
    """
    if not sa_set:
        raise InvalidTrainingSet("the anomaly class is empty")
    reference_db = sa_set[0].db
    tp = sum(detect(sa, reference_db, params).flagged for sa in sa_set)
    fn = len(sa_set) - tp
    fp = sum(detect(profile, reference_db, params).flagged for profile in holdout_pool)
    scores = np.full(runs, f1_metric(tp, fp, fn))
    return float(scores.mean()), float(scores.std())


# ---------------------------------------------------------------------------
# Parameter-space search
# ---------------------------------------------------------------------------

def search_parameters(
    space: SearchSpace,
    reference_db: HistoricalDB,
    holdout_pool: Sequence[TreatmentRecord],
    sa_set: Sequence[SimulatedAnomaly],
    seed: int,
) -> TrainingOutcome:
    """Evaluate exactly space.budget parameter points and keep the best.

    Every run scores the whole holdout pool. Ties on the best mean
    f1 go to the earliest evaluation, so the outcome is deterministic;
    rerunning with the same seed reproduces the trace bitwise.
    """
    # The distances and neighbour order of a record do not depend on the
    # parameters: compute them once for the whole search.
    pool_profiles = [QueryProfile(record, reference_db) for record in holdout_pool]
    sa_profiles = [QueryProfile(sa.mutated, reference_db) for sa in sa_set]

    def evaluate(params: ModelParams) -> TraceEntry:
        mean, std = f1_objective(
            params, pool_profiles, sa_profiles, runs=space.runs_per_point
        )
        return TraceEntry(params, mean, std)

    if space.strategy == STRATEGY_GRID:
        trace = [evaluate(p) for p in _grid_points(space, substream(seed, "grid-fill"))]
    elif space.strategy == STRATEGY_RANDOM:
        rng = substream(seed, "random-search")
        trace = [evaluate(_draw_uniform(rng)) for _ in range(space.budget)]
    else:
        trace = _adaptive_search(space, evaluate, substream(seed, "adaptive-search"))

    return TrainingOutcome(best=max(trace, key=lambda e: e.f1_mean), trace=tuple(trace))


# The rows of lower and upper clamp bounds, one column per dimension: clip
# keeps every draw and lattice level inside the half-open interval (lo, hi].
_CLAMPS = np.array([(lo + (hi - lo) * 1e-9, hi) for lo, hi in SEARCH_RANGES]).T


def _draw_uniform(rng: np.random.Generator) -> ModelParams:
    values = [lo + (hi - lo) * float(rng.random()) for lo, hi in SEARCH_RANGES]
    return ModelParams(*np.array(values).clip(*_CLAMPS).tolist())


def _grid_points(space: SearchSpace, rng: np.random.Generator) -> list[ModelParams]:
    """Near-uniform lattice over the 4-cube: the largest k with k**4 <= budget
    levels per axis, topped up with uniform draws to exactly budget points."""
    k = max(1, int(math.floor(space.budget ** 0.25 + 1e-9)))
    # The clamp: the top level lo + (hi - lo) * k / k can round above hi.
    levels = np.array(
        [[lo + (hi - lo) * (j + 1) / k for lo, hi in SEARCH_RANGES] for j in range(k)]
    ).clip(*_CLAMPS).T.tolist()
    points: list[ModelParams] = []
    for a in levels[0]:
        for b in levels[1]:
            for mu in levels[2]:
                for nu in levels[3]:
                    points.append(ModelParams(a, b, mu, nu))
    while len(points) < space.budget:
        points.append(_draw_uniform(rng))
    return points[: space.budget]


def _adaptive_search(space: SearchSpace, evaluate, rng: np.random.Generator) -> list[TraceEntry]:
    """Sequential density-ratio search: seed with a random tranche, then draw
    candidates near the better evaluations and keep the candidate whose
    good/bad kernel-density ratio is highest. The columns of one (4, budget)
    array hold the points ranked by (-f1_mean, evaluation index), each new
    one inserted by bisection: the good points are the first n_good."""
    n_init = min(space.budget, max(5, space.budget // 5))
    n_candidates = 24
    gamma = 0.25
    integers, normal = rng.integers, rng.standard_normal

    trace: list[TraceEntry] = []
    ranked_keys: list[float] = []  # -f1_mean of each ranked point
    columns = np.empty((len(SEARCH_RANGES), space.budget))

    def add(entry: TraceEntry) -> None:
        # A point ranks after every earlier one of equal f1_mean.
        position = bisect.bisect_right(ranked_keys, -entry.f1_mean)
        ranked_keys.insert(position, -entry.f1_mean)
        columns[:, position + 1 : len(trace) + 1] = columns[:, position : len(trace)]
        columns[:, position] = _param_values(entry.params)
        trace.append(entry)

    for _ in range(n_init):
        add(evaluate(_draw_uniform(rng)))
    for index in range(n_init, space.budget):
        # There are at least n_init >= 5 points, so n_good < len(trace) and
        # both the good and the bad set hold at least one point.
        n_good = max(2, int(math.ceil(gamma * len(trace))))
        good_by_dim = columns[:, :n_good]
        bad_by_dim = columns[:, n_good : len(trace)]
        anchors_by_dim = good_by_dim.tolist()
        # The bandwidth narrows as the search progresses.
        progress = index / space.budget
        bandwidths = [(hi - lo) * max(0.35 * (1.0 - progress), 0.05) for lo, hi in SEARCH_RANGES]

        # Per candidate and dimension, one integers draw and then one
        # standard_normal draw, in this order.
        candidates = np.array([
            [anchors[integers(n_good)] + width * normal() for anchors, width in zip(anchors_by_dim, bandwidths)]
            for _ in range(n_candidates)
        ]).clip(*_CLAMPS)
        best = _best_candidate(candidates, good_by_dim, bad_by_dim, bandwidths)
        add(evaluate(ModelParams(*candidates[best].tolist())))
    return trace


# numpy's candidate scores differ from the scalar sums by rounding alone:
# each density is a sum of non-negative terms plus 1e-12, so the error of a
# score is a few ulps of its terms, about 1e-13 at most. The margin is far
# above that.
_RESCORE_MARGIN = 1e-9


def _best_candidate(candidates, good_by_dim, bad_by_dim, bandwidths) -> int:
    """Index of the first candidate with the highest _candidate_score.

    numpy scores every candidate at once. Each candidate whose numpy score
    lies within _RESCORE_MARGIN * max(1, |top|) of the top one is rescored
    with _candidate_score; the scalar maximum is always among them, so the
    choice equals that of scoring every candidate with _candidate_score. A
    lone candidate within the margin is that maximum and is not rescored.
    """
    x = np.asarray(candidates)[:, None, :]
    bw = np.asarray(bandwidths)
    good, bad = np.asarray(good_by_dim), np.asarray(bad_by_dim)
    # One kernel evaluation over the good points and then the bad ones, summed
    # per candidate into (candidates, [good, bad], dimensions).
    z = (x - np.concatenate((good, bad), axis=1).T) / bw
    totals = np.add.reduceat(np.exp(-0.5 * z * z), [0, good.shape[1]], axis=1)
    counts = np.array([[good.shape[1]], [bad.shape[1]]])
    log_density = np.log(totals / (counts * bw * math.sqrt(2.0 * math.pi)) + 1e-12)
    approx = (log_density[:, 0] - log_density[:, 1]).sum(axis=1)
    top = float(approx.max())
    near = np.flatnonzero(approx >= top - _RESCORE_MARGIN * max(1.0, abs(top)))
    if len(near) == 1:
        return int(near[0])
    exact = [_candidate_score(candidates[k], good_by_dim, bad_by_dim, bandwidths) for k in near]
    return int(near[exact.index(max(exact))])


def _candidate_score(values, good_by_dim, bad_by_dim, bandwidths) -> float:
    """Sum over dimensions of log(good density) - log(bad density)."""
    score = 0.0
    for dim, x in enumerate(values):
        bw = bandwidths[dim]
        score += math.log(_kde(x, good_by_dim[dim], bw)) - math.log(_kde(x, bad_by_dim[dim], bw))
    return score


def _param_values(params: ModelParams) -> tuple[float, float, float, float]:
    return (params.a, params.b, params.mu, params.nu)


def _kde(x: float, points: Sequence[float], bandwidth: float) -> float:
    total = 0.0
    for p in points:
        z = (x - p) / bandwidth
        total += math.exp(-0.5 * z * z)
    density = total / (len(points) * bandwidth * math.sqrt(2.0 * math.pi))
    return density + 1e-12


# ---------------------------------------------------------------------------
# Trace export
# ---------------------------------------------------------------------------

def write_trace_csv(destination: str | Path | IO[str], outcome: TrainingOutcome) -> None:
    write_csv(
        destination,
        ("eval_index", "a", "b", "mu", "nu", "f1_mean", "f1_std"),
        (
            (str(index), repr(e.params.a), repr(e.params.b), repr(e.params.mu), repr(e.params.nu),
             repr(e.f1_mean), repr(e.f1_std))
            for index, e in enumerate(outcome.trace)
        ),
    )
