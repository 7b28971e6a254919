"""Parameter optimization: maximize the mean f1 score of the detector over a
labeled training set of simulated anomalies plus held-out normal records.

Every run scores the whole holdout pool and the whole anomaly set, and no
draw is made, so all runs score the same; the trace's f1_mean is the mean
of `runs` copies of one f1, and its f1_std is floating-point rounding noise
(0 or about 1e-16). The search over
(a, b, mu, nu) offers a near-uniform grid, uniform random draws, or an
adaptive density-ratio strategy that concentrates draws where past
evaluations scored well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence, TYPE_CHECKING

import numpy as np

from .detector import ModelParams, detect
from .distance import InsufficientData, QueryProfile
from .records import TreatmentRecord, write_csv
from .seeding import substream
from .simulate import SimulatedAnomaly

if TYPE_CHECKING:  # pragma: no cover
    from .ingest import HistoricalDB

STRATEGY_GRID = "grid"
STRATEGY_RANDOM = "random"
STRATEGY_ADAPTIVE = "adaptive"
STRATEGIES = (STRATEGY_GRID, STRATEGY_RANDOM, STRATEGY_ADAPTIVE)

# Half-open intervals (lo, hi] of a, b, mu and nu. mu and nu stay at or below
# 0.1 so the neighbor groups never exceed 10% of the reference set. The a and
# b ranges cover the multipliers observed to be useful in practice (up to 2x
# the characteristic distances).
SEARCH_RANGES = ((0.0, 2.0), (0.0, 2.0), (0.0, 0.1), (0.0, 0.1))


class InvalidTrainingSet(ValueError):
    pass


class UndefinedMetric(ValueError):
    pass


@dataclass(frozen=True)
class SearchSpace:
    """The evaluation budget, the objective runs per point and the strategy
    of a search over SEARCH_RANGES."""

    budget: int = 100
    runs_per_point: int = 50
    strategy: str = STRATEGY_ADAPTIVE

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.runs_per_point < 1:
            raise ValueError("runs_per_point must be at least 1")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")


@dataclass(frozen=True)
class TraceEntry:
    params: ModelParams
    f1_mean: float
    f1_std: float


@dataclass(frozen=True)
class TrainingOutcome:
    best_params: ModelParams
    best_f1_mean: float
    best_f1_std: float
    trace: tuple[TraceEntry, ...]


# ---------------------------------------------------------------------------
# Holdout split and the objective
# ---------------------------------------------------------------------------

def split_holdout(
    records: Sequence[TreatmentRecord], s_n: int, rng: np.random.Generator
) -> tuple[list[TreatmentRecord], list[TreatmentRecord]]:
    """Disjoint (reference, holdout pool) split with a pool of size s_n.

    The reference set rebuilds its own database (scaler, theta, tau), so the
    held-out normals never influence the characteristic distances.
    Deterministic per generator state.
    """
    total = len(records)
    if s_n >= total:
        raise InsufficientData(f"s_n={s_n} must be smaller than the record count {total}")
    if s_n < 0:
        raise ValueError("s_n must be non-negative")
    chosen = set(map(int, rng.choice(total, size=s_n, replace=False))) if s_n else set()
    reference = [r for k, r in enumerate(records) if k not in chosen]
    pool = [records[k] for k in sorted(chosen)]
    return reference, pool


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
    return float(np.mean(scores)), float(np.std(scores))


# ---------------------------------------------------------------------------
# Parameter-space search
# ---------------------------------------------------------------------------

def search_parameters(
    space: SearchSpace,
    reference_db: "HistoricalDB",
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

    best_index = 0
    for k in range(1, len(trace)):
        if trace[k].f1_mean > trace[best_index].f1_mean:
            best_index = k
    best = trace[best_index]
    return TrainingOutcome(
        best_params=best.params,
        best_f1_mean=best.f1_mean,
        best_f1_std=best.f1_std,
        trace=tuple(trace),
    )


def _in_range(value: float, lo: float, hi: float) -> float:
    # Keep draws inside the half-open interval (lo, hi].
    tiny = (hi - lo) * 1e-9
    return min(max(value, lo + tiny), hi)


def _draw_uniform(rng: np.random.Generator) -> ModelParams:
    values = [
        _in_range(lo + (hi - lo) * float(rng.random()), lo, hi) for lo, hi in SEARCH_RANGES
    ]
    return ModelParams(*values)


def _grid_points(space: SearchSpace, rng: np.random.Generator) -> list[ModelParams]:
    """Near-uniform lattice over the 4-cube: the largest k with k**4 <= budget
    levels per axis, topped up with uniform draws to exactly budget points."""
    k = max(1, int(math.floor(space.budget ** 0.25 + 1e-9)))
    # _in_range: the top level lo + (hi - lo) * k / k can round above hi.
    levels = [
        [_in_range(lo + (hi - lo) * (j + 1) / k, lo, hi) for j in range(k)]
        for lo, hi in SEARCH_RANGES
    ]
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
    good/bad kernel-density ratio is highest."""
    n_init = min(space.budget, max(5, space.budget // 5))
    n_candidates = 24
    gamma = 0.25

    trace = [evaluate(_draw_uniform(rng)) for _ in range(n_init)]
    for index in range(n_init, space.budget):
        order = sorted(range(len(trace)), key=lambda k: (-trace[k].f1_mean, k))
        n_good = max(2, int(math.ceil(gamma * len(trace))))
        good = [_param_values(trace[k].params) for k in order[:n_good]]
        bad = [_param_values(trace[k].params) for k in order[n_good:]] or good
        # Per dimension: the values of the good and the bad points, and the
        # bandwidth, which narrows as the search progresses.
        good_by_dim = list(zip(*good))
        bad_by_dim = list(zip(*bad))
        progress = index / space.budget
        bandwidths = [(hi - lo) * max(0.35 * (1.0 - progress), 0.05) for lo, hi in SEARCH_RANGES]

        candidates = []
        for _ in range(n_candidates):
            values = []
            for dim, (lo, hi) in enumerate(SEARCH_RANGES):
                anchor = good[int(rng.integers(len(good)))][dim]
                values.append(_in_range(anchor + bandwidths[dim] * float(rng.standard_normal()), lo, hi))
            candidates.append(values)
        best = _best_candidate(candidates, good_by_dim, bad_by_dim, bandwidths)
        trace.append(evaluate(ModelParams(*candidates[best])))
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

    def log_density(points_by_dim) -> np.ndarray:
        points = np.asarray(points_by_dim).T
        z = (x - points) / bw
        total = np.exp(-0.5 * z * z).sum(axis=1)
        return np.log(total / (len(points) * bw * math.sqrt(2.0 * math.pi)) + 1e-12)

    approx = (log_density(good_by_dim) - log_density(bad_by_dim)).sum(axis=1)
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
            (index, repr(e.params.a), repr(e.params.b), repr(e.params.mu), repr(e.params.nu),
             repr(e.f1_mean), repr(e.f1_std))
            for index, e in enumerate(outcome.trace)
        ),
    )
