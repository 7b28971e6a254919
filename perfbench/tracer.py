"""Span tracer for the benchmark's traced run.

The tracer replaces rxcheck's public functions at the module attributes
through which they are called (the sites where they are imported) with
wrappers that record one span per call: layer name, start, end, parent span
and operation id. Spans stay in memory until the run writes them out. No
file of the program is changed; uninstall() puts every original back.

Every wrap target is listed in TARGETS. If a later refactor moves or renames
one, install() raises MissingLayer naming it, and a layer that a workload
must exercise but that recorded no span is reported the same way, so a layer
never goes silently absent from the numbers.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable


class MissingLayer(RuntimeError):
    """A wrap target or an expected layer is absent."""


@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    layer: str
    counts: Callable | None = None      # (args, kwargs, result) -> {name: count}
    opens_operation: bool = False       # each call is an operation of its own


def _parse_counts(args, kwargs, result):
    records, diagnostics = result
    return {"rows": len(records) + len(diagnostics), "diagnostics": len(diagnostics)}


def _filter_counts(args, kwargs, result):
    return {"excluded": len(result[1])}


def _pair_counts(args, kwargs, result):
    size = len(args[0] if args else kwargs["records"])
    return {"pairs": size * (size - 1)}


def _rarity_counts(args, kwargs, result):
    return {"accepted": int(result.accepted)}


# rxcheck's layers, named after its modules, at every site the workloads
# reach them: the CLI's imports, the library's cross-module imports, and the
# module attributes the benchmark itself calls through.
TARGETS = (
    Target("rxcheck.cli", "parse_dataset", "ingest.parse", _parse_counts),
    Target("rxcheck.ingest", "parse_dataset", "ingest.parse", _parse_counts),
    Target("rxcheck.cli", "normalize_dataset", "ingest.normalize"),
    Target("rxcheck.ingest", "normalize_dataset", "ingest.normalize"),
    Target("rxcheck.cli", "filter_cohort", "ingest.filter", _filter_counts),
    Target("rxcheck.ingest", "filter_cohort", "ingest.filter", _filter_counts),
    Target("rxcheck.cli", "build_historical_db", "ingest.build"),
    Target("rxcheck.ingest", "build_historical_db", "ingest.build"),
    Target("rxcheck.distance", "encode_features", "distance.encode"),
    Target("rxcheck.distance", "pairwise_means", "distance.pairwise", _pair_counts),
    Target("rxcheck.detector", "closest_m_rx_distance", "distance.closest_m"),
    Target("rxcheck.detector", "closest_n_feature_distance", "distance.closest_n"),
    Target("rxcheck.cli", "pairwise_histograms", "distance.hist"),
    Target("rxcheck.train", "detect", "detector.detect"),
    Target("rxcheck.detector", "detect", "detector.detect"),
    Target("rxcheck.detector", "check_range", "ranges.check_range"),
    Target("rxcheck.cli", "generate_sa_set", "simulate.generate_sa"),
    Target("rxcheck.simulate", "verify_rarity", "simulate.verify_rarity", _rarity_counts),
    Target("rxcheck.cli", "search_parameters", "train.search"),
    Target("rxcheck.train", "f1_objective", "train.objective", opens_operation=True),
    Target("workloads", "serialize", "cli.serialize"),
)

# Per-layer metrics: (name, unit, better). Times named *_s are inclusive
# times of the outermost spans of a layer; *_self_s exclude child spans.
PER_LAYER = (
    ("ingest.parse_s", "s", "lower"),
    ("ingest.normalize_s", "s", "lower"),
    ("ingest.filter_s", "s", "lower"),
    ("ingest.rows_parsed", "count", "lower"),
    ("ingest.parse_diagnostics", "count", "lower"),
    ("ingest.rows_excluded", "count", "lower"),
    ("ingest.build_s", "s", "lower"),
    ("ingest.builds", "count", "lower"),
    ("distance.encode_s", "s", "lower"),
    ("distance.pairwise_s", "s", "lower"),
    ("distance.pairs", "count", "lower"),
    ("distance.pairwise_ns_per_pair", "ns", "lower"),
    ("distance.closest_m_s", "s", "lower"),
    ("distance.closest_m_calls", "count", "lower"),
    ("distance.closest_n_s", "s", "lower"),
    ("distance.closest_n_calls", "count", "lower"),
    ("distance.hist_s", "s", "lower"),
    ("detector.detect_s", "s", "lower"),
    ("detector.detect_self_s", "s", "lower"),
    ("detector.detect_calls", "count", "lower"),
    ("ranges.check_range_s", "s", "lower"),
    ("cli.serialize_s", "s", "lower"),
    ("simulate.generate_sa_s", "s", "lower"),
    ("simulate.rarity_checks", "count", "lower"),
    ("simulate.rarity_accept_ratio", "ratio", "higher"),
    ("train.objective_s", "s", "lower"),
    ("train.objective_calls", "count", "lower"),
    ("train.search_self_s", "s", "lower"),
    ("train.detect_per_eval", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counts: dict[int, dict] = {}
        self._stack: list[int] = []
        self._op_stack: list[int] = [0]
        self._next_op = 1
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _push_operation(self) -> None:
        self._op_stack.append(self._next_op)
        self._next_op += 1

    @contextlib.contextmanager
    def operation(self):
        """Spans opened inside share a fresh operation id."""
        self._push_operation()
        try:
            yield
        finally:
            self._op_stack.pop()

    def _wrap(self, fn, target: Target):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.layers)
            self.layers.append(target.layer)
            self.parents.append(self._stack[-1] if self._stack else -1)
            if target.opens_operation:
                self._push_operation()
            self.ops.append(self._op_stack[-1])
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = time.perf_counter()
                self.starts[index] = start
                self._stack.pop()
                if target.opens_operation:
                    self._op_stack.pop()
            if target.counts is not None:
                self.counts[index] = target.counts(args, kwargs, result)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target, or wrap none and raise MissingLayer."""
        resolved, missing = [], []
        for target in targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                missing.append(f"{target.module}.{target.attr} ({target.layer})")
                continue
            original = getattr(module, target.attr, None)
            if not callable(original):
                missing.append(f"{target.module}.{target.attr} ({target.layer})")
                continue
            resolved.append((module, target, original))
        if missing:
            raise MissingLayer("wrap targets not found: " + ", ".join(missing))
        for module, target, original in resolved:
            setattr(module, target.attr, self._wrap(original, target))
            self._installed.append((module, target.attr, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    # -- analysis ----------------------------------------------------------

    def _has_ancestor(self, index: int, layer: str) -> bool:
        parent = self.parents[index]
        while parent >= 0:
            if self.layers[parent] == layer:
                return True
            parent = self.parents[parent]
        return False

    def layer_totals(self) -> dict[str, dict]:
        """Per layer: calls and inclusive seconds of its outermost spans,
        self seconds of all its spans, and the outermost spans' counts."""
        child_time = [0.0] * len(self.layers)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[index] - self.starts[index]
        totals: dict[str, dict] = {}
        for index, layer in enumerate(self.layers):
            entry = totals.setdefault(layer, {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}})
            duration = self.ends[index] - self.starts[index]
            entry["self_s"] += duration - child_time[index]
            if self._has_ancestor(index, layer):
                continue
            entry["calls"] += 1
            entry["s"] += duration
            for name, value in self.counts.get(index, {}).items():
                entry["counts"][name] = entry["counts"].get(name, 0) + value
        return totals

    def calls_within(self, layer: str, ancestor: str) -> int:
        return sum(
            1 for index, name in enumerate(self.layers)
            if name == layer and self._has_ancestor(index, ancestor)
        )

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("span", "layer", "start_s", "end_s", "parent", "operation"))
            origin = min(self.starts, default=0.0)
            for index, layer in enumerate(self.layers):
                writer.writerow((
                    index, layer, f"{self.starts[index] - origin:.9f}",
                    f"{self.ends[index] - origin:.9f}", self.parents[index], self.ops[index],
                ))


def per_layer_metrics(tracer: Tracer, expected: tuple[str, ...], overhead_s: float) -> dict:
    """The PER_LAYER metrics from one traced run. Raises MissingLayer when a
    layer in `expected` recorded no span."""
    totals = tracer.layer_totals()
    absent = [layer for layer in expected if layer not in totals]
    if absent:
        raise MissingLayer("expected layers recorded no span: " + ", ".join(absent))
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}}

    def get(layer):
        return totals.get(layer, empty)

    pairs = get("distance.pairwise")["counts"].get("pairs", 0)
    rarity = get("simulate.verify_rarity")
    objective_calls = get("train.objective")["calls"]
    values = {
        "ingest.parse_s": get("ingest.parse")["s"],
        "ingest.normalize_s": get("ingest.normalize")["s"],
        "ingest.filter_s": get("ingest.filter")["s"],
        "ingest.rows_parsed": get("ingest.parse")["counts"].get("rows", 0),
        "ingest.parse_diagnostics": get("ingest.parse")["counts"].get("diagnostics", 0),
        "ingest.rows_excluded": get("ingest.filter")["counts"].get("excluded", 0),
        "ingest.build_s": get("ingest.build")["s"],
        "ingest.builds": get("ingest.build")["calls"],
        "distance.encode_s": get("distance.encode")["s"],
        "distance.pairwise_s": get("distance.pairwise")["s"],
        "distance.pairs": pairs,
        "distance.pairwise_ns_per_pair": get("distance.pairwise")["s"] / pairs * 1e9 if pairs else 0.0,
        "distance.closest_m_s": get("distance.closest_m")["s"],
        "distance.closest_m_calls": get("distance.closest_m")["calls"],
        "distance.closest_n_s": get("distance.closest_n")["s"],
        "distance.closest_n_calls": get("distance.closest_n")["calls"],
        "distance.hist_s": get("distance.hist")["s"],
        "detector.detect_s": get("detector.detect")["s"],
        "detector.detect_self_s": get("detector.detect")["self_s"],
        "detector.detect_calls": get("detector.detect")["calls"],
        "ranges.check_range_s": get("ranges.check_range")["s"],
        "cli.serialize_s": get("cli.serialize")["s"],
        "simulate.generate_sa_s": get("simulate.generate_sa")["s"],
        "simulate.rarity_checks": rarity["calls"],
        "simulate.rarity_accept_ratio": (
            rarity["counts"].get("accepted", 0) / rarity["calls"] if rarity["calls"] else 0.0
        ),
        "train.objective_s": get("train.objective")["s"],
        "train.objective_calls": objective_calls,
        "train.search_self_s": get("train.search")["self_s"],
        "train.detect_per_eval": (
            tracer.calls_within("detector.detect", "train.objective") / objective_calls
            if objective_calls else 0.0
        ),
        "trace.overhead_s": overhead_s,
        "trace.spans": len(tracer.layers),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
