"""The benchmark's workloads: check, train and ingest-hist.

Each is single-process and closed-loop: one caller issues the next
operation only when the previous one has returned. Each drives rxcheck only
through its public entry points, on inputs generated from the seed, and
checks the outputs; a failed check raises OutputCheckFailed and fails the
run.

A workload provides:
  repeat()         one repetition: its set-up (timed for setup_s), then its
                   timed operations, recording the perf_counter interval of
                   each timed step; check and ingest-hist repetitions must
                   give the same outputs as the first, train checks each
                   command's outputs (each searches with its own seed);
  result(speed)    the output checks, then the Measurement of all
                   repetitions, each interval turned into seconds by a
                   hostspeed.HostSpeed that ran while they were taken;
  command(op)      what a user runs once, for the traced run and its
                   untraced twin; each record or command runs inside op().
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import re
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
from rxcheck import cli, detector, distance, ingest, ranges


class OutputCheckFailed(AssertionError):
    """An output of the program is wrong; the run fails."""


Interval = tuple[float, float]       # perf_counter readings around one step


def timed(intervals: list[Interval], step, *args):
    """step(*args), with its interval appended to `intervals`. The garbage
    of earlier steps is collected first, as a fresh process would have none."""
    gc.collect()
    start = time.perf_counter()
    value = step(*args)
    intervals.append((start, time.perf_counter()))
    return value


def walls(intervals: list[Interval]) -> list[float]:
    """Plain wall seconds, for the report next to the corrected figures."""
    return [end - start for start, end in intervals]


# Times are host-speed-corrected seconds (see hostspeed.py).
@dataclass
class Measurement:
    attempted: int
    failed: int
    setup_s: list[float]        # one per set-up
    items_per_s: float          # all items over all their time
    p50_ms: float               # latency of a timed operation, failures left out
    p99_ms: float
    latency_samples: int
    named: dict                 # the workload's own metrics, for the report
    outputs: dict = field(default_factory=dict)   # digests, histograms, walls


def serialize(verdict) -> str:
    """One verdict as the JSONL line that `rxcheck check` prints."""
    return json.dumps(detector.verdict_to_dict(verdict), sort_keys=True)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(directory: Path, pattern: str) -> dict[str, str]:
    return {path.name: sha256_file(path) for path in sorted(directory.glob(pattern))}


def generate(workload: str, seed: int, workdir: Path) -> dict:
    """The workload's input files, written by gen.py in a child process so
    that the generator's memory stays out of this process's peak RSS."""
    done = subprocess.run(
        [sys.executable, str(Path(gen.__file__)), workload, str(seed), str(workdir)],
        check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """rxcheck.cli.run in-process with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    if code not in (cli.EX_OK, cli.EX_FLAGGED):
        print(f"rxcheck {argv[0]} exited {code}: {err.getvalue().strip()}", file=sys.stderr)
    return code, out.getvalue()


def percentile_ms(latencies: list[float], q: float) -> float:
    return float(np.percentile(latencies, q)) * 1e3


def _reference_sets(csv_path: Path, cohort: ingest.CohortConfig) -> dict[str, list]:
    records, _ = ingest.parse_dataset(csv_path)
    normalized, _ = ingest.normalize_dataset(records, cohort.label_mappings)
    kept, _ = ingest.filter_cohort(normalized, cohort)
    return {tech: rows for tech, rows in kept.items() if len(rows) >= 2}


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

class Check:
    """`rxcheck check --quantile-boundaries 0.005,0.995`, one record at a time.

    The batch mixes fresh normals, forged anomalies and a few records with
    every feature missing; the last raise InsufficientNeighbors in detect
    today and count as failed records.
    """

    name = "check"
    params = detector.ModelParams(a=1.0, b=0.6, mu=0.02, nu=0.02)
    quantiles = ranges.Quantile(0.005, 0.995)
    sample_per_status = 8
    expected_layers = (
        "ingest.parse", "ingest.normalize", "ingest.filter", "ingest.build",
        "distance.encode", "distance.pairwise", "distance.closest_m",
        "distance.closest_n", "detector.detect", "ranges.check_range", "cli.serialize",
    )

    def __init__(self, workdir: Path, seed: int):
        self.kinds = generate(self.name, seed, workdir)["kinds"]
        self.seed = seed
        self.history_csv = workdir / "history.csv"
        self.batch_csv = workdir / "batch.csv"
        self.cohort = ingest.CohortConfig()
        self.dbs: dict = {}
        self.boundaries = None
        self.batch = self.load_batch()
        self.setups: list[Interval] = []
        self.passes: list[Interval] = []
        self.records: list[list[Interval]] = []    # the verdicts of each pass
        self.first: list[str | None] | None = None
        self.errors: dict[int, str] = {}

    def setup(self) -> None:
        dbs = {
            tech: ingest.build_historical_db(rows)
            for tech, rows in _reference_sets(self.history_csv, self.cohort).items()
        }
        merged = {}
        for db in dbs.values():
            merged.update(ranges.derive_boundaries(db, self.quantiles).by_technique)
        self.dbs = dbs
        self.boundaries = ranges.Boundaries(by_technique=merged, check_bed=True)

    def load_batch(self) -> list:
        records, diagnostics = ingest.parse_dataset(self.batch_csv)
        if diagnostics:
            raise OutputCheckFailed(f"batch rows rejected by the parser: {diagnostics[:3]}")
        normalized, _ = ingest.normalize_dataset(records, self.cohort.label_mappings)
        return normalized

    def check_record(self, record) -> str:
        verdict = detector.detect(record, self.dbs[record.technique], self.params, self.boundaries)
        return serialize(verdict)

    def command(self, op=contextlib.nullcontext) -> tuple[int, int]:
        start = time.perf_counter()
        with op():
            self.setup()
        self.last_setup_s = time.perf_counter() - start
        with op():
            batch = self.load_batch()
        failed = 0
        for record in batch:
            with op():
                try:
                    self.check_record(record)
                except Exception:  # a record that raises is that record's failure
                    failed += 1
        return len(batch), failed

    def repeat(self) -> None:
        """A set-up, then one pass over the batch against its reference sets.
        How fast detect runs varies between set-ups of the same data, so
        every pass follows a fresh set-up."""
        timed(self.setups, self.setup)
        lines: list[str | None] = []
        self.records.append([])
        gc.collect()
        pass_start = time.perf_counter()
        for index, record in enumerate(self.batch):
            t0 = time.perf_counter()
            try:
                line = self.check_record(record)
            except Exception as exc:  # a record that raises is that record's failure
                line = None
                self.errors[index] = type(exc).__name__
            else:
                self.records[-1].append((t0, time.perf_counter()))
            lines.append(line)
        self.passes.append((pass_start, time.perf_counter()))
        if self.first is None:
            self.first = lines
        elif lines != self.first:
            raise OutputCheckFailed("verdicts changed between passes over the batch")

    def result(self, speed) -> Measurement:
        """records/s is every record of every pass over the passes' time;
        the latency percentiles pool the verdicts of all passes. A pass's
        speed depends on the memory layout its set-up got (up to 1.25x
        apart on the same data), so pooling averages over set-ups."""
        batch, first = self.batch, self.first
        self.verify(batch, first)
        latencies = [speed.seconds(*interval) for records in self.records for interval in records]
        p50, p99 = percentile_ms(latencies, 50), percentile_ms(latencies, 99)
        pass_s = [speed.seconds(*interval) for interval in self.passes]
        attempted = len(batch) * len(pass_s)
        rate = attempted / math.fsum(pass_s)
        verdicts = [json.loads(line) for line in first if line is not None]
        jsonl = "".join(line + "\n" for line in first if line is not None).encode()
        outputs = {
            "verdicts_jsonl_sha256": hashlib.sha256(jsonl).hexdigest(),
            "pass_s": pass_s,
            "pass_walls_s": walls(self.passes),
            "setup_walls_s": walls(self.setups),
            "status_counts": dict(sorted(Counter(v["status"] for v in verdicts).items())),
            "warning_counts": dict(sorted(Counter(w for v in verdicts for w in v["warnings"]).items())),
            "errors": dict(sorted(Counter(self.errors.values()).items())),
            "status_by_kind": {
                f"{kind}:{status}": count for (kind, status), count in sorted(Counter(
                    (self.kinds[batch[k].record_id], "error" if line is None else json.loads(line)["status"])
                    for k, line in enumerate(first)
                ).items())
            },
        }
        named = {
            "check_records_per_s": {"value": rate, "unit": "1/s", "samples": attempted},
            "check_latency_p50_ms": {"value": p50, "unit": "ms", "samples": len(latencies), "passes": len(pass_s)},
            "check_latency_p99_ms": {"value": p99, "unit": "ms", "samples": len(latencies), "passes": len(pass_s)},
        }
        setup_s = [speed.seconds(*interval) for interval in self.setups]
        return Measurement(attempted, first.count(None) * len(pass_s), setup_s, rate, p50, p99,
                           len(latencies), named, outputs)

    def verify(self, batch: list, first: list) -> None:
        """Failed records must be ones with too few comparable neighbours; a
        sample of verdicts, up to sample_per_status of each status, must
        match a brute-force recomputation at 1e-12."""
        by_status: dict[str, list[int]] = {}
        for index, line in enumerate(first):
            if line is None:
                expected = brute_force(batch[index], self.dbs[batch[index].technique], self.params, self.boundaries)
                if expected is not None:
                    raise OutputCheckFailed(f"record {batch[index].record_id} failed but has a verdict {expected}")
            else:
                by_status.setdefault(json.loads(line)["status"], []).append(index)
        rng = np.random.default_rng([self.seed, 12])
        for status, indices in sorted(by_status.items()):
            take = min(self.sample_per_status, len(indices))
            for index in sorted(rng.choice(indices, size=take, replace=False)):
                record = batch[int(index)]
                got = json.loads(first[int(index)])
                expected = brute_force(record, self.dbs[record.technique], self.params, self.boundaries)
                if expected is None or not _agrees(got, expected):
                    raise OutputCheckFailed(f"record {record.record_id}: verdict {got} != brute force {expected}")


def brute_force(record, db, params, boundaries):
    """(R, F, status) from the public scalar distance functions, ranking
    every reference record by (rho, Gower, input order); None when the
    feature group cannot be filled with comparable records."""
    m, n = params.group_sizes(db.size)
    t_rx, t_f = detector.thresholds(params, db)
    query = distance.scale_rx(record.prescription, db.rx_scaler)
    ranked = []
    for index, reference in enumerate(db.records):
        rho = distance.rx_distance(query, distance.scale_rx(reference.prescription, db.rx_scaler))
        try:
            g = distance.gower_distance(record, reference, db.feature_schema)
        except distance.IncomparablePair:
            g = None
        ranked.append((rho, math.inf if g is None else g, index, g))
    ranked.sort(key=lambda entry: entry[:3])
    r = math.fsum(entry[0] for entry in ranked[:m]) / m
    f = None
    if r <= t_rx:
        group = [entry[3] for entry in ranked if entry[3] is not None][:n]
        if len(group) < n:
            return None
        f = math.fsum(group) / n
    if boundaries is not None and ranges.check_range(record, boundaries):
        status = detector.STATUS_RANGE
    elif r > t_rx:
        status = detector.STATUS_TYPE1
    elif f > t_f:
        status = detector.STATUS_TYPE2
    else:
        status = detector.STATUS_PASS
    return r, f, status


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def _agrees(got: dict, expected: tuple) -> bool:
    r, f, status = expected
    if got["status"] != status or not _close(got["R"], r):
        return False
    if f is None or got["F"] is None:
        return f is None and got["F"] is None
    return _close(got["F"], f)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

class Train:
    """`rxcheck train --strategy adaptive --budget 100 --runs 50 --sn 20`,
    in-process, on an export whose every technique is larger than --sn.

    How long a search takes depends on the parameter points it visits, so
    each repetition in a run searches with its own --seed (100 * seed + k
    for the k-th); a run then averages over several search paths."""

    name = "train"
    budget, runs, sn = 100, 50, 20
    expected_layers = (
        "ingest.parse", "ingest.normalize", "ingest.filter", "ingest.build",
        "distance.encode", "distance.pairwise", "distance.closest_m", "distance.closest_n",
        "detector.detect", "simulate.generate_sa", "simulate.verify_rarity",
        "train.search", "train.objective",
    )

    def __init__(self, workdir: Path, seed: int):
        generate(self.name, seed, workdir)
        self.seed = seed
        self.csv = workdir / "export.csv"
        self.out = workdir / "train"
        self.simulate_out = workdir / "simulate"
        self.techniques = sorted(gen.TRAIN_ADMITTED)
        self.setups: list[Interval] = []
        self.commands: list[Interval] = []
        self.trained: list[int] = []        # techniques with params, per command
        self.digests: list[dict] = []       # outputs of each command

    def search_seed(self, k: int) -> int:
        return 100 * self.seed + k

    def setup(self, k: int) -> None:
        """`rxcheck simulate` on the export: the CLI's reference build and
        anomaly synthesis for every technique, which `train` also runs
        before its search."""
        code, _ = run_cli([
            "simulate", "--input", str(self.csv), "--out", str(self.simulate_out),
            "--seed", str(self.search_seed(k)),
        ])
        if code != cli.EX_OK:
            raise OutputCheckFailed(f"rxcheck simulate exited {code}")

    def train(self, k: int) -> int:
        code, self.stdout = run_cli([
            "train", "--input", str(self.csv), "--out", str(self.out),
            "--strategy", "adaptive", "--budget", str(self.budget), "--runs", str(self.runs),
            "--sn", str(self.sn), "--seed", str(self.search_seed(k)),
        ])
        return code

    def command(self, op=contextlib.nullcontext) -> tuple[int, int]:
        with op():
            code = self.train(0)
        return len(self.techniques), len(self.techniques) - self._trained(code)

    def _trained(self, code: int) -> int:
        if code != cli.EX_OK:
            return 0
        trained = json.loads((self.out / "params.json").read_text())
        return sum(1 for tech in self.techniques if tech in trained)

    def repeat(self) -> None:
        k = len(self.commands)
        timed(self.setups, self.setup, k)
        code = timed(self.commands, self.train, k)
        self.trained.append(self._trained(code))
        self.verify()
        self.digests.append({
            "seed": self.search_seed(k), **digests(self.out, "*"), **digests(self.simulate_out, "*"),
        })

    def result(self, speed) -> Measurement:
        train_s = [speed.seconds(*interval) for interval in self.commands]
        rate = self.budget * sum(self.trained) / math.fsum(train_s)
        named = {
            "train_s": {"value": statistics.median(train_s), "unit": "s", "samples": len(train_s)},
            "train_evals_per_s": {"value": rate, "unit": "1/s", "samples": len(train_s)},
        }
        attempted = len(self.techniques) * len(train_s)
        return Measurement(
            attempted, attempted - sum(self.trained), [speed.seconds(*iv) for iv in self.setups],
            rate, percentile_ms(train_s, 50), percentile_ms(train_s, 99), len(train_s), named, {
                "sha256": self.digests,
                "train_s": train_s,
                "train_walls_s": walls(self.commands),
                "setup_walls_s": walls(self.setups),
            },
        )

    def verify(self) -> None:
        """params.json lists every technique, each trace has `budget` rows,
        and each reported best is the trace maximum."""
        if not (self.out / "params.json").is_file():
            raise OutputCheckFailed("train wrote no params.json")
        trained = json.loads((self.out / "params.json").read_text())
        if sorted(trained) != self.techniques:
            raise OutputCheckFailed(f"params.json lists {sorted(trained)}, expected {self.techniques}")
        for tech in self.techniques:
            with open(self.out / f"trace_{tech}.csv", newline="") as handle:
                rows = list(csv.DictReader(handle))
            if len(rows) != self.budget:
                raise OutputCheckFailed(f"trace_{tech}.csv has {len(rows)} rows, expected {self.budget}")
            best = max(rows, key=lambda row: float(row["f1_mean"]))  # first maximum wins ties
            chosen = {key: float(best[key]) for key in ("a", "b", "mu", "nu")}
            if chosen != trained[tech]:
                raise OutputCheckFailed(f"{tech}: params {trained[tech]} are not the trace best {chosen}")
            line = f"train[{tech}]: best f1 {float(best['f1_mean']):.3f}"
            if line not in self.stdout:
                raise OutputCheckFailed(f"{tech}: reported best differs from the trace maximum ({line!r})")


# ---------------------------------------------------------------------------
# ingest-hist
# ---------------------------------------------------------------------------

_INGEST_SUMMARY = re.compile(r"kept (\d+) records, excluded (\d+), parse diagnostics (\d+)")


class IngestHist:
    """`rxcheck ingest` then `rxcheck hist` on a raw institution-wide export
    where most rows hit a cohort exclusion rule. The ingest command, raw
    export to reference sets, is the set-up."""

    name = "ingest-hist"
    expected_layers = (
        "ingest.parse", "ingest.normalize", "ingest.filter", "ingest.build",
        "distance.encode", "distance.pairwise", "distance.hist",
    )

    def __init__(self, workdir: Path, seed: int):
        self.rows = generate(self.name, seed, workdir)["export.csv"]
        self.csv = workdir / "export.csv"
        self.ingest_out = workdir / "ingest"
        self.hist_out = workdir / "hist"
        self.techniques = sorted(gen.INGEST_ADMITTED)
        self.ingests: list[Interval] = []
        self.hists: list[Interval] = []
        self.failed = 0
        self.reference: dict | None = None

    def _ingest(self) -> int:
        code, self.stdout = run_cli(["ingest", "--input", str(self.csv), "--out", str(self.ingest_out)])
        return code

    def _hist(self) -> int:
        code, _ = run_cli(["hist", "--input", str(self.csv), "--out", str(self.hist_out)])
        return code

    def command(self, op=contextlib.nullcontext) -> tuple[int, int]:
        failed = 0
        for step in (self._ingest, self._hist):
            with op():
                failed += step() != cli.EX_OK
        return 2, failed

    def repeat(self) -> None:
        self.failed += timed(self.ingests, self._ingest) != cli.EX_OK
        self.failed += timed(self.hists, self._hist) != cli.EX_OK
        current = {**digests(self.ingest_out, "*"), **digests(self.hist_out, "*")}
        if self.reference is None:
            self.reference = current
        elif current != self.reference:
            raise OutputCheckFailed("ingest/hist outputs changed between identical commands")

    def result(self, speed) -> Measurement:
        self.verify()
        ingest_s = [speed.seconds(*interval) for interval in self.ingests]
        hist_s = [speed.seconds(*interval) for interval in self.hists]
        rate = self.rows * len(ingest_s) / math.fsum(ingest_s)
        named = {
            "ingest_rows_per_s": {"value": rate, "unit": "1/s", "samples": len(ingest_s)},
            "hist_s": {"value": statistics.median(hist_s), "unit": "s", "samples": len(hist_s)},
        }
        return Measurement(2 * len(ingest_s), self.failed, ingest_s, rate, percentile_ms(hist_s, 50),
                           percentile_ms(hist_s, 99), len(hist_s), named, {
            "sha256": self.reference,
            "ingest_s": ingest_s,
            "hist_s": hist_s,
            "ingest_walls_s": walls(self.ingests),
            "hist_walls_s": walls(self.hists),
        })

    def verify(self) -> None:
        """kept + excluded + diagnostics = rows in, the written files agree
        with the summary, and every histogram's masses sum to 1."""
        match = _INGEST_SUMMARY.search(self.stdout)
        if match is None:
            raise OutputCheckFailed(f"no ingest summary in {self.stdout!r}")
        kept, excluded, diagnostics = map(int, match.groups())
        if kept + excluded + diagnostics != self.rows:
            raise OutputCheckFailed(f"{kept} kept + {excluded} excluded + {diagnostics} diagnostics != {self.rows} rows")
        if _data_rows(self.ingest_out / "exclusions.csv") != excluded:
            raise OutputCheckFailed("exclusions.csv disagrees with the ingest summary")
        if sum(_data_rows(path) for path in self.ingest_out.glob("db_*.csv")) != kept:
            raise OutputCheckFailed("reference CSVs disagree with the ingest summary")
        hists = sorted(self.hist_out.glob("hist_*.csv"))
        if len(hists) != 2 * len(self.techniques):
            raise OutputCheckFailed(f"expected {2 * len(self.techniques)} histograms, got {len(hists)}")
        for path in hists:
            with open(path, newline="") as handle:
                mass = math.fsum(float(row["mass"]) for row in csv.DictReader(handle))
            if abs(mass - 1.0) > 1e-9:
                raise OutputCheckFailed(f"{path.name}: masses sum to {mass!r}")


def _data_rows(path: Path) -> int:
    with open(path, newline="") as handle:
        return sum(1 for _ in csv.reader(handle)) - 1


WORKLOADS = {workload.name: workload for workload in (Check, Train, IngestHist)}
