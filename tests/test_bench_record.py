"""bench/record.py: the BENCH file's stamps name the commit each checkout holds,
each checkout's traced runs give per-layer medians beside the end-to-end
ones, and each checkout's pytest -m bench run is kept beside them."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

RECORD = Path(__file__).resolve().parent.parent / "bench" / "record.py"


@pytest.fixture
def record(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # record.py prepends perfbench/
    spec = importlib.util.spec_from_file_location("bench_record", RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(items_per_s: float, kernel_median_ms: float = 2.0) -> dict:
    return {
        "result": {"metrics": {"items_per_s": {"unit": "1/s", "value": items_per_s}}},
        "failed_share": 0.0,
        "host_speed": {"kernel_runs": 9, "kernel_median_ms": kernel_median_ms, "nominal_ms": 2.0},
        "outputs": {"params_json_sha256": ["a", "b", "c", "d"], "verdicts_jsonl_sha256": "e", "commands": 4},
    }


def traced_report(seed: int, search_self_s: float) -> dict:
    return {"seed": seed, "result": {"correct": True, "metrics": {
        "train.search_self_s": {"value": search_self_s, "unit": "s"},
        "train.detect_per_eval": {"value": 40.0, "unit": "count"}}}}


def test_bench_file_summarises_each_checkout(record):
    stamps = {"parent": {"git_sha": "abc", "source_sha256": "1"},
              "change": {"git_sha": "uncommitted on abc", "source_sha256": "2"}}
    reports = {name: {"check": {41: report(base + 1, 2.5), 42: report(base + 2, 1.9), 43: report(base + 6, 2.1)}}
               for name, base in (("parent", 0), ("change", 10))}
    # Reports in any seed order; the file lists the runs in seed order.
    traced = {name: {"check": {seed: traced_report(seed, value) for seed, value in zip((43, 41, 42), values)}}
              for name, values in (("parent", (0.4, 0.3, 0.2)), ("change", (0.5, 0.1, 0.2)))}
    bench_tests = {name: {"exit_code": 0, "passed": 2, "failed": 0, "median_s": {"t::a": seconds}}
                   for name, seconds in (("parent", 0.2), ("change", 0.1))}
    bench = record.bench_file(21, [41, 42, 43], stamps, reports, traced, bench_tests)
    change = bench["checkouts"]["change"]
    assert change["bench_tests"] == bench_tests["change"]
    assert change["stamp"] == stamps["change"]
    assert change["workloads"]["check"]["metrics"]["items_per_s"] == {
        "unit": "1/s", "median": 12, "q1": 11.5, "q3": 14, "runs": [11, 12, 16]}
    # Each untraced run's host-speed median, in seed order, beside its failed share.
    assert change["workloads"]["check"]["host_speed_kernel_median_ms"] == [2.5, 1.9, 2.1]
    assert change["workloads"]["check"]["failed_share"] == [0.0, 0.0, 0.0]
    assert change["workloads"]["check"]["digests"]["41"] == {
        "params_json_sha256": ["a", "b", "c"], "verdicts_jsonl_sha256": "e"}
    assert change["workloads"]["check"]["per_layer"] == {"seeds": [41, 42, 43], "metrics": {
        "train.search_self_s": {"unit": "s", "median": 0.2, "runs": [0.1, 0.2, 0.5]},
        "train.detect_per_eval": {"unit": "count", "median": 40.0, "runs": [40.0, 40.0, 40.0]}}}
    assert bench["first_run_order"] == ["parent", "change"]


def test_bench_file_refuses_one_commit_for_two_sources(record):
    stamps = {"parent": {"git_sha": "abc", "source_sha256": "1"},
              "change": {"git_sha": "abc", "source_sha256": "2"}}
    with pytest.raises(SystemExit, match="'parent' and 'change' are both stamped abc"):
        record.bench_file(21, [41], stamps, {}, {}, {})


def test_commit_stamp_marks_uncommitted_sources(record, tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    source = tmp_path / "src" / "rxcheck" / "a.py"
    source.parent.mkdir(parents=True)
    source.write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("")
    git("init", "-q")
    git("add", ".")
    git("commit", "-q", "-m", "one")
    stamp = {"git_sha": "abc", "source_sha256": "1"}
    (tmp_path / "notes.txt").write_text("outside the sources\n")
    assert record.commit_stamp(tmp_path, stamp) == stamp
    source.write_text("x = 2\n")
    assert record.commit_stamp(tmp_path, stamp) == {"git_sha": "uncommitted on abc", "source_sha256": "1"}


def test_each_checkout_makes_traced_runs_on_the_first_seeds(record, monkeypatch, tmp_path):
    # The untraced runs of a workload alternate their first checkout; then
    # each checkout makes one traced run on each of the first three seeds,
    # in the same alternating order, and the medians of their per-layer
    # metrics land in the BENCH file beside the end-to-end ones.
    runs = []

    def run_once(directory, workload, seed, trace):
        runs.append((directory.name, workload, seed, trace))
        done = traced_report(seed, seed / 100) if trace else report(100.0 + seed)
        return {**done, "stamp": {"git_sha": directory.name, "source_sha256": directory.name}}

    for name in ("parent", "change"):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text("")
    def run_bench_tests(directory):
        runs.append((directory.name, "pytest -m bench"))
        return {"exit_code": 1, "passed": 3, "failed": 1, "median_s": {"t::a": 0.5}}

    monkeypatch.setattr(record, "run_once", run_once)
    monkeypatch.setattr(record, "run_bench_tests", run_bench_tests)
    monkeypatch.setattr(record, "commit_stamp", lambda directory, stamp: stamp)
    monkeypatch.setattr(record, "ROOT", tmp_path)
    assert record.main(["28", "--checkout", f"parent={tmp_path / 'parent'}",
                        "--checkout", f"change={tmp_path / 'change'}", "--seeds", "41-44"]) == 0

    workloads = [workload["name"] for workload in record.BENCHMARK["workloads"]]
    order = [("parent", "change"), ("change", "parent")]
    assert runs == [
        run
        for workload in workloads
        for run in [(name, workload, seed, 0) for seed in (41, 42, 43, 44) for name in order[seed % 2 == 0]]
        + [(name, workload, seed, 1) for seed in (41, 42, 43) for name in order[seed % 2 == 0]]
    ] + [("parent", "pytest -m bench"), ("change", "pytest -m bench")]
    bench = json.loads((tmp_path / "BENCH_28.json").read_text())
    for name in ("parent", "change"):
        # A failing run is recorded, not fatal.
        assert bench["checkouts"][name]["bench_tests"]["exit_code"] == 1
        for workload in workloads:
            entry = bench["checkouts"][name]["workloads"][workload]
            assert entry["per_layer"]["seeds"] == [41, 42, 43]
            assert entry["per_layer"]["metrics"]["train.search_self_s"] == {
                "unit": "s", "median": 0.42, "runs": [0.41, 0.42, 0.43]}
            assert entry["metrics"]["items_per_s"]["median"] == 142.5


def test_fewer_seeds_than_traced_runs_trace_every_seed(record, monkeypatch, tmp_path):
    runs = []

    def run_once(directory, workload, seed, trace):
        runs.append((directory.name, seed, trace))
        done = traced_report(seed, 0.1) if trace else report(100.0)
        return {**done, "stamp": {"git_sha": directory.name, "source_sha256": directory.name}}

    (tmp_path / "only" / "perfbench").mkdir(parents=True)
    (tmp_path / "only" / "perfbench" / "run.py").write_text("")
    monkeypatch.setattr(record, "run_once", run_once)
    monkeypatch.setattr(record, "run_bench_tests", lambda directory: {"exit_code": 0})
    monkeypatch.setattr(record, "commit_stamp", lambda directory, stamp: stamp)
    monkeypatch.setattr(record, "ROOT", tmp_path)
    assert record.main(["28", "--checkout", f"only={tmp_path / 'only'}", "--seeds", "7"]) == 0
    assert runs == [("only", 7, 0), ("only", 7, 1)] * len(record.BENCHMARK["workloads"])
    bench = json.loads((tmp_path / "BENCH_28.json").read_text())
    per_layer = bench["checkouts"]["only"]["workloads"]["check"]["per_layer"]
    assert per_layer["seeds"] == [7]
    assert per_layer["metrics"]["train.search_self_s"] == {"unit": "s", "median": 0.1, "runs": [0.1]}


def test_bench_tests_run_keeps_counts_and_medians(record, tmp_path):
    # A checkout with two bench tests, one of them failing, and a test that
    # -m bench leaves out.
    (tmp_path / "pyproject.toml").write_text(textwrap.dedent("""\
        [tool.pytest.ini_options]
        markers = ["bench: timing benchmarks"]
        addopts = "-m 'not bench' -p no:cacheprovider"
    """))
    (tmp_path / "test_timed.py").write_text(textwrap.dedent("""\
        import pytest

        @pytest.mark.bench
        def test_sum(benchmark):
            benchmark(sum, range(10))

        @pytest.mark.bench
        def test_broken():
            assert False

        def test_untimed():
            pass
    """))
    result = record.run_bench_tests(tmp_path)
    assert (result["exit_code"], result["passed"], result["failed"]) == (1, 1, 1)
    assert list(result["median_s"]) == ["test_timed.py::test_sum"]
    assert result["median_s"]["test_timed.py::test_sum"] > 0
