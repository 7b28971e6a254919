"""bench/record.py: the BENCH file's stamps name the commit each checkout holds."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
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


def report(items_per_s: float) -> dict:
    return {
        "result": {"metrics": {"items_per_s": {"unit": "1/s", "value": items_per_s}}},
        "failed_share": 0.0,
        "outputs": {"params_json_sha256": ["a", "b", "c", "d"], "verdicts_jsonl_sha256": "e", "commands": 4},
    }


def test_bench_file_summarises_each_checkout(record):
    stamps = {"parent": {"git_sha": "abc", "source_sha256": "1"},
              "change": {"git_sha": "uncommitted on abc", "source_sha256": "2"}}
    reports = {name: {"check": {41: report(base + 1), 42: report(base + 2), 43: report(base + 6)}}
               for name, base in (("parent", 0), ("change", 10))}
    bench = record.bench_file(21, [41, 42, 43], stamps, reports)
    change = bench["checkouts"]["change"]
    assert change["stamp"] == stamps["change"]
    assert change["workloads"]["check"]["metrics"]["items_per_s"] == {
        "unit": "1/s", "median": 12, "q1": 11.5, "q3": 14, "runs": [11, 12, 16]}
    assert change["workloads"]["check"]["digests"]["41"] == {
        "params_json_sha256": ["a", "b", "c"], "verdicts_jsonl_sha256": "e"}
    assert bench["first_run_order"] == ["parent", "change"]


def test_bench_file_refuses_one_commit_for_two_sources(record):
    stamps = {"parent": {"git_sha": "abc", "source_sha256": "1"},
              "change": {"git_sha": "abc", "source_sha256": "2"}}
    with pytest.raises(SystemExit, match="'parent' and 'change' are both stamped abc"):
        record.bench_file(21, [41], stamps, {})


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
