"""The command line's outputs on fixed inputs keep their bytes. tests/golden.py
runs the commands and regenerates tests/golden.json; the 100k-row
ingest-hist export runs with -m bench."""

from __future__ import annotations

import json

import numpy
import pytest

import golden

GOLDEN = json.loads(golden.GOLDEN.read_text())


@pytest.mark.parametrize(
    "group", [pytest.param(name, marks=pytest.mark.bench) if name == "ingest-hist" else name for name in golden.GROUPS]
)
def test_outputs_match_the_golden_file(group):
    message = golden.mismatch_message(GOLDEN, group, golden.run_group(group))
    assert message is None, message


def test_mismatch_names_each_difference_and_both_numpy_versions():
    recorded = {"numpy": "0.0.0", "groups": {"g": {"inputs": {"a.csv": "1"}, "commands": {"c": {"exit": 0}}}}}
    actual = {"inputs": {"a.csv": "2"}, "commands": {"c": {"exit": 0}, "d": {"exit": 1}}}
    message = golden.mismatch_message(recorded, "g", actual)
    assert message.startswith("golden outputs differ at: g/commands/d (new), g/inputs/a.csv;")
    assert f"numpy 0.0.0, this run has numpy {numpy.__version__}" in message
    recorded["numpy"] = numpy.__version__
    assert "numpy" not in golden.mismatch_message(recorded, "g", actual)
    assert golden.mismatch_message(recorded, "g", recorded["groups"]["g"]) is None
