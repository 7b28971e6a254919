"""All JSON input goes through one reader, records.read_json, and all CSV
input through one reader per file kind: ingest.parse_dataset for an export,
evaluate.read_predictions_csv for a predictions file."""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

import rxcheck
from rxcheck.cli import EX_ERROR, run
from rxcheck.detector import load_params_json
from rxcheck.ranges import load_boundaries

PACKAGE = Path(rxcheck.__file__).parent


class _Reads(ast.NodeVisitor):
    """The scopes (dotted function names) that name module.<one of names>,
    and "<module>" for an import of one of them from module."""

    def __init__(self, module: str, names: set[str]):
        self.module, self.names = module, names
        self.scope, self.found = [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name) and node.value.id == self.module and node.attr in self.names:
            self.found.append(".".join(self.scope) or "<module>")
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module == self.module and {alias.name for alias in node.names} & self.names:
            self.found.append("<module>")


def _readers(module: str, names: set[str]) -> list[str]:
    """"<file stem>.<scope>" for each place in the package that names one of
    module's names, in file order."""
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _Reads(module, names)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        readers += [f"{path.stem}.{scope}" for scope in visitor.found]
    return readers


def test_read_json_is_the_only_json_reader():
    assert _readers("json", {"load", "loads"}) == ["records.read_json"]


def test_one_csv_reader_per_file_kind():
    assert _readers("csv", {"reader"}) == ["ingest.parse_dataset"]
    assert _readers("csv", {"DictReader"}) == ["evaluate.read_predictions_csv"]


# An integer literal longer than Python's int-string limit (4,300 digits by
# default) fails json's own int(); the reader names the file and the length.
_LONG = "1" + "0" * 5000
_TOO_LONG = "5001-digit integer exceeds Python's integer string limit"


def test_params_integer_beyond_the_string_limit_named_with_the_file(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(f'{{"a": {_LONG}, "b": 1, "mu": 0.05, "nu": 0.05}}')
    with pytest.raises(ValueError) as raised:
        load_params_json(path)
    assert str(raised.value) == f"{path}: {_TOO_LONG}"


def test_boundaries_integer_beyond_the_string_limit_named_with_the_file(tmp_path):
    path = tmp_path / "bounds.json"
    path.write_text(json.dumps({"techniques": {"SBRT": {
        "min_bed": 0, "max_bed": "LONG", "min_fractions": 1, "max_fractions": 5,
        "min_dose_per_fraction": 600, "max_dose_per_fraction": 2000}}}).replace('"LONG"', "-" + _LONG))
    with pytest.raises(ValueError) as raised:
        load_boundaries(path)
    assert str(raised.value) == f"{path}: {_TOO_LONG}"


def test_run_config_integer_beyond_the_string_limit_named_with_the_file(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(f'{{"seed": {_LONG}}}')
    code = run(["simulate", "--input", str(tmp_path / "history.csv"), "--out", str(tmp_path / "sa"),
                "--config", str(config)])
    assert code == EX_ERROR
    assert capsys.readouterr().err == f"rxcheck: error: {config}: {_TOO_LONG}\n"
