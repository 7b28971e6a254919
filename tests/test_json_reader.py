"""All JSON input goes through one reader, records.read_json, and all CSV
input through one reader per file kind: ingest.parse_dataset for an export,
evaluate.read_predictions_csv for a predictions file."""

from __future__ import annotations

import ast
from pathlib import Path

import rxcheck

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
