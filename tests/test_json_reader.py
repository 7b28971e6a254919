"""All JSON input goes through one reader, records.read_json."""

from __future__ import annotations

import ast
from pathlib import Path

import rxcheck

PACKAGE = Path(rxcheck.__file__).parent


class _JsonReads(ast.NodeVisitor):
    """The scopes (dotted function names) that name json.load or json.loads,
    and "<module>" for an import of either from json."""

    def __init__(self):
        self.scope, self.found = [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name) and node.value.id == "json" and node.attr in ("load", "loads"):
            self.found.append(".".join(self.scope) or "<module>")
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module == "json" and {alias.name for alias in node.names} & {"load", "loads"}:
            self.found.append("<module>")


def test_read_json_is_the_only_json_reader():
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _JsonReads()
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        readers += [f"{path.stem}.{scope}" for scope in visitor.found]
    assert readers == ["records.read_json"]
