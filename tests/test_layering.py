"""The package's modules import one another at run time: none guards an
import behind TYPE_CHECKING, and only the command line and the package
itself import ingest, the front end. The kernels and the stages after the
build take the reference set's type from distance, where it is defined.
The command line calls each front-end stage in one place."""

from __future__ import annotations

import ast
from pathlib import Path

import rxcheck

PACKAGE = Path(rxcheck.__file__).parent


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _imported(tree: ast.Module) -> set[str]:
    """The absolute names tree imports: each module, and each module.name of
    a from-import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("rxcheck", node.module))) if node.level else node.module
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_no_module_imports_type_checking():
    found = [
        stem for stem, tree in _trees().items() for node in ast.walk(tree)
        if isinstance(node, ast.alias) and node.name == "TYPE_CHECKING"
        or isinstance(node, ast.Attribute) and node.attr == "TYPE_CHECKING"
    ]
    assert found == []


def test_only_cli_and_the_package_import_ingest():
    importers = [stem for stem, tree in _trees().items() if "rxcheck.ingest" in _imported(tree)]
    assert importers == ["__init__", "cli"]


def test_cli_runs_each_front_end_stage_in_one_place():
    # perfbench/tracer.py wraps these stages as cli's module globals, so
    # cli calls each by its bare imported name: parse, normalize and filter
    # in _front_end (check's batch is parsed and normalized, not filtered)
    # and every build in _build_db.
    tree = _trees()["cli"]
    stages = ("parse_dataset", "normalize_dataset", "filter_cohort", "build_historical_db")
    imported = {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert set(stages) <= imported
    callers = {stage: [] for stage in stages}
    bound = set()
    for statement in tree.body:
        owner = getattr(statement, "name", None) if isinstance(statement, ast.FunctionDef) else None
        for node in ast.walk(statement):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in callers:
                    callers[name].append((owner, type(func).__name__))
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load) or isinstance(node, ast.arg):
                bound.add(getattr(node, "id", None) or node.arg)
    assert callers == {
        "parse_dataset": [("_front_end", "Name"), ("_cmd_check", "Name")],
        "normalize_dataset": [("_front_end", "Name"), ("_cmd_check", "Name")],
        "filter_cohort": [("_front_end", "Name")],
        "build_historical_db": [("_build_db", "Name")],
    }
    # No assignment or parameter shadows the module global.
    assert bound.isdisjoint(stages)
