"""The package's modules import one another at run time: none guards an
import behind TYPE_CHECKING, and only the command line and the package
itself import ingest, the front end. The kernels and the stages after the
build take the reference set's type from distance, where it is defined."""

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
