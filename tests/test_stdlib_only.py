"""The package as a whole: it stays standard-library only, every absolute
import in src/cmkostka naming a standard-library module, and its __all__
lists exactly the public names it binds that are not modules."""

import ast
import sys
from pathlib import Path
from types import ModuleType

import pytest

import cmkostka

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "cmkostka").glob("*.py"))


def _absolute_imports(path):
    """(line, top-level module) for each absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_sources_are_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "cli.py", "verify.py"}


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_imports_are_standard_library(path):
    outside = [(line, name) for line, name in _absolute_imports(path) if name not in sys.stdlib_module_names]
    assert outside == []


def test_all_lists_every_public_name():
    public = [
        name for name, value in vars(cmkostka).items() if not name.startswith("_") and not isinstance(value, ModuleType)
    ]
    assert sorted(cmkostka.__all__) == sorted(public)
    assert len(set(cmkostka.__all__)) == len(cmkostka.__all__)
