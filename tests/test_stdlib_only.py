"""The package as a whole: it stays standard-library only, every absolute
import in src/cmkostka naming a standard-library module; its modules import
one another in layers, with no cycle; its __all__ lists exactly the
public names it binds that are not modules; and its sources, tests and tools
parse as Python 3.10."""

import ast
import sys
from graphlib import TopologicalSorter
from pathlib import Path
from types import ModuleType

import pytest

import cmkostka

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "cmkostka").glob("*.py"))


def _absolute_imports(path):
    """(line, top-level module) for each absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def _sibling_imports():
    """Module name -> set of the sibling modules its relative imports name,
    at any depth in the file."""
    graph = {}
    for path in SOURCES:
        siblings = graph[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                if node.module:
                    siblings.add(node.module.split(".")[0])
                else:
                    siblings.update(alias.name for alias in node.names)
    return graph


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


def test_modules_import_in_layers():
    graph = _sibling_imports()
    # the parse sees the imports the layers below rest on
    assert graph["characters"] == {"partitions", "qpoly"} and "verify" in graph["cli"]
    assert graph["qpoly"] == set() and graph["partitions"] == set()
    assert [name for name, siblings in graph.items() if "cli" in siblings] == []
    # verify is the check battery: the CLI runs it and the package re-exports it
    assert sorted(name for name, siblings in graph.items() if "verify" in siblings) == ["__init__", "cli"]
    assert set().union(*graph.values()) <= set(graph)
    # static_order raises graphlib.CycleError on a cycle
    assert len(list(TopologicalSorter(graph).static_order())) == len(graph)


def test_sources_tests_and_tools_parse_as_python_3_10():
    """pyproject.toml requires Python >= 3.10.  This checks the grammar
    only, as far as ast.parse's feature_version does (it refuses except*,
    for one): a call to a library function that 3.10 lacks still passes."""
    paths = [path for folder in ("src/cmkostka", "tests", "tools") for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(paths) > len(SOURCES)
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
