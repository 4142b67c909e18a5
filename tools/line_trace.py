"""List the statements of the cmkostka package that no test reaches.

Runs pytest in this process under sys.settrace, tracing lines only in frames
whose code lives in the src/cmkostka next to this tools/ directory, with
hypothesis deadlines off (tracing slows every example).  Then prints each
statement inside a function body that never ran, as path:line: source, and
the count of statements reached:

    python3 tools/line_trace.py            # pytest tests
    python3 tools/line_trace.py tests/test_cli.py -k broken

Arguments go to pytest; the default is the tests/ directory.  Module and
class bodies run at import, so only statements inside functions count.
Standard library, pytest and hypothesis.
"""

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cmkostka"

# no bytecode of their own, so no line event ever marks them reached
_SILENT = (ast.Global, ast.Nonlocal)


def _own_lines(stmt):
    """The lines whose line event marks stmt as run: a simple statement's
    whole span, a compound statement's header from its first decorator."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        return set(range(first, max(body[0].lineno, stmt.lineno + 1)))
    return set(range(first, stmt.end_lineno + 1))


def _is_docstring(stmt):
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)


def statements(source):
    """{first line: own lines} for every statement inside a function body of
    the Python source text, docstrings and global or nonlocal declarations
    left out."""
    found = {}

    def visit(body, in_function):
        for stmt in body:
            if in_function and not _is_docstring(stmt) and not isinstance(stmt, _SILENT):
                found[stmt.lineno] = _own_lines(stmt)
            nested = in_function or isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(stmt, field, ()), nested)
            for handler in getattr(stmt, "handlers", ()):
                visit(handler.body, nested)

    visit(ast.parse(source).body, False)
    return found


def unreached(source, hit):
    """First lines of the statements none of whose own lines is in hit."""
    return sorted(first for first, own in statements(source).items() if not own & hit)


def trace(pytest_args):
    """Run pytest under the tracer; return its exit code and {path: lines hit}."""
    import pytest

    class NoDeadlines:
        """Loads the profile once pytest has imported hypothesis, before any
        test module applies its settings."""

        @staticmethod
        def pytest_configure(config):
            import hypothesis

            hypothesis.settings.register_profile("line-trace", deadline=None)
            hypothesis.settings.load_profile("line-trace")

    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # a test that starts python in a subprocess imports the same tree, untraced
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    prefix = str(PACKAGE) + os.sep
    hits, inside = {}, {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.realpath(name).startswith(prefix)
            if inside[name]:
                hits.setdefault(name, set())
        return local if inside[name] else None

    sys.settrace(on_call)
    try:
        code = pytest.main(list(pytest_args), plugins=[NoDeadlines()])
    finally:
        sys.settrace(None)
    lines = {}
    for name, seen in hits.items():
        lines.setdefault(Path(os.path.realpath(name)), set()).update(seen)
    return code, lines


def main(argv):
    code, hits = trace(argv or [str(ROOT / "tests")])
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        total += len(statements(source))
        for line in unreached(source, hits.get(path, set())):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{total - missed} of {total} statements in function bodies reached, {missed} not")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
