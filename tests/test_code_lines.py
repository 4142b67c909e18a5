"""tools/code_lines.py: which lines count as code, and its per-module report."""

import runpy
from pathlib import Path

TOOL = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"))

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    x = """a string that is no docstring,
    over two lines"""

    def f(self):
        """Function docstring."""
        return (1,

                2)
'''


def test_blank_comment_and_docstring_lines_do_not_count():
    # import, class, the two lines of x, def, and the two lines of the return
    assert TOOL["code_lines"](SAMPLE) == 7


def test_report_lists_each_module_and_the_total(capsys):
    TOOL["main"]()
    *modules, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert "cm.py" in [name for name, _ in modules]
    assert total == ["total", str(sum(int(count) for _, count in modules))]
