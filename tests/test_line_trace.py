"""tools/line_trace.py: which lines count as statements, and which of them a trace missed."""

import runpy
from pathlib import Path

TOOL = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "line_trace.py"))

SAMPLE = '''import os


class A:
    def f(x):
        """Docstring."""
        global os
        if (x >
                0):
            return [x,
                    1]
        try:
            pass
        except ValueError:
            x = 0
        @staticmethod
        def g():
            return 1
        return g
'''


def test_statements_are_those_in_function_bodies_with_their_own_lines():
    # module and class bodies, the def of a method, its docstring and the
    # global declaration are left out; a compound statement owns its header,
    # from its first decorator
    assert TOOL["statements"](SAMPLE) == {
        8: {8, 9}, 10: {10, 11}, 12: {12}, 13: {13}, 15: {15}, 17: {16, 17}, 18: {18}, 19: {19}
    }


def test_a_statement_is_reached_by_any_of_its_own_lines():
    assert TOOL["unreached"](SAMPLE, {9, 11, 12, 13, 16, 19}) == [15, 18]
