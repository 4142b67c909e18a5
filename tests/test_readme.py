"""The README's examples run: its Python block and its command transcripts."""

import re
import shlex
from pathlib import Path

import pytest

from cmkostka.cli import build_parser, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)


def _transcripts():
    """(command line, expected output lines) for every `$ cmkostka ...` in the README."""
    out = []
    for _, body in BLOCKS:
        for chunk in re.split(r"^\$ ", body, flags=re.M)[1:]:
            command, *lines = chunk.rstrip("\n").split("\n")
            while lines and not lines[-1]:
                lines.pop()
            out.append((command, lines))
    return out


TRANSCRIPTS = _transcripts()


def test_python_block_prints_what_its_comments_say():
    (source,) = [body for lang, body in BLOCKS if lang == "python"]
    expected = [line.split("#", 1)[1].strip() for line in source.splitlines() if line.startswith("print(")]
    printed = []
    exec(source, {"print": lambda *args: printed.append(" ".join(map(str, args)))})
    assert printed == expected


def test_every_transcript_is_collected():
    assert len(TRANSCRIPTS) == 10
    assert all(command.startswith("cmkostka ") for command, _ in TRANSCRIPTS)


def test_every_command_has_a_transcript():
    # the subcommand choices argparse prints, e.g. "{kostka,character,...}"
    (choices,) = re.findall(r"\{([^}]*)\}", build_parser().format_usage())
    assert set(choices.split(",")) == {command.split()[1] for command, _ in TRANSCRIPTS}


@pytest.mark.parametrize("command, expected", TRANSCRIPTS, ids=[c for c, _ in TRANSCRIPTS])
def test_transcript_matches_cli_output(capsys, command, expected):
    code = main(shlex.split(command, comments=True)[1:])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    if expected and expected[0] == "...":
        # an elided transcript shows only the tail of the output
        shown = expected[1:]
        assert lines[-len(shown):] == shown
    else:
        assert lines == expected
