"""The README's library example runs and prints what its comments say, its
CLI section names exactly the parser's commands and flags, and its exit-code
paragraph names exactly the exported internal errors."""

import contextlib
import io
import re
from pathlib import Path

import overlapifs
from overlapifs import InternalError
from overlapifs.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
EXPECTED = [
    "finite(2)",
    "['finite(1)', 'countably-infinite', 'continuum']",
    "w=1,4,4,2;p=4",
]


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library\n+```python\n(.*?)^```", text, re.S | re.M)
    assert match is not None, "README has no Library code block"
    return match.group(1)


def test_library_example_prints_its_commented_outputs():
    block = library_block()
    comments = [line.split("#", 1)[1].strip() for line in block.splitlines() if "#" in line]
    for expected in EXPECTED:
        assert any(c == expected or c.startswith(expected + " ") for c in comments), expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == EXPECTED


def cli_section() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## CLI\n(.*?)^### ", text, re.S | re.M)
    assert match is not None, "README has no CLI section"
    return match.group(1)


def usage(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--help"]) == 0
    return out.getvalue()


def flags(text: str) -> set:
    return set(re.findall(r"--[a-z][a-z-]*", text)) - {"--help"}


def test_cli_section_names_the_parsers_commands_and_flags():
    section = cli_section()
    commands = set(re.search(r"\{([a-z,]+)\}", usage()).group(1).split(","))
    assert len(commands) == 6
    assert set(re.findall(r"^overlapifs ([a-z]+) ", section, re.M)) == commands
    assert flags(section) == set().union(*(flags(usage(command)) for command in commands))


def test_exit_codes_name_every_exported_internal_error():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^Exit codes:(.*?)\n\n", text, re.S | re.M)
    assert match is not None, "README has no Exit codes paragraph"
    named = set(re.findall(r"`([A-Za-z]+Error|SearchCapExceeded)`", match.group(1)))
    exported = {
        name
        for name in overlapifs.__all__
        if isinstance(cls := getattr(overlapifs, name), type) and issubclass(cls, InternalError)
    }
    assert named == exported
