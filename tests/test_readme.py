"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

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
