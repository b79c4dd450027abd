"""Command line: file grammar, subcommands, exit codes, report stability."""

import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import overlapifs.cli
from overlapifs import (
    CoverViolationError,
    EmptyGraphError,
    EmptyReducedSystemError,
    PartitionInvariantError,
    SearchCapExceeded,
    WitnessVerificationError,
)
from overlapifs.cli import IfsFileError, main, parse_ifs_file

QUAD_TEXT = """\
# four maps at scale 1/5
name quad
map r=1/5 b=0
map r=1/5 b=4/25
map r=1/5 b=16/25
map r=1/5 b=4/5
"""

NOEND_TEXT = """\
map r=1/5 b=0
map r=1/5 b=3/10
map r=1/5 b=23/50
map r=1/5 b=4/5
"""


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def quad_file(tmp_path):
    path = tmp_path / "quad.ifs"
    path.write_text(QUAD_TEXT)
    return str(path)


@pytest.fixture
def noend_file(tmp_path):
    path = tmp_path / "noend.ifs"
    path.write_text(NOEND_TEXT)
    return str(path)


class TestParseIfsFile:
    def test_accepts_comments_blanks_and_name(self):
        parsed = parse_ifs_file(QUAD_TEXT)
        assert parsed.name == "quad"
        assert len(parsed.maps) == 4

    def test_maps_kept_in_file_order(self):
        parsed = parse_ifs_file("map r=1/5 b=4/5\nmap r=1/5 b=0\n")
        assert [str(f.offset) for f in parsed.maps] == ["4/5", "0"]

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("map r=5/5 b=0\n", "outside (0, 1)"),
            ("map r=0 b=0\n", "outside (0, 1)"),
            ("map r=1/5\n", "map line"),
            ("map b=0 r=1/5\n", "map line"),
            ("map r=1/5 b=1/0\n", "zero denominator"),
            ("map r=0.2 b=0\n", "not a rational"),
            ("frob r=1/5 b=0\n", "unknown directive"),
            ("map r=1/5 b=0\nmap r=1/5 b=0\n", "duplicate"),
            ("", "no map lines"),
            ("name\n", "name line"),
        ],
    )
    def test_rejections_carry_detail(self, text, fragment):
        with pytest.raises(IfsFileError) as err:
            parse_ifs_file(text)
        assert fragment in str(err.value)

    def test_line_numbers_reported(self):
        with pytest.raises(IfsFileError) as err:
            parse_ifs_file("map r=1/5 b=0\nmap r=2 b=0\n")
        assert err.value.line == 2


class TestValidateCommand:
    def test_member_exits_zero(self, quad_file):
        code, text = run(["validate", quad_file])
        assert code == 0
        assert "verdict: member" in text
        assert "tag: end-overlap" in text

    def test_violation_exits_one(self, tmp_path):
        path = tmp_path / "two.ifs"
        path.write_text("map r=1/5 b=0\nmap r=1/5 b=4/5\n")
        code, text = run(["validate", str(path)])
        assert code == 1
        assert "adjacency-mix" in text

    def test_parse_error_exits_three(self, tmp_path):
        path = tmp_path / "bad.ifs"
        path.write_text("map r=5/5 b=0\n")
        code, text = run(["validate", str(path)])
        assert code == 3
        assert "error" in text

    def test_missing_file_exits_three(self):
        code, _ = run(["validate", "/nonexistent/x.ifs"])
        assert code == 3


class TestPartitionCommand:
    def test_reports_points_and_matrix(self, quad_file):
        code, text = run(["partition", quad_file])
        assert code == 0
        assert "gamma: 8" in text
        assert "[1, 1, 1, 1, 0, 0]" in text

    def test_writes_dot(self, quad_file, tmp_path):
        dot = tmp_path / "graph.dot"
        code, _ = run(["partition", quad_file, "--dot", str(dot)])
        assert code == 0
        content = dot.read_text()
        assert content.startswith("digraph")
        assert '"0..4/25"' in content


class TestDimCommand:
    def test_full_set(self, quad_file):
        code, text = run(["dim", quad_file])
        assert code == 0
        assert "value: 0.762966479" in text

    def test_reduced_set(self, quad_file):
        code, text = run(["dim", quad_file, "--set", "U1"])
        assert code == 0
        assert "value: 0.682606194" in text
        assert "note:" in text

    def test_json_report_is_stable_and_round_trips(self, quad_file, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        run(["dim", quad_file, "--set", "U1", "--json", str(first)])
        run(["dim", quad_file, "--set", "U1", "--json", str(second)])
        assert first.read_bytes() == second.read_bytes()
        doc = json.loads(first.read_text())
        assert doc["dimension"]["value"] == "0.682606194"
        assert doc["dimension"]["bracket"]["lo"]["exact"]
        assert json.loads(json.dumps(doc)) == doc

    def test_violation_exits_one(self, tmp_path):
        path = tmp_path / "two.ifs"
        path.write_text("map r=1/5 b=0\nmap r=1/5 b=4/5\n")
        code, _ = run(["dim", str(path)])
        assert code == 1

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_exits_three(self, data_dir, tol):
        for name in ("uneven.ifs", "quad.ifs"):
            code, text = run(["dim", str(data_dir / name), "--tol", tol])
            assert code == 3
            assert text.startswith("error:")

    def test_tiny_tol_bracket_holds_uneven_dimension(self, data_dir, tmp_path):
        report = tmp_path / "uneven.json"
        code, _ = run(["dim", str(data_dir / "uneven.ifs"), "--tol", "1e-30", "--json", str(report)])
        assert code == 0
        bracket = json.loads(report.read_text())["dimension"]["bracket"]
        lo, hi = (Fraction(bracket[end]["exact"]) for end in ("lo", "hi"))
        # the reference has 20 places, so the bracket must lie in its rounding interval
        ref, half = Fraction("0.58671219919039537789"), Fraction(1, 2 * 10**20)
        assert ref - half <= lo and hi <= ref + half
        assert hi - lo <= Fraction(1e-30)


class TestClassifyCommand:
    def test_countable_point(self, quad_file):
        code, text = run(["classify", quad_file, "--point", "w=1;p=4"])
        assert code == 0
        assert "countably-infinite" in text

    def test_continuum_point(self, quad_file):
        code, text = run(["classify", quad_file, "--point", "w=;p=1,4"])
        assert code == 0
        assert "display: continuum" in text

    def test_finite_point(self, quad_file):
        code, text = run(["classify", quad_file, "--point", "w=1,4,2;p=4"])
        assert code == 0
        assert "display: finite(2)" in text

    def test_unknown_exits_two(self, quad_file):
        code, text = run(["classify", quad_file, "--point", "w=;p=1,4", "--max-nodes", "2"])
        assert code == 2
        assert "unknown" in text

    def test_bad_point_syntax_exits_three(self, quad_file):
        code, _ = run(["classify", quad_file, "--point", "1444"])
        assert code == 3

    def test_bad_digit_exits_three(self, quad_file):
        code, _ = run(["classify", quad_file, "--point", "w=9;p=4"])
        assert code == 3


class TestClassifyGolden:
    """``classify --json`` reports pinned byte for byte under tests/data/golden."""

    @pytest.mark.parametrize(
        "system,label,point,flags,exit_code",
        [
            ("quad", "finite", "w=1,4,2;p=4", [], 0),
            ("quad", "countable", "w=1,3,3,2;p=1", [], 0),
            ("quad", "unknown", "w=;p=1,4", ["--max-nodes", "2"], 2),
            ("noend", "finite", "w=2,4,1;p=4", [], 0),
            ("noend", "continuum", "w=2;p=1,4,3", [], 0),
            ("noend", "unknown", "w=;p=2,4", ["--max-nodes", "2"], 2),
            ("uneven", "finite", "w=1,3,3,2;p=1", [], 0),
            ("uneven", "countable", "w=1,3,3;p=2", [], 0),
            ("uneven", "unknown", "w=;p=1,3,3", ["--max-nodes", "2"], 2),
        ],
    )
    def test_report_bytes(self, data_dir, tmp_path, system, label, point, flags, exit_code):
        report = tmp_path / "report.json"
        argv = ["classify", str(data_dir / f"{system}.ifs"), "--point", point, *flags]
        code, _ = run([*argv, "--json", str(report)])
        assert code == exit_code
        golden = data_dir / "golden" / f"classify-{system}-{label}.json"
        assert report.read_bytes() == golden.read_bytes()


class TestWitnessCommand:
    def test_constructs_finite(self, quad_file):
        code, text = run(["witness", quad_file, "--target", "finite:2"])
        assert code == 0
        assert "kind: constructed" in text
        assert "point: w=1,4,2;p=4" in text
        assert "109/625" in text

    def test_unreachable_target_reports_reason(self, noend_file):
        code, text = run(["witness", noend_file, "--target", "finite:3"])
        assert code == 0
        assert "kind: unreachable" in text
        code, text = run(["witness", noend_file, "--target", "aleph0"])
        assert code == 0
        assert "kind: unreachable" in text

    def test_bad_target_exits_three(self, quad_file):
        code, _ = run(["witness", quad_file, "--target", "finite:zero"])
        assert code == 3


class TestVerifyCommand:
    def test_theorem_one_passes_on_quad(self, quad_file):
        code, text = run(["verify", quad_file, "--theorem", "1"])
        assert code == 0
        assert "[PASS] witness finite(6)" in text
        assert "[FAIL]" not in text

    def test_theorem_three_passes_on_quad(self, quad_file):
        code, text = run(["verify", quad_file, "--theorem", "3"])
        assert code == 0
        assert "[PASS] strict dimension gap" in text
        assert "notes" in text

    def test_theorem_two_inapplicable_on_quad(self, quad_file):
        code, text = run(["verify", quad_file, "--theorem", "2"])
        assert code == 2
        assert "applicable: False" in text

    @pytest.mark.parametrize("system", ["quad", "noend"])
    @pytest.mark.parametrize("theorem", ["1", "2"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_bad_tol_exits_three(self, quad_file, noend_file, system, theorem, tol):
        path = quad_file if system == "quad" else noend_file
        code, text = run(["verify", path, "--theorem", theorem, f"--tol={tol}"])
        assert code == 3
        assert "error: tol must be finite and positive" in text


class TestCheckedInSystems:
    """The description files shipped under tests/data stay analyzable."""

    def test_quad_file(self, data_dir):
        code, text = run(["validate", str(data_dir / "quad.ifs")])
        assert code == 0 and "end-overlap" in text

    def test_noend_file(self, data_dir):
        code, text = run(["validate", str(data_dir / "noend.ifs")])
        assert code == 0 and "no-end-overlap" in text

    def test_uneven_file(self, data_dir):
        code, text = run(["dim", str(data_dir / "uneven.ifs")])
        assert code == 0 and "method: bisection" in text


class TestInternalErrors:
    """A failed self-check inside the program exits 2 with an error line, not a traceback."""

    @pytest.mark.parametrize(
        "error,callee,command",
        [
            (WitnessVerificationError, "make_witness", ["witness", "--target", "finite:2"]),
            (PartitionInvariantError, "build_partition", ["partition"]),
            (CoverViolationError, "build_partition", ["dim"]),
            (SearchCapExceeded, "validate", ["validate"]),
            (EmptyReducedSystemError, "reduced_system", ["dim", "--set", "U1"]),
            (EmptyGraphError, "solve_dimension", ["dim", "--set", "U1"]),
        ],
    )
    def test_exits_two(self, quad_file, monkeypatch, capsys, error, callee, command):
        def fail(*args, **kwargs):
            raise error("self-check failed")

        monkeypatch.setattr(overlapifs.cli, callee, fail)
        code, text = run([command[0], quad_file, *command[1:]])
        assert code == 2
        assert "error: self-check failed" in text.splitlines()
        assert "Traceback" not in text + capsys.readouterr().err


class TestClosedPipe:
    """A reader that closes the pipe early ends the command quietly with exit 0."""

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "command",
        [["verify", "noend.ifs", "--theorem", "1"], ["dim", "quad.ifs"]],
        ids=["verify-noend", "dim-quad"],
    )
    def test_exits_zero_without_stderr(self, data_dir, command, unbuffered):
        # noend's theorem-1 harness exits 2 when its report is read in full, so
        # exit 0 there shows the closed pipe was taken as the end of the run
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        argv = [command[0], str(data_dir / command[1]), *command[2:]]
        proc = subprocess.Popen(
            [sys.executable, "-m", "overlapifs.cli", *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 0
        assert err == b""


class TestUsage:
    def test_unknown_command_exits_three(self):
        code, _ = run(["frobnicate", "x"])
        assert code == 3

    def test_help_exits_zero(self):
        code, _ = run(["--help"])
        assert code == 0


_INTEGERS = st.one_of(st.integers(-3, 30), st.integers(-(10**40), 10**40))
_RATIONALS = st.one_of(
    st.builds("{}/{}".format, _INTEGERS, _INTEGERS),
    st.builds(str, _INTEGERS),
    st.sampled_from(["0", "-0", "1/0", "0/0", "1/-2", "1/2/3", "--1", "+1/2", "0.5", "1e3", "x", ""]),
)
_JUNK_LINES = st.one_of(
    st.sampled_from(["map", "map r=1/2", "map r=1/3 b=0 extra", "map b=0 r=1/3", "frob 1"]),
    st.sampled_from(["name", "name odd one", "# note", ""]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=20),
)
_BASES = [
    (Path(__file__).parent / "data" / f"{name}.ifs").read_text().splitlines()
    for name in ("quad", "noend", "uneven")
]


@st.composite
def _ifs_texts(draw):
    """A checked-in system or the maps x/q + k/q**2, then up to three odd edits."""
    q = draw(st.integers(2, 6))
    offsets = draw(st.lists(st.integers(0, q * q - q), min_size=1, max_size=5, unique=True))
    lines = list(draw(st.sampled_from([*_BASES, [f"map r=1/{q} b={k}/{q * q}" for k in offsets]])))
    for edit in draw(st.lists(st.sampled_from(["r", "b", "ratio", "duplicate", "junk"]), max_size=3)):
        i = draw(st.integers(0, len(lines) - 1))
        if edit == "r":
            lines[i] = f"map r={draw(_RATIONALS)} b={i}/{q}"
        elif edit == "b":
            lines[i] = f"map r=1/{q} b={draw(_RATIONALS)}"
        elif edit == "ratio":
            p, d = draw(st.integers(1, 3)), draw(st.integers(4, 9))
            lines[i] = f"map r={p}/{d} b={i}/{q}"
        elif edit == "duplicate":
            lines.append(lines[i])
        else:
            lines.insert(i, draw(_JUNK_LINES))
    return "\n".join(lines)


class TestFuzzInput:
    """Arbitrary description files end in a documented exit code, never in a traceback."""

    @settings(max_examples=200, deadline=None)
    @given(text=_ifs_texts())
    def test_exit_code_is_documented(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "system.ifs"
        path.write_text(text, encoding="utf-8")
        for command in (["validate"], ["dim"], ["dim", "--set", "U1"]):
            code, _ = run([command[0], str(path), *command[1:]])
            assert code in (0, 1, 2, 3)
