"""Command line: file grammar, subcommands, exit codes, report stability."""

import contextlib
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
import overlapifs.codings
from overlapifs import (
    CoverViolationError,
    EmptyGraphError,
    EmptyReducedSystemError,
    InternalError,
    Interval,
    NestedImageError,
    PartitionInvariantError,
    SearchCapExceeded,
    WitnessVerificationError,
    evaluate,
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


DIGIT_LIMIT = hasattr(sys, "get_int_max_str_digits")  # CPython 3.10.7 and later


@contextlib.contextmanager
def any_digits():
    """Lift CPython's int-to-string digit limit inside the block."""
    if not DIGIT_LIMIT:
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


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


@pytest.fixture
def mirror_file(tmp_path, uneven_mirror):
    path = tmp_path / "mirror.ifs"
    path.write_text("".join(f"map r={f.ratio} b={f.offset}\n" for f in uneven_mirror.maps))
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
            ("name a\nmap r=1/5 b=0\nname b\n", "line 3: duplicate name line"),
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

    def test_value_of_any_size_prints_in_full(self, quad, quad_file):
        # The value's numerator has about 4,900 digits, past CPython's default
        # limit of 4,300 digits for turning an int into a string.
        preperiod = (2,) * 7000
        point = f"w={','.join(map(str, preperiod))};p=1,4"
        argv = ["classify", quad_file, "--point", point, "--max-depth", "20000", "--max-nodes", "100000"]
        code, text = run(argv)
        assert code == 0
        assert "display: continuum" in text
        printed = next(line for line in text.splitlines() if line.startswith("  value: "))
        with any_digits():  # main put the limit back; this test's own parsing lifts it again
            value = Fraction(printed.split()[1])
            assert value == evaluate(quad, preperiod, (1, 4))
            assert len(str(value.numerator)) > 4300

    def test_point_with_no_path_exits_two(self, quad_file, monkeypatch, capsys):
        # A parsed point always has an infinite digit path, so a root with a walk
        # count of 0 is a failed check: exit 2 with an error line, not a traceback.
        facts = overlapifs.codings._facts

        def dead_root(succ, bound, roots):
            flag, walks, size = facts(succ, bound, roots)
            flag[0] = walks[0] = 0
            return flag, walks, size

        monkeypatch.setattr(overlapifs.codings, "_facts", dead_root)
        code, text = run(["classify", quad_file, "--point", "w=1;p=4"])
        assert code == 2
        assert text == "error: 1/5 has no infinite digit path; it is not an attractor point\n"
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python has no int-to-string digit limit")
    @pytest.mark.parametrize("argv", [["validate"], ["classify", "--point", "w=;p=1,4"], ["nonsense"]])
    def test_digit_limit_is_restored(self, quad_file, argv):
        # main lifts CPython's int-to-string digit limit while a command runs, and
        # hands the caller's limit back on every way out
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            run([argv[0], quad_file, *argv[1:]])
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(limit)


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
            ("quad", "depth3", "w=;p=1,4", ["--max-depth", "3"], 0),
        ],
    )
    def test_report_bytes(self, data_dir, tmp_path, system, label, point, flags, exit_code):
        report = tmp_path / "report.json"
        argv = ["classify", str(data_dir / f"{system}.ifs"), "--point", point, *flags]
        code, _ = run([*argv, "--json", str(report)])
        assert code == exit_code
        golden = data_dir / "golden" / f"classify-{system}-{label}.json"
        assert report.read_bytes() == golden.read_bytes()


# One non-member per reachable violation text, under tests/data/violations. The
# leftmost-map and image-leaves-hull texts cannot be reached from a file: the
# sort puts a map fixing the hull's left end first, and a map fixing a point of
# the hull maps the hull into itself.
VIOLATIONS = (
    "ordering-rightmost", "ordering-left-endpoints", "separation", "adjacency-mix",
    "single-point", "right-tail", "left-tail",
)
MEMBER_RUNS = {
    "partition": ["partition"],
    "dim-E": ["dim", "--set", "E"],
    "dim-U1": ["dim", "--set", "U1"],
    "witness-finite3": ["witness", "--target", "finite:3"],
    "witness-aleph0": ["witness", "--target", "aleph0"],
    "verify-1": ["verify", "--theorem", "1"],
    "verify-2": ["verify", "--theorem", "2"],
    "verify-3": ["verify", "--theorem", "3"],
}
# Every run above exits 0 except these.
NONZERO_EXITS = {
    **{f"validate-{name}": 1 for name in VIOLATIONS},
    "verify-2-quad": 2, "verify-1-noend": 2, "verify-2-uneven": 2,
}
GOLDEN_RUNS = [
    *((f"validate-{s}", ["validate", f"{s}.ifs"]) for s in ("quad", "noend", "uneven")),
    *((f"validate-{v}", ["validate", f"violations/{v}.ifs"]) for v in VIOLATIONS),
    *(
        (f"{label}-{s}", [argv[0], f"{s}.ifs", *argv[1:]])
        for label, argv in MEMBER_RUNS.items()
        for s in ("quad", "noend", "uneven")
    ),
]


class TestReportGolden:
    """The other commands' ``--json`` reports and exit codes, pinned under tests/data/golden."""

    @pytest.mark.parametrize("name,argv", GOLDEN_RUNS, ids=[name for name, _ in GOLDEN_RUNS])
    def test_report_bytes(self, data_dir, tmp_path, name, argv):
        report = tmp_path / "report.json"
        code, _ = run([argv[0], str(data_dir / argv[1]), *argv[2:], "--json", str(report)])
        assert code == NONZERO_EXITS.get(name, 0)
        assert report.read_bytes() == (data_dir / "golden" / f"{name}.json").read_bytes()


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

    def test_right_only_member_gets_the_mirrored_countable_recipe(self, mirror_file):
        code, text = run(["witness", mirror_file, "--target", "aleph0"])
        assert code == 0
        assert "point: w=3;p=1" in text

    def test_bad_target_exits_three(self, quad_file):
        code, _ = run(["witness", quad_file, "--target", "finite:zero"])
        assert code == 3

    # The finite(600) witness on quad has a head of about 600 digits: its check
    # outruns the default max_depth of 512, which is a limit, not a wrong answer.
    def test_check_past_a_limit_names_the_limit(self, quad_file):
        code, text = run(["witness", quad_file, "--target", "finite:600"])
        assert code == 2
        assert text.startswith("error: witness w=1,4,4,")
        assert text.rstrip().endswith(
            "could not be verified within the limits: its classification "
            "hit max_depth=512; raise it with --max-depth"
        )
        code, text = run(["witness", quad_file, "--target", "finite:600", "--max-depth", "2000",
                          "--max-nodes", "300"])
        assert code == 2
        assert text.rstrip().endswith("hit max_nodes=300; raise it with --max-nodes")

    # finite(2000) has a head of about 2000 digits; the error line keeps the
    # word's first and last digits and says how many it left out.
    def test_long_witness_word_is_shortened_in_the_error(self, quad_file):
        code, text = run(["witness", quad_file, "--target", "finite:2000", "--max-depth", "100"])
        assert code == 2
        (line,) = text.splitlines()
        assert len(line.encode()) < 1024
        assert line.startswith("error: witness w=1,4,4,4,4,4,4,4,4,4,4,4 ...(1977 digits left out)... 4,")
        assert ",4,2;p=4 could not be verified" in line
        assert "hit max_depth=100" in line and "--max-depth" in line

    def test_raised_limit_builds_the_witness(self, quad_file):
        code, text = run(["witness", quad_file, "--target", "finite:600", "--max-depth", "2000"])
        assert code == 0
        assert "kind: constructed" in text

    # A preperiod of P digits passes P + 1 distinct residuals, so a word of at least
    # max_nodes digits cannot be verified: it is not built (quad's finite(10^20 - 1)
    # word would not fit in memory), and the error names the flag that raises the limit.
    @pytest.mark.parametrize(
        "system,target,length",
        [("quad", "finite:99999999999999999999", 10**20), ("uneven", "finite:10000", 20000),
         ("noend", f"finite:{2**5000}", 10001)],
    )
    def test_target_too_large_to_build_exits_two(self, data_dir, system, target, length):
        code, text = run(["witness", str(data_dir / f"{system}.ifs"), "--target", target])
        assert code == 2
        (line,) = text.splitlines()
        assert line.startswith(f"error: the witness for finite({target[7:]}) has a preperiod of {length} digits")
        assert line.endswith("hit max_nodes=4096; raise it with --max-nodes")


class TestVerifyCommand:
    def test_theorem_one_passes_on_quad(self, quad_file):
        code, text = run(["verify", quad_file, "--theorem", "1"])
        assert code == 0
        assert "[PASS] witness finite(6)" in text
        assert "[FAIL]" not in text

    def test_theorem_one_passes_on_a_right_only_member(self, mirror_file):
        code, text = run(["verify", mirror_file, "--theorem", "1"])
        assert code == 0
        assert "[PASS] countable family" in text and "[PASS] witness countable" in text
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

    @pytest.mark.parametrize("system", ["quad", "noend", "uneven"])
    @pytest.mark.parametrize("theorem", ["1", "2", "3"])
    @pytest.mark.parametrize("limit", ["--max-nodes", "--max-depth"])
    def test_zero_limit_exits_three(self, data_dir, system, theorem, limit):
        # checked before the applicability test and every witness check
        argv = ["verify", str(data_dir / f"{system}.ifs"), "--theorem", theorem, limit, "0"]
        code, text = run(argv)
        assert code == 3
        assert text == "error: max_nodes and max_depth must be >= 1\n"


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


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# A module defines its subclasses only once it runs; reading every public name runs them all.
for _name in overlapifs.__all__:
    getattr(overlapifs, _name)


# Where each internal error is raised from; one missing here is raised from validate.
# The walk is sorted in this order so that the test ids do not follow import order.
RAISED_IN = {
    WitnessVerificationError: ("make_witness", ["witness", "--target", "finite:2"]),
    PartitionInvariantError: ("build_partition", ["partition"]),
    CoverViolationError: ("build_partition", ["dim"]),
    SearchCapExceeded: ("validate", ["validate"]),
    EmptyReducedSystemError: ("reduced_system", ["dim", "--set", "U1"]),
    EmptyGraphError: ("solve_dimension", ["dim", "--set", "U1"]),
    NestedImageError: ("validate", ["validate"]),
}
INTERNAL_ERRORS = sorted(
    _subclasses(InternalError),
    key=lambda e: list(RAISED_IN).index(e) if e in RAISED_IN else len(RAISED_IN),
)


class TestInternalErrors:
    """A failed self-check inside the program exits 2 with an error line, not a traceback."""

    @pytest.mark.parametrize(
        "error,callee,command",
        [(e, *RAISED_IN.get(e, ("validate", ["validate"]))) for e in INTERNAL_ERRORS],
    )
    def test_exits_two(self, quad_file, monkeypatch, capsys, error, callee, command):
        def fail(*args, **kwargs):
            raise error("self-check failed")

        # cli binds validate, which every command runs; a command imports the rest
        # from their home modules when it runs, so they are patched there
        home = sys.modules[getattr(overlapifs, callee).__module__]
        monkeypatch.setattr(overlapifs.cli if hasattr(overlapifs.cli, callee) else home, callee, fail)
        code, text = run([command[0], quad_file, *command[1:]])
        assert code == 2
        assert "error: self-check failed" in text.splitlines()
        assert "Traceback" not in text + capsys.readouterr().err

    def test_nested_images_exit_two(self, quad_file, monkeypatch, capsys):
        # Every containment holding makes validate's consequence check fire.
        monkeypatch.setattr(Interval, "contains_interval", lambda a, b: True)
        code, text = run(["validate", quad_file])
        assert code == 2
        assert "error: image 1 contained in image 2 despite passing all checks" in text.splitlines()
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


# quad scaled by 10^60: its hull's right end has 61 integer digits
BIG_TEXT = "".join(f"map r=1/5 b={k * 10**60 // 25}\n" for k in (0, 4, 16, 20))
BIG_RUNS = [
    ["validate"], ["partition"], ["dim"], ["dim", "--set", "U1"], ["classify", "--point", "w=1;p=4"],
    ["witness", "--target", "finite:3"], ["verify", "--theorem", "1"], ["verify", "--theorem", "3"],
]


class TestLargeValues:
    """Decimals are exact at any size: a member with 61-digit values runs every command."""

    @pytest.mark.parametrize("command", BIG_RUNS, ids=[" ".join(c) for c in BIG_RUNS])
    def test_every_command_prints_exact_decimals(self, tmp_path, capsys, command):
        path = tmp_path / "big.ifs"
        path.write_text(BIG_TEXT)
        code, text = run([command[0], str(path), *command[1:]])
        assert code == 0
        assert "Traceback" not in text + capsys.readouterr().err
        hull = f"0 (0.000000000) .. 1{'0' * 60} (1{'0' * 60}.000000000)"
        assert f"  hull: {hull}" in text.splitlines()

    @pytest.mark.parametrize(
        "value,text",
        [
            (Fraction(1, 2 * 10**9), "0.000000000"),
            (Fraction(3, 2 * 10**9), "0.000000002"),
            (Fraction(-1, 2 * 10**9), "-0.000000000"),
            (Fraction(-1, 10**12), "-0.000000000"),
            (-0.0, "-0.000000000"),
            (0.1, "0.100000000"),
            (Fraction(-7, 3), "-2.333333333"),
            (Fraction(2 * 10**70 + 1, 2), f"1{'0' * 70}.500000000"),
        ],
    )
    def test_dec_rounds_half_to_even_and_keeps_the_sign(self, value, text):
        assert overlapifs.cli.dec(value) == text


class TestUsage:
    def test_unknown_command_exits_three(self):
        code, _ = run(["frobnicate", "x"])
        assert code == 3

    def test_help_exits_zero(self):
        code, _ = run(["--help"])
        assert code == 0

    @pytest.mark.parametrize(
        "command,defaults",
        [("dim", ["1e-12"]), ("classify", ["4096", "512"]), ("witness", ["4096", "512"]),
         ("verify", ["1e-12", "4096", "512"])],
    )
    def test_help_states_each_default(self, capsys, command, defaults):
        code, _ = run([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert code == 0
        for default in defaults:
            assert f"(default {default})" in text


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


def _digits(min_size: int, max_size: int):
    words = st.lists(st.integers(0, 5), min_size=min_size, max_size=max_size)
    return words.map(lambda ds: ",".join(map(str, ds)))


_POINTS = st.one_of(
    st.builds("w={};p={}".format, _digits(0, 4), _digits(1, 3)),
    st.sampled_from(["w=1", "p=1", "w=1;p=x", "w=;p=", "", "w=1,,2;p=4"]),
)
_TARGETS = st.one_of(
    st.builds("finite:{}".format, st.integers(-1, 9)),
    st.sampled_from(["aleph0", "continuum", "finite:", "finite:x", "countable", ""]),
)


class TestFuzzInput:
    """Arbitrary description files end in a documented exit code, never in a traceback."""

    @settings(max_examples=200, deadline=None)
    @given(text=_ifs_texts(), point=_POINTS, target=_TARGETS)
    def test_exit_code_is_documented(self, tmp_path_factory, text, point, target):
        path = tmp_path_factory.mktemp("fuzz") / "system.ifs"
        path.write_text(text, encoding="utf-8")
        commands = (
            ["validate"], ["dim"], ["dim", "--set", "U1"],
            ["classify", "--point", point], ["witness", "--target", target],
        )
        for command in commands:
            code, _ = run([command[0], str(path), *command[1:]])
            assert code in (0, 1, 2, 3)
