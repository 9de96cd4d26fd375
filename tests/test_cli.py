import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fistab.cli import (
    PresentationParseError,
    main,
    parse_presentation,
    serialize_presentation,
)
from fistab.oracle import VerificationReport
from fistab.presentation import FormalSum, PresentationMatrix
import fistab.cli
import fistab.multiplicity
import fistab.presentation

from conftest import E_FILE, random_low_relation_presentation, random_presentation

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
sys.path.insert(0, str(ROOT / "bench"))

from workloads import cyclic  # noqa: E402


# one run of every command, FILE standing for a presentation file
ONE_RUN_EACH = [
    ["multiplicities", "FILE"],
    ["dimension", "FILE"],
    ["evaluate", "FILE", "--n", "5"],
    ["decompose", "FILE", "--n", "5"],
    ["verify", "FILE"],
    ["specht", "--shape", "2,1", "--perm", "2,3,1"],
    ["amatrix", "FILE", "--shape", "2,1"],
]


def _no_build(*args):
    raise AssertionError("a matrix was built before the cell budget was checked")


class TestParser:
    def test_running_example(self, e_presentation):
        assert parse_presentation(E_FILE) == e_presentation

    def test_no_relations(self):
        z = parse_presentation("generators: 1\nrelations:\n")
        assert z == PresentationMatrix((1,), ())

    def test_empty_presentation(self):
        z = parse_presentation("generators:\nrelations:\n")
        assert z == PresentationMatrix((), ())

    def test_rational_coefficients(self):
        z = parse_presentation(
            "generators: 1\nrelations: 2\nentry 1 1 : 1/2*[1] - [2]\n"
        )
        assert z.entries[(0, 0)] == FormalSum(
            1, 2, {(1,): Fraction(1, 2), (2,): -1}
        )

    def test_leading_minus_and_merging(self):
        z = parse_presentation(
            "generators: 1\nrelations: 2\nentry 1 1 : -[1] + [1] + 2*[2]\n"
        )
        assert z.entries[(0, 0)] == FormalSum(1, 2, {(2,): 2})

    def test_empty_injection_term(self):
        z = parse_presentation(
            "generators: 0\nrelations: 1\nentry 1 1 : []\n"
        )
        assert z.entries[(0, 0)] == FormalSum(0, 1, {(): 1})

    def test_comments_and_blank_lines(self):
        text = "# header\n\ngenerators: 1  # one generator\nrelations: 1\n"
        assert parse_presentation(text) == PresentationMatrix((1,), (1,))

    @pytest.mark.parametrize("text,fragment", [
        ("relations: 1\n", "missing generators"),
        ("generators: 1\n", "missing relations"),
        ("generators: 1\nrelations: 1\nentry 2 1 : [1]\n", "line 3"),
        ("generators: 1\nrelations: 1\nentry 1 2 : [1]\n", "out of range"),
        ("generators: 1\nrelations: 1\nentry 1 1 : [1] [1]\n", "separated"),
        ("generators: 1\nrelations: 1\nentry 1 1 : [1 2]\n", "arity"),
        ("generators: 1\nrelations: 1\nentry 1 1 : [2]\n", "target range"),
        ("generators: 1\nrelations: 1\nentry 1 1 :\n", "no terms"),
        ("generators: 1\nrelations: 1\nwhat\n", "cannot parse"),
        ("generators: 1\ngenerators: 2\nrelations:\n", "second generators"),
    ])
    def test_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(PresentationParseError) as err:
            parse_presentation(text)
        assert fragment in str(err.value)

    def test_duplicate_entry_rejected(self):
        text = (
            "generators: 1\nrelations: 1\n"
            "entry 1 1 : [1]\nentry 1 1 : [1]\n"
        )
        with pytest.raises(PresentationParseError) as err:
            parse_presentation(text)
        assert "duplicate entry" in str(err.value)
        assert "line 4" in str(err.value)

    def test_round_trip(self, e_presentation):
        rng = random.Random(61)
        candidates = [e_presentation, PresentationMatrix((), ())] + [
            random_presentation(rng) for _ in range(25)
        ]
        for z in candidates:
            assert parse_presentation(serialize_presentation(z)) == z


# each command's arguments as its usage line lists them, and its help in
# the top-level listing
COMMAND_LINES = {
    "multiplicities": (
        "[-h] [--json] file",
        "eventual multiplicity of each shape (grown by a long top row)",
    ),
    "dimension": ("[-h] [--json] file", "stable dimension polynomial"),
    "evaluate": ("[-h] --n N [--json] file", "brute-force dimension at one degree"),
    "decompose": (
        "[-h] --n N [--json] file", "brute-force decomposition at one degree"
    ),
    "verify": (
        "[-h] [--n N] [--json] file",
        "compare the brute-force decomposition against the closed form",
    ),
    "specht": (
        "[-h] --shape SHAPE --perm PERM",
        "irreducible action matrix of a permutation",
    ),
    "amatrix": (
        "[-h] --shape SHAPE file",
        "transported presentation matrix for one shape, with labels",
    ),
}


def help_text(monkeypatch, capsys, argv) -> list[str]:
    # wide enough that no line wraps
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exited:
        main([*argv, "--help"])
    assert exited.value.code == 0
    return capsys.readouterr().out.splitlines()


class TestParsers:
    @pytest.mark.parametrize("command", list(COMMAND_LINES))
    def test_usage_line(self, monkeypatch, capsys, command):
        usage = help_text(monkeypatch, capsys, [command])[0]
        assert usage == f"usage: fistab {command} {COMMAND_LINES[command][0]}"

    def test_top_level_help_lists_each_command(self, monkeypatch, capsys):
        lines = help_text(monkeypatch, capsys, [])
        assert lines[0] == "usage: fistab [-h] {" + ",".join(COMMAND_LINES) + "} ..."
        listed = [line.split(None, 1) for line in lines if line.startswith("    ")]
        assert listed == [[name, helps] for name, (_, helps) in COMMAND_LINES.items()]


@pytest.fixture()
def e_file(tmp_path):
    path = tmp_path / "e.fipres"
    path.write_text(E_FILE, encoding="utf-8")
    return str(path)


def run_in_one_gib(tmp_path, text, argv, cap=None):
    """Run the CLI, on text written to a file when given, in a child that
    bounds its own address space to 1 GiB, so a size guard that stops
    holding fails with a MemoryError instead of exhausting the memory of
    the test run.  FISTAB_ORACLE_CAP is cap, or unset."""
    if text is not None:
        path = tmp_path / "input.fipres"
        path.write_text(text, encoding="utf-8")
        argv = [argv[0], str(path), *argv[1:]]
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from fistab.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("FISTAB_ORACLE_CAP", None)
    if cap is not None:
        env["FISTAB_ORACLE_CAP"] = str(cap)
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


# what the commands print on E is pinned in tests/data (tests/test_pins.py)
# and in the acceptance criteria
class TestCommands:
    def test_multiplicities_empty_presentation(self, tmp_path, capsys):
        path = tmp_path / "zero.fipres"
        path.write_text("generators:\nrelations:\n", encoding="utf-8")
        assert main(["multiplicities", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == "multiplicity [] = 0\n"

    def test_verify_passes(self, e_file, capsys):
        assert main(["verify", e_file]) == 0
        out = capsys.readouterr().out
        assert "degree 7 (onset 7)" in out
        assert out.rstrip().endswith("PASS")
        assert "MISMATCH" not in out

    def test_verify_pre_stable_exits_zero(self, e_file, capsys):
        assert main(["verify", e_file, "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert "PRE-STABLE" in out
        assert "MISMATCH" in out

    def test_verify_failure_exits_nonzero(self, e_file, capsys, monkeypatch):
        import fistab.cli as cli_module

        failing = VerificationReport(
            n=7, onset=7, checks=(), invisible=(),
            oracle_dimension=1, polynomial_dimension=2,
        )
        monkeypatch.setattr(cli_module, "verify", lambda z, n: failing)
        assert main(["verify", e_file]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_specht_command(self, capsys):
        assert main(["specht", "--shape", "1,1", "--perm", "2,1"]) == 0
        assert capsys.readouterr().out == "[ -1 ]\n"

    def test_specht_golden_output(self, capsys):
        # negative entries, and columns of different widths
        assert main(["specht", "--shape", "3,2", "--perm", "2,3,1,5,4"]) == 0
        assert capsys.readouterr().out == (
            "[ 1  0  0  -1  -1 ]\n"
            "[ 0  0  0   0  -1 ]\n"
            "[ 0  0  0  -1   0 ]\n"
            "[ 0  0  1   0  -1 ]\n"
            "[ 0  1  0  -1   0 ]\n"
        )

    def test_specht_empty_permutation(self, capsys):
        for shape in ("0", ""):
            assert main(["specht", "--shape", shape, "--perm", ""]) == 0
            assert capsys.readouterr().out == "[ 1 ]\n"
        assert main(["specht", "--shape", "1", "--perm", ""]) == 2
        assert "size" in capsys.readouterr().err

    def test_specht_non_permutation(self, capsys):
        assert main(["specht", "--shape", "2,1", "--perm", "1,1,3"]) == 2
        assert capsys.readouterr().err == (
            "error: [1, 1, 3] is not a permutation of 1..3\n"
        )

    def test_specht_size_mismatch(self, capsys):
        assert main(["specht", "--shape", "2", "--perm", "1,3,2"]) == 2
        assert "size" in capsys.readouterr().err

    def test_amatrix_output(self, e_file, capsys):
        assert main(["amatrix", e_file, "--shape", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "3x6 matrix for shape [2]"
        assert out[1].split() == [
            "12×t1", "13×t1", "14×t1", "23×t1", "24×t1", "34×t1",
        ]
        assert out[2].split() == ["12×t1", "[", "1", "0", "1", "1", "0", "1", "]"]

    def test_amatrix_golden_output(self, tmp_path, capsys):
        # two generators and two relations label blocks g1:, r1:, ...;
        # fraction cells, one wider than its label
        path = tmp_path / "two.fipres"
        path.write_text(
            "generators: 1 2\nrelations: 2 3\n"
            "entry 1 1 : 1/2*[1] - [2]\n"
            "entry 1 2 : -11/1000*[3] + [1]\n"
            "entry 2 1 : [2 1] + 3*[1 2]\n"
            "entry 2 2 : 1/2*[3 1] - [1 2]\n"
        )
        assert main(["amatrix", str(path), "--shape", "1"]) == 0
        assert capsys.readouterr().out == (
            "3x5 matrix for shape [1]\n"
            "         r1:1×t1 r1:2×t1 r2:1×t1 r2:2×t1  r2:3×t1\n"
            "g1:1×t1 [     1/2      -1       1       0 -11/1000 ]\n"
            "g2:1×t1 [       3       1      -1       0      1/2 ]\n"
            "g2:2×t1 [       1       3     1/2      -1        0 ]\n"
        )

    def test_amatrix_empty_shape(self, e_file, capsys):
        assert main(["amatrix", e_file, "--shape", "0"]) == 0
        out = capsys.readouterr().out
        assert "1x1 matrix for shape []" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.fipres"
        path.write_text("generators: 1\nrelations: 1\nentry 1 1 : [2]\n")
        assert main(["multiplicities", str(path)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_zero_denominator_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.fipres"
        path.write_text("generators: 1\nrelations: 2\nentry 1 1 : 1/0*[1]\n")
        assert main(["multiplicities", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: line 3: coefficient 1/0 has a zero denominator\n"
        )

    @pytest.mark.parametrize("term", ["[1,2]", "[1 x]", "[1 2.5]"])
    def test_non_integer_images_exit_code(self, tmp_path, capsys, term):
        path = tmp_path / "bad.fipres"
        path.write_text(f"generators: 2\nrelations: 2\nentry 1 1 : {term} + [2 1]\n")
        assert main(["multiplicities", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: line 3: images must be integers: {term}\n"
        )

    def test_amatrix_without_blocks_skips_the_dimension(
        self, e_file, capsys, monkeypatch
    ):
        # no degree of E reaches 10^6 boxes, so f^lam sizes nothing
        def no_dimension(lam):
            raise AssertionError(f"computed f^lam for {lam}")

        for module in (fistab.cli, fistab.multiplicity, fistab.presentation):
            monkeypatch.setattr(module, "hook_length_count", no_dimension)
        assert main(["amatrix", e_file, "--shape", "1000000"]) == 0
        assert capsys.readouterr().out == "0x0 matrix for shape [1000000]\n"

    def test_module_entry_point_runs_without_warnings(self):
        # importing the package must not import fistab.cli, or runpy warns
        env = dict(os.environ, PYTHONPATH=SRC)
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "fistab.cli", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("usage: fistab")

    def test_commands_load_only_locale(self, e_file):
        # the README's claim: past ``import fistab.cli``, a command loads
        # only what ``open`` needs to read its file
        assert [args[0] for args in ONE_RUN_EACH] == list(fistab.cli.COMMANDS)
        script = (
            "import io, sys, contextlib, fistab.cli\n"
            "before = set(sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    for args in {ONE_RUN_EACH!r}:\n"
            f"        fistab.cli.main([a.replace('FILE', {e_file!r}) for a in args])\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert set(result.stdout.split()) <= {"locale", "_locale"}

    def test_missing_file_exit_code(self, capsys):
        assert main(["multiplicities", "/nonexistent.fipres"]) == 2
        assert "error" in capsys.readouterr().err

    def test_resource_cap_exit_code(self, e_file, capsys, monkeypatch):
        from fistab.oracle import evaluate_degree

        monkeypatch.setenv("FISTAB_ORACLE_CAP", "10")
        evaluate_degree.cache_clear()
        assert main(["evaluate", e_file, "--n", "8"]) == 2
        assert "cap" in capsys.readouterr().err
        monkeypatch.delenv("FISTAB_ORACLE_CAP")
        evaluate_degree.cache_clear()

    def test_class_budget_exit_code(self, tmp_path, capsys, monkeypatch):
        # M(0) has one ambient row at every degree, so only the class
        # budget, on p(n)^2, refuses its decompose; the one cycle-count
        # vector there takes one trace at any degree
        path = tmp_path / "m0.fipres"
        path.write_text("generators: 0\nrelations:\n", encoding="utf-8")
        monkeypatch.delenv("FISTAB_ORACLE_CAP", raising=False)
        assert main(["decompose", str(path), "--n", "21"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: degree 21 has 792 classes")
        assert "FISTAB_ORACLE_CAP" in err
        # 792^2 = 627264 fits in 100 times a cap of 6273
        monkeypatch.setenv("FISTAB_ORACLE_CAP", "6273")
        assert main(["decompose", str(path), "--n", "21", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        nonzero = [row for row in payload["decomposition"] if row["multiplicity"]]
        assert nonzero == [{"shape": [21], "multiplicity": 1}]

    def test_closed_form_cell_budget(self, tmp_path, capsys, monkeypatch):
        # cyclic-7's largest matrix, shape (3, 2, 1), is 112 x 448 = 50176
        # cells; the budget is 2000 times the cap
        import fistab.multiplicity as multiplicity

        path = tmp_path / "cyclic7.fipres"
        path.write_text(cyclic(7), encoding="utf-8")
        monkeypatch.setenv("FISTAB_ORACLE_CAP", "25")
        with monkeypatch.context() as m:
            m.setattr(multiplicity, "induced_raw_presentation", _no_build)
            assert main(["multiplicities", str(path)]) == 2
            assert main(["amatrix", str(path), "--shape", "3,2,1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "error: shape (3, 2, 1) needs a 112x448 matrix, 50176 cells, "
            "budget is 50000 (raise FISTAB_ORACLE_CAP to override)"
        ] * 2
        monkeypatch.setenv("FISTAB_ORACLE_CAP", "26")
        assert main(["multiplicities", str(path)]) == 0
        assert capsys.readouterr().err == ""

    def test_cyclic10_is_refused_at_once(self, tmp_path, capsys, monkeypatch):
        import fistab.multiplicity as multiplicity

        path = tmp_path / "cyclic10.fipres"
        path.write_text(cyclic(10), encoding="utf-8")
        monkeypatch.delenv("FISTAB_ORACLE_CAP", raising=False)
        monkeypatch.setattr(multiplicity, "induced_raw_presentation", _no_build)
        assert main(["multiplicities", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: shape (3, 2, 1) needs a 3360x7392 matrix, 24837120 cells"
        )
        assert main(["amatrix", str(path), "--shape", "4,2,1,1"]) == 2
        assert capsys.readouterr().err == (
            "error: shape (4, 2, 1, 1) needs a 4050x14850 matrix, 60142500 "
            "cells, budget is 10000000 (raise FISTAB_ORACLE_CAP to override)\n"
        )

    def test_specht_cell_budget(self, capsys, monkeypatch):
        import fistab.cli as cli_module

        monkeypatch.delenv("FISTAB_ORACLE_CAP", raising=False)
        with monkeypatch.context() as m:
            m.setattr(cli_module, "specht_action", _no_build)
            perm = ",".join(map(str, range(1, 15)))
            assert main(["specht", "--shape", "5,4,3,2", "--perm", perm]) == 2
        assert capsys.readouterr().err == (
            "error: shape (5, 4, 3, 2) needs a 48048x48048 matrix, 2308610304 "
            "cells, budget is 10000000 (raise FISTAB_ORACLE_CAP to override)\n"
        )
        # f^lam is 35 for (4, 2, 1) and 70 for (4, 3, 1); the budget is 2000
        monkeypatch.setenv("FISTAB_ORACLE_CAP", "1")
        assert main(["specht", "--shape", "4,2,1", "--perm", "2,1,3,4,5,6,7"]) == 0
        assert main(["specht", "--shape", "4,3,1", "--perm", "2,1,3,4,5,6,7,8"]) == 2
        assert "shape (4, 3, 1) needs a 70x70 matrix, 4900 cells" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("text,argv,code,expected", [
        # a degree too large to count injections for, at a huge n
        ("generators: 1000000000\nrelations:\n",
         ["evaluate", "--n", str(10**18)], 2,
         "error: degree 1000000000000000000 needs more than 5000 ambient rows"),
        # generators of degree above n contribute nothing
        ("generators: 1000000000\nrelations:\n",
         ["evaluate", "--n", "5"], 0, "0\n"),
        # a degree-0 generator has one injection into any [n]
        ("generators: 0\nrelations: 0\nentry 1 1 : 2*[]\n",
         ["evaluate", "--n", str(10**18)], 0, "0\n"),
        # shapes that fit no degree give an empty matrix, whatever f^lam is
        (E_FILE, ["amatrix", "--shape", "1500"], 0,
         "0x0 matrix for shape [1500]\n"),
        (E_FILE, ["amatrix", "--shape", "10,10,10"], 0,
         "0x0 matrix for shape [10, 10, 10]\n"),
        # a shape of 1500 boxes in one row has one tableau (no input file)
        (None, ["specht", "--shape", "1500",
                "--perm", ",".join(map(str, range(1, 1501)))], 0, "[ 1 ]\n"),
        # a binomial too large to multiply out, C(10^9, 10^5) block rows
        ("generators: 1000000000\nrelations:\n",
         ["amatrix", "--shape", "100000"], 2,
         "error: shape (100000,) needs more than"),
    ])
    def test_huge_inputs_end_at_once(self, tmp_path, text, argv, code, expected):
        result = run_in_one_gib(tmp_path, text, argv)
        assert result.returncode == code, result.stderr
        assert (result.stderr if code else result.stdout).startswith(expected)

    def test_huge_degree_walk_ends_at_once(self, tmp_path):
        # 10**7 relation columns fit a cap of 10**6.  The row at (n,) is
        # fed, the equal row at (n - 1,) is dependent, and no monotone
        # past it is enumerated: two rows, not a list of 10**7 monotones.
        text = "generators: 0\nrelations: 1\nentry 1 1 : []\n"
        argv = ["evaluate", "--n", str(10**7)]
        result = run_in_one_gib(tmp_path, text, argv, cap=10**6)
        assert (result.returncode, result.stdout) == (0, "0\n"), result.stderr

    @pytest.mark.parametrize("raw", ["ten", "2.5", "0", "-1"])
    def test_bad_cap_exit_code(self, e_file, capsys, monkeypatch, raw):
        from fistab.oracle import evaluate_degree

        monkeypatch.setenv("FISTAB_ORACLE_CAP", raw)
        evaluate_degree.cache_clear()
        assert main(["evaluate", e_file, "--n", "4"]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: FISTAB_ORACLE_CAP must be a positive integer, got {raw!r}\n"
        )

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_verify_free_module_passes(self, tmp_path, capsys, k):
        path = tmp_path / "free.fipres"
        path.write_text(f"generators: {k}\nrelations:\n", encoding="utf-8")
        assert main(["verify", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == payload["onset"] == 2 * k
        assert payload["passed"]
        assert payload["invisible"] == []

    def test_verify_low_relation_presentations_pass(self, tmp_path, capsys):
        rng = random.Random(59)
        path = tmp_path / "low.fipres"
        for _ in range(10):
            z = random_low_relation_presentation(rng)
            path.write_text(serialize_presentation(z), encoding="utf-8")
            assert main(["verify", str(path)]) == 0
            assert capsys.readouterr().out.rstrip().endswith("PASS")
