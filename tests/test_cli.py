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

from conftest import E_FILE, random_low_relation_presentation, random_presentation

SRC = str(Path(__file__).resolve().parents[1] / "src")


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
        assert z.entry(0, 0) == FormalSum(
            1, 2, {(1,): Fraction(1, 2), (2,): -1}
        )

    def test_leading_minus_and_merging(self):
        z = parse_presentation(
            "generators: 1\nrelations: 2\nentry 1 1 : -[1] + [1] + 2*[2]\n"
        )
        assert z.entry(0, 0) == FormalSum(1, 2, {(2,): 2})

    def test_empty_injection_term(self):
        z = parse_presentation(
            "generators: 0\nrelations: 1\nentry 1 1 : []\n"
        )
        assert z.entry(0, 0) == FormalSum(0, 1, {(): 1})

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


@pytest.fixture()
def e_file(tmp_path):
    path = tmp_path / "e.fipres"
    path.write_text(E_FILE, encoding="utf-8")
    return str(path)


class TestCommands:
    def test_multiplicities_output(self, e_file, capsys):
        assert main(["multiplicities", e_file]) == 0
        out = capsys.readouterr().out
        assert out == (
            "multiplicity [] = 0\n"
            "multiplicity [1] = 2\n"
            "multiplicity [2] = 1\n"
            "multiplicity [1, 1] = 2\n"
            "multiplicity [3] = 0\n"
            "multiplicity [2, 1] = 0\n"
            "multiplicity [1, 1, 1] = 0\n"
        )

    def test_multiplicities_empty_presentation(self, tmp_path, capsys):
        path = tmp_path / "zero.fipres"
        path.write_text("generators:\nrelations:\n", encoding="utf-8")
        assert main(["multiplicities", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == "multiplicity [] = 0\n"

    def test_multiplicities_json_is_byte_stable(self, e_file, capsys):
        assert main(["multiplicities", e_file, "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["multiplicities", e_file, "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["multiplicities"][1] == {"shape": [1], "multiplicity": 2}

    def test_dimension_output(self, e_file, capsys):
        assert main(["dimension", e_file]) == 0
        assert capsys.readouterr().out == "(3n^2 - 5n)/2 valid for n >= 7\n"

    def test_evaluate_output(self, e_file, capsys):
        assert main(["evaluate", e_file, "--n", "9"]) == 0
        assert capsys.readouterr().out == "99\n"

    def test_evaluate_json(self, e_file, capsys):
        assert main(["evaluate", e_file, "--n", "4", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"n": 4, "dimension": 18}

    def test_decompose_output(self, e_file, capsys):
        assert main(["decompose", e_file, "--n", "6"]) == 0
        assert capsys.readouterr().out == (
            "[5, 1]: 2\n[4, 2]: 1\n[4, 1, 1]: 2\n[3, 3]: 1\n"
        )

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

    def test_module_entry_point_runs_without_warnings(self):
        # importing the package must not import fistab.cli, or runpy warns
        env = dict(os.environ, PYTHONPATH=SRC)
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "fistab.cli", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("usage: fistab")

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
