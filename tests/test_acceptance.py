"""Acceptance suite: one test per release criterion, exact arithmetic only.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Expected total runtime is well under two minutes.
"""

import functools
import random
from fractions import Fraction
from math import factorial

import pytest

from fistab.cli import main
from fistab.combinatorics import (
    all_injections,
    class_size,
    compose,
    hook_length_count,
    horizontal_strip_extensions,
    identity,
    partitions,
    standard_tableaux,
)
from fistab.multiplicity import (
    dimension_polynomial,
    eventual_multiplicities,
    onset_bound,
)
from fistab.oracle import decompose_at, dimension_at, verify
from fistab.presentation import induced_block_action
from fistab.specht import specht_action, specht_raw

from conftest import (
    E_FILE,
    beta_set_character,
    dense,
    free_module,
    induced_raw,
    induced_raw_sum,
    random_presentation,
    symmetric_group,
)


def criterion(number: int, description: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {number}] FAIL  {description}")
                raise
            print(f"\n[criterion {number}] PASS  {description}")
        return run
    return wrap


@pytest.fixture()
def e_file(tmp_path):
    path = tmp_path / "e.fipres"
    path.write_text(E_FILE, encoding="utf-8")
    return str(path)


@criterion(1, "multiplicity table of the running example, exact")
def test_criterion_1_multiplicity_table(e_file, e_presentation, capsys):
    assert main(["multiplicities", e_file]) == 0
    assert capsys.readouterr().out == (
        "multiplicity [] = 0\n"
        "multiplicity [1] = 2\n"
        "multiplicity [2] = 1\n"
        "multiplicity [1, 1] = 2\n"
        "multiplicity [3] = 0\n"
        "multiplicity [2, 1] = 0\n"
        "multiplicity [1, 1, 1] = 0\n"
    )
    assert eventual_multiplicities(e_presentation).counts == {
        (): 0, (1,): 2, (2,): 1, (1, 1): 2, (3,): 0, (2, 1): 0, (1, 1, 1): 0,
    }


@criterion(2, "brute-force dimensions of the running example at degrees 0..10")
def test_criterion_2_dimensions(e_file, capsys):
    expected = [0, 0, 0, 6, 18, 30, 44, 56, 76, 99, 125]
    for n, value in enumerate(expected):
        assert main(["evaluate", e_file, "--n", str(n)]) == 0
        assert capsys.readouterr().out == f"{value}\n"


@criterion(3, "dimension polynomial (3n^2 - 5n)/2 with a sharp onset at 7")
def test_criterion_3_dimension_polynomial(e_file, e_presentation, capsys):
    assert main(["dimension", e_file]) == 0
    assert capsys.readouterr().out == "(3n^2 - 5n)/2 valid for n >= 7\n"
    poly = dimension_polynomial(e_presentation)
    assert poly(5) == 25 and dimension_at(e_presentation, 5) == 30
    assert poly(6) == 39 and dimension_at(e_presentation, 6) == 44
    for n in range(7, 11):
        assert poly(n) == dimension_at(e_presentation, n)


@criterion(4, "brute-force decompositions at degrees 3..8 match the table")
def test_criterion_4_decompositions(e_file, capsys):
    expected = {
        3: "[3]: 1\n[2, 1]: 2\n[1, 1, 1]: 1\n",
        4: "[3, 1]: 3\n[2, 2]: 1\n[2, 1, 1]: 2\n[1, 1, 1, 1]: 1\n",
        5: "[4, 1]: 2\n[3, 2]: 2\n[3, 1, 1]: 2\n",
        6: "[5, 1]: 2\n[4, 2]: 1\n[4, 1, 1]: 2\n[3, 3]: 1\n",
        7: "[6, 1]: 2\n[5, 2]: 1\n[5, 1, 1]: 2\n",
        8: "[7, 1]: 2\n[6, 2]: 1\n[6, 1, 1]: 2\n",
    }
    for n, out in expected.items():
        assert main(["decompose", e_file, "--n", str(n)]) == 0
        assert capsys.readouterr().out == out


@criterion(5, "closed form vs brute force on 20 random presentations")
def test_criterion_5_random_equivalence():
    rng = random.Random(20260810)
    for trial in range(20):
        z = random_presentation(rng)
        onset = onset_bound(z)
        for n in (onset, onset + 1):
            report = verify(z, n)
            assert not report.pre_stable
            assert report.passed, (trial, z, n, [
                (c.shape, c.predicted, c.observed)
                for c in report.checks if not c.ok
            ])


@criterion(6, "representation laws, exhaustively at small sizes")
def test_criterion_6_representation_laws():
    # irreducible action matrices compose contravariantly, all shapes of
    # size <= 4, all pairs of permutations
    for k in range(5):
        group = symmetric_group(k)
        for lam in partitions(k):
            for s in group:
                for t in group:
                    assert (
                        specht_action(lam, s) * specht_action(lam, t)
                        == specht_action(lam, compose(t, s))
                    )
    # the induced block functor respects composition, all injections
    # between sets of size <= 5 and all shapes of size <= 3
    for k in range(4):
        for lam in partitions(k):
            rep = lambda s, lam=lam: specht_action(lam, s)
            cache: dict = {}

            def v(f, target, rep=rep, k=k, cache=cache):
                key = (f, target)
                if key not in cache:
                    cache[key] = induced_block_action(rep, k, f, target)
                return cache[key]

            for x in range(6):
                for y in range(x, 6):
                    for z in range(y, 6):
                        for f in all_injections(x, y):
                            vf = v(f, y)
                            for g in all_injections(y, z):
                                assert vf * v(g, z) == v(compose(g, f), z)


@criterion(7, "pinned matrices reproduce the worked examples bit for bit")
def test_criterion_7_golden_matrices(e_presentation):
    # tableau pairing matrix of the identity for shape (2, 2, 1); rows and
    # columns in canonical (ascending reading word) order, which is the
    # order of the worked example
    assert specht_raw((2, 2, 1), identity(5)) == dense([
        [1, 0, 0, 0, 1],
        [0, -1, 0, 0, 0],
        [0, 0, -1, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, -1],
    ])
    # transport of the inclusion [3] -> [4] for the single-row shape
    assert induced_raw((2,), (1, 2, 3), 4) == dense([
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
    ])
    # the four-term cyclic sum
    assert induced_raw_sum((2,), e_presentation.entries[(0, 0)]) == dense([
        [1, 0, 1, 1, 0, 1],
        [0, 2, 0, 0, 2, 0],
        [1, 0, 1, 1, 0, 1],
    ])
    # hook shape (2, 1): canonical order puts the tableau (1 2 / 3) first,
    # the worked example lists (1 3 / 2) first, so its diag(-1, +1) block
    # appears here as diag(+1, -1)
    assert induced_raw((2, 1), (1, 2, 3), 4) == dense([
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, -1, 0, 0, 0, 0, 0, 0],
    ])


@criterion(8, "counting identities: tableau counts, hooks, orthogonality")
def test_criterion_8_counting_identities():
    for k in range(7):
        assert sum(
            len(standard_tableaux(lam)) ** 2 for lam in partitions(k)
        ) == factorial(k)
    for k in range(8):
        for lam in partitions(k):
            assert len(standard_tableaux(lam)) == hook_length_count(lam)
    for n in range(1, 9):
        shapes = partitions(n)
        weights = {mu: class_size(mu) for mu in shapes}
        for a in shapes:
            for b in shapes:
                inner = sum(
                    weights[mu] * beta_set_character(a, mu) * beta_set_character(b, mu)
                    for mu in shapes
                )
                assert Fraction(inner, factorial(n)) == (1 if a == b else 0)


@criterion(9, "free modules: closed form and brute force match the strip sums")
def test_criterion_9_free_modules():
    for k in range(4):
        z = free_module(k)
        table = eventual_multiplicities(z)
        for lam, count in table:
            assert count == sum(
                hook_length_count(mu)
                for mu in horizontal_strip_extensions(lam, k)
            )
        for n in range(k, 7):
            decomposition = decompose_at(z, n)
            for mu in partitions(n):
                expected = sum(
                    hook_length_count(lam)
                    for lam in partitions(k)
                    if mu in horizontal_strip_extensions(lam, n)
                )
                assert decomposition[mu] == expected
