import os
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fistab.cli import parse_presentation
from fistab.combinatorics import (
    all_injections,
    compose,
    hook_length_count,
    partitions,
)
from fistab.multiplicity import (
    DimensionPolynomial,
    MultiplicityTable,
    dimension_polynomial,
    eventual_multiplicities,
    onset_bound,
)
from fistab.oracle import dimension_at
from fistab.presentation import FormalSum, PresentationMatrix, augmentation_matrix

from conftest import (
    combine,
    free_module,
    random_low_relation_presentation,
    random_presentation,
    torsion_presentation,
)
from test_presentation import presentations

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402


E_TABLE = {
    (): 0,
    (1,): 2,
    (2,): 1,
    (1, 1): 2,
    (3,): 0,
    (2, 1): 0,
    (1, 1, 1): 0,
}


class TestMultiplicities:
    def test_running_example(self, e_presentation):
        table = eventual_multiplicities(e_presentation)
        assert table.counts == E_TABLE

    def test_table_order(self, e_presentation):
        table = eventual_multiplicities(e_presentation)
        assert [lam for lam, _ in table] == [
            (), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1),
        ]
        assert [count for _, count in table] == [0, 2, 1, 2, 0, 0, 0]

    def test_free_module(self):
        table = eventual_multiplicities(free_module(1))
        assert table.counts == {(): 1, (1,): 1}

    def test_torsion_module(self):
        table = eventual_multiplicities(torsion_presentation())
        assert table.counts == {(): 0}
        assert table[(1,)] == 0

    def test_vanishing_beyond_generator_degree(self, e_presentation):
        table = eventual_multiplicities(e_presentation)
        assert table[(4,)] == 0
        assert table[(2, 2)] == 0

    def test_lookup_takes_any_sequence_of_parts(self, e_presentation):
        table = eventual_multiplicities(e_presentation)
        assert table[[1, 1]] == table[(1, 1)] == 2

    def test_lookup_rejects_a_non_partition(self, e_presentation):
        table = eventual_multiplicities(e_presentation)
        with pytest.raises(ValueError, match="non-increasing"):
            table[(1, 2)]
        with pytest.raises(ValueError, match="non-positive"):
            table[(2, 1, 0)]

    def test_invariants_match_empty_shape(self, e_presentation):
        rng = random.Random(101)
        candidates = [
            e_presentation, free_module(1), free_module(3),
            torsion_presentation(),
        ] + [random_presentation(rng) for _ in range(12)]
        for z in candidates:
            assert augmentation_matrix(z).corank() == eventual_multiplicities(z)[()]

    def test_invariants_examples(self, e_presentation):
        assert augmentation_matrix(e_presentation).corank() == 0
        assert augmentation_matrix(free_module(1)).corank() == 1


class TestMetamorphic:
    # Changes of presentation that keep the module, or add modules, must
    # act on the table as they act on the module; no oracle is involved.
    @settings(max_examples=60, deadline=None)
    @given(presentations(), st.data())
    def test_reordering_generators_and_relations(self, z, data):
        gens = data.draw(st.permutations(range(z.num_generators)))
        rels = data.draw(st.permutations(range(len(z.relation_degrees))))
        new_gen = {old: new for new, old in enumerate(gens)}
        new_rel = {old: new for new, old in enumerate(rels)}
        reordered = PresentationMatrix(
            [z.generator_degrees[i] for i in gens],
            [z.relation_degrees[j] for j in rels],
            {(new_gen[i], new_rel[j]): s for (i, j), s in z.entries.items()},
        )
        assert eventual_multiplicities(reordered) == eventual_multiplicities(z)

    @settings(max_examples=60, deadline=None)
    @given(presentations(), st.data())
    def test_scaling_a_relation(self, z, data):
        # relation j's column by c and generator i's row by d, so that a
        # generator's denominators change as well as a relation's
        if not (z.num_generators and z.relation_degrees):
            return
        i = data.draw(st.integers(0, z.num_generators - 1))
        j = data.draw(st.integers(0, len(z.relation_degrees) - 1))
        c = data.draw(st.fractions().filter(bool))
        d = data.draw(st.fractions().filter(bool))
        scaled = PresentationMatrix(z.generator_degrees, z.relation_degrees, {
            (ii, jj): combine(((c if jj == j else 1) * (d if ii == i else 1), s))
            for (ii, jj), s in z.entries.items()
        })
        assert eventual_multiplicities(scaled) == eventual_multiplicities(z)

    @settings(max_examples=60, deadline=None)
    @given(presentations(), st.data())
    def test_appending_a_consequence(self, z, data):
        # column j composed with an injection h: [y] -> [y+1] already lies
        # in the relation submodule
        if not z.relation_degrees:
            return
        r = len(z.relation_degrees)
        j = data.draw(st.integers(0, r - 1))
        y = z.relation_degrees[j]
        h = data.draw(st.sampled_from(all_injections(y, y + 1)))
        entries = dict(z.entries)
        for (i, jj), s in z.entries.items():
            if jj == j:
                entries[(i, r)] = FormalSum(s.source, y + 1, {
                    compose(h, g): coeff for g, coeff in s.terms.items()
                })
        extended = PresentationMatrix(
            z.generator_degrees, z.relation_degrees + (y + 1,), entries
        )
        assert (
            eventual_multiplicities(extended).counts
            == eventual_multiplicities(z).counts
        )

    @settings(max_examples=60, deadline=None)
    @given(presentations(), presentations())
    def test_direct_sum_adds_tables(self, z1, z2):
        g, r = z1.num_generators, len(z1.relation_degrees)
        entries = dict(z1.entries)
        entries.update(
            ((i + g, j + r), s) for (i, j), s in z2.entries.items()
        )
        total = PresentationMatrix(
            z1.generator_degrees + z2.generator_degrees,
            z1.relation_degrees + z2.relation_degrees,
            entries,
        )
        t, t1, t2 = map(eventual_multiplicities, (total, z1, z2))
        for lam, count in t:
            assert count == t1[lam] + t2[lam]


class TestOnset:
    def test_examples(self, e_presentation):
        assert onset_bound(e_presentation) == 7
        assert onset_bound(free_module(1)) == 2
        assert onset_bound(free_module(3)) == 6
        assert onset_bound(PresentationMatrix((), ())) == 0


class TestDimensionPolynomial:
    def test_running_example(self, e_presentation):
        poly = dimension_polynomial(e_presentation)
        assert poly.coeffs == (Fraction(0), Fraction(-5, 2), Fraction(3, 2))
        assert poly.onset == 7
        assert str(poly) == "(3n^2 - 5n)/2"
        assert poly(8) == 76

    def test_threshold_is_sharp(self, e_presentation):
        poly = dimension_polynomial(e_presentation)
        assert poly(5) == 25 != 30 == dimension_at(e_presentation, 5)
        assert poly(6) == 39 != 44 == dimension_at(e_presentation, 6)
        for n in range(7, 11):
            assert poly(n) == dimension_at(e_presentation, n)

    def test_torsion_polynomial_is_zero(self):
        poly = dimension_polynomial(torsion_presentation())
        assert poly.coeffs == ()
        assert str(poly) == "0"
        assert poly(10) == 0

    def test_free_module_polynomial(self):
        poly = dimension_polynomial(free_module(1))
        assert str(poly) == "n"
        assert [poly(n) for n in range(5)] == [0, 1, 2, 3, 4]

    def test_integer_values_from_onset(self, e_presentation):
        rng = random.Random(202)
        candidates = [e_presentation, free_module(2)] + [
            random_presentation(rng) for _ in range(8)
        ]
        for z in candidates:
            poly = dimension_polynomial(z)
            for n in range(poly.onset, poly.onset + 5):
                assert isinstance(poly(n), int)

    def test_matches_oracle_from_onset(self):
        rng = random.Random(303)
        candidates = [free_module(1), free_module(2), torsion_presentation()] + [
            random_presentation(rng) for _ in range(8)
        ]
        low = random.Random(313)
        candidates += [free_module(3)] + [
            random_low_relation_presentation(low) for _ in range(8)
        ]
        for z in candidates:
            poly = dimension_polynomial(z)
            for n in range(poly.onset, poly.onset + 5):
                assert poly(n) == dimension_at(z, n)

    def test_degree_bound(self):
        rng = random.Random(404)
        for _ in range(10):
            z = random_presentation(rng)
            poly = dimension_polynomial(z)
            assert len(poly.coeffs) <= z.max_generator_degree + 1

    def test_display_of_integer_polynomials(self):
        poly = DimensionPolynomial((Fraction(2), Fraction(0), Fraction(1)), 3)
        assert str(poly) == "n^2 + 2"
        poly = DimensionPolynomial((Fraction(-1), Fraction(1)), 0)
        assert str(poly) == "n - 1"


def newton_coefficients(xs, ys) -> list[Fraction]:
    """Ascending coefficients of the polynomial of degree < len(xs)
    through the points (xs, ys): Newton's divided differences, expanded
    from the innermost factor out."""
    diffs = [Fraction(y) for y in ys]
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (xs[i] - xs[i - k])
    poly = diffs[-1:]
    for c, x in zip(diffs[-2::-1], xs[-2::-1]):  # poly * (n - x) + c
        poly = [c - x * poly[0]] + [a - x * b for a, b in zip(poly, poly[1:] + [0])]
    return poly


def sampled_polynomial(z: PresentationMatrix) -> list[Fraction]:
    """The reference: dim M[n] by the hook length formula at the g + 1
    degrees 2g + 1, ..., 3g + 1, where every (n - |lam|, lam) of the
    table is a partition, interpolated exactly; no trailing zeros."""
    table = eventual_multiplicities(z)
    degrees = range(2 * z.max_generator_degree + 1, 3 * z.max_generator_degree + 2)
    poly = newton_coefficients(degrees, [
        sum(m * hook_length_count((n - sum(lam),) + lam) for lam, m in table if m)
        for n in degrees
    ])
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


DATA_PRESENTATIONS = {
    name: parse_presentation(Path(DATA, name).read_text(encoding="utf-8"))
    for name in sorted(os.listdir(DATA)) if name.endswith(".fipres")
}


# E (cyclic-3), cyclic-5, M(3), the triangle, rational2 and alternating6
# are in DATA_PRESENTATIONS
NAMED = {
    **{f"cyclic-{x}": parse_presentation(workloads.cyclic(x)) for x in (4, 6, 7, 8)},
    **{f"M({k})": free_module(k) for k in (1, 2)},
}


def assert_matches_the_sampled_polynomial(z: PresentationMatrix) -> None:
    coeffs = dimension_polynomial(z).coeffs
    assert list(coeffs) == sampled_polynomial(z)
    assert all(type(c) is Fraction for c in coeffs)


@pytest.mark.parametrize("name", list(NAMED))
def test_polynomial_is_the_sampled_one(name):
    assert_matches_the_sampled_polynomial(NAMED[name])


def test_every_data_presentation_has_a_pinned_polynomial():
    # tests/test_pins.py diffs each NAME-dimension.json
    pinned = sorted(
        name[:-len("-dimension.json")] for name in os.listdir(DATA)
        if name.endswith("-dimension.json")
    )
    assert pinned == sorted(name[:-len(".fipres")] for name in DATA_PRESENTATIONS)


@pytest.mark.parametrize("name", list(DATA_PRESENTATIONS))
def test_polynomial_is_the_sampled_one_on_the_data(monkeypatch, name):
    # the cap admits cyclic-10, whose matrices of z are sized
    monkeypatch.setenv("FISTAB_ORACLE_CAP", "50000")
    assert_matches_the_sampled_polynomial(DATA_PRESENTATIONS[name])


@pytest.mark.parametrize(
    "draw", [random_presentation, random_low_relation_presentation]
)
def test_polynomial_is_the_sampled_one_on_the_random_corpora(draw):
    for seed in range(100):
        assert_matches_the_sampled_polynomial(draw(random.Random(seed)))


def test_first_row_hooks_cancel():
    # f^(n - k, lam) = (f^lam / k!) prod (n - i) over the k roots, checked
    # through a table whose one shape lam has multiplicity 1, from the
    # first n at which (n - k, lam) is a partition ((0,) is not one)
    for k in range(9):
        z = PresentationMatrix((k,), ())
        for lam in partitions(k):
            poly = dimension_polynomial(z, MultiplicityTable({lam: 1}, k, 0))
            assert len(poly.coeffs) == k + 1
            first = max(k + sum(lam[:1]), 1)
            for n in range(first, first + 13):
                assert poly(n) == hook_length_count((n - k,) + lam), (lam, n)
