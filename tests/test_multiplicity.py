import random
from fractions import Fraction

from fistab.combinatorics import hook_length_count, horizontal_strip_extensions
from fistab.multiplicity import (
    DimensionPolynomial,
    dimension_polynomial,
    eventual_invariants,
    eventual_multiplicities,
    onset_bound,
)
from fistab.oracle import dimension_at
from fistab.presentation import PresentationMatrix

from conftest import (
    free_module,
    random_low_relation_presentation,
    random_presentation,
    torsion_presentation,
)


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
        assert table.shapes() == [
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

    def test_invariants_match_empty_shape(self, e_presentation):
        rng = random.Random(101)
        candidates = [
            e_presentation, free_module(1), free_module(3),
            torsion_presentation(),
        ] + [random_presentation(rng) for _ in range(12)]
        for z in candidates:
            assert eventual_invariants(z) == eventual_multiplicities(z)[()]

    def test_invariants_examples(self, e_presentation):
        assert eventual_invariants(e_presentation) == 0
        assert eventual_invariants(free_module(1)) == 1

    def test_free_module_counts_match_strip_sums(self):
        # with no relations the corank is the full row count, which Pieri
        # rewrites as a sum over horizontal-strip extensions
        for k in range(4):
            table = eventual_multiplicities(free_module(k))
            for lam, count in table:
                expected = sum(
                    hook_length_count(mu)
                    for mu in horizontal_strip_extensions(lam, k)
                )
                assert count == expected


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
            assert poly.degree <= z.max_generator_degree

    def test_display_of_integer_polynomials(self):
        poly = DimensionPolynomial((Fraction(2), Fraction(0), Fraction(1)), 3)
        assert str(poly) == "n^2 + 2"
        poly = DimensionPolynomial((Fraction(-1), Fraction(1)), 0)
        assert str(poly) == "n - 1"
