import random
from fractions import Fraction
from math import factorial

import pytest

from fistab.combinatorics import (
    class_representative,
    class_size,
    compose,
    cycle_type,
    hook_length_count,
    identity,
    inverse,
    partitions,
    sign,
    symmetric_group,
)
from fistab.ratmat import RationalMatrix
from fistab.specht import mn_character, specht_action, specht_raw


def character_of_action(lam, mu):
    """Trace of specht_action on the canonical representative of class mu.

    Must agree with mn_character; the two are computed along unrelated
    routes.
    """
    action = specht_action(lam, class_representative(mu))
    return sum(action[i, i] for i in range(action.nrows))


class TestRawMatrices:
    def test_single_box_shapes(self):
        assert specht_raw((1,), (1,)) == RationalMatrix([[1]])
        # hand evaluation: boxes ((2,1),(1,1)) sort by one transposition
        assert specht_raw((1, 1), (2, 1)) == RationalMatrix([[-1]])

    def test_pinned_five_by_five(self):
        # shape (2, 2, 1) at the identity, rows/columns in the canonical
        # tableau order (ascending reading word)
        assert specht_raw((2, 2, 1), identity(5)) == RationalMatrix([
            [1, 0, 0, 0, 1],
            [0, -1, 0, 0, 0],
            [0, 0, -1, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, -1],
        ])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            specht_raw((2, 1), (1, 2))

    def test_unit_matrix_has_integer_inverse(self):
        # invertibility over the integers, shape by shape
        for k in range(7):
            for lam in partitions(k):
                inv = specht_raw(lam, identity(k)).inverse()
                assert all(
                    isinstance(inv[i, j], int)
                    for i in range(inv.nrows)
                    for j in range(inv.ncols)
                )


class TestActionMatrices:
    def test_identity_acts_as_identity(self):
        for k in range(6):
            for lam in partitions(k):
                d = hook_length_count(lam)
                assert specht_action(lam, identity(k)) == RationalMatrix.identity(d)

    def test_sign_representation(self):
        assert specht_action((1, 1), (2, 1)) == RationalMatrix([[-1]])
        for sigma in symmetric_group(4):
            assert specht_action((1, 1, 1, 1), sigma) == RationalMatrix(
                [[sign(sigma)]]
            )

    def test_trivial_representation(self):
        for k in range(1, 5):
            for sigma in symmetric_group(k):
                assert specht_action((k,), sigma) == RationalMatrix([[1]])

    def test_composition_law_exhaustive(self):
        # contravariant composition, all pairs for shapes of size <= 4
        for k in range(5):
            group = symmetric_group(k)
            for lam in partitions(k):
                for s in group:
                    for t in group:
                        assert (
                            specht_action(lam, s) * specht_action(lam, t)
                            == specht_action(lam, compose(t, s))
                        )

    def test_composition_law_randomized_degree_five(self):
        rng = random.Random(17)
        group = symmetric_group(5)
        for _ in range(60):
            s = rng.choice(group)
            t = rng.choice(group)
            lam = rng.choice(partitions(5))
            assert (
                specht_action(lam, s) * specht_action(lam, t)
                == specht_action(lam, compose(t, s))
            )

    def test_trace_is_class_function(self):
        rng = random.Random(29)
        for k in range(1, 6):
            group = symmetric_group(k)
            for _ in range(20):
                s = rng.choice(group)
                g = rng.choice(group)
                conj = compose(compose(g, s), inverse(g))
                assert cycle_type(conj) == cycle_type(s)
                for lam in partitions(k):
                    a = specht_action(lam, s)
                    b = specht_action(lam, conj)
                    assert sum(a[i, i] for i in range(a.nrows)) == sum(
                        b[i, i] for i in range(b.nrows)
                    )


class TestCharacters:
    def test_trivial_shape(self):
        for n in range(1, 8):
            for mu in partitions(n):
                assert mn_character((n,), mu) == 1

    def test_sign_shape(self):
        for n in range(1, 8):
            column = tuple([1] * n)
            for mu in partitions(n):
                # sign of any permutation of cycle type mu
                expected = (-1) ** (n - len(mu))
                assert mn_character(column, mu) == expected

    def test_dimension_at_identity_class(self):
        for n in range(1, 8):
            ones = tuple([1] * n)
            for lam in partitions(n):
                assert mn_character(lam, ones) == hook_length_count(lam)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            mn_character((2,), (1, 1, 1))

    def test_first_orthogonality(self):
        for n in range(1, 9):
            shapes = partitions(n)
            classes = partitions(n)
            weights = {mu: class_size(mu) for mu in classes}
            for a in shapes:
                for b in shapes:
                    total = sum(
                        weights[mu] * mn_character(a, mu) * mn_character(b, mu)
                        for mu in classes
                    )
                    assert Fraction(total, factorial(n)) == (1 if a == b else 0)

    def test_matches_matrix_traces(self):
        for n in range(6):
            for lam in partitions(n):
                for mu in partitions(n):
                    assert character_of_action(lam, mu) == mn_character(lam, mu)
