import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fistab.combinatorics import (
    class_representative,
    class_size,
    compose,
    hook_length_count,
    identity,
    inverse,
    partitions,
    sign,
)
from fistab.specht import (
    mn_character,
    specht_action,
    specht_raw,
    specht_rows,
)

from conftest import (
    beta_set_character,
    box_sign_block,
    cycle_type,
    dense,
    identity_matrix,
    rational_inverse,
    reference_action,
    symmetric_group,
)


def character_of_action(lam, mu):
    """Trace of specht_action on the canonical representative of class mu.

    Must agree with mn_character; the two are computed along unrelated
    routes.
    """
    action = specht_action(lam, class_representative(mu))
    return sum(action[i, i] for i in range(action.nrows))


def assert_integral(matrix):
    assert all(type(v) is int for row in matrix.rows for _, v in row)


class TestRawMatrices:
    def test_single_box_shapes(self):
        assert specht_raw((1,), (1,)) == dense([[1]])
        # hand evaluation: boxes ((2,1),(1,1)) sort by one transposition
        assert specht_raw((1, 1), (2, 1)) == dense([[-1]])

    def test_pinned_five_by_five(self):
        # shape (2, 2, 1) at the identity, rows/columns in the canonical
        # tableau order (ascending reading word)
        assert specht_raw((2, 2, 1), identity(5)) == dense([
            [1, 0, 0, 0, 1],
            [0, -1, 0, 0, 0],
            [0, 0, -1, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, -1],
        ])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            specht_raw((2, 1), (1, 2))

    def test_unit_matrix_is_upper_triangular_with_sign_diagonal(self):
        # the theorem specht_action's back-substitution rests on: in the
        # canonical order, row t of the identity's pairing matrix starts
        # at column t, with value +-1
        for k in range(10):
            for lam in partitions(k):
                for t, row in enumerate(specht_rows(lam, identity(k))):
                    assert row[0][0] == t and row[0][1] in (1, -1)

    def test_unit_matrix_has_integer_inverse(self):
        # invertibility over the integers, shape by shape
        for k in range(7):
            for lam in partitions(k):
                inv = rational_inverse(specht_raw(lam, identity(k)))
                assert all(
                    isinstance(inv[i, j], int)
                    for i in range(inv.nrows)
                    for j in range(inv.ncols)
                )


def nonzero_pairs(matrix) -> list[list[tuple[int, int]]]:
    """The (column, value) pairs of each row's nonzero entries."""
    return [[(u, v) for u, v in enumerate(row) if v] for row in matrix]


class TestSparseRows:
    """specht_rows walks only the nonzero tableau pairs; box_sign_block
    sorts the boxes of every pair, zero or not."""

    def test_every_permutation_up_to_six(self):
        for k in range(7):
            for lam in partitions(k):
                for sigma in symmetric_group(k):
                    expected = box_sign_block(lam, sigma)
                    assert specht_raw(lam, sigma) == dense(expected)
                    assert specht_rows(lam, sigma) == nonzero_pairs(expected)

    @pytest.mark.parametrize("k", (7, 8))
    def test_seeded_permutations(self, k):
        rng = random.Random(100 + k)
        for lam in partitions(k):
            for _ in range(50):
                sigma = tuple(rng.sample(range(1, k + 1), k))
                expected = nonzero_pairs(box_sign_block(lam, sigma))
                assert specht_rows(lam, sigma) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 7).flatmap(lambda k: st.tuples(
        st.sampled_from(partitions(k)), st.permutations(range(1, k + 1)),
    )))
    def test_matches_box_signs(self, case):
        lam, sigma = case
        sigma = tuple(sigma)
        expected = nonzero_pairs(box_sign_block(lam, sigma))
        assert specht_rows(lam, sigma) == expected

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            specht_rows((2, 1), (2, 1))


class TestActionMatrices:
    def test_identity_acts_as_identity(self):
        for k in range(6):
            for lam in partitions(k):
                d = hook_length_count(lam)
                assert specht_action(lam, identity(k)) == identity_matrix(d)

    def test_refuses_a_non_permutation(self):
        # a repeated image would pair tableaux into a singular matrix
        for sigma in [(1, 1, 3), (0, 1, 2), (4, 1, 2)]:
            for build in (specht_action, specht_raw):
                with pytest.raises(ValueError, match="is not a permutation"):
                    build((2, 1), sigma)

    def test_sign_representation(self):
        assert specht_action((1, 1), (2, 1)) == dense([[-1]])
        for sigma in symmetric_group(4):
            assert specht_action((1, 1, 1, 1), sigma) == dense(
                [[sign(sigma)]]
            )

    def test_trivial_representation(self):
        for k in range(1, 5):
            for sigma in symmetric_group(k):
                assert specht_action((k,), sigma) == dense([[1]])

    def test_matches_unit_corrected_reference(self):
        for k in range(6):
            for lam in partitions(k):
                for sigma in symmetric_group(k):
                    assert_integral(specht_action(lam, sigma))
                    assert specht_action(lam, sigma) == reference_action(lam, sigma)

    @pytest.mark.parametrize("k", (6, 7, 8))
    def test_matches_unit_corrected_reference_seeded(self, k):
        rng = random.Random(200 + k)
        for lam in partitions(k):
            for _ in range(3):
                sigma = tuple(rng.sample(range(1, k + 1), k))
                assert_integral(specht_action(lam, sigma))
                assert specht_action(lam, sigma) == reference_action(lam, sigma)

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

    def test_rejects_a_non_partition(self):
        with pytest.raises(ValueError):
            mn_character((2, 1), (1, 2))
        with pytest.raises(ValueError):
            mn_character((3, 0), (2, 1))

    def test_long_classes(self):
        # one part of mu per step once took one recursion level per part
        assert mn_character((1000,), (1,) * 1000) == 1
        assert mn_character((1,) * 802, (2,) * 401) == -1

    def test_matches_beta_set_reference(self):
        for n in range(11):
            for lam in partitions(n):
                for mu in partitions(n):
                    assert mn_character(lam, mu) == beta_set_character(lam, mu)

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


def character_column(mu):
    """Every irreducible character on the class mu, in the order of
    partitions(|mu|)."""
    return tuple(mn_character(lam, mu) for lam in partitions(sum(mu)))


class TestColumns:
    def test_matches_pointwise_characters(self):
        for n in range(11):
            shapes = partitions(n)
            for mu in shapes:
                column = character_column(mu)
                assert len(column) == len(shapes)
                for lam, value in zip(shapes, column):
                    assert value == mn_character(lam, mu)
                    assert value == beta_set_character(lam, mu)

    def test_column_orthogonality(self):
        # sum over shapes of chi(mu) chi(nu) is the centralizer order of
        # mu when the classes agree, and 0 otherwise
        for n in range(10):
            classes = partitions(n)
            for mu in classes:
                for nu in classes:
                    total = sum(
                        a * b
                        for a, b in zip(character_column(mu), character_column(nu))
                    )
                    expected = factorial(n) // class_size(mu) if mu == nu else 0
                    assert total == expected

    def test_identity_class_gives_dimensions(self):
        for n in range(11):
            ones = tuple([1] * n)
            assert character_column(ones) == tuple(
                hook_length_count(lam) for lam in partitions(n)
            )

    def test_empty_class(self):
        assert mn_character((), ()) == 1
        assert character_column(()) == (1,)

    def test_rejects_a_non_partition(self):
        with pytest.raises(ValueError):
            mn_character((2, 1), (1, 2))
