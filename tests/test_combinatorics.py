from itertools import permutations
from math import comb, factorial

import pytest

from fistab.combinatorics import (
    all_injections,
    box_sign,
    check_partition,
    class_representative,
    class_size,
    col_word,
    compose,
    conjugate,
    cycle_type,
    falling_factorial,
    hook_length_count,
    identity,
    inverse,
    is_horizontal_strip_extension,
    monotone_injections,
    monotone_part,
    partitions,
    row_word,
    sign,
    sorting_permutation,
    standard_tableaux,
    symmetric_group,
)


def brute_force_partitions(k: int) -> set[tuple[int, ...]]:
    """All non-increasing positive tuples summing to k, by raw search."""
    if k == 0:
        return {()}
    out = set()
    for first in range(1, k + 1):
        for rest in brute_force_partitions(k - first):
            if not rest or rest[0] <= first:
                out.add((first,) + rest)
    return out


def boxes_of(tableau):
    """Map each entry to its (row, col) box, 1-indexed."""
    out = {}
    for i, row in enumerate(tableau):
        for j, v in enumerate(row):
            out[v] = (i + 1, j + 1)
    return out


class TestPartitions:
    def test_empty(self):
        assert partitions(0) == ((),)

    def test_three(self):
        assert partitions(3) == ((3,), (2, 1), (1, 1, 1))

    @pytest.mark.parametrize("k", range(8))
    def test_matches_brute_force(self, k):
        assert set(partitions(k)) == brute_force_partitions(k)
        assert len(partitions(4)) == 5

    def test_descending_lex_order(self):
        for k in range(8):
            listed = list(partitions(k))
            assert listed == sorted(listed, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            check_partition((1, 2))
        with pytest.raises(ValueError):
            check_partition((2, 0))
        assert check_partition([3, 1]) == (3, 1)

    def test_conjugate(self):
        assert conjugate((3, 1)) == (2, 1, 1)
        assert conjugate(()) == ()
        for k in range(7):
            for lam in partitions(k):
                assert conjugate(conjugate(lam)) == lam


class TestInjections:
    def test_monotone_examples(self):
        assert monotone_injections(2, 3) == [(1, 2), (1, 3), (2, 3)]
        assert len(monotone_injections(2, 4)) == 6
        assert monotone_injections(0, 5) == [()]
        assert monotone_injections(3, 2) == []

    def test_all_injections_count(self):
        assert len(all_injections(3, 4)) == 24
        assert all_injections(1, 1) == [(1,)]
        assert all_injections(2, 1) == []
        for k in range(5):
            for n in range(6):
                assert len(all_injections(k, n)) == falling_factorial(n, k)

    def test_sorting_permutation_examples(self):
        assert sorting_permutation((1, 2, 3)) == (1, 2, 3)
        # hand evaluation: sorted((4, 1, 2)) = (1, 2, 4), ranks 3, 1, 2
        assert sorting_permutation((4, 1, 2)) == (3, 1, 2)
        assert sorting_permutation((2, 1)) == (2, 1)

    def test_monotone_part_examples(self):
        assert monotone_part((1, 2, 3)) == (1, 2, 3)
        assert monotone_part((4, 1, 2)) == (1, 2, 4)
        assert monotone_part((3, 4, 1)) == (1, 3, 4)

    def test_sorting_laws_exhaustive(self):
        # p composed with the inverse sorting permutation is monotone, and
        # p factors as its monotone part after the sorting permutation
        for k in range(6):
            for n in range(8):
                for p in all_injections(k, n):
                    xi = sorting_permutation(p)
                    sorted_p = compose(p, inverse(xi))
                    assert list(sorted_p) == sorted(p)
                    assert compose(monotone_part(p), xi) == p
                    assert (xi == identity(k)) == (sorted_p == p)

    def test_sorting_absorbs_permutations(self):
        # precomposing an injection with a permutation lands inside the
        # sorting permutation
        for x in range(5):
            perms = symmetric_group(x)
            for y in range(x, 7):
                for f in all_injections(x, y):
                    xi_f = sorting_permutation(f)
                    for s in perms:
                        assert compose(xi_f, s) == sorting_permutation(compose(f, s))


class TestPermutations:
    def test_sign_multiplicative(self):
        for k in range(5):
            for p in symmetric_group(k):
                for q in symmetric_group(k):
                    assert sign(compose(p, q)) == sign(p) * sign(q)

    def test_sign_of_transposition(self):
        assert sign((2, 1)) == -1
        assert sign((1, 2, 3)) == 1

    def test_class_representative(self):
        assert class_representative((3, 2)) == (2, 3, 1, 5, 4)
        for k in range(1, 7):
            for mu in partitions(k):
                assert cycle_type(class_representative(mu)) == mu

    def test_class_sizes_sum_to_group_order(self):
        for k in range(1, 8):
            assert sum(class_size(mu) for mu in partitions(k)) == factorial(k)


class TestStandardTableaux:
    def test_single_row(self):
        assert standard_tableaux((2,)) == (((1, 2),),)

    def test_two_one(self):
        # canonical order: ascending row-reading word
        assert standard_tableaux((2, 1)) == (
            ((1, 2), (3,)),
            ((1, 3), (2,)),
        )

    def test_two_two_one(self):
        assert standard_tableaux((2, 2, 1)) == (
            ((1, 2), (3, 4), (5,)),
            ((1, 2), (3, 5), (4,)),
            ((1, 3), (2, 4), (5,)),
            ((1, 3), (2, 5), (4,)),
            ((1, 4), (2, 5), (3,)),
        )

    def test_counts_match_hook_lengths(self):
        for k in range(8):
            for lam in partitions(k):
                assert len(standard_tableaux(lam)) == hook_length_count(lam)

    def test_squared_counts_sum_to_factorial(self):
        for k in range(7):
            total = sum(
                len(standard_tableaux(lam)) ** 2 for lam in partitions(k)
            )
            assert total == factorial(k)

    def test_rows_and_columns_increase(self):
        for k in range(7):
            for lam in partitions(k):
                for t in standard_tableaux(lam):
                    assert tuple(len(row) for row in t) == lam
                    for row in t:
                        assert list(row) == sorted(row)
                    for upper, lower in zip(t, t[1:]):
                        assert all(a < b for a, b in zip(upper, lower))


class TestWords:
    def test_row_col_word_examples(self):
        assert row_word(((1, 2),)) == (1, 1)
        assert col_word(((1, 2),)) == (1, 2)
        assert row_word(((1, 3), (2,))) == (1, 2, 1)
        assert col_word(((1, 3), (2,))) == (1, 1, 2)
        assert row_word(((1, 2), (3, 4), (5,))) == (1, 1, 2, 2, 3)

    def test_words_read_box_coordinates(self):
        for k in range(7):
            for lam in partitions(k):
                for t in standard_tableaux(lam):
                    boxes = boxes_of(t)
                    assert row_word(t) == tuple(boxes[v][0] for v in range(1, k + 1))
                    assert col_word(t) == tuple(boxes[v][1] for v in range(1, k + 1))


class TestBoxSign:
    def test_examples(self):
        assert box_sign((1, 1), (1, 2)) == 1
        # single transposition sorts ((2,1),(1,1)) to ((1,1),(2,1))
        assert box_sign((2, 1), (1, 1)) == -1
        assert box_sign((1, 1), (1, 1)) == 0

    def test_zero_iff_collision(self):
        for a in permutations((1, 1, 2), 3):
            for b in permutations((1, 2, 2), 3):
                boxes = list(zip(a, b))
                expected_zero = len(set(boxes)) < len(boxes)
                assert (box_sign(a, b) == 0) == expected_zero

    def test_alternating_under_joint_swaps(self):
        rows, cols = (1, 2, 3, 1), (2, 1, 3, 4)
        base = box_sign(rows, cols)
        assert base != 0
        for i in range(4):
            for j in range(i + 1, 4):
                a = list(rows)
                b = list(cols)
                a[i], a[j] = a[j], a[i]
                b[i], b[j] = b[j], b[i]
                assert box_sign(a, b) == -base

    def test_lexicographic_filling_is_positive(self):
        # the lexicographic filling (1..|lam| row by row) is the first
        # standard tableau in canonical order
        for k in range(7):
            for lam in partitions(k):
                t = standard_tableaux(lam)[0]
                assert [v for row in t for v in row] == list(range(1, k + 1))
                assert box_sign(row_word(t), col_word(t)) == 1


class TestShapes:
    def test_horizontal_strip_examples(self):
        assert is_horizontal_strip_extension((1,), (2,))
        assert is_horizontal_strip_extension((1,), (1, 1))
        assert not is_horizontal_strip_extension((1,), (1, 1, 1))
        assert is_horizontal_strip_extension((2, 2), (3, 2))

    def test_strip_requires_containment(self):
        assert not is_horizontal_strip_extension((2,), (1, 1))

    def test_strip_definition(self):
        # against the raw definition: containment plus <= 1 new box per column
        for k in range(5):
            for inner in partitions(k):
                for m in range(k, 7):
                    for outer in partitions(m):
                        width = max(sum(inner), sum(outer), 1)
                        inner_cols = [
                            sum(1 for p in inner if p > j) for j in range(width)
                        ]
                        outer_cols = [
                            sum(1 for p in outer if p > j) for j in range(width)
                        ]
                        contained = all(
                            i <= o for i, o in zip(inner_cols, outer_cols)
                        )
                        by_def = contained and all(
                            o - i <= 1 for i, o in zip(inner_cols, outer_cols)
                        )
                        assert is_horizontal_strip_extension(inner, outer) == by_def

    def test_binomial_count_of_monotone(self):
        for k in range(5):
            for n in range(8):
                assert len(monotone_injections(k, n)) == comb(n, k)
