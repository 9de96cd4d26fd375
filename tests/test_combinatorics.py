from itertools import permutations
from math import comb, factorial

import pytest

from fistab.combinatorics import (
    all_injections,
    check_partition,
    check_permutation,
    class_representative,
    class_size,
    col_word,
    compose,
    conjugate,
    falling_factorial,
    hook_length_count,
    horizontal_strip_extensions,
    horizontal_strip_removals,
    identity,
    inverse,
    monotone_injections,
    monotone_part,
    partitions,
    row_word,
    sign,
    sorting_permutation,
    standard_tableaux,
)
import fistab.combinatorics as combinatorics

from conftest import box_sign, cycle_type, symmetric_group


def is_strip(inner, outer) -> bool:
    """True iff outer / inner is a horizontal strip: outer has at most one
    more part than inner, and outer_1 >= inner_1 >= outer_2 >= ... >=
    inner_l >= outer_(l+1) interlace, l = len(inner)."""
    return len(inner) <= len(outer) <= len(inner) + 1 and all(
        a >= b >= c for a, b, c in zip(outer, inner, outer[1:] + (0,))
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
        # a bool is an int
        assert check_partition((True,)) == (1,)

    @pytest.mark.parametrize("lam", [(1.5,), (2.0, 1), (2, "1")])
    def test_a_part_that_is_not_an_int_is_refused(self, lam):
        with pytest.raises(ValueError, match="not an int"):
            check_partition(lam)

    def test_hook_length_count_refuses_a_part_that_is_not_an_int(self):
        with pytest.raises(ValueError, match="not an int"):
            hook_length_count((1.5,))

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

    def test_check_permutation(self):
        for k in range(5):
            for p in symmetric_group(k):
                assert check_permutation(list(p)) == p
        for p in [(0, 1, 2, 3), (1, 1, 3, 4), (5, 1, 2, 3), (2,), (1, 3), (2.0, 1.0)]:
            with pytest.raises(ValueError, match="is not a permutation of"):
                check_permutation(p)


def box_by_box_hook_count(lam) -> int:
    """factorial(|lam|) // prod(hooks), as hook_length_count was before it
    cancelled prime exponents: the hook lengths multiplied one box at a
    time into one growing product, then one long division."""
    conj = conjugate(lam)
    product = 1
    for i, row_len in enumerate(lam):
        for j in range(row_len):
            product *= (row_len - j) + (conj[j] - i) - 1
    return factorial(sum(lam)) // product


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

    def test_matches_brute_force_in_reading_order(self):
        # reading words in lexicographic order, split into the rows of
        # lam, kept when rows and columns increase
        for k in range(8):
            for lam in partitions(k):
                found = []
                for word in permutations(range(1, k + 1)):
                    ends = [sum(lam[:i]) for i in range(len(lam) + 1)]
                    t = tuple(word[a:b] for a, b in zip(ends, ends[1:]))
                    if all(list(row) == sorted(row) for row in t) and all(
                        a < b for upper, lower in zip(t, t[1:])
                        for a, b in zip(upper, lower)
                    ):
                        found.append(t)
                assert standard_tableaux(lam) == tuple(found)

    def test_long_row_and_column(self):
        # one frame per box used to overflow the stack at about 1000 boxes
        boxes = tuple(range(1, 1501))
        assert standard_tableaux((1500,)) == ((boxes,),)
        assert standard_tableaux((1,) * 1500) == (tuple((v,) for v in boxes),)

    def test_hook_count_matches_box_by_box_product(self):
        for k in range(15):
            for lam in partitions(k):
                assert hook_length_count(lam) == box_by_box_hook_count(lam)
        # large f^lam, where every prime up to |lam| is left over
        for lam in ((60,) * 60, tuple(range(70, 0, -1)), (500, 400, 3, 2, 1)):
            assert hook_length_count(lam) == box_by_box_hook_count(lam)
        # one tableau each; the box-by-box product would take seconds
        assert hook_length_count((100000,)) == 1
        assert hook_length_count((1,) * 100000) == 1

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
        assert (2,) in horizontal_strip_extensions((1,), 2)
        assert (1, 1) in horizontal_strip_extensions((1,), 2)
        assert (1, 1, 1) not in horizontal_strip_extensions((1,), 3)
        assert (3, 2) in horizontal_strip_extensions((2, 2), 5)

    def test_strip_requires_containment(self):
        assert (1, 1) not in horizontal_strip_extensions((2,), 2)

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
                        assert (outer in horizontal_strip_extensions(inner, m)) == by_def

    def test_walks_match_the_definition_in_order(self):
        # both strip relations, against a scan of every partition of the
        # size, kept in descending lexicographic order
        for k in range(9):
            for lam in partitions(k):
                for size in range(12):
                    assert horizontal_strip_extensions(lam, size) == [
                        mu for mu in partitions(size) if is_strip(lam, mu)
                    ]
                    assert horizontal_strip_removals(lam, size) == [
                        rho for rho in partitions(size) if is_strip(rho, lam)
                    ]

    def test_extensions_scan_no_partitions(self, monkeypatch):
        def no_scan(k):
            raise AssertionError("scanned the partitions of the size")

        monkeypatch.setattr(combinatorics, "partitions", no_scan)
        found = horizontal_strip_extensions((5, 3, 1), 60)
        assert len(found) == 18
        assert found == sorted(
            (
                tuple(p for p in (60 - b - c - d, b, c, d) if p)
                for b in (3, 4, 5) for c in (1, 2, 3) for d in (0, 1)
            ),
            reverse=True,
        )

    def test_binomial_count_of_monotone(self):
        for k in range(5):
            for n in range(8):
                assert len(monotone_injections(k, n)) == comb(n, k)
