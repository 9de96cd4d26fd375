import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fistab.combinatorics import partitions
from fistab.ratmat import Echelon, RationalMatrix
from fistab.specht import specht_raw, specht_rows

from conftest import (
    ReferenceEchelon,
    dense,
    dense_rows,
    identity_matrix,
    rational_inverse,
    symmetric_group,
)


def gauss_rank(rows, ncols) -> int:
    """Independent oracle: naive rational Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        lead = m[rank][col]
        m[rank] = [v / lead for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


small_matrices = st.integers(0, 6).flatmap(
    lambda nc: st.lists(
        st.lists(st.integers(-2, 2), min_size=nc, max_size=nc),
        min_size=0,
        max_size=6,
    ).map(lambda rows: (rows, nc))
)


class TestConstruction:
    def test_normalizes_integral_fractions(self):
        m = dense([[Fraction(4, 2), Fraction(1, 3)]])
        assert isinstance(m[0, 0], int) and m[0, 0] == 2
        assert m[0, 1] == Fraction(1, 3)

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            dense([[1, 2], [3]])

    def test_zero_dimensions(self):
        assert RationalMatrix([], ncols=5).nrows == 0
        assert RationalMatrix([(), (), ()], ncols=0).nrows == 3

    def test_immutable(self):
        m = dense([[1]])
        with pytest.raises(AttributeError):
            m.rows = ((2,),)

    def test_index_out_of_range(self):
        m = dense([[1, 2], [3, 4]])
        assert m[1, 0] == 3
        for key in ((2, 0), (-1, 0), (0, 2), (0, -1)):
            with pytest.raises(IndexError):
                m[key]

    def test_equality_and_hash(self):
        a = dense([[1, 2]])
        b = dense([[Fraction(2, 2), 2]])
        assert a == b
        assert hash(a) == hash(b)
        assert a != dense([[1], [2]])


mixed_entries = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
)


def dense_lists(nrows, ncols):
    """nrows dense rows of ncols entries: zeros, ints, integral Fractions
    and non-integral Fractions."""
    return st.lists(
        st.lists(mixed_entries, min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows,
    )


def assert_row_format(m):
    """Each row holds its nonzero entries once, by increasing column, as
    ints or non-integral Fractions."""
    for row in m.rows:
        columns = [j for j, _ in row]
        assert columns == sorted(set(columns))
        assert all(0 <= j < m.ncols for j in columns)
        for _, v in row:
            assert v != 0
            assert type(v) is int or (type(v) is Fraction and v.denominator > 1)


class TestRowFormat:
    @settings(max_examples=200, deadline=None)
    @given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
           .flatmap(lambda d: st.tuples(
               dense_lists(d[0], d[1]), dense_lists(d[1], d[2]), st.just(d))))
    def test_rows_and_products(self, data):
        a, b, (_, n, c) = data
        ma, mb = dense(a, n), dense(b, c)
        for m, rows in ((ma, a), (mb, b)):
            assert_row_format(m)
            assert dense_rows(m) == tuple(map(tuple, rows))
        product = ma * mb
        assert_row_format(product)
        assert dense_rows(product) == tuple(
            tuple(sum(row[l] * b[l][j] for l in range(n)) for j in range(c))
            for row in a
        )

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda n: dense_lists(n, n)))
    def test_inverses(self, rows):
        m = dense(rows)
        if gauss_rank(rows, m.ncols) < m.nrows:
            return
        assert_row_format(rational_inverse(m))

    def test_takes_dicts_and_pairs(self):
        m = RationalMatrix([{2: Fraction(3, 3), 0: 0}, [(1, Fraction(1, 2))]], 3)
        assert m.rows == (((2, 1),), ((1, Fraction(1, 2)),))
        assert_row_format(m)

    def test_rejects_a_column_listed_twice(self):
        # as a dict the row would be [[2]]: the last value would win
        with pytest.raises(ValueError, match="row 0 lists column 0 twice"):
            RationalMatrix([[(0, 1), (0, 2)]], 1)
        with pytest.raises(ValueError, match="row 1 lists column 2 twice"):
            RationalMatrix([{0: 1}, [(2, 1), (1, 1), (2, 0)]], 3)

    def test_rejects_a_column_out_of_range(self):
        with pytest.raises(ValueError):
            RationalMatrix([{3: 1}], 3)
        with pytest.raises(ValueError):
            RationalMatrix([{-1: 1}], 3)

    def test_specht_raw_rows_are_specht_rows(self):
        for k in range(6):
            for lam in partitions(k):
                for sigma in symmetric_group(k):
                    rows = specht_rows(lam, sigma)
                    assert specht_raw(lam, sigma).rows == tuple(map(tuple, rows))


class TestRing:
    def test_identity_is_neutral(self):
        m = dense([[1, 2, 3], [4, 5, 6]])
        assert m * identity_matrix(3) == m
        assert identity_matrix(2) * m == m

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dense([[1, 2]]) * dense([[1, 2]])


class TestRank:
    def test_zero_rows(self):
        assert RationalMatrix([], ncols=7).rank() == 0

    def test_identity(self):
        for k in range(5):
            assert identity_matrix(k).rank() == k

    def test_pinned_rank_two(self):
        # the 3x6 summed transport matrix of the running example has rank 2
        m = dense([
            [1, 0, 1, 1, 0, 1],
            [0, 2, 0, 0, 2, 0],
            [1, 0, 1, 1, 0, 1],
        ])
        assert m.rank() == 2
        assert m.corank() == 1

    def test_corank_degenerate(self):
        assert RationalMatrix([(), (), ()], ncols=0).corank() == 3
        assert RationalMatrix([], ncols=5).corank() == 0

    @settings(max_examples=300, deadline=None)
    @given(small_matrices)
    def test_matches_gaussian_oracle(self, data):
        rows, ncols = data
        m = dense(rows, ncols)
        assert m.rank() == gauss_rank(rows, ncols)

    @settings(max_examples=200, deadline=None)
    @given(small_matrices)
    def test_rank_of_transpose(self, data):
        rows, ncols = data
        m = dense(rows, ncols)
        transpose = dense(
            [[row[j] for row in rows] for j in range(ncols)], len(rows)
        )
        assert m.rank() == transpose.rank()

    def test_rational_entries(self):
        rng = random.Random(11)
        for _ in range(200):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            rows = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc)]
                for _ in range(nr)
            ]
            m = dense(rows, nc)
            assert m.rank() == gauss_rank(rows, nc)


def pivot_rows(reference) -> dict[int, dict[int, int]]:
    """A ReferenceEchelon's basis as Echelon keeps it: each basis row
    keyed by its pivot column, in the order the rows were kept."""
    return {col: reference.rows[idx] for col, idx in reference.pivots.items()}


def sparse(row) -> dict[int, int]:
    return {j: v for j, v in enumerate(row) if v}


class TestEchelon:
    @settings(max_examples=300, deadline=None)
    @given(small_matrices)
    def test_basis_stays_reduced(self, data):
        # after every insert each basis row starts at its own positive
        # pivot, is zero at every other pivot and has content 1, the rank
        # is that of the rows added so far, and the column index holds
        # the true supports
        rows, ncols = data
        echelon = Echelon()
        for count, row in enumerate(rows, start=1):
            before = echelon.rank
            added = echelon.add_row(sparse(row))
            assert added == (echelon.rank == before + 1)
            assert echelon.rank == gauss_rank(rows[:count], ncols)
            for col, basis_row in echelon.pivots.items():
                assert min(basis_row) == col and basis_row[col] > 0
                assert gcd(*basis_row.values()) == 1
                assert not (set(echelon.pivots) - {col}) & set(basis_row)
            # the column index: each column off the pivots with exactly
            # the pivot columns of the rows nonzero there
            supports = {}
            for col, basis_row in echelon.pivots.items():
                for k in set(basis_row) - set(echelon.pivots):
                    supports.setdefault(k, set()).add(col)
            assert echelon.holders == supports

    @settings(max_examples=200, deadline=None)
    @given(small_matrices, st.randoms(use_true_random=False))
    def test_basis_does_not_depend_on_row_order(self, data, rng):
        rows, _ = data
        shuffled = list(rows)
        rng.shuffle(shuffled)
        bases = []
        for order in (rows, shuffled):
            echelon = Echelon()
            for row in order:
                echelon.add_row(sparse(row))
            bases.append(echelon.pivots)
        assert bases[0] == bases[1]


@st.composite
def sparse_row_lists(draw):
    """Sparse integer rows, some of them empty and some integer
    combinations of earlier rows, so that dependent rows and pivot values
    other than 1 both occur."""
    ncols = draw(st.integers(1, 8))
    values = st.integers(-12, 12).filter(bool)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        if rows and draw(st.booleans()):
            row = {}
            for earlier in draw(st.lists(st.sampled_from(rows), max_size=3)):
                m = draw(values)
                for k, v in earlier.items():
                    row[k] = row.get(k, 0) + m * v
            row = {k: v for k, v in row.items() if v}
        else:
            row = draw(st.dictionaries(st.integers(0, ncols - 1), values))
        rows.append(row)
    return rows


def feed_both(rows):
    """Feed the rows to Echelon and ReferenceEchelon, asserting after each
    insert that both give the same answer and the same basis."""
    echelon, reference = Echelon(), ReferenceEchelon()
    for row in rows:
        assert echelon.add_row(row) == reference.add_row(row)
        assert list(echelon.pivots.items()) == list(pivot_rows(reference).items())
    return echelon


class TestEchelonMatchesReference:
    def test_pinned_rows(self):
        # a negative leading entry, an empty row and two dependent rows;
        # the basis is (4, 0, -1), (0, 2, 1), with pivot values 4 and 2
        echelon = feed_both([
            {0: -2, 1: -1}, {1: 2, 2: 1}, {}, {0: 6, 1: 5, 2: 1}, {0: -4, 2: 1},
        ])
        assert list(echelon.pivots.items()) == [(0, {0: 4, 2: -1}), (1, {1: 2, 2: 1})]

    @settings(max_examples=400, deadline=None)
    @given(sparse_row_lists())
    def test_same_basis_as_combination_per_pivot(self, rows):
        feed_both(rows)

    @settings(max_examples=200, deadline=None)
    @given(sparse_row_lists())
    def test_never_changes_a_given_row(self, rows):
        copies = [dict(row) for row in rows]
        echelon = Echelon()
        for row in rows:
            echelon.add_row(row)
        assert rows == copies


class TestInverse:
    """rational_inverse, the reference inverse of tests/conftest.py."""

    def test_identity(self):
        eye = identity_matrix(4)
        assert rational_inverse(eye) == eye

    def test_scalar(self):
        assert rational_inverse(dense([[2]])) == dense([[Fraction(1, 2)]])

    def test_singular(self):
        with pytest.raises(ValueError, match="singular"):
            rational_inverse(dense([[1, 1], [1, 1]]))
        with pytest.raises(ValueError, match="cannot invert"):
            rational_inverse(dense([[1, 2]]))

    def test_left_and_right_inverse(self):
        rng = random.Random(23)
        found = 0
        while found < 40:
            n = rng.randint(1, 5)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            m = dense(rows)
            if m.rank() < n:
                continue
            found += 1
            assert m * rational_inverse(m) == identity_matrix(n)
            assert rational_inverse(m) * m == identity_matrix(n)

    def test_rational_left_and_right_inverse(self):
        rng = random.Random(29)
        found = 0
        while found < 40:
            n = rng.randint(1, 5)
            rows = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(n)
            ]
            if all(v.denominator == 1 for row in rows for v in row):
                continue
            m = dense(rows)
            if gauss_rank(rows, n) < n:
                continue
            found += 1
            assert m * rational_inverse(m) == identity_matrix(n)
            assert rational_inverse(m) * m == identity_matrix(n)

    def test_empty(self):
        assert rational_inverse(RationalMatrix([], ncols=0)) == RationalMatrix([], ncols=0)

    def test_singular_rational(self):
        # the second row is 3/2 times the first
        m = dense([
            [Fraction(1, 3), Fraction(2, 5), 1],
            [Fraction(1, 2), Fraction(3, 5), Fraction(3, 2)],
            [0, Fraction(1, 7), 2],
        ])
        with pytest.raises(ValueError, match="singular"):
            rational_inverse(m)


def assemble(row_sizes, col_sizes, blocks) -> RationalMatrix:
    """Flatten a grid of blocks, given as lists of rows, into one matrix."""
    out = []
    for i, r in enumerate(row_sizes):
        for a in range(r):
            out.append([v for j in range(len(col_sizes)) for v in blocks[(i, j)][a]])
    return dense(out, sum(col_sizes))


class TestBlocks:
    def test_corank_invariant_under_block_permutation(self):
        rng = random.Random(5)
        for _ in range(30):
            row_sizes = tuple(rng.randint(0, 3) for _ in range(3))
            col_sizes = tuple(rng.randint(0, 3) for _ in range(2))
            blocks = {
                (i, j): [
                    [rng.randint(-2, 2) for _ in range(col_sizes[j])]
                    for _ in range(row_sizes[i])
                ]
                for i in range(3)
                for j in range(2)
            }
            base = assemble(row_sizes, col_sizes, blocks)
            rperm = list(range(3))
            cperm = list(range(2))
            rng.shuffle(rperm)
            rng.shuffle(cperm)
            shuffled = assemble(
                tuple(row_sizes[i] for i in rperm),
                tuple(col_sizes[j] for j in cperm),
                {
                    (a, b): blocks[(i, j)]
                    for a, i in enumerate(rperm)
                    for b, j in enumerate(cperm)
                },
            )
            assert shuffled.corank() == base.corank()
