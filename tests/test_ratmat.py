import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fistab.ratmat import RationalMatrix, SingularMatrixError


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
        m = RationalMatrix([[Fraction(4, 2), Fraction(1, 3)]])
        assert isinstance(m[0, 0], int) and m[0, 0] == 2
        assert m[0, 1] == Fraction(1, 3)

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2], [3]])

    def test_zero_dimensions(self):
        assert RationalMatrix([], ncols=5).nrows == 0
        assert RationalMatrix([(), (), ()], ncols=0).nrows == 3

    def test_immutable(self):
        m = RationalMatrix([[1]])
        with pytest.raises(AttributeError):
            m.rows = ((2,),)

    def test_equality_and_hash(self):
        a = RationalMatrix([[1, 2]])
        b = RationalMatrix([[Fraction(2, 2), 2]])
        assert a == b
        assert hash(a) == hash(b)
        assert a != RationalMatrix([[1], [2]])


class TestRing:
    def test_identity_is_neutral(self):
        m = RationalMatrix([[1, 2, 3], [4, 5, 6]])
        assert m * RationalMatrix.identity(3) == m
        assert RationalMatrix.identity(2) * m == m

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2]]) * RationalMatrix([[1, 2]])


class TestRank:
    def test_zero_rows(self):
        assert RationalMatrix([], ncols=7).rank() == 0

    def test_identity(self):
        for k in range(5):
            assert RationalMatrix.identity(k).rank() == k

    def test_pinned_rank_two(self):
        # the 3x6 summed transport matrix of the running example has rank 2
        m = RationalMatrix([
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
        m = RationalMatrix(rows, ncols=ncols)
        assert m.rank() == gauss_rank(rows, ncols)

    @settings(max_examples=200, deadline=None)
    @given(small_matrices)
    def test_rank_of_transpose(self, data):
        rows, ncols = data
        m = RationalMatrix(rows, ncols=ncols)
        transpose = RationalMatrix(
            [[row[j] for row in rows] for j in range(ncols)], ncols=len(rows)
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
            m = RationalMatrix(rows, ncols=nc)
            assert m.rank() == gauss_rank(rows, nc)


class TestInverse:
    def test_identity(self):
        eye = RationalMatrix.identity(4)
        assert eye.inverse() == eye

    def test_scalar(self):
        assert RationalMatrix([[2]]).inverse() == RationalMatrix([[Fraction(1, 2)]])

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            RationalMatrix([[1, 1], [1, 1]]).inverse()
        with pytest.raises(SingularMatrixError):
            RationalMatrix([[1, 2]]).inverse()

    def test_left_and_right_inverse(self):
        rng = random.Random(23)
        found = 0
        while found < 40:
            n = rng.randint(1, 5)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            m = RationalMatrix(rows)
            if m.rank() < n:
                continue
            found += 1
            assert m * m.inverse() == RationalMatrix.identity(n)
            assert m.inverse() * m == RationalMatrix.identity(n)

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
            m = RationalMatrix(rows)
            if gauss_rank(rows, n) < n:
                continue
            found += 1
            assert m * m.inverse() == RationalMatrix.identity(n)
            assert m.inverse() * m == RationalMatrix.identity(n)

    def test_empty(self):
        assert RationalMatrix([], ncols=0).inverse() == RationalMatrix([], ncols=0)

    def test_singular_rational(self):
        # the second row is 3/2 times the first
        m = RationalMatrix([
            [Fraction(1, 3), Fraction(2, 5), 1],
            [Fraction(1, 2), Fraction(3, 5), Fraction(3, 2)],
            [0, Fraction(1, 7), 2],
        ])
        with pytest.raises(SingularMatrixError):
            m.inverse()


def assemble(row_sizes, col_sizes, blocks) -> RationalMatrix:
    """Flatten a grid of blocks, given as lists of rows, into one matrix."""
    out = []
    for i, r in enumerate(row_sizes):
        for a in range(r):
            out.append([v for j in range(len(col_sizes)) for v in blocks[(i, j)][a]])
    return RationalMatrix(out, ncols=sum(col_sizes))


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
