import random
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import gcd

import pytest

from fistab import FormalSum, PresentationMatrix, induced_raw_presentation
from fistab.combinatorics import (
    all_injections,
    col_word,
    compose,
    identity,
    monotone_injections,
    monotone_part,
    row_word,
    sign,
    sorting_permutation,
    standard_tableaux,
)
from fistab.ratmat import RationalMatrix
from fistab.specht import specht_raw


def dense(rows, ncols=None) -> RationalMatrix:
    """The matrix of a list of dense rows, each ncols entries long; ncols
    defaults to the length of the first row, or 0 without rows."""
    rows = [list(row) for row in rows]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged rows")
    return RationalMatrix([enumerate(row) for row in rows], ncols)


def dense_rows(m: RationalMatrix) -> tuple:
    """Every row of m in full, zeros included, as a tuple of tuples."""
    return tuple(
        tuple(entries.get(j, 0) for j in range(m.ncols))
        for entries in map(dict, m.rows)
    )


def zeros(nrows: int, ncols: int) -> RationalMatrix:
    return RationalMatrix([()] * nrows, ncols)


def identity_matrix(n: int) -> RationalMatrix:
    return RationalMatrix([[(i, 1)] for i in range(n)], n)


def rational_inverse(m: RationalMatrix) -> RationalMatrix:
    """The inverse of a square matrix, by Fraction Gauss-Jordan on [m | I].

    Raises ValueError when m is not square or is singular.  The reference
    for the integer back-substitution of fistab.specht.specht_action.
    """
    n = m.nrows
    if m.ncols != n:
        raise ValueError(f"cannot invert a {n}x{m.ncols} matrix")
    rows = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(dense_rows(m))
    ]
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for i in range(n):
            if i != col and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[col])]
    return dense([row[n:] for row in rows], n)


@cache
def _unit_inverse(lam) -> RationalMatrix:
    return rational_inverse(specht_raw(lam, identity(sum(lam))))


def reference_action(lam, sigma) -> RationalMatrix:
    """specht_raw(lam, sigma) corrected by the inverse of the raw matrix
    of the identity, the inverse taken by rational_inverse."""
    return _unit_inverse(lam) * specht_raw(lam, sigma)


def symmetric_group(k: int):
    """All permutations of [k], in lexicographic order."""
    return list(permutations(range(1, k + 1)))


def box_sign(rows, cols) -> int:
    """Sign of the permutation sorting the box list ((rows_l, cols_l)) into
    lexicographic order, or 0 if any box repeats.

    Zipping equal-length sequences of row and column indices gives a list
    of boxes in the plane; distinct boxes admit a unique sorting
    permutation whose sign is returned.  The definition of the tableau
    pairing, and the reference for fistab.specht.specht_rows.
    """
    boxes = list(zip(rows, cols))
    if len(boxes) != len(set(boxes)):
        return 0
    order = {b: i + 1 for i, b in enumerate(sorted(boxes))}
    return sign(tuple(order[b] for b in boxes))


def box_sign_block(lam, sigma) -> list[list[int]]:
    """The tableau pairing of sigma for shape lam, one box sign per
    (t, u) pair: rows t, columns u, both in standard_tableaux order."""
    tabs = standard_tableaux(lam)
    rows_by_u = [compose(row_word(u), sigma) for u in tabs]
    return [
        [box_sign(rows, cols) for rows in rows_by_u]
        for cols in map(col_word, tabs)
    ]


def cycle_type(p):
    """Cycle type of a permutation, as a partition of len(p)."""
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = p[v] - 1
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


@cache
def beta_set_character(lam, mu):
    """Murnaghan-Nakayama by beta sets, recomputing the sorted beta set
    and the partition at every step.

    The reference for the characters of fistab.specht: it shares no code
    with their rim-hook table.
    """
    if not mu:
        return 1
    beta = [part + len(lam) - 1 - i for i, part in enumerate(lam)]
    total = 0
    for b in beta:
        c = b - mu[0]
        if c < 0 or c in beta:
            continue
        crossed = sum(1 for v in beta if c < v < b)
        moved = sorted((c if v == b else v for v in beta), reverse=True)
        smaller = tuple(
            v - (len(moved) - 1 - i) for i, v in enumerate(moved)
            if v - (len(moved) - 1 - i) > 0
        )
        total += (-1) ** crossed * beta_set_character(smaller, mu[1:])
    return total


def semistandard_count(lam, mu) -> int:
    """Semistandard tableaux of shape lam and content mu, counted box by
    box in row-major order: each box takes a value that is still left, at
    least the one to its left and above the one over it.

    The reference for the oracle's Kostka numbers: it removes no strips.
    """
    if sum(lam) != sum(mu):
        return 0
    boxes = [(i, j) for i, part in enumerate(lam) for j in range(part)]
    filling = {}
    left = list(mu)

    def fill(b):
        if b == len(boxes):
            return 1
        i, j = boxes[b]
        low = max(filling.get((i, j - 1), 0), filling.get((i - 1, j), -1) + 1)
        total = 0
        for value in range(low, len(mu)):
            if left[value]:
                left[value] -= 1
                filling[(i, j)] = value
                total += fill(b + 1)
                left[value] += 1
        filling.pop((i, j), None)
        return total

    return fill(0)


def fixed_tabloid_count(mu, sigma) -> int:
    """Tabloids of shape mu that the permutation sigma fixes, counted by
    choosing the point set of each row in turn from the points left and
    keeping only sets that sigma maps onto themselves.

    The reference for the oracle's count from cycle numbers.
    """
    def count(rows, points):
        if not rows:
            return 1
        return sum(
            count(rows[1:], points - set(chosen))
            for chosen in combinations(sorted(points), rows[0])
            if {sigma[v - 1] for v in chosen} == set(chosen)
        )

    return count(tuple(mu), set(range(1, len(sigma) + 1)))


def combine(*scaled) -> FormalSum:
    """The formal sum c_1 s_1 + c_2 s_2 + ... of (c, s) pairs, all of one
    source and target."""
    arities = {(s.source, s.target) for _, s in scaled}
    if len(arities) != 1:
        raise ValueError(f"cannot combine formal sums of arities {arities}")
    (source, target), = arities
    return FormalSum(source, target, [
        (f, Fraction(c) * v) for c, s in scaled for f, v in s.terms.items()
    ])


def induced_raw_sum(lam, s: FormalSum) -> RationalMatrix:
    """The transported matrix of one formal sum [x] -> [y] for shape lam."""
    return induced_raw_presentation(
        lam, PresentationMatrix((s.source,), (s.target,), {(0, 0): s})
    )


def induced_raw(lam, f, target: int) -> RationalMatrix:
    """The transported matrix of one injection f: [x] -> [target]."""
    f = tuple(f)
    return induced_raw_sum(lam, FormalSum(len(f), target, {f: 1}))


E_FILE = """\
# one generator of degree 3, one four-term cyclic relation of degree 4
generators: 3
relations: 4
entry 1 1 : [1 2 3] + [2 3 4] + [3 4 1] + [4 1 2]
"""


@pytest.fixture(scope="session")
def e_presentation() -> PresentationMatrix:
    """The running example: a degree-3 generator with a cyclic relation."""
    return PresentationMatrix(
        (3,), (4,),
        {(0, 0): FormalSum(3, 4, {
            (1, 2, 3): 1, (2, 3, 4): 1, (3, 4, 1): 1, (4, 1, 2): 1,
        })},
    )


def free_module(k: int) -> PresentationMatrix:
    """One generator of degree k, no relations."""
    return PresentationMatrix((k,), ())


def torsion_presentation() -> PresentationMatrix:
    """A degree-0 generator killed by the unique injection into [1]."""
    return PresentationMatrix(
        (0,), (1,), {(0, 0): FormalSum(0, 1, {(): 1})}
    )


def random_presentation(rng: random.Random) -> PresentationMatrix:
    """A small random presentation with generator degrees <= 3, relation
    degrees <= 4, and coefficients in -2..2.

    Relation degrees start at the largest generator degree so that every
    shape in the eventual table is visible at the onset degree.
    """
    num_gens = rng.randint(1, 2)
    num_rels = rng.randint(1, 2)
    gens = tuple(rng.randint(0, 3) for _ in range(num_gens))
    rels = tuple(rng.randint(max(gens), 4) for _ in range(num_rels))
    entries = {}
    for i in range(num_gens):
        for j in range(num_rels):
            if rng.random() < 0.25:
                continue
            pool = all_injections(gens[i], rels[j])
            if not pool:
                continue
            terms: dict[tuple[int, ...], int] = {}
            for _ in range(rng.randint(1, 3)):
                f = rng.choice(pool)
                terms[f] = terms.get(f, 0) + rng.choice([-2, -1, 1, 2])
            s = FormalSum(gens[i], rels[j], terms)
            if not s.is_zero:
                entries[(i, j)] = s
    return PresentationMatrix(gens, rels, entries)


def random_low_relation_presentation(rng: random.Random) -> PresentationMatrix:
    """A small random presentation whose relation degrees all lie below
    its largest generator degree g <= 3, with rational coefficients.

    One generator has degree g and up to two more have lower degrees;
    there are up to two relations, possibly none.  An entry can be
    nonzero only when its generator degree is at most its relation
    degree, so the degree-g generators stay free.
    """
    g = rng.randint(1, 3)
    gens = [g] + [rng.randint(0, g - 1) for _ in range(rng.randint(0, 2))]
    rng.shuffle(gens)
    low = min(gens) if min(gens) < g else 0
    rels = tuple(rng.randint(low, g - 1) for _ in range(rng.randint(0, 2)))
    coefficients = [Fraction(c) for c in ("-2", "-1", "-1/2", "1/2", "1", "3/2")]
    entries = {}
    for i, x in enumerate(gens):
        for j, y in enumerate(rels):
            if x > y or rng.random() < 0.25:
                continue
            pool = all_injections(x, y)
            s = FormalSum(x, y, [
                (rng.choice(pool), rng.choice(coefficients))
                for _ in range(rng.randint(1, 3))
            ])
            if not s.is_zero:
                entries[(i, j)] = s
    return PresentationMatrix(gens, rels, entries)


def reference_transport(lam, z: PresentationMatrix) -> RationalMatrix:
    """The transported presentation matrix for shape lam, built term by
    term in one dense list of rows.

    Every term adds its coefficient times the box sign of each (t, u)
    tableau pair straight into the output; nothing is cached.  It goes
    through neither specht_raw nor the block transport of
    fistab.presentation, and serves as their reference.
    """
    k = sum(lam)
    tabs = standard_tableaux(lam)
    dim = len(tabs)
    row_words = [row_word(t) for t in tabs]
    col_words = [col_word(t) for t in tabs]

    def offsets(degrees):
        starts, total = [], 0
        for degree in degrees:
            starts.append(total)
            total += len(monotone_injections(k, degree)) * dim
        return starts, total

    row_starts, nrows = offsets(z.generator_degrees)
    col_starts, ncols = offsets(z.relation_degrees)
    out = [[0] * ncols for _ in range(nrows)]
    for (i, j), s in z.entries.items():
        target_index = {
            q: a for a, q in enumerate(monotone_injections(k, s.target))
        }
        for f, coeff in sorted(s.terms.items()):
            for pi, p in enumerate(monotone_injections(k, s.source)):
                fp = compose(f, p)
                r0 = row_starts[i] + pi * dim
                c0 = col_starts[j] + target_index[monotone_part(fp)] * dim
                rows_by_u = [compose(w, sorting_permutation(fp)) for w in row_words]
                for ti in range(dim):
                    for uj in range(dim):
                        out[r0 + ti][c0 + uj] += coeff * box_sign(
                            rows_by_u[uj], col_words[ti]
                        )
    return dense(out, ncols)


class ReferenceEchelon:
    """The echelon as it ran before it reduced a row in one pass: one
    combination per pivot column in the row's support, each building a
    new dict and dividing out its content, and a new dict for every
    basis row an independent row clears.

    The reference for fistab.ratmat.Echelon, whose basis must equal this
    one, pivots and row dicts alike.
    """

    def __init__(self):
        self.rows: list[dict[int, int]] = []
        self.pivots: dict[int, int] = {}

    @staticmethod
    def _combine(row, other, col):
        """row * m1 - other * m2, scaled to cancel column col, content 1."""
        a, b = row[col], other[col]
        g = gcd(a, b)
        m1, m2 = b // g, a // g
        new = {k: v * m1 for k, v in row.items()}
        for k, v in other.items():
            w = new.get(k, 0) - v * m2
            if w:
                new[k] = w
            elif k in new:
                del new[k]
        c = gcd(*new.values())
        if c > 1:
            new = {k: v // c for k, v in new.items()}
        return new

    def add_row(self, row: dict[int, int]) -> bool:
        for col in [c for c in row if c in self.pivots]:
            row = self._combine(row, self.rows[self.pivots[col]], col)
        if not row:
            return False
        c = gcd(*row.values())
        lead = min(row)
        if row[lead] < 0:
            c = -c
        if c != 1:
            row = {k: v // c for k, v in row.items()}
        for idx, other in enumerate(self.rows):
            if lead in other:
                self.rows[idx] = self._combine(other, row, lead)
        self.pivots[lead] = len(self.rows)
        self.rows.append(row)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)
