import os
import random
import sys
from bisect import bisect_right
from fractions import Fraction
from functools import cache
from math import factorial, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fistab.combinatorics import (
    all_injections,
    class_representative,
    class_size,
    compose,
    falling_factorial,
    hook_length_count,
    inverse,
    partitions,
)
from fistab.budget import check_classes
from fistab.cli import parse_presentation
from fistab.oracle import (
    DegreeEvaluation,
    ResourceCapError,
    decompose_at,
    dimension_at,
    evaluate_degree,
    verify,
    _fixed_tabloids,
    _kostka,
    _precomposer,
)
from fistab.multiplicity import onset_bound
from fistab.presentation import FormalSum, PresentationMatrix
from fistab.ratmat import Echelon, RationalMatrix
import fistab.oracle as oracle
import fistab.specht as specht

from conftest import (
    E_FILE,
    ReferenceEchelon,
    beta_set_character,
    cycle_type,
    dense,
    dense_rows,
    fixed_tabloid_count,
    free_module,
    random_low_relation_presentation,
    random_presentation,
    semistandard_count,
    symmetric_group,
    torsion_presentation,
)
from test_multiplicity import DATA_PRESENTATIONS
from test_ratmat import gauss_rank, pivot_rows

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402


def relation_matrix_at(z: PresentationMatrix, n: int) -> RationalMatrix:
    """The relation map at degree n as a dense matrix.

    Rows are (generator, injection into [n]) pairs, columns are
    (relation, injection) pairs, both blocks in declaration order with
    injections enumerated lexicographically.  Column (j, h) carries, for
    each term g with coefficient a in entry (i, j), the value a at row
    (i, h o g).  The reference the oracle's sparse relation rows are
    checked against.
    """
    row_blocks = [all_injections(x, n) for x in z.generator_degrees]
    offsets = []
    total = 0
    for block in row_blocks:
        offsets.append(total)
        total += len(block)
    index = [{f: a for a, f in enumerate(block)} for block in row_blocks]

    col_blocks = [all_injections(y, n) for y in z.relation_degrees]
    ncols = sum(len(block) for block in col_blocks)
    out = [[0] * ncols for _ in range(total)]
    col = 0
    for j, block in enumerate(col_blocks):
        for h in block:
            for i in range(z.num_generators):
                if (i, j) not in z.entries:
                    continue
                for g, coeff in z.entries[(i, j)].terms.items():
                    out[offsets[i] + index[i][compose(h, g)]][col] += coeff
            col += 1
    return dense(out, ncols)


def with_rational_terms(z: PresentationMatrix, rng: random.Random):
    """z with every term's coefficient times a random non-integer rational."""
    factors = [Fraction(c) for c in ("1/2", "-2/3", "3/4", "5/6", "-7/5")]
    return PresentationMatrix(z.generator_degrees, z.relation_degrees, {
        key: FormalSum(s.source, s.target, {
            f: c * rng.choice(factors) for f, c in s.terms.items()
        })
        for key, s in z.entries.items()
    })


def pairwise_decompose(z: PresentationMatrix, n: int) -> dict:
    """One character inner product per (lam, mu) pair, every class
    included: the loop decompose ran before it weighted each class once."""
    ev = evaluate_degree(z, n)
    classes = partitions(n)
    traces = {mu: ev.cokernel_trace(mu) for mu in classes}
    result = {}
    for lam in classes:
        acc = sum(
            class_size(mu) * traces[mu] * beta_set_character(lam, mu)
            for mu in classes
        )
        count, remainder = divmod(acc, factorial(n))
        assert remainder == 0 and count >= 0
        result[lam] = count
    return result


def drawn_presentation(kind: str, rng: random.Random) -> PresentationMatrix:
    """A random presentation of one of the input classes the decomposition
    must hold on."""
    if kind == "low relation":
        return random_low_relation_presentation(rng)
    if kind == "rational":
        return with_rational_terms(random_presentation(rng), rng)
    if kind == "no relations":
        return PresentationMatrix(
            tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3))), ()
        )
    while True:
        z = random_presentation(rng)
        if kind == "random" or z.num_generators > 1:
            return z


def per_pivot_trace(ev, sigma) -> Fraction:
    """The character on sigma without the evaluation's plan: on the basis
    of the reference echelon, each pivot's injection found by bisecting the
    generator offsets, and one Fraction per pivot."""
    z, n = ev._z, ev.n
    offsets, injections, index, total = [], [], [], 0
    for x in z.generator_degrees:
        block = all_injections(x, n)
        offsets.append(total)
        injections.append(block)
        index.append({f: a for a, f in enumerate(block)})
        total += len(block)
    basis = every_relation_row_basis(z, n)
    sigma_inv = inverse(sigma)
    image = Fraction(0)
    for col, idx in basis.pivots.items():
        row = basis.rows[idx]
        gen = bisect_right(offsets, col) - 1
        injection = injections[gen][col - offsets[gen]]
        moved = offsets[gen] + index[gen][compose(sigma_inv, injection)]
        value = row.get(moved, 0)
        if value:
            image += Fraction(value, row[col])
    fixed = sum(1 for i, v in enumerate(sigma, start=1) if v == i)
    ambient = sum(falling_factorial(fixed, x) for x in z.generator_degrees)
    return ambient - image


def plan_pivot_rows(ev) -> dict[int, dict[int, int]]:
    """The basis in an evaluation's trace plan, each row keyed by its
    pivot column."""
    return {col: row for col, (row, _) in ev._pivots.items()}


def assert_plan_layout(ev) -> None:
    """Each pivot's weight times its pivot value is the scale; the plan
    lists each free column of every generator once, at its injection;
    and the free columns and the pivots make up the ambient basis."""
    for col, (row, weight) in ev._pivots.items():
        assert weight * row[col] == ev._scale
    columns = [col for col, *_ in ev._plan]
    assert len(set(columns)) == len(columns)
    assert not set(columns) & set(ev._pivots)
    for col, index, injection in ev._plan:
        assert index[injection] == col
    assert len(columns) + ev.rank == ev.ambient_dim


# The benchmark's triangle presentation (bench/workloads.py).
TRIANGLE = parse_presentation(
    "generators: 2\nrelations: 3\nentry 1 1 : [1 2] + [2 3] + [3 1]\n"
)

# Rational coefficients whose reduced image basis has pivot values 5, 7,
# 10, 35 and 70 at degree 3, and 1 and 2 at degrees 4 to 6.
NON_UNIT_PIVOTS = PresentationMatrix((1, 2), (3,), {
    (0, 0): FormalSum(1, 3, {(1,): Fraction(3, 2), (3,): Fraction(-1, 2)}),
    (1, 0): FormalSum(2, 3, {(2, 1): 1, (3, 2): Fraction(1, 2)}),
})


# A generator of degree 2 with no relation, beside one of degree 1 with
# the relation [1] - 2[2]: every column of the first one is free.
RELATION_FREE_BESIDE = PresentationMatrix((2, 1), (2,), {
    (1, 0): FormalSum(1, 2, {(1,): 1, (2,): -2}),
})

# The only relation has degree 5, so below it the generator is free.
RELATION_ABOVE = PresentationMatrix((2,), (5,), {
    (0, 0): FormalSum(2, 5, {(1, 2): 1, (3, 4): 1, (5, 1): -1}),
})


def _trace_presentations():
    rng = random.Random(67)
    return [
        parse_presentation(E_FILE), TRIANGLE, NON_UNIT_PIVOTS,
        RELATION_FREE_BESIDE, RELATION_ABOVE,
    ] + [
        with_rational_terms(random_presentation(rng), rng) for _ in range(4)
    ] + [random_low_relation_presentation(rng) for _ in range(3)]


TRACE_PRESENTATIONS = _trace_presentations()


E_DIMENSIONS = [0, 0, 0, 6, 18, 30, 44, 56, 76, 99, 125]

E_DECOMPOSITIONS = {
    3: {(3,): 1, (2, 1): 2, (1, 1, 1): 1},
    4: {(3, 1): 3, (2, 2): 1, (2, 1, 1): 2, (1, 1, 1, 1): 1},
    5: {(4, 1): 2, (3, 2): 2, (3, 1, 1): 2},
    6: {(5, 1): 2, (4, 2): 1, (4, 1, 1): 2, (3, 3): 1},
    7: {(6, 1): 2, (5, 2): 1, (5, 1, 1): 2},
    8: {(7, 1): 2, (6, 2): 1, (6, 1, 1): 2},
}


class TestRelationMatrix:
    def test_degenerate_degree(self, e_presentation):
        m = relation_matrix_at(e_presentation, 3)
        assert (m.nrows, m.ncols) == (6, 0)
        assert dimension_at(e_presentation, 3) == 6

    def test_degree_four(self, e_presentation):
        m = relation_matrix_at(e_presentation, 4)
        assert (m.nrows, m.ncols) == (24, 24)
        assert m.nrows - m.rank() == 18

    def test_below_all_degrees(self, e_presentation):
        m = relation_matrix_at(e_presentation, 1)
        assert (m.nrows, m.ncols) == (0, 0)

    def test_dense_rank_matches_sparse_engine(self, e_presentation):
        # the oracle's echelon of the relation rows must agree on every
        # rank with the test-only Gauss-Jordan reference, run on the
        # dense relation matrix
        rng = random.Random(13)
        candidates = [e_presentation, torsion_presentation()] + [
            random_presentation(rng) for _ in range(10)
        ]
        # non-integer coefficients, several generators, and r < g
        rng = random.Random(17)
        candidates += [
            with_rational_terms(random_presentation(rng), rng) for _ in range(6)
        ] + [random_low_relation_presentation(rng) for _ in range(6)]
        assert any(z.num_generators > 1 for z in candidates)
        assert any(
            c.denominator > 1
            for z in candidates
            for s in z.entries.values()
            for c in s.terms.values()
        )
        for z in candidates:
            for n in range(6):
                dense = relation_matrix_at(z, n)
                ev = evaluate_degree(z, n)
                assert gauss_rank(dense_rows(dense), dense.ncols) == ev.rank
                assert dense.rank() == ev.rank
                assert ev.cokernel_dim == dense.nrows - ev.rank

    def test_column_contents(self):
        # one generator of degree 1, relation [1] - [2] in degree 2
        z = PresentationMatrix(
            (1,), (2,), {(0, 0): FormalSum(1, 2, {(1,): 1, (2,): -1})}
        )
        m = relation_matrix_at(z, 2)
        # rows: injections (1,), (2,); columns: (1,2) and (2,1)
        assert dense_rows(m) == ((1, -1), (-1, 1))


def relation_rows(z: PresentationMatrix, n: int) -> list[dict[int, int]]:
    """Every column of the dense relation matrix as a row of ints, each
    scaled by the lcm of its denominators: one row per injection."""
    rows = []
    for column in zip(*dense_rows(relation_matrix_at(z, n))):
        column = {i: Fraction(v) for i, v in enumerate(column) if v}
        scale = lcm(*(v.denominator for v in column.values()))
        rows.append({i: int(v * scale) for i, v in column.items()})
    return rows


@cache
def every_relation_row_basis(z: PresentationMatrix, n: int) -> ReferenceEchelon:
    """Every relation row fed in order to the reference echelon: the
    oracle's evaluation without skipping a row.  Cached, as the trace
    reference takes it once per drawn permutation; no caller changes
    it."""
    echelon = ReferenceEchelon()
    for row in relation_rows(z, n):
        echelon.add_row(row)
    return echelon


# One relation [1] - [2]: the rows of h and of h o (2 1) are negatives.
NEGATED_REPEATS = PresentationMatrix(
    (1,), (2,), {(0, 0): FormalSum(1, 2, {(1,): 1, (2,): -1})}
)

# The second relation column is -3/2 times the first, so every row of the
# second column repeats a row of the first as a rational multiple.
SCALED_REPEATS = PresentationMatrix((1,), (2, 2), {
    (0, 0): FormalSum(1, 2, {(1,): 1, (2,): 2}),
    (0, 1): FormalSum(1, 2, {(1,): Fraction(-3, 2), (2,): -3}),
})


def _skip_cases():
    rng = random.Random(71)
    e = parse_presentation(E_FILE)
    return (
        [(e, n) for n in range(10)]
        + [(TRIANGLE, n) for n in range(9)]
        + [(z, n) for z in (NON_UNIT_PIVOTS, NEGATED_REPEATS, SCALED_REPEATS)
           for n in range(7)]
        + [(with_rational_terms(random_presentation(rng), rng), n)
           for _ in range(6) for n in range(6)]
    )


class TestRepeatedRows:
    @pytest.mark.parametrize("z,n", _skip_cases())
    def test_same_basis_as_feeding_every_row(self, z, n):
        evaluate_degree.cache_clear()
        ev = evaluate_degree(z, n)
        reference = every_relation_row_basis(z, n)
        # the basis is canonical, but the order of its rows is the feed's
        assert ev.rank == reference.rank
        assert plan_pivot_rows(ev) == pivot_rows(reference)
        assert ev._scale == lcm(*(row[col] for col, row in pivot_rows(reference).items()))
        assert_plan_layout(ev)


class TestFeedOrder:
    @pytest.mark.parametrize("z,n,cleared", [
        (parse_presentation(E_FILE), 8, 605),
        (parse_presentation(workloads.rational2(0)), 6, 426),
    ])
    def test_earlier_rows_cleared(self, monkeypatch, z, n, cleared):
        # Rows fed by least image point falling, then h falling, put almost
        # every new pivot left of the kept ones, where no kept row has an
        # entry to clear.  The same 288 and 236 rows fed in the opposite
        # order clear 1,923 and 3,253 earlier rows.  Every distinct row,
        # fed by relation column and then h, falling, cleared 605 and 786.
        counts = []
        add_row = Echelon.add_row

        def counting_add_row(self, row):
            before = {col: dict(other) for col, other in self.pivots.items()}
            independent = add_row(self, row)
            if independent:
                counts.append(sum(
                    other != self.pivots[col] for col, other in before.items()
                ))
            return independent

        monkeypatch.setattr(Echelon, "add_row", counting_add_row)
        evaluate_degree.cache_clear()
        assert evaluate_degree(z, n).rank == len(counts)
        assert sum(counts) == cleared
        evaluate_degree.cache_clear()

    def test_precomposer_is_compose(self):
        for k in range(4):
            for g in all_injections(k, 4):
                precompose = _precomposer(g)
                for h in all_injections(4, 5):
                    assert precompose(h) == compose(h, g)


def all_injection_feed(z: PresentationMatrix, n: int) -> list[dict[int, int]]:
    """The rows the oracle feeds its echelon, built as one relation row
    per injection h in Inj(y, n), each as built.

    Each nonzero row is keyed by its relation column, its pattern (the
    primitive row of h read through the order of its image, a row of
    degree y), the gaps between consecutive points of h's image and the
    number of points above it; each key keeps its least h.  The keys go
    by the least point of the image falling, an empty image first, then
    by relation column falling, then by h falling.  A key is dependent
    when one of its one-step-smaller keys, one gap or the tail shortened
    by one, is: its row is not fed.  A row fed is dependent when the
    reference echelon finds it so."""
    offsets, index, total = [], [], 0
    for x in z.generator_degrees:
        block = all_injections(x, n)
        offsets.append(total)
        index.append({f: a for a, f in enumerate(block)})
        total += len(block)
    keyed = {}
    for j, y in enumerate(z.relation_degrees):
        column = [
            (i, z.entries[(i, j)].terms)
            for i in range(z.num_generators)
            if (i, j) in z.entries
        ]
        if not column:
            continue
        scale = lcm(*(c.denominator for _, terms in column for c in terms.values()))
        for h in all_injections(y, n):
            image = sorted(h)
            pi = tuple(image.index(v) + 1 for v in h)
            row, pattern = {}, {}
            for i, terms in column:
                for g, c in terms.items():
                    flat = offsets[i] + index[i][compose(h, g)]
                    row[flat] = row.get(flat, 0) + int(c * scale)
                    u = (i, compose(pi, g))
                    pattern[u] = pattern.get(u, 0) + int(c * scale)
            row = {k: v for k, v in row.items() if v}
            if not row:
                continue
            pattern = primitive({k: v for k, v in pattern.items() if v})
            gaps = tuple(b - a - 1 for a, b in zip(image, image[1:]))
            tail = n - image[-1] if image else 0
            keyed.setdefault(
                (j, tuple(sorted(pattern.items())), gaps, tail),
                ((image[0] if image else n + 1, j, h), row),
            )
    dependent, fed = set(), []
    reference = ReferenceEchelon()
    for key in sorted(keyed, key=lambda key: keyed[key][0], reverse=True):
        j, pattern, gaps, tail = key
        row = keyed[key][1]
        smaller = [
            (j, pattern, gaps[:k] + (gaps[k] - 1,) + gaps[k + 1:], tail)
            for k in range(len(gaps)) if gaps[k]
        ] + [(j, pattern, gaps, tail - 1)] * (tail > 0)
        if any(s in dependent for s in smaller):
            dependent.add(key)
            continue
        fed.append(row)
        if not reference.add_row(row):
            dependent.add(key)
    return fed


def primitive(row: dict[int, int]) -> dict[int, int]:
    """row over its content, its first value positive."""
    c = gcd(*row.values())
    if row[min(row)] < 0:
        c = -c
    return {k: v // c for k, v in row.items()}


def fed_rows(monkeypatch, z: PresentationMatrix, n: int):
    """A fresh evaluation of z at n and the rows fed to its echelon."""
    calls = []
    add_row = Echelon.add_row

    def recording_add_row(self, row):
        calls.append(dict(row))
        return add_row(self, row)

    monkeypatch.setattr(Echelon, "add_row", recording_add_row)
    evaluate_degree.cache_clear()
    ev = evaluate_degree(z, n)
    monkeypatch.setattr(Echelon, "add_row", add_row)
    evaluate_degree.cache_clear()
    return ev, calls


def _feed_cases():
    kinds = ["random", "low relation", "rational", "no relations", "several"]
    return [
        (drawn_presentation(kind, random.Random(seed)), n)
        for kind in kinds
        for seed in range(3)
        for n in range(8)
    ]


# A relation of degree 0 on a generator of degree 0, next to one of
# degree 2 on a generator of degree 1.
DEGREE_ZERO = PresentationMatrix((0, 1), (0, 2), {
    (0, 0): FormalSum(0, 0, {(): 2}),
    (1, 1): FormalSum(1, 2, {(1,): 1, (2,): -3}),
    (0, 1): FormalSum(0, 2, {(): 1}),
})

# The second relation's entry is zero (its terms cancel), so the column
# is empty, and the third relation has no entry at all.
ZERO_ENTRIES = PresentationMatrix((1, 2), (2, 3, 3), {
    (0, 0): FormalSum(1, 2, {(1,): 1, (2,): 1}),
    (1, 1): FormalSum(2, 3, [((1, 2), 1), ((1, 2), -1)]),
    (1, 0): FormalSum(2, 2, {(2, 1): -2}),
})


class TestEchelonFeed:
    """The echelon gets the same rows in the same order as when a row was
    built for every injection, each in its primitive form, so the basis,
    the traces and every output are unchanged."""

    @pytest.mark.parametrize(
        "z,n",
        _feed_cases()
        + [(DEGREE_ZERO, n) for n in range(6)]
        + [(ZERO_ENTRIES, n) for n in range(6)],
    )
    def test_same_rows_in_the_same_order(self, monkeypatch, z, n):
        try:
            ev, fed = fed_rows(monkeypatch, z, n)
        except ResourceCapError:
            return
        reference = all_injection_feed(z, n)
        assert fed == [primitive(row) for row in reference]
        basis = Echelon()
        for row in reference:
            basis.add_row(row)
        assert ev.rank == basis.rank
        assert plan_pivot_rows(ev) == basis.pivots

    @pytest.mark.parametrize("z,n,rank,fed", [
        (NEGATED_REPEATS, 4, 3, 4),
        (SCALED_REPEATS, 4, 4, 9),
        (TRIANGLE, 4, 7, 8),
        (parse_presentation(E_FILE), 4, 6, 6),
        (parse_presentation(E_FILE), 10, 595, 623),
        (TRIANGLE, 16, 225, 231),
        (parse_presentation(workloads.rational2(0)), 8, 391, 478),
        (parse_presentation(E_FILE), 9, 405, 433),
        (TRIANGLE, 14, 169, 175),
        (TRIANGLE, 15, 196, 202),
    ])
    def test_rows_fed(self, monkeypatch, z, n, rank, fed):
        # NEGATED_REPEATS at n = 4: e_3 - e_4, e_2 - e_4 and the dependent
        # e_2 - e_3 are fed, so the rows at (1, 2) and (1, 3), one step
        # above (2, 3), are not, and e_1 - e_4 is.  SCALED_REPEATS: its
        # second column goes first and feeds 7 rows.  The first column's
        # two rows at (3, 4) repeat two of them: they are fed and found
        # dependent, and every later row of that column lies above them,
        # so 9 are fed.  The triangle and E: every row below n = 4 is
        # independent, so each distinct row is fed, 8 of 24 and 6 of 24.
        # E at n = 10, the triangle at n = 16 and rational2 at n = 8 have
        # 1,260, 1,120 and 2,016 distinct rows.  With E at n = 9 and the
        # triangle at n = 14 and 15, every feed of the benchmark is pinned.
        ev, rows = fed_rows(monkeypatch, z, n)
        assert (ev.rank, len(rows)) == (rank, fed)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["random", "low relation", *DATA_PRESENTATIONS]),
        st.integers(0, 2**32),
        st.integers(0, 6),
    )
    def test_every_row_lies_in_the_span(self, kind, seed, n):
        # every row of the dense relation matrix, skipped or not, reduces
        # to zero against the evaluated basis, which has the rank of all
        # of them
        if kind in DATA_PRESENTATIONS:
            z = DATA_PRESENTATIONS[kind]
        else:
            z = drawn_presentation(kind, random.Random(seed))
        try:
            ev = evaluate_degree(z, n)
        except ResourceCapError:
            return
        basis = plan_pivot_rows(ev)
        for row in relation_rows(z, n):
            left = dict(row)
            for col, v in row.items():
                if col in basis:
                    other = basis[col]
                    for k, w in other.items():
                        left[k] = left.get(k, 0) - Fraction(v * w, other[col])
            assert not any(left.values())
        assert ev.rank == every_relation_row_basis(z, n).rank

    def test_relation_above_the_degree_builds_nothing(self, monkeypatch):
        # a relation of degree 6 at n = 4 gives no row and enumerates no
        # permutation of [6]; the degree-2 relation enumerates S_2 once
        z = PresentationMatrix((1,), (2, 6), {
            (0, 0): FormalSum(1, 2, {(1,): 1, (2,): 1}),
            (0, 1): FormalSum(1, 6, {(6,): 1}),
        })
        calls = []
        enumerate_injections = oracle.all_injections
        monkeypatch.setattr(
            oracle, "all_injections",
            lambda k, n: calls.append((k, n)) or enumerate_injections(k, n),
        )
        ev, fed = fed_rows(monkeypatch, z, 4)
        assert sorted(calls) == [(1, 4), (2, 2)]
        assert fed == [primitive(row) for row in all_injection_feed(z, 4)]
        assert len(fed) == 6 and ev.rank == 4

    def test_fresh_evaluations_are_equal(self, e_presentation):
        evaluate_degree.cache_clear()
        first = evaluate_degree(e_presentation, 6)
        evaluate_degree.cache_clear()
        second = evaluate_degree(e_presentation, 6)
        assert first is not second and first._pivots is not second._pivots
        assert first == second
        assert evaluate_degree(e_presentation, 5) != second
        evaluate_degree.cache_clear()


class TestDimension:
    def test_running_example(self, e_presentation):
        dims = [dimension_at(e_presentation, n) for n in range(11)]
        assert dims == E_DIMENSIONS

    def test_free_module(self):
        for n in range(7):
            assert dimension_at(free_module(1), n) == n

    def test_torsion_vanishes(self):
        z = torsion_presentation()
        assert dimension_at(z, 0) == 1
        for n in range(1, 5):
            assert dimension_at(z, n) == 0

    def test_resource_cap(self, e_presentation, monkeypatch):
        monkeypatch.setenv("FISTAB_ORACLE_CAP", "100")
        evaluate_degree.cache_clear()
        with pytest.raises(ResourceCapError):
            dimension_at(e_presentation, 6)
        monkeypatch.delenv("FISTAB_ORACLE_CAP")
        evaluate_degree.cache_clear()

    def test_lowered_cap_refuses_a_cached_degree(self, e_presentation, monkeypatch):
        evaluate_degree.cache_clear()
        assert dimension_at(e_presentation, 6) == 44
        monkeypatch.setenv("FISTAB_ORACLE_CAP", "10")
        with pytest.raises(ResourceCapError):
            dimension_at(e_presentation, 6)
        monkeypatch.delenv("FISTAB_ORACLE_CAP")
        assert dimension_at(e_presentation, 6) == 44
        info = evaluate_degree.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_relation_column_budget(self):
        # low-degree generators keep the row count tiny, but the relation
        # side still explodes with the degree and must be refused
        z = PresentationMatrix(
            (1,), (3,), {(0, 0): FormalSum(1, 3, {(1,): 1})}
        )
        with pytest.raises(ResourceCapError, match="relation columns"):
            dimension_at(z, 40)

    def test_relation_columns_without_an_entry_are_not_counted(self):
        # evaluation skips such a column: 12! of them at n = 12 here
        free = parse_presentation("generators: 1\nrelations: 12\n")
        assert dimension_at(free, 12) == 12
        # 13!/1 columns at n = 13, verify's default, where the module
        # without the zero relation passes
        quotient = "generators: 1\nrelations: 2{}\nentry 1 1 : [1] - [2]\n"
        report = verify(parse_presentation(quotient.format(" 12")))
        assert (report.n, report.passed) == (13, True)
        assert report.checks == verify(parse_presentation(quotient.format("")), 13).checks

    def test_worked_example_within_budget(self, e_presentation):
        # the 720 x 5040 system at degree 10 must stay allowed
        assert dimension_at(e_presentation, 10) == 125


class TestTraces:
    # Without relations the cokernel is the whole ambient space, whose
    # basis is the injections; E's ambient space is that of free_module(3).
    def test_ambient_identity_class(self):
        for n in range(3, 7):
            ones = tuple([1] * n)
            expected = factorial(n) // factorial(n - 3)
            assert evaluate_degree(free_module(3), n).cokernel_trace(ones) == expected

    def test_ambient_no_fixed_points(self):
        assert evaluate_degree(free_module(3), 4).cokernel_trace((2, 2)) == 0
        assert evaluate_degree(free_module(3), 6).cokernel_trace((3, 3)) == 0

    def test_ambient_pinned(self):
        assert evaluate_degree(free_module(3), 4).cokernel_trace((1, 1, 1, 1)) == 24

    def test_cokernel_equals_ambient_without_relations(self):
        # the ambient trace counts the basis injections the permutation fixes
        z = free_module(2)
        for n in range(2, 6):
            for mu in partitions(n):
                sigma = class_representative(mu)
                fixed = sum(
                    1 for f in all_injections(2, n) if compose(sigma, f) == f
                )
                assert evaluate_degree(z, n).cokernel_trace(mu) == fixed

    def test_identity_class_gives_dimension(self, e_presentation):
        rng = random.Random(31)
        candidates = [e_presentation] + [random_presentation(rng) for _ in range(6)]
        for z in candidates:
            for n in range(2, 6):
                ones = tuple([1] * n)
                assert evaluate_degree(z, n).cokernel_trace(ones) == dimension_at(z, n)

    def test_pinned_cokernel_trace(self, e_presentation):
        assert evaluate_degree(e_presentation, 4).cokernel_trace((1, 1, 1, 1)) == 18

    def test_constant_on_conjugacy_classes(self, e_presentation):
        # two representatives per class: the canonical one and a random
        # conjugate, evaluated through the same reduced basis
        rng = random.Random(37)
        candidates = [e_presentation, random_presentation(rng)]
        for z in candidates:
            for n in range(2, 7):
                ev = evaluate_degree(z, n)
                group = symmetric_group(n)
                for mu in partitions(n):
                    rep = class_representative(mu)
                    g = rng.choice(group)
                    conj = compose(compose(g, rep), inverse(g))
                    assert cycle_type(conj) == mu
                    assert per_pivot_trace(ev, conj) == ev.cokernel_trace(mu)
                    assert per_pivot_trace(ev, rep) == ev.cokernel_trace(mu)

    def test_refuses_a_non_permutation(self):
        # a class that is not a partition of n is the cycle type of no
        # permutation of [n]
        ev = evaluate_degree(TRIANGLE, 4)
        for mu in [(1, 3), (2, 1, 1, 0), (4, -1, 1)]:
            with pytest.raises(ValueError, match="non-increasing|non-positive"):
                ev.cokernel_trace(mu)
        with pytest.raises(ValueError, match="not a cycle type for degree 4"):
            ev.cokernel_trace((2, 1))

    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from(
            ["random", "low relation", "rational", "no relations", "several"]
        ),
        st.integers(0, 2**32),
    )
    def test_depends_only_on_short_cycles(self, kind, seed):
        # the classes with the same numbers of cycles of each length up to
        # the largest generator degree share one trace
        z = drawn_presentation(kind, random.Random(seed))
        for n in range(10):
            try:
                ev = evaluate_degree(z, n)
            except ResourceCapError:
                continue
            g = z.max_generator_degree
            traces: dict[tuple[int, ...], set[int]] = {}
            for nu in partitions(n):
                counts = tuple(nu.count(j) for j in range(1, g + 1))
                traces.setdefault(counts, set()).add(ev.cokernel_trace(nu))
            assert all(len(values) == 1 for values in traces.values()), n


class TestTracePlan:
    def test_some_pivot_value_is_not_one(self):
        ev = evaluate_degree(NON_UNIT_PIVOTS, 3)
        pivots = {row[col] for col, row in plan_pivot_rows(ev).items()}
        assert pivots == {5, 7, 10, 35, 70} and ev._scale == 70

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_per_pivot_loop(self, data):
        z = data.draw(st.sampled_from(TRACE_PRESENTATIONS))
        n = data.draw(st.integers(0, 6))
        sigma = tuple(data.draw(st.permutations(range(1, n + 1))))
        ev = evaluate_degree(z, n)
        assert ev.cokernel_trace(cycle_type(sigma)) == per_pivot_trace(ev, sigma)

    def test_non_integer_trace_raises(self):
        # the basis row 2 e_1 - e_2 of weight 1 over a scale of 2, and the
        # free column e_2: the transposition takes e_2 to e_1, which is
        # e_2 / 2 in the cokernel, so the character comes out as 1/2
        ev = DegreeEvaluation(
            2, 2, 1, PresentationMatrix((1,), ()),
            ((1, {(1,): 0, (2,): 1}, (2,)),), {0: ({0: 2, 1: -1}, 1)}, 2,
        )
        with pytest.raises(ArithmeticError, match="non-integer character value 1/2"):
            ev.cokernel_trace((2,))


class TestDecompose:
    @pytest.mark.parametrize("n", sorted(E_DECOMPOSITIONS))
    def test_running_example(self, e_presentation, n):
        decomposition = decompose_at(e_presentation, n)
        nonzero = {lam: c for lam, c in decomposition.items() if c}
        assert nonzero == E_DECOMPOSITIONS[n]

    def test_counts_rebuild_dimension(self, e_presentation):
        rng = random.Random(43)
        candidates = [e_presentation, free_module(2)] + [
            random_presentation(rng) for _ in range(8)
        ]
        for z in candidates:
            for n in range(2, 7):
                decomposition = decompose_at(z, n)
                assert all(c >= 0 for c in decomposition.values())
                total = sum(
                    c * hook_length_count(lam)
                    for lam, c in decomposition.items()
                )
                assert total == dimension_at(z, n)

    def test_matches_pairwise_inner_products(self, e_presentation):
        rng = random.Random(59)
        candidates = [e_presentation, free_module(2), torsion_presentation()] + [
            random_presentation(rng) for _ in range(3)
        ] + [random_low_relation_presentation(rng) for _ in range(3)]
        for z in candidates:
            for n in range(9):
                assert decompose_at(z, n) == pairwise_decompose(z, n)
        for n in range(10, 13):
            assert decompose_at(TRIANGLE, n) == pairwise_decompose(TRIANGLE, n)

    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from(
            ["random", "low relation", "rational", "no relations", "several"]
        ),
        st.integers(0, 2**32),
    )
    def test_matches_pairwise_on_every_input_class(self, kind, seed):
        z = drawn_presentation(kind, random.Random(seed))
        for n in range(10):
            try:
                expected = pairwise_decompose(z, n)
            except ResourceCapError:
                continue
            assert decompose_at(z, n) == expected

    def test_kostka_counts_semistandard_tableaux(self):
        for n in range(9):
            for lam in partitions(n):
                for mu in partitions(n):
                    assert _kostka(lam, mu) == semistandard_count(lam, mu), (lam, mu)

    def test_fixed_tabloids_from_cycle_counts(self):
        # the counts may stop at the length of the rows below the top, as
        # decompose passes them, or run on to n
        for n in range(8):
            for nu in partitions(n):
                sigma = class_representative(nu)
                for mu in partitions(n):
                    expected = fixed_tabloid_count(mu, sigma)
                    for g in {n - (mu[0] if mu else 0), n}:
                        counts = tuple(nu.count(j) for j in range(1, g + 1))
                        assert _fixed_tabloids(mu[1:], counts) == expected, (mu, nu, g)

    def test_dimension_check_catches_a_missing_shape(self, monkeypatch):
        # The triangle at n = 12 is (11, 1) once.  Without that shape its
        # invariants land on (10, 2) and (10, 1, 1), once each and neither
        # negative, so only the dimension check sees it: 54 + 55, not 11.
        assert decompose_at(TRIANGLE, 12)[(11, 1)] == 1
        top_shapes = oracle._top_shapes
        monkeypatch.setattr(
            oracle, "_top_shapes",
            lambda n, g: [lam for lam in top_shapes(n, g) if lam != (11, 1)],
        )
        with pytest.raises(ArithmeticError, match="dimension 109, not 11"):
            decompose_at(TRIANGLE, 12)

    def test_reads_no_character(self, e_presentation, monkeypatch):
        def no_character(*args):
            raise AssertionError("decompose read a character")

        monkeypatch.setattr(specht, "_rim_hooks", no_character)
        monkeypatch.setattr(specht, "mn_character", no_character)
        assert not hasattr(oracle, "mn_character")
        assert decompose_at(e_presentation, 7) == pairwise_decompose(e_presentation, 7)
        assert decompose_at(TRIANGLE, 12) == pairwise_decompose(TRIANGLE, 12)

    @pytest.mark.parametrize("z, n, traces", [
        (TRIANGLE, 16, 65),
        (parse_presentation(E_FILE), 10, 37),
        (free_module(0), 20, 1),
    ])
    def test_one_trace_per_cycle_count_vector(self, monkeypatch, z, n, traces):
        g = min(z.max_generator_degree, n)
        vectors = {
            tuple(nu.count(j) for j in range(1, g + 1)) for nu in partitions(n)
        }
        assert len(vectors) == traces
        taken = []
        trace = DegreeEvaluation.cokernel_trace

        def counted(self, mu):
            taken.append(mu)
            return trace(self, mu)

        monkeypatch.setattr(DegreeEvaluation, "cokernel_trace", counted)
        decompose_at(z, n)
        assert len(taken) == traces

    def test_class_budget(self, monkeypatch):
        # p(20) = 627 and p(21) = 792 classes; the default cap of 5000
        # allows 500000 (shape, class) pairs
        monkeypatch.delenv("FISTAB_ORACLE_CAP", raising=False)
        z = free_module(0)
        with pytest.raises(ResourceCapError, match="792 classes"):
            decompose_at(z, 21)
        with pytest.raises(ResourceCapError, match="at least 792 classes"):
            decompose_at(z, 10**6)
        monkeypatch.setenv("FISTAB_ORACLE_CAP", "6272")
        with pytest.raises(ResourceCapError, match="FISTAB_ORACLE_CAP"):
            decompose_at(z, 21)

    def test_class_budget_enumerates_no_partition(self):
        partitions.cache_clear()
        check_classes(16)
        assert partitions.cache_info().currsize == 0

    @pytest.mark.parametrize("cap", [1, 25, 5000, 100000])
    def test_class_budget_refuses_from_the_first_degree_over(
        self, monkeypatch, cap
    ):
        monkeypatch.setenv("FISTAB_ORACLE_CAP", str(cap))
        first = next(n for n in range(100) if len(partitions(n)) ** 2 > 100 * cap)
        for n in range(first):
            check_classes(n)
        with pytest.raises(
            ResourceCapError, match=f"degree {first} has {len(partitions(first))} "
        ):
            check_classes(first)

    def test_class_budget_is_checked_before_any_trace(self, monkeypatch):
        def no_trace(self, mu):
            raise AssertionError("trace taken before the class budget")

        monkeypatch.setattr(DegreeEvaluation, "cokernel_trace", no_trace)
        with pytest.raises(ResourceCapError):
            decompose_at(free_module(1), 21)


class TestVerify:
    def test_running_example_passes_from_onset(self, e_presentation):
        for n in (7, 8, 9):
            report = verify(e_presentation, n)
            assert not report.pre_stable
            assert report.passed
            assert report.dimensions_match

    def test_default_degree_is_onset(self, e_presentation):
        report = verify(e_presentation)
        assert report.n == report.onset == 7

    def test_pre_stable_mismatch(self, e_presentation):
        report = verify(e_presentation, 5)
        assert report.pre_stable
        mismatches = [c for c in report.checks if not c.ok]
        assert [(c.shape, c.predicted, c.observed) for c in mismatches] == [
            ((3, 2), 1, 2)
        ]

    def test_check_tails(self, e_presentation):
        report = verify(e_presentation, 7)
        by_shape = {c.shape: c for c in report.checks}
        assert by_shape[(6, 1)].tail == (1,)
        assert by_shape[(6, 1)].predicted == 2
        assert by_shape[(5, 2)].predicted == 1
        assert by_shape[(5, 1, 1)].predicted == 2
        assert by_shape[(4, 3)].predicted == 0

    def test_randomized_presentations(self):
        rng = random.Random(47)
        for _ in range(8):
            z = random_presentation(rng)
            report = verify(z)
            assert report.passed, report

    def test_free_modules_pass_from_onset(self):
        # relation degree 0 < generator degree k: the onset is 2k, the
        # first degree at which every table shape is visible
        for k in (1, 2, 3):
            report = verify(free_module(k))
            assert report.n == report.onset == 2 * k
            assert report.passed, report
            assert report.invisible == ()

    def test_free_module_onset_is_sharp(self):
        # one degree earlier the shape (3) of M(3) needs a top row of 3
        # but only 2 boxes are left for it
        report = verify(free_module(3), 5)
        assert report.pre_stable
        assert report.invisible == (((3,), 1),)

    def test_randomized_low_relation_presentations(self):
        rng = random.Random(53)
        for _ in range(25):
            z = random_low_relation_presentation(rng)
            for n in (None, onset_bound(z) + 1):
                report = verify(z, n)
                assert not report.pre_stable
                assert report.passed, report
                assert report.invisible == ()

    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from(
            ["random", "low relation", "rational", "no relations", "several"]
        ),
        st.integers(0, 2**32),
    )
    def test_passes_from_onset_on_every_input_class(self, kind, seed):
        z = drawn_presentation(kind, random.Random(seed))
        onset = onset_bound(z)
        for n in (onset, onset + 1):
            try:
                report = verify(z, n)
            except ResourceCapError:
                continue
            assert not report.pre_stable
            assert report.passed, report
            assert report.invisible == ()


def test_a_relation_free_generator_is_pinned():
    # tests/test_pins.py diffs each of these against a fresh run
    assert {
        f"relation-free-beside-{command}-{n}.json"
        for command in ("evaluate", "decompose") for n in (6, 7)
    } <= set(os.listdir(os.path.join(ROOT, "tests", "data")))
