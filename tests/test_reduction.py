"""The reduced presentation of each size keeps every shape's corank.

``eventual_multiplicities`` transports, for each size k, the core that
``presentation._reduced_presentation`` leaves: the size-k presentation of
z with its unit pivots eliminated fraction-free over Z[S_k].  The
reference is the transport of z itself, whose corank is the
multiplicity.  Coranks are blind to some wrong multipliers, so one pivot
is also checked exactly:
each generator's block row of the core's transport must be a nonzero
rational multiple of the same block row of the Schur complement
D - C B^-1 W of the pivot block B in the transport of the presentation,
in Fractions.  A multiple, because the elimination is fraction-free: it
scales each generator it updates by the pivot's coefficient and then
divides it by its content, and neither changes a corank.
"""

import os
import random
import sys
from fractions import Fraction

import pytest

from fistab.cli import parse_presentation
from fistab.combinatorics import compose, identity, partitions
import fistab.presentation as presentation
from fistab.presentation import (
    FormalSum,
    PresentationMatrix,
    induced_raw_presentation,
)

from conftest import (
    dense,
    dense_rows,
    free_module,
    random_low_relation_presentation,
    random_presentation,
    rational_inverse,
    symmetric_group,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402


def corank_mismatches(z: PresentationMatrix) -> list:
    """The shapes whose corank on the core of their size differs from
    their corank on z."""
    wrong = []
    for k in range(z.max_generator_degree + 1):
        core = presentation._reduced_presentation(z, k)
        for lam in partitions(k):
            if (induced_raw_presentation(lam, core).corank()
                    != induced_raw_presentation(lam, z).corank()):
                wrong.append(lam)
    return wrong


NAMED = {
    **{f"cyclic-{x}": parse_presentation(workloads.cyclic(x))
       for x in range(3, 9)},
    # unequal shift coefficients, on which a core without sigma^-1 or
    # without its generators' offsets has a wrong corank
    "cyclic-5 (1, 2)": parse_presentation(workloads.cyclic(5, (1, 2))),
    "alternating6": parse_presentation(workloads.inputs(0)["alternating6"]),
    "rational2": parse_presentation(workloads.rational2(0)),
    "M(3)": free_module(3),
    "no relations": PresentationMatrix((2, 0, 3), ()),
    "r < g": PresentationMatrix((3, 1), (2,), {
        (1, 0): FormalSum(1, 2, {(1,): 1, (2,): Fraction(-1, 2)}),
    }),
    # at size 2 the first sweep pivots on generator 2 of the lift, which
    # leaves a unit in generator 1, passed already: a second sweep takes it
    "unit behind the sweep": PresentationMatrix((1, 3), (3,), {
        (0, 0): FormalSum(1, 3, {(1,): -1}),
        (1, 0): FormalSum(3, 3, {(1, 3, 2): 2, (2, 1, 3): -2, (3, 1, 2): 2}),
    }),
    "several generators": PresentationMatrix((1, 1, 2), (2, 3), {
        (0, 0): FormalSum(1, 2, {(1,): 1, (2,): 1}),
        (1, 0): FormalSum(1, 2, {(2,): -1}),
        (1, 1): FormalSum(1, 3, {(3,): 2}),
        (2, 1): FormalSum(2, 3, {(1, 2): 1, (3, 1): -1, (2, 3): 1}),
    }),
}


@pytest.mark.parametrize("name", list(NAMED))
def test_core_keeps_every_corank(name):
    assert corank_mismatches(NAMED[name]) == []


@pytest.mark.parametrize(
    "draw", [random_presentation, random_low_relation_presentation]
)
def test_core_keeps_every_corank_on_the_random_corpora(draw):
    rng = random.Random(18)
    for _ in range(100):
        z = draw(rng)
        assert corank_mismatches(z) == [], z


def units_left(z: PresentationMatrix) -> list:
    """The sizes k and the (generator, relation) places of the unit
    entries left in the cores of z."""
    return [
        (k, place)
        for k in range(z.max_generator_degree + 1)
        for place, s in presentation._reduced_presentation(z, k).entries.items()
        if len(s.terms) == 1
    ]


# the corpora on which the term limit never stops the elimination
SWEPT = [
    *[f"cyclic-{x}" for x in range(3, 9)], "alternating6", "rational2",
    "unit behind the sweep",
]


@pytest.mark.parametrize("name", SWEPT)
def test_no_unit_is_left_in_a_core(name):
    assert units_left(NAMED[name]) == []


@pytest.mark.parametrize(
    "draw", [random_presentation, random_low_relation_presentation]
)
def test_no_unit_is_left_in_a_core_of_the_random_corpora(draw):
    rng = random.Random(18)
    for _ in range(100):
        z = draw(rng)
        assert units_left(z) == [], z


# The only unit is (1, 1), and pivoting on it would take the 13 terms of
# the size-3 lift to more, so the core is the whole lift.
LIMIT = parse_presentation("""\
generators: 3 3 3
relations: 3 3 3
entry 1 1 : [1 2 3]
entry 1 2 : [1 2 3] + 2*[2 1 3] - [2 3 1]
entry 1 3 : [1 3 2] + 3*[3 1 2] + [3 2 1]
entry 2 1 : [1 2 3] + [2 1 3] - 2*[1 3 2]
entry 3 1 : [2 3 1] - [3 1 2] + 2*[3 2 1]
""")


def test_term_limit_keeps_the_whole_lift():
    core = presentation._reduced_presentation(LIMIT, 3)
    terms = sum(len(s.terms) for s in core.entries.values())
    assert (core.num_generators, len(core.relation_degrees), terms) == (3, 3, 13)
    for lam, corank in zip(partitions(3), (1, 2, 1)):
        assert induced_raw_presentation(lam, LIMIT).corank() == corank
        assert induced_raw_presentation(lam, core).corank() == corank


# The size-0 lift of entry (0, 1) sums 1/2 + 3/2 to Fraction(2), an
# integral Fraction, and the pivot on it scales generator 1.
INTEGRAL_SUM = PresentationMatrix((1, 0), (0, 2), {
    (0, 1): FormalSum(1, 2, {(1,): Fraction(1, 2), (2,): Fraction(3, 2)}),
    (1, 0): FormalSum(0, 0, {(): 1}),
    (1, 1): FormalSum(0, 2, {(): 1}),
})


def core_coefficient_types(z: PresentationMatrix) -> set:
    """The types of the coefficients of every core of z."""
    return {
        type(c)
        for k in range(z.max_generator_degree + 1)
        for s in presentation._reduced_presentation(z, k).entries.values()
        for c in s.terms.values()
    }


@pytest.mark.parametrize(
    "z", [*NAMED.values(), INTEGRAL_SUM], ids=[*NAMED, "integral sum"]
)
def test_every_core_coefficient_is_an_int(z):
    assert core_coefficient_types(z) <= {int}


@pytest.mark.parametrize(
    "draw", [random_presentation, random_low_relation_presentation]
)
def test_every_core_coefficient_is_an_int_on_the_random_corpora(draw):
    rng = random.Random(18)
    for _ in range(100):
        z = draw(rng)
        assert core_coefficient_types(z) <= {int}, z


# ---------------------------------------------------------------------------
# one pivot, exactly
# ---------------------------------------------------------------------------

UNITS = (1, -1, 2, Fraction(-3, 2))
COEFFICIENTS = (1, -1, 2, -2, Fraction(1, 2))


def one_pivot_presentation(rng: random.Random, k: int) -> PresentationMatrix:
    """Four generators and three relations, all of degree k, whose only
    pivot is c * sigma at (0, 0), sigma not an involution.

    The units are (0, 0), (0, 1) and (1, 0).  The sweep reaches generator
    0 first, and its units (0, 0) and (0, 1) tie at three entries in
    their relations, so the lower relation index, (0, 0), goes first.  It
    adds one product to the three terms of (1, 1), which leaves at least
    two, and fills (3, 1) with two, so no unit is left, and the number of
    terms falls.
    """
    perms = symmetric_group(k)
    sigma = rng.choice([p for p in perms if compose(p, p) != identity(k)])

    def terms(count):
        return FormalSum(k, k, {
            p: rng.choice(COEFFICIENTS) for p in rng.sample(perms, count)
        })

    return PresentationMatrix((k,) * 4, (k,) * 3, {
        (0, 0): FormalSum(k, k, {sigma: rng.choice(UNITS)}),
        (0, 1): terms(1),
        (1, 0): terms(1),
        (1, 1): terms(3),
        (1, 2): terms(2),
        (2, 1): terms(2),
        (2, 2): terms(2),
        (3, 0): terms(2),
    })


def one_pivot_cases() -> list:
    rng = random.Random(180)
    return [one_pivot_presentation(rng, k) for k in (3, 4) for _ in range(20)]


def schur_complement(m, dim: int) -> list:
    """D - C B^-1 W for the leading dim x dim block B of m, dense."""
    rows = dense_rows(m)
    b = dense([row[:dim] for row in rows[:dim]])
    w = dense([row[dim:] for row in rows[:dim]], m.ncols - dim)
    c = dense([row[:dim] for row in rows[dim:]], dim)
    d = dense([row[dim:] for row in rows[dim:]], m.ncols - dim)
    correction = dense_rows(c * rational_inverse(b) * w)
    return [
        tuple(x - y for x, y in zip(row, fix))
        for row, fix in zip(dense_rows(d), correction)
    ]


def is_multiple(got, expected) -> bool:
    """Whether got is a nonzero rational multiple of expected, flat."""
    if len(got) != len(expected):
        return False
    lead = next((i for i, x in enumerate(expected) if x), None)
    if lead is None:
        return not any(got)
    ratio = Fraction(got[lead]) / expected[lead]
    return ratio != 0 and all(x == ratio * y for x, y in zip(got, expected))


def one_step_failures(cases) -> list:
    """The cases whose core is not one pivot smaller, or for which some
    shape's core transport has a generator block row that is not a
    nonzero multiple of that block row of the Schur complement."""
    failures = []
    for z in cases:
        k = z.generator_degrees[0]
        core = presentation._reduced_presentation(z, k)
        if (core.num_generators, len(core.relation_degrees)) != (3, 2):
            failures.append(z)
            continue
        for lam in partitions(k):
            full = induced_raw_presentation(lam, z)
            dim = full.nrows // 4
            got = dense_rows(induced_raw_presentation(lam, core))
            want = schur_complement(full, dim)
            if len(got) != len(want) or not all(
                is_multiple(sum(got[g:g + dim], ()), sum(want[g:g + dim], ()))
                for g in range(0, len(want), dim)
            ):
                failures.append(z)
                break
    return failures


def test_one_pivot_leaves_the_schur_complement():
    assert one_step_failures(one_pivot_cases()) == []
