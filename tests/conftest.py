import random
from fractions import Fraction

import pytest

from fistab import FormalSum, PresentationMatrix
from fistab.combinatorics import (
    all_injections,
    box_sign,
    col_word,
    compose,
    monotone_injections,
    monotone_part,
    row_word,
    sorting_permutation,
    standard_tableaux,
)
from fistab.ratmat import RationalMatrix

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
    return RationalMatrix(out, ncols=ncols)
