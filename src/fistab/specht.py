"""Irreducible symmetric-group representations by explicit matrices.

Two routes to the same characters live here.  ``specht_action`` builds the
irreducible indexed by a partition as honest matrices acting on the span
of its standard tableaux; ``mn_character`` computes character values
recursively by rim-hook removal (Murnaghan-Nakayama).  Their agreement is
a test, not an assumption: the trace of ``specht_action`` on each class
is computed in the tests and compared with ``mn_character``.

The matrix model composes contravariantly: acting by sigma and then tau
multiplies to the matrix of tau o sigma.
"""

from functools import cache

from .combinatorics import (
    Partition,
    box_sign,
    check_partition,
    col_word,
    compose,
    row_word,
    standard_tableaux,
)
from .ratmat import RationalMatrix


def specht_raw(lam: Partition, sigma) -> RationalMatrix:
    """The tableau-pairing matrix of sigma for shape lam.

    Rows and columns run over standard_tableaux(lam) in canonical order;
    the (t, u) entry is the box sign of (row word of u composed with
    sigma, column word of t).  Invertible over the integers, but not yet
    multiplicative: see specht_action for the corrected module.
    """
    lam = check_partition(lam)
    if sum(lam) != len(sigma):
        raise ValueError(f"shape {lam} has size {sum(lam)}, sigma moves {len(sigma)}")
    tabs = standard_tableaux(lam)
    cols_by_t = [col_word(t) for t in tabs]
    rows_by_u = [compose(row_word(u), sigma) for u in tabs]
    return RationalMatrix(
        [[box_sign(rows_by_u[uj], cols_by_t[ti]) for uj in range(len(tabs))]
         for ti in range(len(tabs))]
    )


@cache
def _specht_unit_inverse(lam: Partition) -> RationalMatrix:
    k = sum(lam)
    return specht_raw(lam, tuple(range(1, k + 1))).inverse()


@cache
def specht_action(lam: Partition, sigma) -> RationalMatrix:
    """The irreducible action matrix of sigma for shape lam.

    The raw pairing matrix of the identity is inverted once per shape and
    multiplied in, so the identity permutation maps to the identity
    matrix and specht_action(lam, sigma) * specht_action(lam, tau) equals
    specht_action(lam, tau o sigma).
    """
    return _specht_unit_inverse(lam) * specht_raw(lam, sigma)


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def _beta_set(lam: Partition, length: int) -> tuple[int, ...]:
    """First-column hook lengths padded to the given number of rows."""
    padded = list(lam) + [0] * (length - len(lam))
    return tuple(padded[i] + (length - 1 - i) for i in range(length))


def _partition_from_beta(beta: list[int]) -> Partition:
    beta = sorted(beta, reverse=True)
    length = len(beta)
    lam = [beta[i] - (length - 1 - i) for i in range(length)]
    return tuple(part for part in lam if part > 0)


@cache
def mn_character(lam: Partition, mu: Partition) -> int:
    """Character value of the irreducible lam on the class of cycle type mu.

    Recursive rim-hook removal: strip a hook of length mu_1 from lam in
    every possible way, flip the sign by the hook's height, and recurse on
    the remaining class parts.  In beta-set form a hook removal is the
    replacement of one first-column hook length b by b - mu_1, with sign
    (-1)^(number of hook lengths jumped over).
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"|{lam}| = {sum(lam)} but |{mu}| = {sum(mu)}")
    if not mu:
        return 1
    part, rest = mu[0], mu[1:]
    beta = _beta_set(lam, len(lam))
    beta_members = set(beta)
    total = 0
    for idx, b in enumerate(beta):
        if b - part < 0 or (b - part) in beta_members:
            continue
        crossed = sum(1 for c in beta if b - part < c < b)
        new_beta = list(beta)
        new_beta[idx] = b - part
        smaller = _partition_from_beta(new_beta)
        total += (-1) ** crossed * mn_character(smaller, rest)
    return total


__all__ = [
    "mn_character",
    "specht_action",
    "specht_raw",
]
