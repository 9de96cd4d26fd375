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

@cache
def mn_character(lam: Partition, mu: Partition) -> int:
    """Character value of the irreducible lam on the class of cycle type mu.

    Recursive rim-hook removal: strip a hook of length mu_1 from lam in
    every possible way, flip the sign by the hook's height, and recurse on
    the remaining class parts.  The arguments are checked here, once; the
    recursion runs on partitions already checked.
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"|{lam}| = {sum(lam)} but |{mu}| = {sum(mu)}")
    return _strip_rim_hooks(lam, mu)


def _strip_rim_hooks(lam: Partition, mu: Partition) -> int:
    """mn_character on partitions of equal size, unchecked.

    In beta-set form, the first-column hook lengths lam_i + len(lam) - i
    in decreasing order, a hook removal moves one entry b down to
    b - mu_1, and the hook's height is the number of entries it passes.
    The recursion is cached in _rim_hook_character; the top-level call
    is not, since mn_character caches it already.
    """
    if not mu:
        return 1
    part, rest = mu[0], mu[1:]
    length = len(lam)
    beta = [p + length - 1 - i for i, p in enumerate(lam)]
    members = set(beta)
    total = 0
    for idx, b in enumerate(beta):
        c = b - part
        if c < 0 or c in members:
            continue
        k = idx + 1
        while k < length and beta[k] > c:
            k += 1
        # rows idx+1 .. k-1 move up a row and lose a box; c becomes row k-1
        smaller = (
            lam[:idx]
            + tuple(p - 1 for p in lam[idx + 1:k])
            + (c - length + k,)
            + lam[k:]
        )
        if k == length:
            smaller = tuple(p for p in smaller if p)
        value = _rim_hook_character(smaller, rest)
        total += -value if (k - idx - 1) % 2 else value
    return total


_rim_hook_character = cache(_strip_rim_hooks)


__all__ = [
    "mn_character",
    "specht_action",
    "specht_raw",
]
