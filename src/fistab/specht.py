"""Irreducible symmetric-group representations and their characters.

Characters are reached two ways, and agreement between them is a test,
not an assumption:

- matrices: ``specht_action`` builds the irreducible indexed by a
  partition as honest matrices acting on the span of its standard
  tableaux, and a character is the trace of one of them (computed in the
  tests only);
- rim hooks: ``character_column`` computes chi(mu) for every shape of
  |mu| at once by Murnaghan-Nakayama, pushing the column of mu[1:]
  through a cached table of the rim hooks of length mu_1 of every shape.
  The oracle decomposes this way, and ``mn_character`` reads one value
  chi_lam(mu) off the column of mu.

The tests hold a third, independent rim-hook recursion on beta sets as
the reference for both.

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
    partitions,
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

def _rim_hooks(lam: Partition, k: int):
    """Yield (smaller, sign) for every rim hook of length k in lam.

    In beta-set form, the first-column hook lengths lam_i + len(lam) - i
    in decreasing order, a hook removal moves one entry b down to b - k,
    and the hook's height, the exponent of the sign, is the number of
    entries it passes.  smaller is lam with the hook removed.
    """
    length = len(lam)
    beta = [p + length - 1 - i for i, p in enumerate(lam)]
    members = set(beta)
    for idx, b in enumerate(beta):
        c = b - k
        if c < 0 or c in members:
            continue
        j = idx + 1
        while j < length and beta[j] > c:
            j += 1
        # rows idx+1 .. j-1 move up a row and lose a box; c becomes row j-1
        smaller = (
            lam[:idx]
            + tuple(p - 1 for p in lam[idx + 1:j])
            + (c - length + j,)
            + lam[j:]
        )
        if j == length:
            smaller = tuple(p for p in smaller if p)
        yield smaller, -1 if (j - idx - 1) % 2 else 1


@cache
def _positions(n: int) -> dict[Partition, int]:
    """The position of every partition of n in partitions(n)."""
    return {lam: i for i, lam in enumerate(partitions(n))}


@cache
def _hook_table(n: int, k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The k-rim hooks of every shape of n, by position.

    Entry i lists, for each k-rim hook of partitions(n)[i], the position
    of the remaining shape in partitions(n - k) and the hook's sign.
    """
    position = _positions(n - k)
    return tuple(
        tuple((position[smaller], sign) for smaller, sign in _rim_hooks(lam, k))
        for lam in partitions(n)
    )


@cache
def character_column(mu: Partition) -> tuple[int, ...]:
    """Every irreducible character on the class of cycle type mu.

    Entry i is the character of partitions(|mu|)[i].  Removing a rim hook
    of length mu_1 turns the column of mu into the column of mu[1:],
    read through _hook_table; the column of the empty class is (1,).
    """
    mu = check_partition(mu)
    if not mu:
        return (1,)
    below = character_column(mu[1:])
    return tuple(
        sum(sign * below[j] for j, sign in hooks)
        for hooks in _hook_table(sum(mu), mu[0])
    )


@cache
def mn_character(lam: Partition, mu: Partition) -> int:
    """Character value of the irreducible lam on the class of cycle type
    mu: the entry for lam in character_column(mu)."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"|{lam}| = {sum(lam)} but |{mu}| = {sum(mu)}")
    return character_column(mu)[_positions(sum(mu))[lam]]


__all__ = [
    "character_column",
    "mn_character",
    "specht_action",
    "specht_raw",
]
