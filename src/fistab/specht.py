"""Irreducible symmetric-group representations and their characters.

Characters are reached two ways, and agreement between them is a test,
not an assumption:

- matrices: ``specht_action`` builds the irreducible indexed by a
  partition as honest matrices acting on the span of its standard
  tableaux, and a character is the trace of one of them (computed in the
  tests only);
- rim hooks: ``mn_character`` computes one value chi_lam(mu) by the
  Murnaghan-Nakayama rule, removing a rim hook of length mu_1 from
  lam and going on with mu[1:].  The oracle reads no character: it
  decomposes by Young's rule.

The tests hold a third, independent rim-hook recursion on beta sets as
the reference for both.

The matrices start from the tableau pairing of ``specht_rows``: entry
(t, u) for sigma is the sign of the permutation sorting the boxes
(row of sigma(l) in u, column of l in t), l = 1..k, into row-major
order, and 0 when two boxes coincide.  The boxes are distinct exactly
when every column of t gets distinct rows, and then they fill the
diagram of the shape, the one 0-1 matrix with row sums lam and column
sums lam'.  Read in the order m = sigma(l), the position in u's row
word, the boxes' row-major ranks in that diagram form a permutation, and
the entry is sign(sigma) times its sign.  So only the nonzero entries are
ever visited: a trie of the row words of every u is walked once per t,
pruned at the first box that repeats or leaves the diagram.  The tests keep the box-sorting definition as the reference.

The action of sigma is its pairing matrix corrected by the pairing
matrix of the identity.  In the canonical tableau order that matrix is
upper triangular with diagonal +-1, so ``specht_action`` solves for the
correction by integer back-substitution and inverts nothing.  The matrix
model composes contravariantly: acting by sigma and then tau multiplies
to the matrix of tau o sigma.
"""

from functools import cache

from .combinatorics import (
    Partition,
    check_partition,
    check_permutation,
    col_word,
    hook_length_count,
    identity,
    inverse,
    row_word,
    sign,
    standard_tableaux,
)
from .ratmat import RationalMatrix


@cache
def _tableau_words(lam: Partition):
    """The trie of the row words of standard_tableaux(lam), the column
    word of each tableau, and the row-major rank of every box, for a
    nonempty shape lam.

    A trie node is a tuple of (row, child) pairs in increasing row order;
    at the last position the child is the tableau's index.  ranks[c][r]
    is the row-major rank of box (r, c) of the diagram, and k for a box
    outside it (row 0 and column 0 included).
    """
    tabs = standard_tableaux(lam)
    k = sum(lam)
    # bottom up, one position at a time: the nodes at depth d are keyed by
    # the prefixes of length d (no recursion, for shapes of many boxes)
    level: dict = {}
    for u, t in enumerate(tabs):
        word = row_word(t)
        level.setdefault(word[:-1], []).append((word[-1], u))
    for _ in range(k - 1):
        parents: dict = {}
        for prefix, children in level.items():
            parents.setdefault(prefix[:-1], []).append(
                (prefix[-1], tuple(sorted(children)))
            )
        level = parents

    starts = [0]
    for part in lam:
        starts.append(starts[-1] + part)
    ranks = tuple(
        (k,) + tuple(
            starts[r] + c - 1 if 0 < c <= part else k
            for r, part in enumerate(lam)
        )
        for c in range(lam[0] + 1)
    )
    return tuple(sorted(level[()])), tuple(map(col_word, tabs)), ranks


def specht_rows(lam: Partition, sigma) -> list[list[tuple[int, int]]]:
    """The nonzero entries of the tableau pairing of sigma, row by row.

    Row t lists the (u, +-1) pairs of the nonzero (t, u) entries of
    specht_raw(lam, sigma), in increasing u.  At position m of u's row
    word the walk places the box (r, c): r is u's row at m, and c is t's
    column at sigma^-1(m).  A set bit of the box mask means the box is
    taken, and the parity counts the taken boxes of higher rank, each an
    inversion of the ranks read in word order.  Boxes outside the
    diagram share rank k, whose bit is set from the start, so they are
    refused like taken ones; that bit also adds one to every placement's
    count of higher ranks, k in all, which the starting parity cancels.
    """
    lam = check_partition(lam)
    k = len(sigma)
    if sum(lam) != k:
        raise ValueError(f"shape {lam} has size {sum(lam)}, sigma moves {k}")
    if not k:
        return [[(0, 1)]]
    trie, col_words, ranks = _tableau_words(lam)
    positive = sign(sigma)
    last = k - 1
    start = (trie, 0, 1 << k, k & 1)
    back = [v - 1 for v in inverse(sigma)]
    out = []
    for word in col_words:
        cols = [ranks[word[v]] for v in back]
        row = []
        stack = [start]
        while stack:
            node, depth, mask, parity = stack.pop()
            rank = cols[depth]
            for r, child in node:
                rho = rank[r]
                if mask >> rho & 1:
                    continue
                odd = parity ^ (mask >> rho).bit_count() & 1
                if depth == last:
                    row.append((child, -positive if odd else positive))
                else:
                    stack.append((child, depth + 1, mask | 1 << rho, odd))
        row.sort()
        out.append(row)
    return out


def specht_raw(lam: Partition, sigma) -> RationalMatrix:
    """The tableau-pairing matrix of sigma for shape lam.

    Rows and columns run over standard_tableaux(lam) in canonical order,
    and the rows are those of specht_rows.  Invertible over the integers,
    but not yet multiplicative: see specht_action for the corrected
    module.
    """
    rows = specht_rows(lam, check_permutation(sigma))
    return RationalMatrix(rows, len(rows))


@cache
def _unit_rows(lam: Partition) -> list[list[tuple[int, int]]]:
    """specht_rows of the identity, once per shape."""
    return specht_rows(lam, identity(sum(lam)))


@cache
def specht_action(lam: Partition, sigma) -> RationalMatrix:
    """The irreducible action matrix of sigma for shape lam.

    The solution X of U X = specht_raw(lam, sigma), U the raw pairing
    matrix of the identity, so the identity permutation maps to the
    identity matrix and specht_action(lam, sigma) * specht_action(lam, tau)
    equals specht_action(lam, tau o sigma).

    U is upper triangular with diagonal +-1, so X is integral.  U_tu is
    nonzero exactly when the tabloid {u} occurs in the polytabloid e_t,
    and then {u} is dominated by {t} (Sagan, The Symmetric Group, 2.5):
    rows 1..i of t hold at least as many of 1..m as rows 1..i of u, for
    every i and m.  So in the first row where u and t differ, the first
    entry that differs is smaller in t, and u follows t in the canonical
    order, which reads each tableau row by row.  U_tt is the sign of the
    box permutation of t against itself.  X is solved from the last row
    up in integers: row t is U_tt times (row t of the right side, less
    U_tu times row u of X for every u > t).
    """
    rows = specht_rows(lam, check_permutation(sigma))
    unit = _unit_rows(lam)
    solved = [None] * len(rows)
    for t in reversed(range(len(rows))):
        (_, diagonal), *above = unit[t]
        acc = dict(rows[t])
        for u, a in above:
            for j, x in solved[u].items():
                acc[j] = acc.get(j, 0) - a * x
        solved[t] = {j: diagonal * x for j, x in acc.items() if x}
    return RationalMatrix(solved, len(rows))


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
def mn_character(lam: Partition, mu: Partition) -> int:
    """Character value of the irreducible lam on the class of cycle type
    mu, by Murnaghan-Nakayama: the signed sum, over the rim hooks of
    length mu_1 in lam, of the character of what is left on mu[1:].

    The parts of mu are removed in a loop, over the shapes left with
    their signed coefficients, so a class of any length is reached
    without recursion.  Once only parts 1 remain, the character of each
    shape left is its dimension f^shape, which the hook length formula
    gives.  The empty class gives 1."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"|{lam}| = {sum(lam)} but |{mu}| = {sum(mu)}")
    left = {lam: 1}
    for k in mu:
        if k == 1:
            break
        smaller_left: dict[Partition, int] = {}
        for shape, coeff in left.items():
            for smaller, sign in _rim_hooks(shape, k):
                smaller_left[smaller] = smaller_left.get(smaller, 0) + sign * coeff
        left = {shape: coeff for shape, coeff in smaller_left.items() if coeff}
    return sum(coeff * hook_length_count(shape) for shape, coeff in left.items())


__all__ = [
    "mn_character",
    "specht_action",
    "specht_raw",
    "specht_rows",
]
