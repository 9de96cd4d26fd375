"""Partitions, standard Young tableaux, injections, and their bookkeeping maps.

Conventions used across the package:

* everything is 1-indexed: ``[n]`` means ``{1, ..., n}``;
* a permutation of ``[k]`` is a tuple of length ``k`` in one-line notation;
* an injection ``[x] -> [y]`` is a tuple of ``x`` distinct values in
  ``1..y`` (the target arity ``y`` is passed explicitly where it matters);
* a partition is a non-increasing tuple of positive ints, ``()`` is empty;
* a tableau of shape ``lam`` is a tuple of row tuples filled bijectively
  with ``1..|lam|``, increasing along rows and down columns.

All functions are pure; all values are immutable.
"""

from functools import cache
from itertools import combinations, compress, permutations as _permutations
from math import factorial, isqrt, perm, prod


Partition = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# permutations and injections
# ---------------------------------------------------------------------------

def compose(g, f):
    """Composite g o f, i.e. v -> g(f(v)).

    Works uniformly for permutations and injections written as tuples:
    f may map into [len(g)], the result maps into g's target.
    """
    return tuple(g[v - 1] for v in f)


def identity(k: int) -> tuple[int, ...]:
    return tuple(range(1, k + 1))


def check_permutation(p) -> tuple[int, ...]:
    """Validate and return p as a permutation of [len(p)] in one-line
    notation."""
    p = tuple(p)
    points = range(1, len(p) + 1)
    if not all(isinstance(v, int) for v in p) or sorted(p) != list(points):
        raise ValueError(f"{list(p)} is not a permutation of 1..{len(p)}")
    return p


def inverse(p):
    """Inverse of a permutation in one-line notation."""
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def sign(p) -> int:
    """Sign of a permutation, computed from its cycle decomposition."""
    visited = [False] * len(p)
    s = 1
    for start in range(len(p)):
        if visited[start]:
            continue
        length = 0
        v = start
        while not visited[v]:
            visited[v] = True
            v = p[v] - 1
            length += 1
        if length % 2 == 0:
            s = -s
    return s


def class_representative(mu: Partition) -> tuple[int, ...]:
    """Canonical permutation of cycle type mu.

    Cycles sit on consecutive integers, longest first: mu = (3, 2) gives
    the one-line tuple (2, 3, 1, 5, 4).
    """
    images = []
    start = 1
    for part in mu:
        images.extend(range(start + 1, start + part))
        images.append(start)
        start += part
    return tuple(images)


def monotone_injections(k: int, n: int) -> list[tuple[int, ...]]:
    """All strictly increasing injections [k] -> [n], lexicographically.

    Empty when k > n; the single empty map when k = 0, for any n, both
    before itertools allocates for n and k (the CLI passes n = 10**18).
    """
    if k < 0:
        raise ValueError(f"negative arity {k}")
    if k > n:
        return []
    return list(combinations(range(1, n + 1), k)) if k else [()]


def all_injections(k: int, n: int) -> list[tuple[int, ...]]:
    """All injections [k] -> [n] in lexicographic order.

    There are n(n-1)...(n-k+1) of them: none when k > n, and the single
    empty map when k = 0, for any n, both before itertools allocates.
    """
    if k < 0:
        raise ValueError(f"negative arity {k}")
    if k > n:
        return []
    return list(_permutations(range(1, n + 1), k)) if k else [()]


def sorting_permutation(p) -> tuple[int, ...]:
    """The unique permutation s with p o s^{-1} strictly increasing.

    Sends each position to the rank of its value within sorted(p); the
    identity exactly when p is already monotone.
    """
    monotonic = sorted(p)
    rank = {v: i + 1 for i, v in enumerate(monotonic)}
    return tuple(rank[v] for v in p)


def monotone_part(f) -> tuple[int, ...]:
    """The monotone injection with the same image as f.

    Satisfies f = monotone_part(f) o sorting_permutation(f).
    """
    return tuple(sorted(f))


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def check_partition(lam) -> Partition:
    """Validate and return lam as a partition tuple."""
    lam = tuple(lam)
    for a, b in zip(lam, lam[1:]):
        if b > a:
            raise ValueError(f"{lam} is not in non-increasing order")
    if lam and lam[-1] <= 0:
        raise ValueError(f"{lam} has non-positive parts")
    return lam


@cache
def partitions(k: int) -> tuple[Partition, ...]:
    """All partitions of k, in descending lexicographic order.

    partitions(0) is ((),); partitions(3) is ((3,), (2, 1), (1, 1, 1)).
    """
    if k < 0:
        raise ValueError(f"negative size {k}")

    def gen(remaining: int, largest: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(remaining, largest), 0, -1):
            yield from gen(remaining - part, part, prefix + (part,))

    return tuple(gen(k, k, ()))


def conjugate(lam: Partition) -> Partition:
    """Transpose of a partition (columns become rows)."""
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0]))


def _interlacing(lo: Partition, hi: Partition, total: int, i: int = 0):
    """Yield the partitions of total with at most len(hi) parts, the i-th
    in [lo_i, hi_i], in descending lexicographic order.

    The bounds interlace, hi_(i+1) <= lo_i, so every such tuple is
    non-increasing.  Each part is also held to what the later rows can
    still take, between the sums of their lo and of their hi, so every
    branch of the walk yields, and the work is bounded by the output,
    not by the partitions of total.
    """
    if i == len(hi):
        if total == 0:
            yield ()
        return
    top = min(hi[i], total - sum(lo[i + 1:]))
    for part in range(top, max(lo[i], total - sum(hi[i + 1:])) - 1, -1):
        for rest in _interlacing(lo, hi, total - part, i + 1):
            yield (part, *rest) if part else rest


def horizontal_strip_extensions(lam: Partition, size: int) -> list[Partition]:
    """All partitions of the given size extending lam by a horizontal
    strip: those mu with mu_1 >= lam_1 >= mu_2 >= ... >= lam_l >= mu_(l+1),
    in descending lexicographic order."""
    return list(_interlacing(lam + (0,), (size,) + lam, size))


def horizontal_strip_removals(lam: Partition, size: int) -> list[Partition]:
    """All partitions of the given size that lam extends by a horizontal
    strip: those rho with lam_1 >= rho_1 >= lam_2 >= rho_2 >= ..., in
    descending lexicographic order."""
    return list(_interlacing(lam[1:] + (0,), lam, size))


@cache
def hook_length_count(lam: Partition) -> int:
    """Number of standard tableaux of shape lam, by the hook length formula.

    n! / prod(hooks) is formed prime by prime, with no big division: the
    exponent of p is Legendre's sum over the powers q of p of n // q,
    less the number of hooks that q divides.  What is left is multiplied
    as a balanced product tree; one factor at a time is quadratic.
    """
    lam = check_partition(lam)
    n = sum(lam)
    conj = conjugate(lam)
    hooks = [0] * (n + 1)  # hooks[h]: boxes with hook length h
    for i, row_len in enumerate(lam):
        for j in range(row_len):
            hooks[(row_len - j) + (conj[j] - i) - 1] += 1
    is_prime = bytearray([0, 0]) + bytearray([1]) * (n - 1)
    for p in range(2, isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    factors = []
    for p in compress(range(n + 1), is_prime):
        e = 0
        q = p
        while q <= n:
            e += n // q - sum(hooks[q::q])
            q *= p
        if e:
            factors.append(p**e)
    while len(factors) > 1:
        factors = [prod(factors[i:i + 2]) for i in range(0, len(factors), 2)]
    return factors[0] if factors else 1


def class_size(mu: Partition) -> int:
    """Size of the conjugacy class of cycle type mu inside S_{|mu|}."""
    n = sum(mu)
    centralizer = 1
    for part in set(mu):
        m = mu.count(part)
        centralizer *= part**m * factorial(m)
    return factorial(n) // centralizer


# ---------------------------------------------------------------------------
# standard tableaux
# ---------------------------------------------------------------------------

@cache
def standard_tableaux(lam: Partition) -> tuple[Tableau, ...]:
    """All standard tableaux of shape lam, sorted by row-reading word.

    The canonical order of this package: tableaux are compared by the
    tuple of entries read row by row, left to right, ascending.  The
    lexicographic filling (1..lam_1 in the first row, and so on) comes
    first.  Matrix-valued functions index rows and columns by this order.
    """
    lam = check_partition(lam)
    # fill 1, 2, ... in turn, each into every row whose next box is free
    # and has a filled box above it
    found = [tuple(() for _ in lam)]
    for value in range(1, sum(lam) + 1):
        found = [
            rows[:i] + (rows[i] + (value,),) + rows[i + 1:]
            for rows in found
            for i, part in enumerate(lam)
            if len(rows[i]) < part and (i == 0 or len(rows[i - 1]) > len(rows[i]))
        ]
    found.sort(key=lambda t: tuple(v for row in t for v in row))
    return tuple(found)


def row_word(t: Tableau) -> tuple[int, ...]:
    """Position l holds the row index of the box containing entry l."""
    k = sum(len(row) for row in t)
    word = [0] * k
    for i, row in enumerate(t):
        for v in row:
            word[v - 1] = i + 1
    return tuple(word)


def col_word(t: Tableau) -> tuple[int, ...]:
    """Position l holds the column index of the box containing entry l."""
    k = sum(len(row) for row in t)
    word = [0] * k
    for row in t:
        for j, v in enumerate(row):
            word[v - 1] = j + 1
    return tuple(word)


def falling_factorial(n: int, k: int) -> int:
    """n (n-1) ... (n-k+1); the number of injections [k] -> [n]."""
    return perm(n, k)


__all__ = [
    "Partition",
    "Tableau",
    "all_injections",
    "check_partition",
    "check_permutation",
    "class_representative",
    "class_size",
    "col_word",
    "compose",
    "conjugate",
    "falling_factorial",
    "hook_length_count",
    "horizontal_strip_extensions",
    "horizontal_strip_removals",
    "identity",
    "inverse",
    "monotone_injections",
    "monotone_part",
    "partitions",
    "row_word",
    "sign",
    "sorting_permutation",
    "standard_tableaux",
]
