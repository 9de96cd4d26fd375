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
from itertools import combinations, permutations as _permutations
from math import factorial


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


def inverse(p):
    """Inverse of a permutation in one-line notation."""
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def sign(p) -> int:
    """Sign of a permutation, computed from its cycle decomposition."""
    seen = [False] * len(p)
    s = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = p[v] - 1
            length += 1
        if length % 2 == 0:
            s = -s
    return s


def symmetric_group(k: int):
    """All permutations of [k], in lexicographic order."""
    return list(_permutations(range(1, k + 1)))


def cycle_type(p) -> Partition:
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

    Empty when k > n; the single empty map when k = 0.
    """
    if k < 0:
        raise ValueError(f"negative arity {k}")
    return list(combinations(range(1, n + 1), k))


def all_injections(k: int, n: int) -> list[tuple[int, ...]]:
    """All injections [k] -> [n] in lexicographic order.

    There are n(n-1)...(n-k+1) of them.
    """
    if k < 0:
        raise ValueError(f"negative arity {k}")
    return list(_permutations(range(1, n + 1), k))


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


def contains(inner: Partition, outer: Partition) -> bool:
    """Whether inner sits inside outer as a diagram."""
    return len(inner) <= len(outer) and all(
        a <= b for a, b in zip(inner, outer)
    )


def is_horizontal_strip_extension(inner: Partition, outer: Partition) -> bool:
    """True iff inner is contained in outer and outer minus inner has at
    most one box in each column."""
    if not contains(inner, outer):
        return False
    for j in range(1, (outer[0] if outer else 0) + 1):
        inner_col = sum(1 for part in inner if part >= j)
        outer_col = sum(1 for part in outer if part >= j)
        if outer_col - inner_col > 1:
            return False
    return True


def horizontal_strip_extensions(lam: Partition, size: int) -> list[Partition]:
    """All partitions of the given size extending lam by a horizontal strip."""
    return [
        mu for mu in partitions(size) if is_horizontal_strip_extension(lam, mu)
    ]


@cache
def hook_length_count(lam: Partition) -> int:
    """Number of standard tableaux of shape lam, by the hook length formula."""
    lam = check_partition(lam)
    conj = conjugate(lam)
    product = 1
    for i, row_len in enumerate(lam):
        for j in range(row_len):
            product *= (row_len - j) + (conj[j] - i) - 1
    return factorial(sum(lam)) // product


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
    k = sum(lam)

    def fill(value: int, row_lengths: list[int], rows: tuple[tuple[int, ...], ...]):
        if value > k:
            yield rows
            return
        for i in range(len(lam)):
            # next free box in row i must exist and have a filled box above
            j = row_lengths[i]
            if j >= lam[i]:
                continue
            if i > 0 and row_lengths[i - 1] <= j:
                continue
            row_lengths[i] += 1
            new_rows = rows[:i] + (rows[i] + (value,),) + rows[i + 1:]
            yield from fill(value + 1, row_lengths, new_rows)
            row_lengths[i] -= 1

    start = tuple(() for _ in lam)
    found = list(fill(1, [0] * len(lam), start))
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


def box_sign(rows, cols) -> int:
    """Sign of the permutation sorting the box list ((rows_l, cols_l)) into
    lexicographic order, or 0 if any box repeats.

    Zipping equal-length sequences of row and column indices gives a list
    of boxes in the plane; distinct boxes admit a unique sorting
    permutation whose sign is returned.
    """
    boxes = list(zip(rows, cols))
    if len(boxes) != len(set(boxes)):
        return 0
    order = {b: i + 1 for i, b in enumerate(sorted(boxes))}
    return sign(tuple(order[b] for b in boxes))


def falling_factorial(n: int, k: int) -> int:
    """n (n-1) ... (n-k+1); the number of injections [k] -> [n]."""
    product = 1
    for i in range(k):
        product *= n - i
    return product


__all__ = [
    "Partition",
    "Tableau",
    "all_injections",
    "box_sign",
    "check_partition",
    "class_representative",
    "class_size",
    "col_word",
    "compose",
    "conjugate",
    "contains",
    "cycle_type",
    "falling_factorial",
    "hook_length_count",
    "horizontal_strip_extensions",
    "identity",
    "inverse",
    "is_horizontal_strip_extension",
    "monotone_injections",
    "monotone_part",
    "partitions",
    "row_word",
    "sign",
    "sorting_permutation",
    "standard_tableaux",
    "symmetric_group",
]
