"""Every resource budget, and the one comparison they share.

``FISTAB_ORACLE_CAP`` (default 5000) is the one cap.  At a degree n the
oracle allows the cap in ambient rows, the injections [x] -> [n] over
the generator degrees x, and ten times it in relation columns, the same
sum over the degrees of the relations with an entry (:func:`check_degree`,
checked on every call, before the cache of evaluated degrees is read).
Decomposing pairs every top shape with every group of classes by short
cycles, at most p(n) of each, so p(n)^2 may be a hundred times the cap
(:func:`check_classes`, before any trace): n <= 20 at the default.  The
closed form, ``specht`` and ``amatrix`` allow 2000 times it, 10 M at the
default, in the cells of one matrix, nonzero or not (:func:`check_cells`).

Every count is a sum or a product of falling factorials, binomials and
f^lam, and each has a lower bound that costs nothing: n (n - 1) ...
(n - d + 1) >= 2^(d - 1) for d <= n, as every factor but the last is at
least 2; C(x, k) >= 2^min(k, x - k) for k <= x; and f^lam is at least
the count for the hook inside lam, C(lam_1 + l - 2, l - 1) for l rows.
A count that such a bound alone proves over its budget is refused as
needing "more than" the budget, and is never multiplied out or printed
(:func:`_check`).  Every other count is computed, compared and printed.
"""

import os
from decimal import Decimal
from math import comb

from .combinatorics import falling_factorial, hook_length_count

DEFAULT_ROW_CAP = 5000
ROW_CAP_ENV = "FISTAB_ORACLE_CAP"


class ResourceCapError(RuntimeError):
    """Raised when a computation would exceed the configured budget."""


def row_cap() -> int:
    """The configured ambient row cap; a set value must be a positive int."""
    raw = os.environ.get(ROW_CAP_ENV)
    if not raw:
        return DEFAULT_ROW_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = None
    if cap is None or cap <= 0:
        raise ValueError(
            f"{ROW_CAP_ENV} must be a positive integer, got {raw!r}"
        )
    return cap


def figure(n: int) -> str:
    """n in digits, or in scientific notation when it has more digits
    than the interpreter converts to text."""
    try:
        return str(n)
    except ValueError:
        return f"{Decimal(n):.3e}"


def _check(refusal: str, budget: int, floor: int, count) -> None:
    """Refuse a count over budget, in refusal with {} for the count.

    2^floor is a lower bound on the count: if it is over the budget, the
    count shows as "more than budget", uncomputed.  Otherwise count()
    gives the count and its text.
    """
    if floor >= budget.bit_length():
        shown = f"more than {budget}"
    else:
        value, shown = count()
        if value <= budget:
            return
    raise ResourceCapError(f"{refusal.format(shown)} (raise {ROW_CAP_ENV} to override)")


def _comb_floor(x: int, k: int) -> int:
    """b with C(x, k) >= 2^b when k <= x, and 0 otherwise."""
    return min(k, x - k) if 0 <= k <= x else 0


def _figured(value: int) -> tuple[int, str]:
    return value, figure(value)


def check_degree(z, n: int) -> None:
    """Refuse degree n of z if its ambient rows or its relation columns
    are over their budgets."""
    cap, used = row_cap(), {j for _, j in z.entries}
    for degrees, budget, what in (
        (z.generator_degrees, cap, "ambient rows, cap is"),
        ([y for j, y in enumerate(z.relation_degrees) if j in used], 10 * cap,
         "relation columns, budget is"),
    ):
        _check(f"degree {n} needs {{}} {what} {budget}", budget,
               max((d - 1 for d in degrees if d <= n), default=0),
               lambda: _figured(sum(falling_factorial(n, d) for d in degrees)))


def check_classes(n: int) -> None:
    """Refuse to decompose a degree with more than sqrt(100 * cap) classes,
    counted by Euler's pentagonal number recurrence from p(0) up, which
    enumerates no partition and stops at the first count over."""
    budget = 100 * row_cap()
    counts: list = []
    for m in range(n + 1):
        classes = sum(
            (-1) ** (k + 1) * counts[m - j]
            for k in range(1, m + 1)
            for j in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2) if j <= m
        ) if m else 1
        counts.append(classes)
        at_least = "" if m == n else "at least "
        _check(
            f"degree {n} has {{}} is over the class budget of {budget}, which "
            "bounds the (shape, cycle count) pairs that decomposing sums over",
            budget, 0, lambda: (classes * classes, f"{at_least}{classes} "
                                f"classes; {classes}^2 = {classes * classes}"),
        )


def check_cells(lam, z=None) -> None:
    """Refuse shape lam if its matrix is over the cell budget.

    That is z's transported matrix, sum_i C(x_i, |lam|) by sum_j
    C(y_j, |lam|) blocks, each f^lam square, or without z, lam's Specht
    matrix, sized as one block: C(|lam|, |lam|) = 1.  A side without
    blocks counts as one, since the other side is built all the same;
    with none at all the matrix is empty.
    """
    k = sum(lam)
    sides = ((k,), (k,)) if z is None else (z.generator_degrees, z.relation_degrees)
    if all(x < k for side in sides for x in side):
        return
    budget = 2000 * row_cap()
    floor = 2 * _comb_floor(lam[0] + len(lam) - 2, len(lam) - 1) if lam else 0
    floor += sum(max((_comb_floor(x, k) for x in side), default=0) for side in sides)

    def count():
        dim = hook_length_count(lam)
        rows, cols = (dim * sum(comb(x, k) for x in side) for side in sides)
        cells = max(rows, dim) * max(cols, dim)
        return cells, f"a {figure(rows)}x{figure(cols)} matrix, {figure(cells)}"

    _check(f"shape {lam} needs {{}} cells, budget is {budget}", budget, floor, count)
