"""Eventual multiplicities, the stable dimension polynomial, and the onset.

Once the degree passes the onset bound (the largest generator degree g
plus the larger of g and the largest relation degree r), the
decomposition of a finitely presented FI-module stops changing except
for the growing top rows, and its dimension follows an exact
polynomial.  The multiplicities are read off from coranks of the
transported presentation matrices, one per partition up to the largest
generator degree.  Every shape's matrix of z is sized before the first
one is built, and a shape over the cell budget of
:func:`fistab.budget.check_cells` refuses the whole table.

The matrices actually built are smaller.  For each size k the unit
pivots of z's size-k presentation are eliminated once, fraction-free
over Z[S_k], before any Specht block exists, and each shape of size k
takes its corank on the integral core that is left.  The elimination is
a block row operation on every shape's matrix at once, valid because the
Specht action reverses products (see :mod:`fistab.presentation`), so
every corank is unchanged; the budget still sizes the matrix of z.

The polynomial is written down from the table, with no sampling.  By
the hook length formula, f^(n - k, lam) for lam of size k is n! over
lam's hooks (their product is k! / f^lam) and the first row's: 1, ...,
n - k - lam_1, which cancel against n!, and above each column j <= lam_1
n - (k + j - 1 - lam'_j), lam' the conjugate, distinct as they increase
with j.  That leaves (f^lam / k!) prod (n - i) over k values i in
0, ..., k + lam_1 - 1, as in Church-Ellenberg-Farb (arXiv:1204.4533).
"""

from fractions import Fraction
from math import factorial, lcm

from .budget import check_cells
from .combinatorics import (
    Partition, check_partition, conjugate, hook_length_count, partitions,
)
from .presentation import (
    PresentationMatrix,
    _reduced_presentation,
    induced_raw_presentation,
)
from .record import Record


class MultiplicityTable(Record):
    """Eventual multiplicity of every partition up to the generator bound.

    ``counts`` holds one entry (zeros included) for each partition of
    size at most ``max_generator_degree``, in table order (by size, then
    descending lex), which is the order iteration yields its (shape,
    count) pairs in; partitions beyond that bound have multiplicity 0
    implicitly.  As ``counts`` is a dict, a table is not hashable.
    """

    __slots__ = ("counts", "max_generator_degree", "max_relation_degree")

    def __getitem__(self, lam: Partition) -> int:
        lam = check_partition(lam)
        if sum(lam) > self.max_generator_degree:
            return 0
        return self.counts[lam]

    def __iter__(self):
        return iter(self.counts.items())


def eventual_multiplicities(z: PresentationMatrix) -> MultiplicityTable:
    """Corank of the transported presentation, for every relevant shape.

    Every shape is sized on z, smallest first, before the first matrix is
    built.  Then each size k reduces z once to its core and each shape of
    size k takes the corank of the core's transport, which equals that of
    z's.
    """
    sizes = range(z.max_generator_degree + 1)
    for size in sizes:
        for lam in partitions(size):
            check_cells(lam, z)
    counts = {}
    for size in sizes:
        core = _reduced_presentation(z, size)
        for lam in partitions(size):
            counts[lam] = induced_raw_presentation(lam, core).corank()
    return MultiplicityTable(
        counts, z.max_generator_degree, z.max_relation_degree
    )


def onset_bound(z: PresentationMatrix) -> int:
    """Degree from which the eventual multiplicities are attained.

    With g the largest generator degree and r the largest relation
    degree, the bound is g + max(g, r).  Two conditions meet here.  A
    table shape lam, of size at most g, shows up at degree n as
    (n - |lam|, lam), which is a partition only when n >= |lam| + lam_1;
    since lam_1 <= |lam| <= g, every table shape is visible once
    n >= 2g, and a free module M(g) has not reached its stable
    decomposition before then.  The relations settle from g + r, the
    stable range of a module generated in degree <= g and related in
    degree <= r.  When r >= g the second condition is the binding one
    and the bound is g + r; when r < g, as for a free module with no
    relations at all, it is 2g.
    """
    g = z.max_generator_degree
    return g + max(g, z.max_relation_degree)


class DimensionPolynomial(Record):
    """Exact polynomial giving dim M[n] for every degree n >= onset.

    ``coeffs`` are Fractions, ascending degree, no trailing zeros; for g
    the largest generator degree, g! times each is an integer.
    """

    __slots__ = ("coeffs", "onset")

    def __call__(self, n: int):
        value = sum((c * n**e for e, c in enumerate(self.coeffs)), Fraction(0))
        return int(value) if value.denominator == 1 else value

    def __str__(self):
        if not self.coeffs:
            return "0"
        denom = lcm(*(c.denominator for c in self.coeffs))
        terms = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = int(self.coeffs[e] * denom)
            if c == 0:
                continue
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "n" if e == 1 else f"n^{e}"
                body = var if mag == 1 else f"{mag}{var}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        numerator = " ".join(terms) if terms else "0"
        if denom == 1:
            return numerator
        return f"({numerator})/{denom}"


def dimension_polynomial(
    z: PresentationMatrix, table: MultiplicityTable | None = None
) -> DimensionPolynomial:
    """The stable dimension polynomial of the presented module.

    Beyond the onset, dim M[n] is the sum of m_lam f^(n - |lam|, lam)
    over the table: f^lam / |lam|! times |lam| factors n - i each (see
    the module docstring), summed in integers as g! dim M[n], g the
    largest generator degree, and divided by g! once.  A caller that
    already holds ``eventual_multiplicities(z)`` passes it as ``table``.
    """
    if table is None:
        table = eventual_multiplicities(z)
    scale = factorial(z.max_generator_degree)
    total = []  # ascending in n; each m_lam >= 0, so the top one is not 0
    for lam, m in table:
        if m:
            k, conj = sum(lam), conjugate(lam)
            removed = {k + j - c for j, c in enumerate(conj)}
            term = [m * hook_length_count(lam) * (scale // factorial(k))]
            for i in set(range(k + len(conj))) - removed:  # term * (n - i)
                term = [a - i * b for a, b in zip([0] + term, term + [0])]
            total += [0] * (len(term) - len(total))
            for e, c in enumerate(term):
                total[e] += c
    return DimensionPolynomial(tuple(Fraction(c, scale) for c in total), onset_bound(z))


__all__ = [
    "DimensionPolynomial",
    "MultiplicityTable",
    "dimension_polynomial",
    "eventual_multiplicities",
    "onset_bound",
]
