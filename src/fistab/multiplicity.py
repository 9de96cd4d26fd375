"""Eventual multiplicities, the stable dimension polynomial, and the onset.

Once the degree passes the onset bound (the largest generator degree g
plus the larger of g and the largest relation degree r), the
decomposition of a finitely presented FI-module stops changing except
for the growing top rows, and its dimension follows an exact
polynomial.  Both are read off from coranks of
the transported presentation matrices, one per partition up to the
largest generator degree.  Every shape's matrix is sized before the
first one is built, and a shape over the cell budget of
:func:`fistab.budget.check_cells` refuses the whole table.
"""

from fractions import Fraction
from math import comb, factorial, lcm

from .budget import check_cells
from .combinatorics import Partition, check_partition, hook_length_count, partitions
from .presentation import PresentationMatrix, induced_raw_presentation
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


def check_transport_size(z: PresentationMatrix, lam: Partition) -> None:
    """Refuse shape lam if its transported matrix of z is over the budget.

    The matrix has sum_i C(x_i, |lam|) block rows and sum_j C(y_j, |lam|)
    block columns, each block f^lam square.  With no blocks at all it is
    empty, and f^lam is not computed.
    """
    k = sum(lam)
    row_blocks = sum(comb(x, k) for x in z.generator_degrees)
    col_blocks = sum(comb(y, k) for y in z.relation_degrees)
    if row_blocks or col_blocks:
        check_cells(lam, hook_length_count(lam), row_blocks, col_blocks)


def eventual_multiplicities(z: PresentationMatrix) -> MultiplicityTable:
    """Corank of the transported presentation, for every relevant shape.

    Every shape is sized, smallest first, before the first is built.
    """
    shapes = []
    for size in range(z.max_generator_degree + 1):
        for lam in partitions(size):
            check_transport_size(z, lam)
            shapes.append(lam)
    counts = {lam: induced_raw_presentation(lam, z).corank() for lam in shapes}
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

    ``coeffs`` are Fractions, ascending degree, no trailing zeros.
    """

    __slots__ = ("coeffs", "onset")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else 0

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


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _shape_term(lam: Partition) -> list[Fraction]:
    """Coefficients of the degree polynomial contributed by one shape.

    With m = |lam| and l_i = lam_i + m - i for i = 1..m (missing parts
    count as zero), the term is

        prod_{i<j} (l_i - l_j) / prod_i (l_i)!  *  prod_i (n - l_i),

    a polynomial of degree m; both products are 1 when lam is empty.
    """
    m = sum(lam)
    parts = list(lam) + [0] * (m - len(lam))
    ls = [parts[i] + m - (i + 1) for i in range(m)]
    scalar = Fraction(1)
    for i in range(m):
        for j in range(i + 1, m):
            scalar *= ls[i] - ls[j]
        scalar /= factorial(ls[i])
    poly = [scalar]
    for l in ls:
        poly = _poly_mul(poly, [Fraction(-l), Fraction(1)])
    return poly


def dimension_polynomial(
    z: PresentationMatrix, table: MultiplicityTable | None = None
) -> DimensionPolynomial:
    """The stable dimension polynomial of the presented module.

    Sums each shape's term weighted by its eventual multiplicity; exact
    rational coefficients, valid from the onset bound.  A caller that
    already holds ``eventual_multiplicities(z)`` passes it as ``table``
    so it is not built again.
    """
    if table is None:
        table = eventual_multiplicities(z)
    total = [Fraction(0)] * (z.max_generator_degree + 1)
    for lam, count in table:
        if count == 0:
            continue
        for e, c in enumerate(_shape_term(lam)):
            total[e] += count * c
    while total and total[-1] == 0:
        total.pop()
    return DimensionPolynomial(tuple(total), onset_bound(z))


__all__ = [
    "DimensionPolynomial",
    "MultiplicityTable",
    "check_transport_size",
    "dimension_polynomial",
    "eventual_multiplicities",
    "onset_bound",
]
