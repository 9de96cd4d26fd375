"""Degree-wise brute force: evaluate the presented module, take traces,
decompose into irreducibles.

Nothing here touches the corank formula.  A degree n is evaluated by
writing out the relation matrix on the full injection bases and
computing an exact integer row echelon of its transpose (rank and an
image basis); symmetric-group traces are read off that basis, and
multiplicities come from Young's rule and Kostka numbers, with no
irreducible character.  Agreement with the closed form is checked by
:func:`verify`.

The echelon is :class:`fistab.ratmat.Echelon`, the engine behind every
rank in the package.  Each relation column is scaled once by the lcm of
its coefficient denominators, which keeps the span, so every relation
row is a sparse dict of ints.  Each term g becomes an itemgetter that
takes an injection h to h o g, built once per column.  A row equal, up
to a nonzero scalar, to an earlier one is dependent and is dropped; the
key is its sorted items over their content, first value positive, in
one flat tuple.  Rows repeat when a permutation fixes a relation: on E
at n = 10 only 1,260 of the 5,040 rows are kept.  The kept rows arrive
with their leading columns mostly rising, so they are fed to the echelon
last first.  A new pivot then almost always lies left of every kept
pivot, and no kept row has an entry there to clear: on E at n = 10 the
595 independent rows clear 1,021 earlier rows, against 17,198 when fed
first to last.  The echelon keeps its basis fully reduced as rows
arrive: every basis row is zero at every other row's pivot.  The trace
on the relation image relies on that invariant, because it makes the
coordinate of an image vector on a basis row the vector's value at that
row's pivot, over the pivot value.  The first trace at a degree groups
the basis rows by pivot value into a plan, so each later trace sums
plain ints and makes one Fraction per pivot value.  The dense relation
matrix is built only in the tests, as the reference the ranks are
checked against.

Decomposition takes one trace per vector (c_1, ..., c_g) of the numbers
of cycles of each length up to g, the largest generator degree, weighted
by the size of all the classes with that vector: on the triangle at
n = 16, 65 traces for 231 classes.  By Pieri only the top shapes, top
row at least n - g, occur, and over them the Kostka matrix is
unitriangular, so the character is an integer combination of the
permutation characters on their tabloids, which see only c_1, ..., c_g
(see :meth:`DegreeEvaluation.decompose`).  Counting the tabloids each
vector fixes gives d_mu = dim M[n]^{S_mu}, which by Young's rule is the
sum of K_{lam mu} m_lam over lam dominating mu.  The system is solved in
descending lexicographic order, and the top shapes' multiplicities times
their dimensions must add up to dim M[n].

Because work grows quickly with the degree, evaluation refuses degrees
beyond a budget: ambient rows above the cap (default 5000) or relation
columns above ten times it.  Decomposition also refuses a degree whose
class count p(n), squared, exceeds a hundred times the cap, before any
trace is taken: it groups every class by its short cycles and pairs
every top shape with every group, and there are at most p(n) of each.
At the default cap that admits n <= 20 and refuses n = 21.  Override
with FISTAB_ORACLE_CAP (:mod:`fistab.budget`).  The budget is checked on
every call, before the cache of evaluated degrees is consulted.
"""

from bisect import bisect_right
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from math import comb, factorial, gcd, lcm
from operator import itemgetter

from .budget import ROW_CAP_ENV, ResourceCapError, figure, row_cap
from .combinatorics import (
    Partition,
    all_injections,
    check_partition,
    check_permutation,
    class_representative,
    class_size,
    falling_factorial,
    hook_length_count,
    horizontal_strip_removals,
    inverse,
    partitions,
)
from .multiplicity import dimension_polynomial, eventual_multiplicities, onset_bound
from .presentation import PresentationMatrix
from .ratmat import Echelon
from .record import Record


class DegreeEvaluation:
    """One degree of the presented module, evaluated exactly.

    The module at this degree is the cokernel of the relation matrix on
    injection bases; its dimension is the ambient dimension minus the
    matrix rank.  The reduced image basis supports trace extraction for
    every conjugacy class.  The repr shows n, ambient_dim and rank only;
    equality compares every field, and an evaluation is not hashable.
    """

    def __init__(
        self,
        n: int,
        ambient_dim: int,
        rank: int,
        _z: PresentationMatrix,
        _offsets: list[int],
        _injections: list[list[tuple[int, ...]]],
        _index: list[dict[tuple[int, ...], int]],
        _basis: Echelon,
    ):
        self.n = n
        self.ambient_dim = ambient_dim
        self.rank = rank
        self._z = _z
        self._offsets = _offsets
        self._injections = _injections
        self._index = _index
        self._basis = _basis

    def _fields(self) -> tuple:
        return (
            self.n, self.ambient_dim, self.rank, self._z,
            self._offsets, self._injections, self._index, self._basis,
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self):
        return (
            f"DegreeEvaluation(n={self.n!r}, ambient_dim={self.ambient_dim!r}, "
            f"rank={self.rank!r})"
        )

    @property
    def cokernel_dim(self) -> int:
        return self.ambient_dim - self.rank

    @cached_property
    def _trace_plan(self) -> tuple:
        """The reduced image basis, grouped by pivot value, for traces.

        Each pivot value maps to one (row, generator offset, index dict,
        injection) entry per basis row with that pivot value, the
        injection being the one at the row's pivot.  Built on the first
        trace, so evaluating a degree never pays for it.
        """
        groups: dict[int, list] = {}
        for col, idx in self._basis.pivots.items():
            row = self._basis.rows[idx]
            gen = bisect_right(self._offsets, col) - 1
            offset = self._offsets[gen]
            injection = self._injections[gen][col - offset]
            groups.setdefault(row[col], []).append(
                (row, offset, self._index[gen], injection)
            )
        return tuple(groups.items())

    def _image_trace(self, sigma) -> Fraction:
        """Trace of a permutation restricted to the relation image.

        The image is stable under the action.  The basis is fully
        reduced, so the coefficient of basis row l in any image vector v
        is v at l's pivot coordinate, divided by the pivot value.  Those
        values are summed per pivot value, one Fraction each.
        """
        # point v -> sigma^-1(v), so mapping an injection composes it
        sigma_inv = (0, *inverse(sigma)).__getitem__
        total = Fraction(0)
        for pivot, entries in self._trace_plan:
            value = sum(
                row.get(offset + index[tuple(map(sigma_inv, injection))], 0)
                for row, offset, index, injection in entries
            )
            if value:
                total += Fraction(value, pivot)
        return total

    def permutation_trace(self, sigma) -> int:
        """Character of the module at this degree, on any permutation."""
        sigma = check_permutation(sigma)
        if len(sigma) != self.n:
            raise ValueError(f"permutation of {len(sigma)} points at degree {self.n}")
        fixed = sum(1 for i, v in enumerate(sigma, start=1) if v == i)
        ambient = sum(
            falling_factorial(fixed, x) for x in self._z.generator_degrees
        )
        trace = ambient - self._image_trace(sigma)
        if trace.denominator != 1:
            raise ArithmeticError(
                f"non-integer character value {trace} for {sigma}"
            )
        return int(trace)

    def cokernel_trace(self, mu: Partition) -> int:
        """Character of the module at this degree, on the class mu."""
        mu = check_partition(mu)
        if sum(mu) != self.n:
            raise ValueError(f"class {mu} is not a cycle type for degree {self.n}")
        return self.permutation_trace(class_representative(mu))

    def decompose(self) -> dict[Partition, int]:
        """Multiplicity of every irreducible at this degree.

        M[n] is a quotient of the sum of the M(x)[n], x the generator
        degrees, and by Pieri every constituent of M(x)[n] has a top row
        of at least n - x.  So only the top shapes, those with
        lam_1 >= n - g for the largest generator degree g, can occur.
        For each top shape mu, d_mu = <chi, 1 induced from S_mu> is the
        class-weighted sum of traces times the tabloids of shape mu that
        the class fixes, over n!; by Young's rule it equals the sum of
        K_{lam mu} m_lam over lam dominating mu, all of them top shapes.
        Solving in descending lexicographic order gives each m_mu.

        The same unitriangular system read the other way writes chi as
        an integer combination of the permutation characters of the top
        shapes.  A tabloid of shape mu is fixed exactly when each row is
        a union of cycles, and the rows below the top hold
        n - mu_1 <= g boxes, so a cycle longer than g lies in the top
        row: the count sees only the numbers c_1, ..., c_g of cycles of
        length up to g.  So chi is constant on the classes that share
        those numbers, and one trace, on the first such class, stands for
        all of them, weighted by the sum of their sizes.  This is the
        exact-degree counterpart of the character polynomials in c_1, ...,
        c_g of Church, Ellenberg and Farb (arXiv:1204.4533), which hold
        only for n large.

        Every shape outside the top gets 0, and that is checked, not
        assumed: the top shapes' multiplicities times their dimensions
        must add up to the cokernel dimension, and as no multiplicity is
        negative, a match leaves nothing for any other shape.  A degree
        with too many classes is refused before any trace is taken.  A
        non-integer d_mu, a negative multiplicity or a dimension mismatch
        indicates an internal inconsistency and raises ArithmeticError.
        """
        n = self.n
        _check_class_budget(n)
        g = min(self._z.max_generator_degree, n)
        # each vector of counts keeps its first class and its classes' size
        groups: dict[tuple[int, ...], list] = {}
        for nu in partitions(n):
            counts = tuple(nu.count(j) for j in range(1, g + 1))
            groups.setdefault(counts, [nu, 0])[1] += class_size(nu)
        weights = {
            counts: size * self.cokernel_trace(nu)
            for counts, (nu, size) in groups.items()
        }
        order = factorial(n)
        found: dict[Partition, int] = {}
        dimension = 0
        for mu in _top_shapes(n, g):
            total = sum(
                weight * _fixed_tabloids(mu[1:], counts)
                for counts, weight in weights.items()
            )
            invariants, remainder = divmod(total, order)
            if remainder != 0:
                raise ArithmeticError(
                    f"invariants of the Young subgroup of {mu} came out as "
                    f"{Fraction(total, order)}"
                )
            count = invariants - sum(
                _kostka(lam, mu) * m for lam, m in found.items()
            )
            if count < 0:
                raise ArithmeticError(f"multiplicity of {mu} came out as {count}")
            found[mu] = count
            dimension += count * hook_length_count(mu)
        if dimension != self.cokernel_dim:
            raise ArithmeticError(
                f"shapes with top row >= {n - g} give dimension {dimension}, "
                f"not {self.cokernel_dim}"
            )
        return {lam: found.get(lam, 0) for lam in partitions(n)}


def _top_shapes(n: int, g: int) -> list[Partition]:
    """The partitions of n with top row at least n - g, in descending
    lexicographic order."""
    return [lam for lam in partitions(n) if sum(lam[1:]) <= g]


@cache
def _fixed_tabloids(rows: Partition, counts: tuple[int, ...]) -> int:
    """The tabloids a permutation fixes, counted from its cycles.

    The permutation has counts[j - 1] cycles of length j for each j up
    to len(counts), which must reach sum(rows); the tabloids have rows
    of lengths rows below their top row.  A tabloid is fixed exactly
    when each row is a union of cycles, so this counts the ways to give
    the rows below the top cycles with exact sums rows[0], rows[1], ...;
    the top row takes every cycle left.
    """
    if not rows:
        return 1
    return _fill_row(rows, counts, rows[0], len(counts))


def _fill_row(rows: Partition, counts: tuple[int, ...], need: int, j: int) -> int:
    """_fixed_tabloids with rows[0] still short of need, to be made up
    from cycles of length at most j."""
    if need == 0:
        return _fixed_tabloids(rows[1:], counts)
    total = 0
    for length in range(min(j, need), 0, -1):
        m = counts[length - 1]
        for k in range(1, min(m, need // length) + 1):
            taken = counts[:length - 1] + (m - k,) + counts[length:]
            total += comb(m, k) * _fill_row(rows, taken, need - k * length, length - 1)
    return total


@cache
def _kostka(lam: Partition, mu: Partition) -> int:
    """The Kostka number K_{lam mu}: semistandard tableaux of shape lam
    and content mu.

    The entries equal to len(mu) form a horizontal strip of size mu[-1],
    and removing it leaves a tableau of content mu[:-1].  With one part
    left, K_{lam,(m)} = [lam = (m)].
    """
    if len(mu) <= 1:
        return int(lam == mu)
    removals = horizontal_strip_removals(lam, sum(lam) - mu[-1])
    return sum(_kostka(rho, mu[:-1]) for rho in removals)


def _excess(n: int, degrees, bound: int) -> str | None:
    """The injections [d] -> [n] summed over degrees, as text, if there
    are more than bound of them; None if not.

    With d <= n every factor of falling_factorial(n, d) but the last is
    at least 2, so a degree d above bound.bit_length() alone gives more
    than bound and is not multiplied out.
    """
    if any(bound.bit_length() < d <= n for d in degrees):
        return f"more than {bound}"
    count = sum(falling_factorial(n, d) for d in degrees)
    return figure(count) if count > bound else None


def _check_budget(z: PresentationMatrix, n: int) -> None:
    """Refuse a degree whose ambient rows or relation columns exceed the
    configured budget."""
    cap = row_cap()
    rows = _excess(n, z.generator_degrees, cap)
    if rows:
        raise ResourceCapError(
            f"degree {n} needs {rows} ambient rows, cap is {cap} "
            f"(raise {ROW_CAP_ENV} to override)"
        )
    columns = _excess(n, z.relation_degrees, 10 * cap)
    if columns:
        raise ResourceCapError(
            f"degree {n} needs {columns} relation columns, budget is "
            f"{10 * cap} (raise {ROW_CAP_ENV} to override)"
        )


def _check_class_budget(n: int) -> None:
    """Refuse to decompose a degree with more than sqrt(100 * cap) classes.

    Decomposing groups every class by its numbers of short cycles and
    sums the fixed tabloids of every top shape over every group; both
    number at most p(n), so the budget bounds p(n)^2.  The counts p(m)
    grow with m and are taken from m = 0 up, stopping at the first one
    over the budget, so a huge degree is refused without enumerating its
    partitions.
    """
    budget = 100 * row_cap()
    for m in range(n + 1):
        classes = len(partitions(m))
        if classes * classes > budget:
            at_least = "" if m == n else "at least "
            raise ResourceCapError(
                f"degree {n} has {at_least}{classes} classes; {classes}^2 = "
                f"{classes * classes} is over the class budget of {budget}, "
                f"which bounds the (shape, cycle count) pairs that decomposing "
                f"sums over (raise {ROW_CAP_ENV} to override)"
            )


def _precomposer(g):
    """The map h -> compose(h, g), as an ``operator.itemgetter``.

    An itemgetter of one index returns a bare value, and one of none
    cannot be made, so arities 1 and 0 take a slice, which keeps the
    result a tuple for every arity.
    """
    if len(g) > 1:
        return itemgetter(*(v - 1 for v in g))
    return itemgetter(slice(g[0] - 1, g[0]) if g else slice(0))


@lru_cache(maxsize=16)
def _evaluate(z: PresentationMatrix, n: int) -> DegreeEvaluation:
    offsets = []
    injections = []
    index = []
    total = 0
    for x in z.generator_degrees:
        offsets.append(total)
        block = all_injections(x, n)
        injections.append(block)
        index.append({f: a for a, f in enumerate(block)})
        total += len(block)

    kept: dict[tuple, list[tuple[int, int]]] = {}
    for j, y in enumerate(z.relation_degrees):
        column = [
            (i, z.entries[(i, j)].terms)
            for i in range(z.num_generators)
            if (i, j) in z.entries
        ]
        if not column:
            continue
        # Scaling a relation column by the lcm of its denominators keeps
        # the span, and every row it gives is then a row of ints.
        scale = lcm(*(c.denominator for _, terms in column for c in terms.values()))
        column = [
            (offsets[i], index[i],
             [(_precomposer(g), int(c * scale)) for g, c in terms.items()])
            for i, terms in column
        ]
        for h in all_injections(y, n):
            row: dict[int, int] = {}
            for offset, positions, terms in column:
                for precompose, coeff in terms:
                    flat = offset + positions[precompose(h)]
                    row[flat] = row.get(flat, 0) + coeff
            items = sorted((k, v) for k, v in row.items() if v)
            if not items:
                continue
            # a row equal to an earlier one up to a scalar is dependent
            c = gcd(*(v for _, v in items))
            if items[0][1] < 0:
                c = -c
            kept.setdefault(tuple(x for k, v in items for x in (k, v // c)), items)
    # last row first: a new pivot then almost always lies left of every
    # kept pivot, where no kept row has an entry to clear
    basis = Echelon()
    for items in reversed(kept.values()):
        basis.add_row(dict(items))
    return DegreeEvaluation(
        n=n,
        ambient_dim=total,
        rank=basis.rank,
        _z=z,
        _offsets=offsets,
        _injections=injections,
        _index=index,
        _basis=basis,
    )


def evaluate_degree(z: PresentationMatrix, n: int) -> DegreeEvaluation:
    """Evaluate the presented module at one degree (cached).

    The budget is checked on every call, before the cache is consulted,
    so a cap lowered after a degree was cached still refuses it.
    ``cache_info`` and ``cache_clear`` are those of the cache behind it.
    """
    if n < 0:
        raise ValueError(f"negative degree {n}")
    _check_budget(z, n)
    return _evaluate(z, n)


evaluate_degree.cache_info = _evaluate.cache_info
evaluate_degree.cache_clear = _evaluate.cache_clear


def dimension_at(z: PresentationMatrix, n: int) -> int:
    """dim M[n]: ambient dimension minus relation rank, exactly."""
    return evaluate_degree(z, n).cokernel_dim


def decompose_at(z: PresentationMatrix, n: int) -> dict[Partition, int]:
    return evaluate_degree(z, n).decompose()


# ---------------------------------------------------------------------------
# cross-checking the closed form
# ---------------------------------------------------------------------------

class ShapeCheck(Record):
    """One degree-n irreducible compared against its predicted count."""

    __slots__ = ("shape", "tail", "predicted", "observed")

    @property
    def ok(self) -> bool:
        return self.predicted == self.observed


class VerificationReport(Record):
    """Outcome of comparing one brute-forced degree with the closed form.

    ``pre_stable`` marks degrees below the onset bound, where mismatches
    carry no information; ``passed`` is only meaningful otherwise.
    ``invisible`` lists shapes whose predicted count cannot be seen at
    this degree because their top row would be too short.
    """

    __slots__ = (
        "n", "onset", "checks", "invisible",
        "oracle_dimension", "polynomial_dimension",
    )

    @property
    def pre_stable(self) -> bool:
        return self.n < self.onset

    @property
    def dimensions_match(self) -> bool:
        return self.oracle_dimension == self.polynomial_dimension

    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks) and self.dimensions_match


def verify(z: PresentationMatrix, n: int | None = None) -> VerificationReport:
    """Compare the brute-force decomposition at degree n with the corank
    predictions, shape by shape.

    Every partition of n is matched against the prediction for its tail
    (the partition below the top row): the table value when the tail is
    small enough, zero otherwise.  Defaults to the onset degree.
    """
    onset = onset_bound(z)
    if n is None:
        n = onset
    table = eventual_multiplicities(z)
    observed = decompose_at(z, n)
    checks = []
    for mu in partitions(n):
        tail = mu[1:]
        predicted = table[tail] if sum(tail) <= table.max_generator_degree else 0
        checks.append(ShapeCheck(mu, tail, predicted, observed[mu]))
    invisible = tuple(
        (lam, count)
        for lam, count in table
        if count and lam and n - sum(lam) < lam[0]
    )
    return VerificationReport(
        n=n,
        onset=onset,
        checks=tuple(checks),
        invisible=invisible,
        oracle_dimension=dimension_at(z, n),
        polynomial_dimension=dimension_polynomial(z, table)(n),
    )


__all__ = [
    "ROW_CAP_ENV",
    "DegreeEvaluation",
    "ResourceCapError",
    "ShapeCheck",
    "VerificationReport",
    "decompose_at",
    "dimension_at",
    "evaluate_degree",
    "verify",
]
