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
row is a sparse dict of ints.  The row of an injection h = a o pi in
Inj(y, n), a monotone and pi a permutation of [y], is the row of pi at
degree y with each coordinate (i, u) moved to (i, a o u); that relabelling
is injective and keeps the flat order of coordinates.  So each relation
column is first evaluated at its own degree, on every pi, and each
distinct row, made primitive (content 1, first value positive), is kept
as a pattern with the first pi that gave it.  The row of a pattern at a
monotone a is then read off by list lookups, already sorted and
primitive, from the flat index of a o u, found once per coordinate u.

Most rows never reach the echelon.  The relation module and its
syzygies are finitely generated FI-modules (Sam-Snowden,
arXiv:1206.2233; Church-Ellenberg-Farb, arXiv:1204.4533), so almost
every relation row at degree n is dependent for a reason already shown
at a smaller degree.  The rows go by the least point m of their image,
from m = n down to 1 (an empty image, of a relation of degree 0, first),
then by relation column falling, then by h falling.  A monotone
relabelling keeps this order.  So the rows whose image lies in {m..n}
come first, and moved down to [n - m + 1] they are exactly that degree's
rows, in that degree's order.  Key each row by its relation column, its
pattern, the gaps between consecutive points of its image and the
number of points above it.  A key with one gap, or that tail, shorter by
one has its least point at m + 1, and the monotone map of [n - m] into
[n - m + 1] that inserts the missing point carries its row to this one,
and each row before it to a row before this one.  So if that row lies in
the span of the rows before it, this row does too: it is neither built
nor fed.  The dependent keys form an up-set, so the y keys one step
smaller are the only ones to check.  The span does not change and the
basis is canonical, so nothing the oracle returns depends on which rows
are skipped.  On E at n = 10, 623 rows are fed for a rank of 595, of
1,260 distinct rows; on the triangle at n = 16, 231 for 225, of 1,120;
on ``rational2`` at n = 8, 478 for 391, of 2,016.  In this order the
leading columns mostly fall, so a new pivot almost always lies left of
every kept pivot, where no kept row has an entry to clear: on E at
n = 8 the 260 independent rows clear 605 earlier rows, against 1,923
when the same rows are fed in the opposite order.  The dense relation
matrix is built only in the tests, as the reference the ranks are
checked against.

Traces are taken on the cokernel side.  The echelon keeps its basis
fully reduced as rows arrive: every basis row is zero at every other
row's pivot.  So the free (non-pivot) columns are a basis of M[n], and
the basis row with pivot column p and pivot value v says that, in the
cokernel, e_p = -(1/v) sum over free f of row[f] e_f.  The trace of
sigma sums, over the free columns f, the coefficient of e_f in
e_{sigma o f}: 1 when sigma o f = f, 0 when sigma o f is another free
column, and -row[f] / v when sigma o f is the pivot p.  Each generator
has one index, from each of its injections straight to its flat column,
which both the relation rows and the traces read.  With the basis,
evaluation keeps a trace plan: each free column with its generator's
index and its injection, and each pivot column with its basis row and L
over its pivot value, L the lcm of the pivot values.  A trace then sums
plain ints and divides once by L.  Every generator is traced alike: one
with no relation entry of degree at most n has only free columns, and
the plan lists each of them.  A trace reads as many columns as the
cokernel has dimensions: on E at n = 10, 125 for a rank of 595; on the
triangle at n = 16, 15 for 225; on ``rational2`` at n = 8, 1 for 391.
Where the cokernel is the larger side it reads more: one entry summing
the three cyclic shifts of [1 2 3] on a generator of degree 3, at
n = 10, has rank 240 and a cokernel of dimension 480.  A free module is
all cokernel: M(3) at n = 17 reads 4,080 columns per trace.

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

from fractions import Fraction
from functools import cache, lru_cache
from math import comb, factorial, gcd, lcm
from operator import itemgetter

from .budget import ROW_CAP_ENV, ResourceCapError, figure, row_cap
from .combinatorics import (
    Partition,
    all_injections,
    check_partition,
    class_representative,
    class_size,
    falling_factorial,
    hook_length_count,
    horizontal_strip_removals,
    monotone_injections,
    partitions,
)
from .multiplicity import dimension_polynomial, eventual_multiplicities, onset_bound
from .presentation import PresentationMatrix
from .ratmat import Echelon
from .record import Record


class DegreeEvaluation(Record):
    """One degree of the presented module, evaluated exactly.

    The module at this degree is the cokernel of the relation matrix on
    injection bases; its dimension is the ambient dimension minus the
    matrix rank.  The trace plan is on the cokernel side (see the module
    docstring).  ``_pivots`` maps each pivot column of the reduced image
    basis to its basis row and ``_scale`` over its pivot value, where
    ``_scale`` is the lcm of the pivot values.  ``_plan`` lists each
    free column of every generator with its generator's index, from each
    injection to its flat column, and its injection.  The repr shows n,
    ambient_dim and rank only.
    """

    __slots__ = (
        "n", "ambient_dim", "rank", "_z", "_plan", "_pivots", "_scale",
    )

    def __repr__(self):
        return (
            f"DegreeEvaluation(n={self.n!r}, ambient_dim={self.ambient_dim!r}, "
            f"rank={self.rank!r})"
        )

    @property
    def cokernel_dim(self) -> int:
        return self.ambient_dim - self.rank

    def cokernel_trace(self, mu: Partition) -> int:
        """Character of the module at this degree, on the class mu.

        Taken on sigma, the class representative of mu, and summed over
        the free columns, times ``_scale``, so every term is an int:
        ``_scale`` for each free column sigma fixes, and for each free
        column f that sigma moves to a pivot, minus the pivot's weight
        times its basis row at f.
        """
        mu = check_partition(mu)
        if sum(mu) != self.n:
            raise ValueError(f"class {mu} is not a cycle type for degree {self.n}")
        scale, pivots = self._scale, self._pivots
        scaled = 0
        act = (0, *class_representative(mu)).__getitem__
        for col, index, injection in self._plan:
            moved = index[tuple(map(act, injection))]
            if moved == col:
                scaled += scale
            elif moved in pivots:
                row, weight = pivots[moved]
                scaled -= weight * row.get(col, 0)
        trace, remainder = divmod(scaled, scale)
        if remainder:
            raise ArithmeticError(
                f"non-integer character value {Fraction(scaled, scale)} "
                f"on the class {mu}"
            )
        return trace

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
    number at most p(n), so the budget bounds p(n)^2.  Euler's pentagonal
    number recurrence counts p(m) from m = 0 up, enumerating no
    partition, and stops at the first count over the budget.
    """
    budget = 100 * row_cap()
    counts: list = []
    for m in range(n + 1):
        classes = sum(
            (-1) ** (k + 1) * counts[m - j]
            for k in range(1, m + 1)
            for j in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2) if j <= m
        ) if m else 1
        counts.append(classes)
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


def _patterns(column, y: int) -> tuple[list, list]:
    """The distinct rows of one relation column at its own degree y.

    The column lists (generator, terms) pairs, each term a precomposer
    and an int coefficient.  Each permutation pi of [y] gives the row
    with value c at the coordinate (i, pi o g) for each term g of
    coefficient c in generator i's entry.  Each nonzero row is made
    primitive, content 1 and first value positive, and is kept with the
    first pi that gave it.  Returns the coordinates that the kept rows
    use, in flat order, and one (pi's precomposer, places of the row's
    coordinates in that list, values) triple per kept row, in the order
    of pi.
    """
    first: dict[tuple, tuple[int, ...]] = {}
    for pi in all_injections(y, y):
        row: dict[tuple, int] = {}
        for i, terms in column:
            for precompose, coeff in terms:
                key = (i, precompose(pi))
                row[key] = row.get(key, 0) + coeff
        items = sorted((k, v) for k, v in row.items() if v)
        if not items:
            continue
        c = gcd(*(v for _, v in items))
        if items[0][1] < 0:
            c = -c
        first.setdefault(tuple((k, v // c) for k, v in items), pi)
    coordinates = sorted({k for items in first for k, _ in items})
    place = {k: p for p, k in enumerate(coordinates)}
    return coordinates, [
        (_precomposer(pi), [place[k] for k, _ in items], tuple(v for _, v in items))
        for items, pi in first.items()
    ]


def _predecessors(a: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """The monotone injections into [n] one step smaller than a.

    A monotone a is keyed by the gaps between its consecutive points and
    the number of points above its last one.  Shortening the gap after
    a[k] by one, or the tail after the last point, moves a[0], ..., a[k]
    up by one; each result starts at a[0] + 1.
    """
    bounds = a[1:] + (n + 1,)
    return [
        tuple(v + 1 for v in a[:k + 1]) + a[k + 1:]
        for k in range(len(a)) if a[k] + 1 < bounds[k]
    ]


@lru_cache(maxsize=16)
def _evaluate(z: PresentationMatrix, n: int) -> DegreeEvaluation:
    # for each generator, each injection's flat column
    index = []
    total = 0
    for x in z.generator_degrees:
        block = all_injections(x, n)
        index.append({f: total + a for a, f in enumerate(block)})
        total += len(block)

    # each relation column with its coordinates, its patterns, its
    # monotone injections by their least point, and its dependent rows
    relations = []
    for j, y in enumerate(z.relation_degrees):
        column = [
            (i, z.entries[(i, j)].terms)
            for i in range(z.num_generators)
            if (i, j) in z.entries
        ]
        if not column or y > n:
            continue
        # Scaling a relation column by the lcm of its denominators keeps
        # the span, and every row it gives is then a row of ints.
        scale = lcm(*(c.denominator for _, terms in column for c in terms.values()))
        coordinates, patterns = _patterns([
            (i, [(_precomposer(g), int(c * scale)) for g, c in terms.items()])
            for i, terms in column
        ], y)
        coordinates = [(index[i], _precomposer(u)) for i, u in coordinates]
        starts: dict[int, list] = {}
        for a in monotone_injections(y, n):
            starts.setdefault(a[0] if a else n + 1, []).append(a)
        relations.append((coordinates, patterns, starts, {}))

    # Rows go by least image point falling, an empty image first, then
    # relation column falling, then h falling.  Only the least points
    # that occur are visited: with every relation of degree 0, n can be
    # huge.  For each monotone a, dependent holds the patterns whose row
    # at a lies in the span of the rows before it: those dependent at a
    # predecessor of a, whose rows a monotone map carries to a's (see the
    # module docstring), and those the echelon shows here.  A row of the
    # first kind is neither built nor fed.
    basis = Echelon()
    least = {m for _, _, starts, _ in relations for m in starts}
    for m in sorted(least, reverse=True):
        for coordinates, patterns, starts, dependent in reversed(relations):
            rows = []
            for a in starts.get(m, ()):
                dependent[a] = skip = set().union(
                    *(dependent[b] for b in _predecessors(a, n))
                )
                if len(skip) == len(patterns):
                    continue
                flat = [positions[lift(a)] for positions, lift in coordinates]
                rows.extend(
                    (lift(a), a, p, tuple(map(flat.__getitem__, places)), values)
                    for p, (lift, places, values) in enumerate(patterns)
                    if p not in skip
                )
            rows.sort(reverse=True)
            for _, a, p, columns, values in rows:
                if not basis.add_row(dict(zip(columns, values))):
                    dependent[a].add(p)
    # each pivot column with its basis row and L over its pivot value;
    # each free column with its generator's index and its injection
    scale = lcm(*(row[col] for col, row in basis.pivots.items()))
    pivots = {col: (row, scale // row[col]) for col, row in basis.pivots.items()}
    plan = tuple(
        (col, positions, f)
        for positions in index
        for f, col in positions.items()
        if col not in pivots
    )
    return DegreeEvaluation(n, total, basis.rank, z, plan, pivots, scale)


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
    ``invisible`` lists shapes whose predicted count cannot show at
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
    # the table first, so that its refusals come before the oracle's
    table = eventual_multiplicities(z)
    evaluation = evaluate_degree(z, n)
    observed = evaluation.decompose()
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
        oracle_dimension=evaluation.cokernel_dim,
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
