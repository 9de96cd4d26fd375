"""Degree-wise brute force: evaluate the presented module, take characters,
decompose into irreducibles.

Nothing here touches the corank formula.  A degree n is evaluated by
writing out the relation matrix on the full injection bases, computing an
exact integer row echelon of its transpose (rank and an image basis), and
reading symmetric-group traces off the reduced basis.  Multiplicities then
come from character inner products.  Agreement with the closed form is
checked by :func:`verify`.

The echelon is :class:`fistab.ratmat.Echelon`, the engine behind every
rank in the package: it keeps rows as sparse integer dicts with content
divided out, so the incidence-like matrices produced by presentations
stay small.  The relation rows go straight into it; the dense relation
matrix is built only in the tests, as the reference its ranks are
checked against.

Because work grows quickly with the degree, evaluation refuses degrees
beyond a budget: ambient rows above the cap (default 5000) or relation
columns above ten times it.  Override with the FISTAB_ORACLE_CAP
environment variable.
"""

import os
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .combinatorics import (
    Partition,
    all_injections,
    check_partition,
    class_representative,
    class_size,
    compose,
    falling_factorial,
    inverse,
    partitions,
)
from .multiplicity import dimension_polynomial, eventual_multiplicities, onset_bound
from .presentation import PresentationMatrix
from .ratmat import Echelon
from .specht import mn_character

DEFAULT_ROW_CAP = 5000
ROW_CAP_ENV = "FISTAB_ORACLE_CAP"


class ResourceCapError(RuntimeError):
    """Raised when a degree would exceed the configured ambient row cap."""


def _row_cap() -> int:
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


@dataclass
class DegreeEvaluation:
    """One degree of the presented module, evaluated exactly.

    The module at this degree is the cokernel of the relation matrix on
    injection bases; its dimension is the ambient dimension minus the
    matrix rank.  The reduced image basis supports trace extraction for
    every conjugacy class.
    """

    n: int
    ambient_dim: int
    rank: int
    _z: PresentationMatrix = field(repr=False)
    _offsets: list[int] = field(repr=False)
    _injections: list[list[tuple[int, ...]]] = field(repr=False)
    _index: list[dict[tuple[int, ...], int]] = field(repr=False)
    _basis: Echelon = field(repr=False)

    @property
    def cokernel_dim(self) -> int:
        return self.ambient_dim - self.rank

    def _flat(self, gen: int, injection) -> int:
        return self._offsets[gen] + self._index[gen][injection]

    def _unflat(self, flat: int):
        gen = bisect_right(self._offsets, flat) - 1
        return gen, self._injections[gen][flat - self._offsets[gen]]

    def _image_trace(self, sigma) -> Fraction:
        """Trace of a permutation restricted to the relation image.

        The image is stable under the action, and in the reduced basis the
        coefficient of basis row l in any image vector v is v at l's pivot
        coordinate, divided by the pivot value.
        """
        sigma_inv = inverse(sigma)
        total = Fraction(0)
        for col, idx in self._basis.pivots.items():
            row = self._basis.rows[idx]
            gen, injection = self._unflat(col)
            moved = self._flat(gen, compose(sigma_inv, injection))
            value = row.get(moved, 0)
            if value:
                total += Fraction(value, row[col])
        return total

    def permutation_trace(self, sigma) -> int:
        """Character of the module at this degree, on any permutation."""
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

        Standard character inner products against the cokernel character;
        a non-integer or negative multiplicity indicates an internal
        inconsistency and raises.
        """
        n = self.n
        classes = partitions(n)
        traces = {mu: self.cokernel_trace(mu) for mu in classes}
        order = factorial(n)
        result = {}
        for lam in classes:
            acc = sum(
                class_size(mu) * traces[mu] * mn_character(lam, mu)
                for mu in classes
            )
            count, remainder = divmod(acc, order)
            if remainder != 0 or count < 0:
                raise ArithmeticError(
                    f"multiplicity of {lam} came out as {Fraction(acc, order)}"
                )
            result[lam] = count
        return result


def _evaluate_uncached(z: PresentationMatrix, n: int) -> DegreeEvaluation:
    ambient_dim = sum(falling_factorial(n, x) for x in z.generator_degrees)
    cap = _row_cap()
    if ambient_dim > cap:
        raise ResourceCapError(
            f"degree {n} needs {ambient_dim} ambient rows, cap is {cap} "
            f"(raise {ROW_CAP_ENV} to override)"
        )
    relation_dim = sum(falling_factorial(n, y) for y in z.relation_degrees)
    if relation_dim > 10 * cap:
        raise ResourceCapError(
            f"degree {n} needs {relation_dim} relation columns, budget is "
            f"{10 * cap} (raise {ROW_CAP_ENV} to override)"
        )
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

    basis = Echelon()
    for j, y in enumerate(z.relation_degrees):
        column_terms = [
            (i, z.entries[(i, j)].terms)
            for i in range(z.num_generators)
            if (i, j) in z.entries
        ]
        if not column_terms:
            continue
        for h in all_injections(y, n):
            row: dict[int, Fraction] = {}
            for i, terms in column_terms:
                for g, coeff in terms.items():
                    flat = offsets[i] + index[i][compose(h, g)]
                    row[flat] = row.get(flat, 0) + coeff
            row = {k: v for k, v in row.items() if v != 0}
            if not row:
                continue
            denom = lcm(*(Fraction(v).denominator for v in row.values()))
            basis.add_row({k: int(v * denom) for k, v in row.items()})
    basis.reduce_fully()
    return DegreeEvaluation(
        n=n,
        ambient_dim=ambient_dim,
        rank=basis.rank,
        _z=z,
        _offsets=offsets,
        _injections=injections,
        _index=index,
        _basis=basis,
    )


@lru_cache(maxsize=16)
def evaluate_degree(z: PresentationMatrix, n: int) -> DegreeEvaluation:
    """Evaluate the presented module at one degree (cached)."""
    if n < 0:
        raise ValueError(f"negative degree {n}")
    return _evaluate_uncached(z, n)


def dimension_at(z: PresentationMatrix, n: int) -> int:
    """dim M[n]: ambient dimension minus relation rank, exactly."""
    return evaluate_degree(z, n).cokernel_dim


def cokernel_trace(z: PresentationMatrix, n: int, mu: Partition) -> int:
    return evaluate_degree(z, n).cokernel_trace(mu)


def decompose_at(z: PresentationMatrix, n: int) -> dict[Partition, int]:
    return evaluate_degree(z, n).decompose()


# ---------------------------------------------------------------------------
# cross-checking the closed form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShapeCheck:
    """One degree-n irreducible compared against its predicted count."""

    shape: Partition
    tail: Partition
    predicted: int
    observed: int

    @property
    def ok(self) -> bool:
        return self.predicted == self.observed


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of comparing one brute-forced degree with the closed form.

    ``pre_stable`` marks degrees below the onset bound, where mismatches
    carry no information; ``passed`` is only meaningful otherwise.
    ``invisible`` lists shapes whose predicted count cannot be seen at
    this degree because their top row would be too short.
    """

    n: int
    onset: int
    checks: tuple[ShapeCheck, ...]
    invisible: tuple[tuple[Partition, int], ...]
    oracle_dimension: int
    polynomial_dimension: int

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
        polynomial_dimension=dimension_polynomial(z)(n),
    )


__all__ = [
    "DEFAULT_ROW_CAP",
    "ROW_CAP_ENV",
    "DegreeEvaluation",
    "ResourceCapError",
    "ShapeCheck",
    "VerificationReport",
    "cokernel_trace",
    "decompose_at",
    "dimension_at",
    "evaluate_degree",
    "verify",
]
