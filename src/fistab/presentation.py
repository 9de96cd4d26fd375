"""Finitely presented FI-modules and their stable-multiplicity matrices.

A presentation is a grid of formal rational combinations of injections:
rows are generators (with degrees x_i), columns are relations (degrees
y_j), and the module is the cokernel of the induced map between free
modules.  For each partition the presentation is transported to a single
rational block matrix whose corank is the eventual multiplicity of that
partition (grown by a long top row) in the module.

The transported matrix of a single injection f is block-structured: rows
are indexed by pairs (monotone injection p into the source, standard
tableau t), columns by pairs (q, u) on the target side, and the (p, t),
(q, u) entry is

    box_sign(row_word(u) o sorting_permutation(f o p), col_word(t))

when f o p and q share an image, else 0.  Only the column block whose
monotone injection matches the image of f o p can be nonzero, and that
block is the Specht block specht_raw(lam, sorting_permutation(f o p)).

The transported matrix of a presentation is assembled from cached Specht
block rows in one pass: each distinct block is built once per matrix,
kept as the (column, sign) pairs of its nonzero entries, and added times
its coefficient straight into the output rows.  The induced module of
any symmetric-group representation (``induced_block_action``) is built
by the same routine, with that representation in place of specht_raw.
"""

from fractions import Fraction
from functools import cache

from .combinatorics import (
    Partition,
    check_partition,
    compose,
    identity,
    monotone_injections,
    monotone_part,
    sorting_permutation,
    standard_tableaux,
)
from .ratmat import RationalMatrix
from .specht import specht_raw


class FormalSum:
    """A finite rational linear combination of injections [x] -> [y].

    ``terms`` maps injection tuples to nonzero Fraction coefficients;
    zero coefficients are dropped on construction, so equality of sums is
    equality of (source, target, terms).
    """

    __slots__ = ("source", "target", "terms")

    def __init__(self, source: int, target: int, terms=None):
        if source < 0 or target < 0:
            raise ValueError("arities must be non-negative")
        merged: dict[tuple[int, ...], Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else (terms or ())
        for images, coeff in items:
            images = tuple(images)
            if len(images) != source:
                raise ValueError(
                    f"injection {images} does not have arity {source}"
                )
            if len(set(images)) != len(images):
                raise ValueError(f"injection {images} repeats a value")
            if any(not 1 <= v <= target for v in images):
                raise ValueError(
                    f"injection {images} leaves the target range 1..{target}"
                )
            coeff = Fraction(coeff)
            merged[images] = merged.get(images, Fraction(0)) + coeff
        object.__setattr__(
            self, "terms", {f: c for f, c in merged.items() if c != 0}
        )
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)

    def __setattr__(self, name, value):
        raise AttributeError("FormalSum is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def scale(self, alpha) -> "FormalSum":
        alpha = Fraction(alpha)
        return FormalSum(
            self.source, self.target,
            {f: alpha * c for f, c in self.terms.items()},
        )

    def __add__(self, other: "FormalSum") -> "FormalSum":
        if (self.source, self.target) != (other.source, other.target):
            raise ValueError("cannot add formal sums of different arities")
        return FormalSum(
            self.source, self.target,
            list(self.terms.items()) + list(other.terms.items()),
        )

    def __eq__(self, other):
        return (
            isinstance(other, FormalSum)
            and self.source == other.source
            and self.target == other.target
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.source, self.target, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        body = " + ".join(f"{c}*{list(f)}" for f, c in sorted(self.terms.items()))
        return f"FormalSum([{self.source}]->[{self.target}]: {body or '0'})"


class PresentationMatrix:
    """Generator degrees, relation degrees, and a sparse grid of FormalSums.

    ``entries`` maps 0-indexed (generator, relation) pairs to FormalSums;
    absent or zero entries mean the zero combination.  Either list of
    degrees may be empty.
    """

    __slots__ = ("generator_degrees", "relation_degrees", "entries")

    def __init__(self, generator_degrees, relation_degrees, entries=None):
        generator_degrees = tuple(generator_degrees)
        relation_degrees = tuple(relation_degrees)
        if any(d < 0 for d in generator_degrees + relation_degrees):
            raise ValueError("degrees must be non-negative")
        cleaned: dict[tuple[int, int], FormalSum] = {}
        for (i, j), s in (entries or {}).items():
            if not 0 <= i < len(generator_degrees):
                raise ValueError(f"generator index {i} out of range")
            if not 0 <= j < len(relation_degrees):
                raise ValueError(f"relation index {j} out of range")
            if (s.source, s.target) != (generator_degrees[i], relation_degrees[j]):
                raise ValueError(
                    f"entry ({i}, {j}) has arities ({s.source}, {s.target}), "
                    f"expected ({generator_degrees[i]}, {relation_degrees[j]})"
                )
            if not s.is_zero:
                cleaned[(i, j)] = s
        object.__setattr__(self, "generator_degrees", generator_degrees)
        object.__setattr__(self, "relation_degrees", relation_degrees)
        object.__setattr__(self, "entries", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("PresentationMatrix is immutable")

    @property
    def num_generators(self) -> int:
        return len(self.generator_degrees)

    @property
    def num_relations(self) -> int:
        return len(self.relation_degrees)

    @property
    def max_generator_degree(self) -> int:
        return max(self.generator_degrees, default=0)

    @property
    def max_relation_degree(self) -> int:
        return max(self.relation_degrees, default=0)

    def entry(self, i: int, j: int) -> FormalSum:
        zero = FormalSum(self.generator_degrees[i], self.relation_degrees[j])
        return self.entries.get((i, j), zero)

    def __eq__(self, other):
        return (
            isinstance(other, PresentationMatrix)
            and self.generator_degrees == other.generator_degrees
            and self.relation_degrees == other.relation_degrees
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((
            self.generator_degrees,
            self.relation_degrees,
            tuple(sorted(self.entries.items())),
        ))

    def __repr__(self):
        return (
            f"PresentationMatrix(generators={list(self.generator_degrees)}, "
            f"relations={list(self.relation_degrees)}, "
            f"{len(self.entries)} nonzero entries)"
        )


# ---------------------------------------------------------------------------
# the transported matrices
# ---------------------------------------------------------------------------

def _transport(block, k: int, dim: int, row_degrees, col_degrees,
               entries) -> RationalMatrix:
    """The transported matrix of a grid of formal sums.

    ``block`` maps a permutation of [k] to a dim x dim matrix.  Block row
    i has source degree ``row_degrees[i]``, block column j has target
    degree ``col_degrees[j]``, and ``entries`` maps (i, j) to a dict from
    injections to coefficients.  The term f with coefficient c adds c
    times block(sorting_permutation(f o p)) at block row (i, p) and block
    column (j, monotone_part(f o p)).  Each distinct block is built and
    its size checked once, kept as the (column, value) pairs of its
    nonzero entries, and only those are added into the output rows.
    """
    row_offsets = []
    nrows = 0
    for x in row_degrees:
        row_offsets.append(nrows)
        nrows += len(monotone_injections(k, x)) * dim
    col_offsets = []
    ncols = 0
    for y in col_degrees:
        col_offsets.append(ncols)
        ncols += len(monotone_injections(k, y)) * dim

    out = [[0] * ncols for _ in range(nrows)]
    block_rows = {}
    for (i, j), terms in entries.items():
        sources = monotone_injections(k, row_degrees[i])
        block_col = {
            q: col_offsets[j] + a * dim
            for a, q in enumerate(monotone_injections(k, col_degrees[j]))
        }
        for f, coeff in terms.items():
            if coeff.denominator == 1:
                coeff = coeff.numerator
            for pi, p in enumerate(sources):
                fp = compose(f, p)
                sigma = sorting_permutation(fp)
                pairs = block_rows.get(sigma)
                if pairs is None:
                    matrix = block(sigma)
                    if (matrix.nrows, matrix.ncols) != (dim, dim):
                        raise ValueError(
                            f"block of {sigma} is {matrix.nrows}x"
                            f"{matrix.ncols}, expected {dim}x{dim}"
                        )
                    pairs = block_rows[sigma] = [
                        [(c, v) for c, v in enumerate(row) if v]
                        for row in matrix.rows
                    ]
                base = block_col[monotone_part(fp)]
                r0 = row_offsets[i] + pi * dim
                for t, row_pairs in enumerate(pairs):
                    row = out[r0 + t]
                    for c, v in row_pairs:
                        row[base + c] += coeff * v
    return RationalMatrix(out, ncols=ncols)


def induced_raw(lam: Partition, f, target: int) -> RationalMatrix:
    """Transport of a single injection f: [x] -> [y] for shape lam.

    Row index (p, t) runs over monotone injections [k] -> [x] (outer) and
    standard tableaux of lam (inner); columns likewise on the target side.
    Shapes larger than x give a genuine 0-row matrix.
    """
    f = tuple(f)
    return induced_raw_sum(lam, FormalSum(len(f), target, {f: 1}))


def induced_raw_sum(lam: Partition, s: FormalSum) -> RationalMatrix:
    """Linear extension of induced_raw to a formal sum of injections."""
    return induced_raw_presentation(
        lam, PresentationMatrix((s.source,), (s.target,), {(0, 0): s})
    )


def induced_raw_presentation(lam: Partition, z: PresentationMatrix) -> RationalMatrix:
    """Block transport of a whole presentation for shape lam.

    Row blocks run over generators, column blocks over relations; zero
    entries of the presentation stay zero blocks without enumerating
    injections.  No generators of degree >= |lam| means no rows, and no
    relations means no columns.
    """
    lam = check_partition(lam)
    return _transport(
        lambda sigma: specht_raw(lam, sigma), sum(lam),
        len(standard_tableaux(lam)),
        z.generator_degrees, z.relation_degrees,
        {pos: s.terms for pos, s in z.entries.items()},
    )


def augmentation_matrix(z: PresentationMatrix) -> RationalMatrix:
    """The presentation with every injection replaced by 1.

    A generators x relations rational matrix; coincides with the empty
    shape's transported presentation.
    """
    out = [
        [sum(z.entry(i, j).terms.values(), Fraction(0))
         for j in range(z.num_relations)]
        for i in range(z.num_generators)
    ]
    return RationalMatrix(out, ncols=z.num_relations)


# ---------------------------------------------------------------------------
# induced modules as explicit functors
# ---------------------------------------------------------------------------

def induced_block_action(rep, k: int, f, target: int) -> RationalMatrix:
    """Action of the injection f on the FI-module induced from a
    symmetric-group representation.

    ``rep`` maps permutations of [k] to square matrices and must compose
    contravariantly (rep(sigma) * rep(tau) == rep(tau o sigma)).  The
    result is a block matrix over (monotone injections into the source) x
    (monotone injections into the target) with exactly one nonzero block
    per block row: block (p, q) is rep(sorting_permutation(f o p)) when q
    is the monotone injection with the image of f o p.  Raises ValueError
    when a block used is not the size of rep at the identity.
    """
    f = tuple(f)
    return _transport(
        rep, k, rep(identity(k)).nrows, (len(f),), (target,), {(0, 0): {f: 1}}
    )


@cache
def _induced_unit_inverse(lam: Partition, x: int) -> RationalMatrix:
    return induced_raw(lam, identity(x), x).inverse()


def induced_action(lam: Partition, f, target: int) -> RationalMatrix:
    """Action of f on the module induced from the irreducible of shape lam.

    Basis-corrected so that identity injections act as identity matrices;
    composes contravariantly, and on permutations of [k] it restricts to
    specht_action.
    """
    lam = check_partition(lam)
    if sum(lam) > len(f):
        raise ValueError(
            f"shape {lam} does not fit inside the source of arity {len(f)}"
        )
    return _induced_unit_inverse(lam, len(f)) * induced_raw(lam, f, target)


__all__ = [
    "FormalSum",
    "PresentationMatrix",
    "augmentation_matrix",
    "induced_action",
    "induced_block_action",
    "induced_raw",
    "induced_raw_presentation",
    "induced_raw_sum",
]
