"""Finitely presented FI-modules and their stable-multiplicity matrices.

A presentation is a grid of formal rational combinations of injections:
rows are generators (with degrees x_i), columns are relations (degrees
y_j), and the module is the cokernel of the induced map between free
modules.  For each partition the presentation is transported to a single
rational block matrix whose corank is the eventual multiplicity of that
partition (grown by a long top row) in the module.

The transported matrix of a single injection f is block-structured: rows
are indexed by pairs (monotone injection p into the source, standard
tableau t), columns by pairs (q, u) on the target side.  Only the column
block whose monotone injection q has the image of f o p can be nonzero,
and that block is the Specht block specht_raw(lam, sigma), sigma =
sorting_permutation(f o p).  Its (t, u) entry is the sign of the
permutation sorting the boxes (row of sigma(l) in u, column of l in t),
l = 1..|lam|, into row-major order, and 0 when two boxes coincide (see
fistab.specht).

The transported matrix of a presentation is assembled in one pass.  Each
distinct block is built once per matrix by specht_rows, straight as the
(column, sign) pairs of its nonzero entries, and added times its
coefficient into the sparse output rows.  The induced module of any
symmetric-group representation (``induced_block_action``, and
``induced_action`` for specht_action) is built by the same routine from
that representation's matrix rows, which are stored as the same pairs.
"""

from fractions import Fraction
from functools import lru_cache

from .combinatorics import (
    Partition,
    check_partition,
    compose,
    hook_length_count,
    identity,
    monotone_injections,
    monotone_part,
    sorting_permutation,
)
from .ratmat import RationalMatrix
from .record import Record
from .specht import specht_action, specht_rows


class FormalSum(Record):
    """A finite rational linear combination of injections [x] -> [y].

    ``terms`` maps injection tuples to nonzero Fraction coefficients;
    zero coefficients are dropped on construction, so equality of sums is
    equality of (source, target, terms).  The hash is taken over the
    sorted terms, as ``terms`` is a dict.
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

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __hash__(self):
        return hash((self.source, self.target, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        body = " + ".join(f"{c}*{list(f)}" for f, c in sorted(self.terms.items()))
        return f"FormalSum([{self.source}]->[{self.target}]: {body or '0'})"


class PresentationMatrix(Record):
    """Generator degrees, relation degrees, and a sparse grid of FormalSums.

    ``entries`` maps 0-indexed (generator, relation) pairs to FormalSums;
    absent or zero entries mean the zero combination.  Either list of
    degrees may be empty.  The hash is taken over the sorted entries, as
    ``entries`` is a dict.
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

@lru_cache(maxsize=4096)
def _placements(f, target: int, k: int) -> tuple:
    """Where the injection f: [len(f)] -> [target] sends each monotone
    injection p of [k] into its source.

    One (sorting_permutation(f o p), a) pair per p, in the order of
    monotone_injections(k, len(f)), a being the position of
    monotone_part(f o p) in monotone_injections(k, target).  They depend
    on f, its target and k, not on the shape, so they are made once and
    every shape of size k reuses them.
    """
    column = {q: a for a, q in enumerate(monotone_injections(k, target))}
    placements = []
    for p in monotone_injections(k, len(f)):
        fp = compose(f, p)
        placements.append((sorting_permutation(fp), column[monotone_part(fp)]))
    return tuple(placements)


def _transport(block, k: int, dim: int, row_degrees, col_degrees,
               entries) -> RationalMatrix:
    """The transported matrix of a grid of formal sums.

    ``block`` maps a permutation of [k] to the dim rows of a dim x dim
    matrix, each the (column, value) pairs of its nonzero entries.  Block
    row i has source degree ``row_degrees[i]``, block column j has target
    degree ``col_degrees[j]``, and ``entries`` maps (i, j) to a dict from
    injections to coefficients.  The term f with coefficient c adds c
    times block(sorting_permutation(f o p)) at block row (i, p) and block
    column (j, monotone_part(f o p)), read off ``_placements``.  Each
    distinct block is built once, and only its nonzero entries are added
    into the output rows, each a dict from column to value.
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

    out = [{} for _ in range(nrows)]
    block_rows = {}
    for (i, j), terms in entries.items():
        for f, coeff in terms.items():
            if coeff.denominator == 1:
                coeff = coeff.numerator
            for pi, (sigma, a) in enumerate(_placements(f, col_degrees[j], k)):
                pairs = block_rows.get(sigma)
                if pairs is None:
                    pairs = block_rows[sigma] = block(sigma)
                base = col_offsets[j] + a * dim
                r0 = row_offsets[i] + pi * dim
                for t, row_pairs in enumerate(pairs):
                    row = out[r0 + t]
                    for c, v in row_pairs:
                        c += base
                        row[c] = row.get(c, 0) + coeff * v
    return RationalMatrix(out, ncols)


def induced_raw_presentation(lam: Partition, z: PresentationMatrix) -> RationalMatrix:
    """Block transport of a whole presentation for shape lam.

    Row blocks run over generators, column blocks over relations; zero
    entries of the presentation stay zero blocks without enumerating
    injections.  No generators of degree >= |lam| means no rows, and no
    relations means no columns; with neither, f^lam is not computed.
    """
    lam = check_partition(lam)
    k = sum(lam)
    degrees = z.generator_degrees + z.relation_degrees
    dim = hook_length_count(lam) if any(d >= k for d in degrees) else 0
    return _transport(
        lambda sigma: specht_rows(lam, sigma), k, dim,
        z.generator_degrees, z.relation_degrees,
        {pos: s.terms for pos, s in z.entries.items()},
    )


def augmentation_matrix(z: PresentationMatrix) -> RationalMatrix:
    """The presentation with every injection replaced by 1.

    A generators x relations rational matrix; coincides with the empty
    shape's transported presentation.
    """
    out = [
        {j: sum(z.entry(i, j).terms.values(), Fraction(0))
         for j in range(z.num_relations)}
        for i in range(z.num_generators)
    ]
    return RationalMatrix(out, z.num_relations)


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
    dim = rep(identity(k)).nrows

    def block(sigma):
        matrix = rep(sigma)
        if (matrix.nrows, matrix.ncols) != (dim, dim):
            raise ValueError(
                f"block of {sigma} is {matrix.nrows}x{matrix.ncols}, "
                f"expected {dim}x{dim}"
            )
        return matrix.rows

    return _transport(block, k, dim, (len(f),), (target,), {(0, 0): {f: 1}})


def induced_action(lam: Partition, f, target: int) -> RationalMatrix:
    """Action of f on the module induced from the irreducible of shape lam.

    induced_block_action of specht_action, which is the raw transport of
    f corrected by the raw transport of the identity: that matrix is block
    diagonal in specht_raw(lam, identity), and specht_action solves
    against each block by integer back-substitution.  Identity injections
    act as identity matrices and actions compose contravariantly.
    """
    lam = check_partition(lam)
    if sum(lam) > len(f):
        raise ValueError(
            f"shape {lam} does not fit inside the source of arity {len(f)}"
        )
    return induced_block_action(
        lambda sigma: specht_action(lam, sigma), sum(lam), f, target
    )


__all__ = [
    "FormalSum",
    "PresentationMatrix",
    "augmentation_matrix",
    "induced_action",
    "induced_block_action",
    "induced_raw_presentation",
]
