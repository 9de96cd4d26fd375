"""Finitely presented FI-modules and their stable-multiplicity matrices.

A presentation is a grid of formal rational combinations of injections:
rows are generators (with degrees x_i), columns are relations (degrees
y_j), and the module is the cokernel of the induced map between free
modules.  For each partition the presentation is transported to a single
rational block matrix whose corank is the eventual multiplicity of that
partition (grown by a long top row) in the module.  A presentation file
is read by ``parse_presentation``, whose docstring gives the grammar, and
written by ``serialize_presentation``.

The transported matrix of a single injection f is block-structured: rows
are indexed by pairs (monotone injection p into the source, standard
tableau t), columns by pairs (q, u) on the target side.  Only the column
block whose monotone injection q has the image of f o p can be nonzero,
and that block is the Specht block specht_raw(lam, sigma), sigma =
sorting_permutation(f o p).  Its (t, u) entry is the sign of the
permutation sorting the boxes (row of sigma(l) in u, column of l in t),
l = 1..|lam|, into row-major order, and 0 when two boxes coincide (see
fistab.specht).

The transported matrix of a presentation is built in two steps.  The
lift (``_lift``) rewrites z as its size-k presentation over Q[S_k],
k = |lam|; it is the only code that places an injection, and it only
places terms: a sum that cancels stays, as a 0.  The realisation
(``_transport``) puts c times the block of sigma at (p, q) for each term
c * sigma, each distinct Specht block built once by specht_rows as the
(column, sign) pairs of its nonzero entries; a 0 adds only zeros, which
the matrix drops.
``induced_block_action`` (and ``induced_action`` for specht_action)
realises the lift of one injection with a representation's matrix rows,
stored as the same pairs.

Every shape of one size k shares the one lift: the shapes differ only
in the Specht blocks put into it.  So the closed form eliminates, once
per size, the unit entries c * sigma, whose blocks are invertible for
every shape (``_reduced_presentation``).  The elimination is a block row
operation and keeps every corank, because specht_raw(lam, sigma) =
U X(sigma) with U the raw matrix of the identity and X the action, which
reverses products: once the other generator is scaled by c, the block
(a U X(alpha)) (U X(sigma))^-1 (w U X(beta)) is the transport of
a w * beta o sigma^-1 o alpha.  Scaling a generator by a nonzero
rational keeps every corank, so the elimination runs over Z[S_k] and
every coefficient in it is an int.  Each shape of size k then
transports only the small core that is left.
"""

import re
from fractions import Fraction
from math import comb, gcd, lcm

from .combinatorics import (
    Partition,
    check_partition,
    compose,
    hook_length_count,
    identity,
    inverse,
    monotone_injections,
    monotone_part,
    sorting_permutation,
)
from .ratmat import RationalMatrix, _norm
from .record import Record
from .specht import specht_action, specht_rows


def _check_ints(values, noun: str, owner: str = "") -> None:
    """Refuse a value that is not an int (a bool is one), naming it."""
    for v in values:
        if not isinstance(v, int):
            raise TypeError(f"{noun} {v!r}{owner} is not an int")


class FormalSum(Record):
    """A finite rational linear combination of injections [x] -> [y].

    ``terms`` maps injection tuples to nonzero coefficients, each given as
    an int or a Fraction and kept as an int where integral, as in a
    RationalMatrix.  Any other coefficient, or an arity or image that is
    not an int, raises TypeError.  Zero coefficients are dropped on
    construction, so equality of sums is equality of (source, target,
    terms).  The hash is taken over the sorted terms, as ``terms`` is a
    dict; an int and its equal Fraction hash alike.
    """

    __slots__ = ("source", "target", "terms")

    def __init__(self, source: int, target: int, terms=None):
        _check_ints((source, target), "arity")
        if source < 0 or target < 0:
            raise ValueError("arities must be non-negative")
        merged: dict[tuple[int, ...], int | Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else (terms or ())
        for images, coeff in items:
            images = tuple(images)
            _check_ints(images, "image", f" of injection {images}")
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
            if not isinstance(coeff, (int, Fraction)):
                raise TypeError(
                    f"coefficient {coeff!r} of injection {images} is a "
                    f"{type(coeff).__name__}; use an int or a Fraction"
                )
            merged[images] = merged.get(images, 0) + coeff
        object.__setattr__(
            self, "terms", {f: _norm(c) for f, c in merged.items() if c != 0}
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
    absent or zero entries mean the zero combination.  A degree that is
    not an int raises TypeError.  Either list of degrees may be empty.
    The hash is taken over the sorted entries, as ``entries`` is a dict.
    """

    __slots__ = ("generator_degrees", "relation_degrees", "entries")

    def __init__(self, generator_degrees, relation_degrees, entries=None):
        generator_degrees = tuple(generator_degrees)
        relation_degrees = tuple(relation_degrees)
        _check_ints(generator_degrees + relation_degrees, "degree")
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
    def max_generator_degree(self) -> int:
        return max(self.generator_degrees, default=0)

    @property
    def max_relation_degree(self) -> int:
        return max(self.relation_degrees, default=0)

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
# presentation files
# ---------------------------------------------------------------------------

class PresentationParseError(ValueError):
    """A presentation file problem, annotated with its line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


_DEGREES_RE = re.compile(r"^(generators|relations)\s*:\s*(.*)$")
_ENTRY_RE = re.compile(r"^entry\s+(\d+)\s+(\d+)\s*:\s*(.*)$")
_TERM_RE = re.compile(
    r"\s*(?P<sep>[+-])?\s*"
    r"(?:(?P<coeff>\d+(?:\s*/\s*\d+)?)\s*\*\s*)?"
    r"\[(?P<images>[^\]]*)\]"
)


def _parse_terms(body: str, lineno: int):
    pos = 0
    first = True
    terms = []
    while pos < len(body):
        match = _TERM_RE.match(body, pos)
        if not match:
            raise PresentationParseError(
                lineno, f"cannot read a term at: {body[pos:].strip()!r}"
            )
        if not first and match.group("sep") is None:
            raise PresentationParseError(
                lineno, "terms must be separated by '+' or '-'"
            )
        sign = -1 if match.group("sep") == "-" else 1
        coeff = Fraction(1)
        if match.group("coeff"):
            text = match.group("coeff").replace(" ", "")
            try:
                coeff = Fraction(text)
            except ZeroDivisionError:
                raise PresentationParseError(
                    lineno, f"coefficient {text} has a zero denominator"
                ) from None
        try:
            images = tuple(int(v) for v in match.group("images").split())
        except ValueError:
            raise PresentationParseError(
                lineno, f"images must be integers: [{match.group('images')}]"
            ) from None
        terms.append((images, sign * coeff))
        pos = match.end()
        first = False
    if first:
        raise PresentationParseError(lineno, "entry has no terms")
    return terms


def parse_presentation(text: str) -> PresentationMatrix:
    """Parse a presentation file into a PresentationMatrix.

    The grammar has one directive per line, and ``#`` starts a comment::

        generators: d1 d2 ... dg
        relations: e1 e2 ... er
        entry i j : term (("+"|"-") term)*

    where ``term`` is ``[v1 v2 ... v_di]`` with an optional rational
    coefficient prefix ``c*`` (for example ``1/2*[1 3]``), the ``v`` are
    distinct values in ``1..ej``, and ``i``, ``j`` are 1-indexed.  Unlisted
    entries are zero; listing ``entry i j`` twice is an error; repeating an
    injection inside one entry adds the coefficients.
    """
    found: dict[str, tuple[int, ...]] = {}
    entries: dict[tuple[int, int], FormalSum] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        degrees = _DEGREES_RE.match(line)
        if degrees:
            kind, body = degrees.groups()
            try:
                values = tuple(int(v) for v in body.split())
            except ValueError:
                raise PresentationParseError(
                    lineno, f"{kind} line must list integers"
                ) from None
            if any(v < 0 for v in values):
                raise PresentationParseError(lineno, "degrees must be >= 0")
            if kind in found:
                raise PresentationParseError(lineno, f"second {kind} line")
            found[kind] = values
            continue
        entry = _ENTRY_RE.match(line)
        if entry:
            if len(found) < 2:
                raise PresentationParseError(
                    lineno, "entries must follow the generators and relations lines"
                )
            generators, relations = found["generators"], found["relations"]
            i, j = int(entry.group(1)), int(entry.group(2))
            if not 1 <= i <= len(generators):
                raise PresentationParseError(
                    lineno, f"generator index {i} out of range 1..{len(generators)}"
                )
            if not 1 <= j <= len(relations):
                raise PresentationParseError(
                    lineno, f"relation index {j} out of range 1..{len(relations)}"
                )
            if (i - 1, j - 1) in entries:
                raise PresentationParseError(lineno, f"duplicate entry {i} {j}")
            terms = _parse_terms(entry.group(3), lineno)
            try:
                entries[(i - 1, j - 1)] = FormalSum(
                    generators[i - 1], relations[j - 1], terms
                )
            except ValueError as exc:
                raise PresentationParseError(lineno, str(exc)) from None
            continue
        raise PresentationParseError(lineno, f"cannot parse: {line!r}")
    for kind in ("generators", "relations"):
        if kind not in found:
            raise PresentationParseError(0, f"missing {kind} line")
    return PresentationMatrix(found["generators"], found["relations"], entries)


def serialize_presentation(z: PresentationMatrix) -> str:
    """Canonical text form; parses back to an equal PresentationMatrix."""
    lines = [
        f"{kind}: {' '.join(map(str, degrees))}".rstrip()
        for kind, degrees in (
            ("generators", z.generator_degrees),
            ("relations", z.relation_degrees),
        )
    ]
    for (i, j) in sorted(z.entries):
        parts = []
        for images, coeff in sorted(z.entries[(i, j)].terms.items()):
            body = "[" + " ".join(str(v) for v in images) + "]"
            mag = abs(coeff)
            if mag != 1:
                body = f"{mag}*{body}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        lines.append(f"entry {i + 1} {j + 1} : " + " ".join(parts))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the transported matrices
# ---------------------------------------------------------------------------

def _size_k_offsets(degrees, k: int):
    """Where each degree's monotone injections of size k start, and how
    many there are in all."""
    starts, total = [], 0
    for d in degrees:
        starts.append(total)
        total += comb(d, k)
    return starts, total


def _lift(z: PresentationMatrix, k: int):
    """The size-k presentation of z: every degree k, every entry a
    combination of permutations of [k].

    One generator per (generator i, monotone p of size k into [x_i]) and
    one relation per (relation j, monotone q of size k into [y_j]), in
    the order of the degrees and of monotone_injections.  The term c * f
    of entry (i, j) puts c * sorting_permutation(f o p) at
    (p, monotone_part(f o p)); an entry sums c_f * sigma over the terms
    placed there.  Returns the generators, each a dict from relation to
    entry, each entry a dict from permutation to the sum of the
    coefficients placed there, and the number of relations.  A sum may
    cancel to 0: the transport adds zeros for it, and the reduction drops
    it.
    """
    gen_starts, nrows = _size_k_offsets(z.generator_degrees, k)
    rel_starts, ncols = _size_k_offsets(z.relation_degrees, k)
    sources = {x: monotone_injections(k, x) for x in set(z.generator_degrees)}
    columns = {
        y: {q: a for a, q in enumerate(monotone_injections(k, y))}
        for y in set(z.relation_degrees)
    }
    rows: list = [{} for _ in range(nrows)]
    for (i, j), s in z.entries.items():
        column, start = columns[s.target], rel_starts[j]
        for f, coeff in s.terms.items():
            for r, p in enumerate(sources[s.source], gen_starts[i]):
                fp = compose(f, p)
                entry = rows[r].setdefault(start + column[monotone_part(fp)], {})
                sigma = sorting_permutation(fp)
                entry[sigma] = entry.get(sigma, 0) + coeff
    return rows, ncols


def _transport(block, dim: int, rows, ncols: int) -> RationalMatrix:
    """The matrix of a grid over Q[S_k] as ``_lift`` returns it: c times
    block(sigma) at block (p, q) for each term c * sigma of entry (p, q).

    ``block`` maps a permutation to the dim rows of a dim x dim matrix,
    each the (column, value) pairs of its nonzero entries.  Each distinct
    block is built once, and only its nonzero entries are added into the
    output rows, each a dict from column to value.
    """
    out = []
    blocks = {}
    for row in rows:
        block_row = [{} for _ in range(dim)]
        for q, entry in row.items():
            base = q * dim
            for sigma, coeff in entry.items():
                pairs = blocks.get(sigma)
                if pairs is None:
                    pairs = blocks[sigma] = block(sigma)
                for out_row, row_pairs in zip(block_row, pairs):
                    for c, v in row_pairs:
                        c += base
                        out_row[c] = out_row.get(c, 0) + coeff * v
        out += block_row
    return RationalMatrix(out, ncols * dim)


def induced_raw_presentation(lam: Partition, z: PresentationMatrix) -> RationalMatrix:
    """Block transport of a whole presentation for shape lam.

    Row blocks run over generators, column blocks over relations; zero
    entries of the presentation stay zero blocks without enumerating
    injections.  No generators of degree >= |lam| means no rows, and no
    relations means no columns; with neither, f^lam is not computed.
    """
    lam = check_partition(lam)
    rows, ncols = _lift(z, sum(lam))
    dim = hook_length_count(lam) if rows or ncols else 0
    return _transport(lambda sigma: specht_rows(lam, sigma), dim, rows, ncols)


def _reduced_presentation(z: PresentationMatrix, k: int) -> PresentationMatrix:
    """The size-k presentation of z (``_lift``), with its unit pivots
    eliminated fraction-free, over Z[S_k]: every coefficient is an int.

    Scaling a generator by a nonzero rational keeps every corank, so each
    generator is first made integral by the lcm of its denominators; a sum
    the lift left at 0 goes, and so does an entry left empty.  A unit
    entry c * sigma transports to c * specht_raw(lam, sigma) =
    c * U X(sigma), U the raw matrix of the identity and X the action,
    which is invertible for every shape.  Pivoting on it at (p, q) is a
    block row operation: every other generator r with an entry a * alpha
    at q is scaled by c and takes away, at each q' where p has an entry
    w * beta, the block (a U X(alpha)) (U X(sigma))^-1 (w U X(beta)).  X
    reverses products and U cancels, so that block is a w U X(beta o
    sigma^-1 o alpha), the transport of a w * beta o sigma^-1 o alpha.
    Generator r is then divided by its content, the gcd of its
    coefficients.  Column q is zero except at p, so dropping generator p
    and relation q leaves every shape's corank unchanged.

    Sweeps over the live generators, in index order, take the pivots: a
    generator with a unit entry pivots on the unit whose relation has the
    fewest live entries, the lowest relation first on a tie.  Sweeps
    repeat until one takes no pivot, as a pivot can make a unit in a
    generator already passed.  The first pivot that would take the number
    of terms above the starting number ends the elimination.  The core
    left is returned with generators and relations renumbered in order.
    """
    rows, ncols = _lift(z, k)
    cols: list = [set() for _ in range(ncols)]
    for r, row in enumerate(rows):
        scale = lcm(*(c.denominator for e in row.values() for c in e.values()))
        for q, entry in list(row.items()):
            entry = {
                sigma: c.numerator * (scale // c.denominator)
                for sigma, c in entry.items() if c
            }
            if entry:
                row[q] = entry
                cols[q].add(r)
            else:
                del row[q]

    terms = limit = sum(len(entry) for row in rows for entry in row.values())
    pivoted = True
    while pivoted:
        pivoted = False
        for p, row in enumerate(rows):
            units = [(len(cols[q]), q) for q, e in (row or {}).items() if len(e) == 1]
            if not units:
                continue
            q = min(units)[1]
            (sigma, c), = row[q].items()
            back = inverse(sigma)
            # each term w * beta of row p as w and the padded beta o sigma^-1
            pivot_row = [
                (q2, [(w, (0,) + compose(beta, back)) for beta, w in entry.items()])
                for q2, entry in row.items() if q2 != q
            ]
            change = -sum(map(len, row.values()))
            updates = []
            for r in cols[q]:
                if r == p:
                    continue
                other = rows[r]
                column_entry = other[q]
                change -= len(column_entry)
                # c times row r, less the sum of w * a * beta o sigma^-1 o alpha
                updated = {
                    q2: entry if c == 1 else {t: c * v for t, v in entry.items()}
                    for q2, entry in other.items() if q2 != q
                }
                for q2, products in pivot_row:
                    old = updated.pop(q2, {})
                    new = dict(old)
                    for w, g in products:
                        for alpha, a in column_entry.items():
                            key = tuple(map(g.__getitem__, alpha))
                            new[key] = new.get(key, 0) - w * a
                    new = {tau: v for tau, v in new.items() if v}
                    change += len(new) - len(old)
                    if new:
                        updated[q2] = new
                content = gcd(*(v for e in updated.values() for v in e.values()))
                if content > 1:
                    updated = {q2: {t: v // content for t, v in entry.items()}
                               for q2, entry in updated.items()}
                updates.append((r, updated))
            pivoted = terms + change <= limit
            if not pivoted:
                break
            terms += change
            rows[p] = None
            for q2 in row:
                cols[q2].discard(p)
            for r, updated in updates:
                for q2 in rows[r]:
                    cols[q2].discard(r)
                for q2 in updated:
                    cols[q2].add(r)
                rows[r] = updated
            cols[q] = None

    kept_rows = [row for row in rows if row is not None]
    kept_cols = [q for q, col in enumerate(cols) if col is not None]
    renumber = {q: a for a, q in enumerate(kept_cols)}
    return PresentationMatrix(
        (k,) * len(kept_rows), (k,) * len(renumber),
        {(r, renumber[q]): FormalSum(k, k, entry)
         for r, row in enumerate(kept_rows) for q, entry in row.items()},
    )


def augmentation_matrix(z: PresentationMatrix) -> RationalMatrix:
    """The presentation with every injection replaced by 1.

    A generators x relations rational matrix: the empty shape's
    transported presentation.
    """
    return induced_raw_presentation((), z)


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
    when f is not an injection into [target], or when a block used is not
    the size of rep at the identity.
    """
    f = tuple(f)
    single = PresentationMatrix((len(f),), (target,), {
        (0, 0): FormalSum(len(f), target, {f: 1}),
    })
    dim = rep(identity(k)).nrows

    def block(sigma):
        matrix = rep(sigma)
        if (matrix.nrows, matrix.ncols) != (dim, dim):
            raise ValueError(
                f"block of {sigma} is {matrix.nrows}x{matrix.ncols}, "
                f"expected {dim}x{dim}"
            )
        return matrix.rows

    return _transport(block, dim, *_lift(single, k))


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
    "PresentationParseError",
    "augmentation_matrix",
    "induced_action",
    "induced_block_action",
    "induced_raw_presentation",
    "parse_presentation",
    "serialize_presentation",
]
