"""Exact rational matrices and the one exact elimination engine.

Entries are Python ints or ``fractions.Fraction``; integral fractions are
normalized to int on construction.  Each row is stored sparse, as the
tuple of its nonzero (column, value) pairs in increasing column order:
the format the Specht blocks and the transported matrices are built in,
so no zero cell is ever allocated.

Every rank in the package comes from :class:`Echelon`, an incremental
exact integer row echelon over sparse rows (dicts from column to nonzero
value) with the content of each row divided out.  The basis is one map
from each pivot column to its row, kept fully reduced as rows arrive:
each row is zero at every other row's pivot, its pivot is its first
column and its pivot value is positive.  That makes the basis canonical,
the primitive integer form of the reduced row echelon form of the rows'
span, whatever order the rows came in.  Because the basis is reduced, a
new row is reduced in one pass: its value at each pivot it hits, over
that pivot value, is the multiplier of that basis row.  An independent
row then clears its pivot column, in place, from the rows already kept.
It finds them through a column index, which maps each column off the
pivots to the pivot columns of the basis rows nonzero there: the rows to
clear are the set at the new pivot, with no scan of the basis.  The
basis does not depend on the order the rows are fed in, but the cost
does: a pivot left of every kept pivot has nothing to clear.
``RationalMatrix.rank`` gets rows whose leading columns mostly rise, so
it feeds them last first.  The oracle feeds its rows by the least point
of their image falling, then by relation column and injection falling,
which puts their leading columns in the same mostly falling order, and
it feeds almost no dependent row (see :mod:`fistab.oracle`).
The closed form ranks the transports of the integral cores its
fraction-free elimination of unit pivots leaves (see
:mod:`fistab.presentation`); last first is no slower there: on
cyclic-9's cores it took 61 ms against 69 ms fed first first (2-core
VM, Python 3.11).  The oracle relies on the invariant to write each
pivot column, in its cokernel, in the free columns, straight off that
column's basis row; its traces are what the reduced basis is kept for.

The transported matrices of the closed form are a few percent nonzero,
and so are the relation matrices of the brute-force oracle, which feeds
the same engine directly.  ``RationalMatrix.rank`` feeds each row's
nonzero entries to it, after clearing the denominators of a rational row.

Matrices with zero rows or zero columns are first-class: a matrix with no
columns has rank 0 (so its corank equals its row count), and a matrix with
no rows has corank 0.

Matrices are immutable values; every operation returns a fresh matrix.
"""

from fractions import Fraction
from math import gcd, lcm

from .record import Record


def _norm(v):
    """Collapse integral Fractions to int; reject non-rational entries."""
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else v
    raise TypeError(f"matrix entries must be int or Fraction, got {type(v)!r}")


def _sparse_row(i: int, row) -> tuple:
    """The nonzero entries of row i, as sorted (column, value) pairs.

    A row of pairs that lists a column twice is refused: as a dict it
    would keep only the last value.
    """
    if not row:
        return ()
    if not isinstance(row, dict):
        pairs, row = row, {}
        for j, v in pairs:
            if j in row:
                raise ValueError(f"row {i} lists column {j} twice")
            row[j] = v
    return tuple(sorted(
        (j, v if type(v) is int else _norm(v)) for j, v in row.items() if v
    ))


class Echelon:
    """Incremental exact integer row echelon over sparse rows.

    The basis is one map, ``pivots``, from each pivot column c to its
    basis row: the row's first column is c, its value there is positive,
    its content is 1, and it is zero at every other pivot column.  The
    column index ``holders`` maps each column off the pivots that some
    basis row uses to the set of the pivot columns of the rows nonzero
    there; no pivot column is a key.

    The basis is kept reduced for the oracle's traces, which write each
    pivot column in the free columns straight off its basis row.  The
    basis is the same for any order the rows are fed in; only the order
    of ``pivots`` follows the feed.  The cost does depend on the order.
    Rows whose leading columns fall are the cheap order: each new pivot
    then lies left of the kept pivots, where the kept rows are almost
    always zero.  The oracle's feed, by least image point falling, is in
    that order, and ``add_row``'s answer tells it which rows of the next
    smaller least point it need not build.
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}
        self.holders: dict[int, set[int]] = {}

    def add_row(self, row: dict[int, int]) -> bool:
        """Reduce a row against the basis; keep it if independent.

        The basis is fully reduced, so subtracting one basis row brings in
        no other pivot column.  The row is scaled by the lcm L of the pivot
        values it hits, and the basis row with pivot column c and pivot
        value v is subtracted L * row[c] / v times, all in one pass into
        one new dict.
        An independent row then clears its pivot column, in place, from
        every kept row that is nonzero there, which is the cost a feed in
        falling order of leading columns avoids.  Those rows are the
        index's set at the new pivot; the index follows each column a
        cleared row gains or loses, and the new row's columns.  The given
        dict is never changed.
        """
        pivots, holders = self.pivots, self.holders
        hits = [(pivots[c], c, v) for c, v in row.items() if c in pivots]
        scale = lcm(*(other[c] for other, c, _ in hits))
        new = {k: v * scale for k, v in row.items()}
        for other, c, v in hits:
            m = v * scale // other[c]
            for k, w in other.items():
                new[k] = new.get(k, 0) - m * w
        new = {k: v for k, v in new.items() if v}
        if not new:
            return False
        c = gcd(*new.values())
        lead = min(new)
        if new[lead] < 0:
            c = -c
        if c != 1:
            new = {k: v // c for k, v in new.items()}
        b = new[lead]
        # the new row holds its columns before any kept row is cleared, so
        # a column a cleared row loses is still held by the new row
        for k in new:
            if k != lead:
                holders.setdefault(k, set()).add(lead)
        for p in holders.pop(lead, ()):
            other = pivots[p]
            a = other[lead]
            g = gcd(a, b)
            m1, m2 = b // g, a // g
            pivot = other[p]
            if m1 != 1:
                for k in other:
                    other[k] *= m1
            for k, w in new.items():
                v = other.get(k)
                if v is None:
                    other[k] = -m2 * w
                    holders[k].add(p)
                    continue
                v -= m2 * w
                if v:
                    other[k] = v
                else:
                    del other[k]
                    if k != lead:
                        holders[k].remove(p)
            # the content divides the old pivot value: a common prime of
            # the content and m1 would divide every entry of the new row
            if pivot != 1:
                c = gcd(*other.values())
                if c > 1:
                    for k in other:
                        other[k] //= c
        pivots[lead] = new
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


class RationalMatrix(Record):
    """An immutable nrows x ncols matrix over the rationals.

    ``rows[i]`` holds the nonzero entries of row i: a tuple of
    (column, value) pairs in increasing column order, each value an int or
    a non-integral Fraction.  No zero is stored, so two equal matrices have
    equal rows.  The constructor takes each row as a dict from column to
    value, or as an iterable of such pairs that lists each column once.
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols: int):
        rows = tuple(_sparse_row(i, row) for i, row in enumerate(rows))
        if any(row and not (0 <= row[0][0] and row[-1][0] < ncols) for row in rows):
            raise ValueError(f"a column lies outside range({ncols})")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)

    def __getitem__(self, key):
        i, j = key
        if not 0 <= i < self.nrows:
            raise IndexError(f"row {i} outside range({self.nrows})")
        if not 0 <= j < self.ncols:
            raise IndexError(f"column {j} outside range({self.ncols})")
        return dict(self.rows[i]).get(j, 0)

    def __repr__(self):
        return f"RationalMatrix({self.nrows}x{self.ncols})"

    def cells(self) -> list[list[str]]:
        """Every entry as text, row by row, zeros included."""
        out = []
        for row in self.rows:
            line = ["0"] * self.ncols
            for j, v in row:
                line[j] = str(v)
            out.append(line)
        return out

    def __str__(self):
        if self.nrows == 0 or self.ncols == 0:
            return f"(empty {self.nrows}x{self.ncols} matrix)"
        cells = self.cells()
        widths = [max(map(len, column)) for column in zip(*cells)]
        return "\n".join(
            "[ " + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]"
            for row in cells
        )

    # -- product ------------------------------------------------------------

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}"
            )
        out = []
        for row in self.rows:
            acc = {}
            for l, a in row:
                for j, b in other.rows[l]:
                    acc[j] = acc.get(j, 0) + a * b
            out.append(acc)
        return RationalMatrix(out, other.ncols)

    # -- rank ---------------------------------------------------------------

    def rank(self) -> int:
        """Exact rank over the rationals, by sparse integer row echelon.

        Each row is scaled by the lcm of its denominators, which keeps the
        rank, and its nonzero entries go to an :class:`Echelon`, last row
        first.  An empty row, as every row of a free generator in a core
        is, adds nothing and is not fed.
        """
        echelon = Echelon()
        for row in reversed(self.rows):
            if not row:
                continue
            entries = dict(row)
            if Fraction in set(map(type, entries.values())):
                scale = lcm(*(v.denominator for v in entries.values()))
                entries = {j: int(v * scale) for j, v in entries.items()}
            echelon.add_row(entries)
        return echelon.rank

    def corank(self) -> int:
        """Row count minus rank."""
        return self.nrows - self.rank()


__all__ = [
    "Echelon",
    "RationalMatrix",
]
