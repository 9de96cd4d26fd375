"""Exact rational matrices and the one exact elimination engine.

Entries are Python ints or ``fractions.Fraction``; integral fractions are
normalized to int on construction, and rows that hold only ints are kept
as given, so the common all-integer case runs on fast machine arithmetic.
Rows are stored dense, as tuples.

Every rank in the package comes from :class:`Echelon`, an incremental
exact integer row echelon over sparse rows (dicts from column to nonzero
value) with the content of each row divided out.  The transported
matrices of the closed form are a few percent nonzero, and so are the
relation matrices of the brute-force oracle, which feeds the same engine
directly.  ``RationalMatrix.rank`` clears each row's denominators and
feeds the row's nonzero entries to it.

Matrices with zero rows or zero columns are first-class: a matrix with no
columns has rank 0 (so its corank equals its row count), and a matrix with
no rows has corank 0.

Matrices are immutable values; every operation returns a fresh matrix.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import compress
from math import gcd, lcm


def _norm(v):
    """Collapse integral Fractions to int; reject non-rational entries."""
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else v
    raise TypeError(f"matrix entries must be int or Fraction, got {type(v)!r}")


def _norm_row(row) -> tuple:
    row = tuple(row)
    if set(map(type, row)) <= {int}:
        return row
    return tuple(map(_norm, row))


def _content(values) -> int:
    return reduce(gcd, values)


class Echelon:
    """Incremental exact integer row echelon over sparse rows."""

    def __init__(self):
        self.rows: list[dict[int, int]] = []
        self.pivots: dict[int, int] = {}

    @staticmethod
    def _combine(row, other, col):
        """row * m1 - other * m2, scaled to cancel column col, content 1."""
        a, b = row[col], other[col]
        g = gcd(a, b)
        m1, m2 = b // g, a // g
        new = {k: v * m1 for k, v in row.items()}
        for k, v in other.items():
            w = new.get(k, 0) - v * m2
            if w:
                new[k] = w
            elif k in new:
                del new[k]
        if new:
            c = _content(new.values())
            if c > 1:
                new = {k: v // c for k, v in new.items()}
        return new

    def add_row(self, row: dict[int, int]) -> bool:
        """Reduce a row against the pivots; keep it if independent."""
        while row:
            col = min(row)
            if col not in self.pivots:
                break
            row = self._combine(row, self.rows[self.pivots[col]], col)
        if not row:
            return False
        c = _content(row.values())
        lead = min(row)
        if row[lead] < 0:
            c = -c
        if c != 1:
            row = {k: v // c for k, v in row.items()}
        self.pivots[lead] = len(self.rows)
        self.rows.append(row)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce_fully(self):
        """Clear every pivot column from all other rows (reduced form)."""
        for col in sorted(self.pivots, reverse=True):
            keep = self.pivots[col]
            for idx, row in enumerate(self.rows):
                if idx != keep and col in row:
                    self.rows[idx] = self._combine(row, self.rows[keep], col)


class SingularMatrixError(ValueError):
    """Raised when inverting a matrix without full rank."""


class RationalMatrix:
    """An immutable nrows x ncols matrix over the rationals."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols: int | None = None):
        rows = tuple(map(_norm_row, rows))
        if rows:
            width = len(rows[0])
            if any(len(row) != width for row in rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError(f"ncols={ncols} but rows have width {width}")
            ncols = width
        elif ncols is None:
            ncols = 0
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls([[0] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ncols, self.rows))

    def __repr__(self):
        return f"RationalMatrix({self.nrows}x{self.ncols})"

    def __str__(self):
        if self.nrows == 0 or self.ncols == 0:
            return f"(empty {self.nrows}x{self.ncols} matrix)"
        cells = [[str(v) for v in row] for row in self.rows]
        widths = [max(len(cells[i][j]) for i in range(self.nrows))
                  for j in range(self.ncols)]
        return "\n".join(
            "[ " + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]"
            for row in cells
        )

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            [[self.rows[i][j] for i in range(self.nrows)]
             for j in range(self.ncols)],
            ncols=self.nrows,
        )

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(
                f"cannot add {self.nrows}x{self.ncols} and "
                f"{other.nrows}x{other.ncols}"
            )
        return RationalMatrix(
            [[a + b for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.rows, other.rows)],
            ncols=self.ncols,
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + other.scale(-1)

    def scale(self, alpha) -> "RationalMatrix":
        alpha = _norm(alpha if isinstance(alpha, int) else Fraction(alpha))
        return RationalMatrix(
            [[alpha * v for v in row] for row in self.rows], ncols=self.ncols
        )

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}"
            )
        out = [[0] * other.ncols for _ in range(self.nrows)]
        for i, row in enumerate(self.rows):
            acc = out[i]
            for l, a in enumerate(row):
                if a == 0:
                    continue
                brow = other.rows[l]
                for j, b in enumerate(brow):
                    if b != 0:
                        acc[j] += a * b
        return RationalMatrix(out, ncols=other.ncols)

    # -- rank and inverse ---------------------------------------------------

    def rank(self) -> int:
        """Exact rank over the rationals, by sparse integer row echelon.

        Each row is scaled by the lcm of its denominators, which keeps the
        rank, and its nonzero entries go to an :class:`Echelon`.
        """
        echelon = Echelon()
        columns = range(self.ncols)
        for row in self.rows:
            entries = {j: row[j] for j in compress(columns, row)}
            if Fraction in set(map(type, entries.values())):
                scale = lcm(*(v.denominator for v in entries.values()))
                entries = {j: int(v * scale) for j, v in entries.items()}
            echelon.add_row(entries)
        return echelon.rank

    def corank(self) -> int:
        """Row count minus rank."""
        return self.nrows - self.rank()

    def inverse(self) -> "RationalMatrix":
        """Exact inverse of a square full-rank matrix.

        Raises SingularMatrixError otherwise.
        """
        if self.nrows != self.ncols:
            raise SingularMatrixError(
                f"cannot invert {self.nrows}x{self.ncols} matrix"
            )
        n = self.nrows
        work = [
            [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(self.rows)
        ]
        for col in range(n):
            pivot = next(
                (i for i in range(col, n) if work[i][col] != 0), None
            )
            if pivot is None:
                raise SingularMatrixError("matrix is singular")
            work[col], work[pivot] = work[pivot], work[col]
            lead = work[col][col]
            work[col] = [v / lead for v in work[col]]
            for i in range(n):
                if i != col and work[i][col] != 0:
                    factor = work[i][col]
                    work[i] = [
                        v - factor * w for v, w in zip(work[i], work[col])
                    ]
        return RationalMatrix([row[n:] for row in work], ncols=n)


@dataclass(frozen=True)
class BlockLayout:
    """Row and column block sizes for assembling a block matrix."""

    row_sizes: tuple[int, ...]
    col_sizes: tuple[int, ...]

    @property
    def nrows(self) -> int:
        return sum(self.row_sizes)

    @property
    def ncols(self) -> int:
        return sum(self.col_sizes)


def assemble_blocks(layout: BlockLayout, blocks) -> RationalMatrix:
    """Flatten a grid of blocks into one matrix.

    ``blocks`` maps (block row, block col) to a RationalMatrix; missing
    positions are zero blocks.  Every present block must match its layout
    cell exactly.
    """
    row_offsets = [0]
    for size in layout.row_sizes:
        row_offsets.append(row_offsets[-1] + size)
    col_offsets = [0]
    for size in layout.col_sizes:
        col_offsets.append(col_offsets[-1] + size)

    out = [[0] * layout.ncols for _ in range(layout.nrows)]
    for (bi, bj), block in blocks.items():
        if not 0 <= bi < len(layout.row_sizes) or not 0 <= bj < len(layout.col_sizes):
            raise ValueError(f"block position {(bi, bj)} outside layout")
        if (block.nrows, block.ncols) != (layout.row_sizes[bi], layout.col_sizes[bj]):
            raise ValueError(
                f"block {(bi, bj)} is {block.nrows}x{block.ncols}, layout cell "
                f"is {layout.row_sizes[bi]}x{layout.col_sizes[bj]}"
            )
        r0, c0 = row_offsets[bi], col_offsets[bj]
        for i, row in enumerate(block.rows):
            out[r0 + i][c0:c0 + block.ncols] = row
    return RationalMatrix(out, ncols=layout.ncols)


__all__ = [
    "BlockLayout",
    "Echelon",
    "RationalMatrix",
    "SingularMatrixError",
    "assemble_blocks",
]
