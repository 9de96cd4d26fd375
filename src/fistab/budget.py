"""The one resource cap shared by both routes.

``FISTAB_ORACLE_CAP`` (default 5000) bounds the oracle's ambient rows at
a degree; the oracle scales it for relation columns and for the class
budget of a decomposition (see :mod:`fistab.oracle`).  The closed form
and the ``specht`` and ``amatrix`` commands scale it to a budget of 2000
times the cap on the rows times the columns of one matrix
(:func:`check_cells`), 10 M cells at the default.  The budget counts every cell, though a matrix
stores only its nonzero entries.
"""

import os
from decimal import Decimal

DEFAULT_ROW_CAP = 5000
ROW_CAP_ENV = "FISTAB_ORACLE_CAP"


class ResourceCapError(RuntimeError):
    """Raised when a computation would exceed the configured budget."""


def row_cap() -> int:
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


def figure(n: int) -> str:
    """n in digits, or in scientific notation when it has more digits
    than the interpreter converts to text."""
    try:
        return str(n)
    except ValueError:
        return f"{Decimal(n):.3e}"


def check_cells(lam, dim: int, row_blocks: int = 1, col_blocks: int = 1) -> None:
    """Refuse a matrix of dim x dim blocks for shape lam over the budget.

    The matrix has row_blocks x col_blocks blocks.  A side without blocks
    counts as one, since the rows or labels of the other side are built
    all the same.
    """
    budget = 2000 * row_cap()
    cells = max(row_blocks, 1) * max(col_blocks, 1) * dim * dim
    if cells > budget:
        raise ResourceCapError(
            f"shape {lam} needs a {figure(row_blocks * dim)}x"
            f"{figure(col_blocks * dim)} matrix, {figure(cells)} cells, "
            f"budget is {budget} (raise {ROW_CAP_ENV} to override)"
        )
