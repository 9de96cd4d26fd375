"""Stable multiplicities of symmetric-group irreducibles in finitely
presented FI-modules, computed two independent ways.

The closed form reads each multiplicity off as the corank of an exact
rational block matrix built from a presentation; the brute-force oracle
evaluates the module degree by degree and decomposes it by Young's rule
and Kostka numbers.
``verify`` confronts the two.

The names exported here are the ones the demos and the README quick start
use; everything else is reached through its submodule, and presentation
files through ``fistab.cli``.
"""

from .combinatorics import (
    horizontal_strip_extensions,
    partitions,
    standard_tableaux,
)
from .multiplicity import dimension_polynomial, eventual_multiplicities, onset_bound
from .oracle import decompose_at, dimension_at, verify
from .presentation import (
    FormalSum,
    PresentationMatrix,
    induced_action,
    induced_block_action,
    induced_raw_presentation,
)
from .specht import mn_character, specht_action, specht_raw

__version__ = "0.1.0"

__all__ = [
    "FormalSum",
    "PresentationMatrix",
    "decompose_at",
    "dimension_at",
    "dimension_polynomial",
    "eventual_multiplicities",
    "horizontal_strip_extensions",
    "induced_action",
    "induced_block_action",
    "induced_raw_presentation",
    "mn_character",
    "onset_bound",
    "partitions",
    "specht_action",
    "specht_raw",
    "standard_tableaux",
    "verify",
]
