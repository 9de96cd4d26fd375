#!/usr/bin/env python3
# The irreducible representations of a symmetric group, as explicit
# integer matrices indexed by standard Young tableaux.

from fistab import (
    mn_character,
    partitions,
    specht_action,
    specht_raw,
    standard_tableaux,
)
from fistab.combinatorics import class_representative, compose, hook_length_count

# Standard tableaux of a shape index the rows and columns of its action
# matrices.  The canonical order sorts them by their row-reading word.
shape = (2, 2, 1)
print(f"standard tableaux of shape {shape}:")
for t in standard_tableaux(shape):
    print("  " + " / ".join(" ".join(map(str, row)) for row in t))
print()

# The raw pairing matrix of the identity is not the identity, but it is
# upper triangular with diagonal +-1, so invertible over the integers:
print("raw pairing matrix of the identity:")
print(specht_raw(shape, (1, 2, 3, 4, 5)))
print()

# Correcting by that matrix turns the construction into an honest module:
# the matrices below multiply contravariantly.
sigma = (2, 1, 3, 4, 5)
tau = (1, 2, 3, 5, 4)
lhs = specht_action(shape, sigma) * specht_action(shape, tau)
rhs = specht_action(shape, compose(tau, sigma))
print(f"action of {sigma}:")
print(specht_action(shape, sigma))
print(f"\ncomposition law holds: {lhs == rhs}")
print()

# Characters computed two unrelated ways: traces of the matrices above,
# and the recursive rim-hook rule.  One character table for S_5:
n = 5
shapes = partitions(n)
print(f"character table of the symmetric group on {n} points")
header = " ".join(f"{str(mu):>15}" for mu in shapes)
print(f"{'shape/class':>15} {header}")
for lam in shapes:
    values = []
    for mu in shapes:
        matrix = specht_action(lam, class_representative(mu))
        trace = sum(matrix[i, i] for i in range(matrix.nrows))
        assert trace == mn_character(lam, mu)
        values.append(trace)
    row = " ".join(f"{v:>15}" for v in values)
    print(f"{str(lam):>15} {row}")
print()

# Dimensions are hook-length counts, and their squares fill the group.
total = sum(hook_length_count(lam) ** 2 for lam in shapes)
print(f"sum of squared dimensions: {total} = 5! = 120")
