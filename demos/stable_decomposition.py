#!/usr/bin/env python3
# A walkthrough of the headline computation: take a finitely presented
# FI-module, read off its stable decomposition from coranks, and confirm
# everything against the brute-force evaluator.
#
# The running module E assigns to [n] the span of symbols z_ijk (distinct
# i, j, k in [n]) modulo the four-term cycle z_ijk + z_jkl + z_kli + z_lij.
# It is presented by one generator of degree 3 and one relation of degree
# 4 whose entry is a sum of four injections [3] -> [4].

from fistab import (
    FormalSum,
    PresentationMatrix,
    decompose_at,
    dimension_at,
    dimension_polynomial,
    eventual_multiplicities,
    induced_raw_presentation,
    onset_bound,
    verify,
)

E = PresentationMatrix(
    generator_degrees=(3,),
    relation_degrees=(4,),
    entries={(0, 0): FormalSum(3, 4, {
        (1, 2, 3): 1,
        (2, 3, 4): 1,
        (3, 4, 1): 1,
        (4, 1, 2): 1,
    })},
)

# Each shape is transported to one rational block matrix.  For the
# single-row shape of size 2 it is a 3x6 integer matrix:
print("transported matrix for shape (2,):")
print(induced_raw_presentation((2,), E))
print()

# Its corank (rows minus rank) is the eventual multiplicity of the shape
# grown by a long top row.  The full table covers all shapes up to the
# generator degree; everything larger is zero automatically.
table = eventual_multiplicities(E)
for shape, count in table:
    print(f"  eventual multiplicity of {shape} under a long top row: {count}")
print()

# The stable dimension polynomial packages the same data.  Below the
# onset degree it deliberately disagrees with the actual dimensions.
poly = dimension_polynomial(E)
onset = onset_bound(E)
print(f"stable dimension polynomial: {poly}  (valid from degree {onset})")
for n in range(3, 11):
    actual = dimension_at(E, n)
    marker = "==" if poly(n) == actual else "!="
    print(f"  degree {n:2d}: polynomial {poly(n):3d} {marker} brute force {actual:3d}")
print()

# The brute-force side knows nothing about coranks: it evaluates the
# module as an explicit cokernel and splits it by Young's rule, from
# its traces and Kostka numbers.
print("brute-force decomposition at degree 6:")
for shape, count in decompose_at(E, 6).items():
    if count:
        print(f"  {count} x {shape}")
print()

# verify() lines the two computations up shape by shape.
report = verify(E)  # defaults to the onset degree
print(f"verification at degree {report.n}: {'PASS' if report.passed else 'FAIL'}")
for check in report.checks:
    if check.observed or check.predicted:
        print(
            f"  {str(check.shape):<12} predicted {check.predicted}, "
            f"observed {check.observed}"
        )

# Below the onset the comparison is allowed to fail, and it genuinely
# does: at degree 5 one multiplicity is still too large.
early = verify(E, 5)
print(f"\nat degree {early.n} (pre-stable: {early.pre_stable}):")
for check in early.checks:
    if not check.ok:
        print(
            f"  {check.shape}: predicted {check.predicted}, "
            f"observed {check.observed} (not yet stable)"
        )
