#!/usr/bin/env python3
"""Falling-factorial combinatorics, narrated.

The polynomials f_m(X) = X(X-1)...(X-m+1) form a basis of Q[X], and the
structure constants of that basis govern how the divided-power differential
operators of the workbench compose.  This script walks through the basis,
the constants, and the exponential identity that makes the gluing
isomorphism transitive.

The package returns plain values: `falling_poly(m)` is the tuple of integer
coefficients of f_m, lowest degree first, and `structure_constants(m, n)` is
a dict {k: a_(m,n)^k}, computed from the closed form
a_(m,n)^(m+n-j) = C(m,j)·C(n,j)·j!.
"""

from logff import falling_poly, structure_constants, to_falling_basis, verify_coeff_identity

print("The falling-factorial basis")
print("---------------------------")
for m in range(5):
    f = falling_poly(m)
    terms = " + ".join(f"{c}*X^{i}" for i, c in enumerate(f) if c) or "1"
    print(f"  f_{m}(X) = {terms}")

print()
print("Any polynomial expands uniquely; for instance X^3:")
coeffs = to_falling_basis([0, 0, 0, 1])
print("  X^3 =", " + ".join(f"{c}*f_{k}" for k, c in enumerate(coeffs) if c))

print()
print("Products of basis elements expand with nonnegative integer constants:")
for m, n in [(1, 1), (1, 2), (2, 2), (3, 2)]:
    table = structure_constants(m, n)
    expansion = " + ".join(f"{c}*f_{k}" for k, c in sorted(table.items()))
    print(f"  f_{m} * f_{n} = {expansion}")

print()
print("The same constants satisfy the exponential identity")
print("  sum a_(m,n)^k (X-1)^m/m! (Y-1)^n/n! = (XY-1)^k/k!")
for k in range(7):
    print(f"  degree-6 check at k={k}:", verify_coeff_identity(k, 6))
