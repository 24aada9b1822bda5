"""Falling-factorial basis combinatorics.

f_m(X) = X(X-1)...(X-m+1) is monic of degree m and {f_m} is a basis of Q[X],
so products f_m*f_n expand uniquely as sum_k a_{mn}^k f_k.  The constants
have the closed form

    a_{mn}^{m+n-j} = C(m, j) C(n, j) j!      for 0 <= j <= min(m, n)

(choose j of the m and j of the n factors to coincide, and match them), so
they are positive integers with max(m, n) <= k <= m + n by construction.
They govern how the operators prod(delta_j - k) compose, and they enter the
transitivity of the gluing isomorphism through the exponential identity

    sum_{m,n} a_{mn}^k (X-1)^m/m! (Y-1)^n/n! = (XY-1)^k / k!

which `verify_coeff_identity` checks degree by degree in exact rationals.
The results are plain values: `falling_poly` a tuple of ints,
`structure_constants` a new `{k: a}` dict on each call.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


def falling_poly(m: int) -> tuple[int, ...]:
    """Ascending integer coefficients of f_m(X) = X(X-1)...(X-m+1), with f_0 = 1."""
    if m < 0:
        raise ValueError("degree must be nonnegative")
    coeffs = (1,)
    for t in range(m):
        # multiply by (X - t): coefficient i becomes c_{i-1} - t*c_i
        coeffs = tuple(a - t * b for a, b in zip((0,) + coeffs, coeffs + (0,)))
    return coeffs


def to_falling_basis(poly) -> tuple[Fraction, ...]:
    """Coefficients c_k with poly = sum c_k f_k, by top-down exact division.

    Accepts ascending monomial coefficients (ints or Fractions).  The f_m are
    monic, so the top coefficient is read off directly at each step.  The
    result has no trailing zeros, except that the zero polynomial gives (0,).
    """
    work = [Fraction(c) for c in poly] or [Fraction(0)]
    top = max((i for i, c in enumerate(work) if c), default=0)
    out = [Fraction(0)] * (top + 1)
    for k in range(top, -1, -1):
        out[k] = c = work[k]
        for i, fc in enumerate(falling_poly(k)):
            work[i] -= c * fc
    return tuple(out)


def structure_constants(m: int, n: int) -> dict[int, int]:
    """a_{mn}^k with f_m*f_n = sum_k a_{mn}^k f_k, ascending in k; zeros omitted."""
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    return {m + n - j: comb(m, j) * comb(n, j) * factorial(j)
            for j in range(min(m, n), -1, -1)}


def multi_structure_constants(I: tuple[int, ...], J: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Slotwise products a_{IJ}^K = prod_l a_{i_l j_l}^{k_l}; zero values omitted."""
    if len(I) != len(J):
        raise ValueError("multi-indices must have the same length")
    out: dict[tuple[int, ...], int] = {(): 1}
    for il, jl in zip(I, J):
        table = structure_constants(il, jl)
        out = {prefix + (k,): c * a for prefix, c in out.items() for k, a in table.items()}
    return out


def verify_coeff_identity(k: int, bound: int) -> bool:
    """Check the exponential identity for a_{mn}^k up to total degree `bound`.

    Both sides are expanded as polynomials in u = X-1 and v = Y-1, with
    XY - 1 rewritten as uv + u + v, and compared coefficientwise in exact
    rationals on total degree <= bound.
    """
    lhs: dict[tuple[int, int], Fraction] = {}
    for m in range(k + 1):
        for n in range(k + 1):
            if m + n < k:
                continue
            a = structure_constants(m, n).get(k, 0)
            if a:
                lhs[(m, n)] = Fraction(a, factorial(m) * factorial(n))
    rhs: dict[tuple[int, int], Fraction] = {}
    # (uv + u + v)^k / k! by trinomial expansion
    for alpha in range(k + 1):
        for beta in range(k + 1 - alpha):
            gamma = k - alpha - beta
            coeff = Fraction(factorial(k), factorial(alpha) * factorial(beta) * factorial(gamma))
            key = (alpha + beta, alpha + gamma)
            rhs[key] = rhs.get(key, Fraction(0)) + coeff / factorial(k)
    keys = {key for key in set(lhs) | set(rhs) if key[0] + key[1] <= bound}
    return all(lhs.get(key, Fraction(0)) == rhs.get(key, Fraction(0)) for key in keys)
