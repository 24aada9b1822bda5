"""Falling-factorial basis combinatorics.

f_m(X) = X(X-1)...(X-m+1) is monic of degree m and {f_m} is a basis of Q[X],
so products f_m*f_n expand uniquely as sum_k a_{mn}^k f_k.  These structure
constants govern how the operators prod(delta_j - k) compose, and they enter
the transitivity of the gluing isomorphism through the exponential identity

    sum_{m,n} a_{mn}^k (X-1)^m/m! (Y-1)^n/n! = (XY-1)^k / k!

which `verify_coeff_identity` checks degree by degree in exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

Poly = tuple[Fraction, ...]  # ascending coefficients, no trailing zeros


@dataclass(frozen=True)
class FallingPoly:
    """f_m in the monomial basis; coefficients ascending, leading coefficient 1."""

    degree: int
    coeffs: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return sum(c * x ** i for i, c in enumerate(self.coeffs))


@dataclass(frozen=True)
class CoeffTable:
    """The expansion f_m*f_n = sum_k a_{mn}^k f_k; zero entries omitted."""

    m: int
    n: int
    table: dict[int, int]

    def __getitem__(self, k: int) -> int:
        return self.table.get(k, 0)


def _trim(coeffs: list[Fraction]) -> Poly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def _poly_sub(a: Poly, b: Poly) -> Poly:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out)


@lru_cache(maxsize=None)
def _falling_monomial(m: int) -> Poly:
    if m == 0:
        return (Fraction(1),)
    prev = _falling_monomial(m - 1)
    # multiply by (X - (m-1))
    return _poly_sub(_poly_mul(prev, (Fraction(0), Fraction(1))),
                     _poly_mul(prev, (Fraction(m - 1),)))


def falling_poly(m: int) -> FallingPoly:
    """Exact coefficients of f_m(X) = X(X-1)...(X-m+1), with f_0 = 1."""
    if m < 0:
        raise ValueError("degree must be nonnegative")
    coeffs = _falling_monomial(m)
    assert all(c.denominator == 1 for c in coeffs)
    return FallingPoly(m, tuple(int(c) for c in coeffs))


def to_falling_basis(poly) -> tuple[Fraction, ...]:
    """Coefficients c_k with poly = sum c_k f_k, by top-down exact division.

    Accepts ascending monomial coefficients (ints or Fractions).  The f_m are
    monic, so the top coefficient is read off directly at each step.
    """
    work = _trim([Fraction(c) for c in poly])
    out = [Fraction(0)] * max(len(work), 1)
    while work:
        k = len(work) - 1
        c = work[-1]
        out[k] = c
        work = _poly_sub(work, _poly_mul((c,), _falling_monomial(k)))
        if len(work) > k:
            raise AssertionError("division did not reduce the degree")
    return tuple(out)


@lru_cache(maxsize=None)
def structure_constants(m: int, n: int) -> CoeffTable:
    """a_{mn}^k with f_m*f_n = sum_k a_{mn}^k f_k; entries are nonnegative integers."""
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    product = _poly_mul(_falling_monomial(m), _falling_monomial(n))
    coeffs = to_falling_basis(product)
    table = {}
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        assert c.denominator == 1 and c > 0, f"a_({m},{n})^{k} = {c}"
        assert max(m, n) <= k <= m + n
        table[k] = int(c)
    return CoeffTable(m, n, table)


def multi_structure_constants(I: tuple[int, ...], J: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Slotwise products a_{IJ}^K = prod_l a_{i_l j_l}^{k_l}; zero values omitted."""
    if len(I) != len(J):
        raise ValueError("multi-indices must have the same length")
    out: dict[tuple[int, ...], int] = {(): 1}
    for il, jl in zip(I, J):
        table = structure_constants(il, jl).table
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
            a = structure_constants(m, n)[k]
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
