"""Exact rational arithmetic with p-adic valuation bookkeeping.

A divided-power coefficient c / (I! * p^e) is never truncated.  Write
I! * p^e = p^v * u with u prime to p (v = e + v_p(I!), see
`factorial_valp`).  `logring.DividedCoeffs.coeff` first divides c by p^v
as an integer, and a nonzero remainder raises `NonIntegralError`; it then
multiplies the quotient by the inverse of u mod p^n, which `reduce_mod`
computes once per coefficient from the exact `fractions.Fraction`
p^v / (I! * p^e).  `reduce_mod` checks the p-adic valuation of any
rational before reducing it into Z/p^n, so a division that is not
p-integral raises `NonIntegralError` on either path instead of truncating
silently.

Rationals are plain `fractions.Fraction` (already gcd-reduced, denominator
positive).  Residues are canonical integer representatives in [0, p^n).
"""

from __future__ import annotations

import math
from fractions import Fraction

INFINITY = math.inf


class NonIntegralError(ArithmeticError):
    """A divided-power coefficient had negative p-adic valuation."""


def int_valp(m: int, p: int) -> int | float:
    """v_p(m) for an integer, with v_p(0) = +infinity."""
    if m == 0:
        return INFINITY
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def valp(q: Fraction | int, p: int) -> int | float:
    """p-adic valuation of a rational: v_p(num) - v_p(den); +inf for 0.

    >>> valp(Fraction(6, 5), 3)
    1
    >>> valp(Fraction(1, 9), 3)
    -2
    """
    q = Fraction(q)
    if q == 0:
        return INFINITY
    return int_valp(q.numerator, p) - int_valp(q.denominator, p)


def factorial_valp(m: int, p: int) -> int:
    """v_p(m!) by Legendre's formula (m - digit_sum_p(m)) / (p - 1)."""
    if m < 0:
        raise ValueError("factorial of a negative integer")
    digit_sum = 0
    t = m
    while t:
        digit_sum += t % p
        t //= p
    return (m - digit_sum) // (p - 1)


def modinv(a: int, modulus: int) -> int:
    """Inverse of a mod `modulus`; ValueError if not a unit."""
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise ValueError(f"{a} is not invertible mod {modulus}") from None


def reduce_mod(q: Fraction | int, p: int, n: int) -> int:
    """Image of a p-integral rational in Z/p^n, as the representative in [0, p^n).

    The denominator is inverted mod p^n.  Raises NonIntegralError when
    valp(q, p) < 0; that always signals either a bug or an invalid input,
    never a condition to be papered over.  q is wrapped in a Fraction only
    when it is not one already, and the valuation is read off its numerator
    and denominator: a Fraction is in lowest terms, so valp(q, p) < 0
    exactly when p divides the denominator.

    >>> reduce_mod(Fraction(-1, 6), 5, 1)
    4
    >>> reduce_mod(Fraction(10, 3), 5, 2)
    20
    """
    if not isinstance(q, Fraction):
        q = Fraction(q)
    if not q.numerator:
        return 0
    if not q.denominator % p:
        raise NonIntegralError(f"{q} has negative {p}-adic valuation")
    modulus = p ** n
    return q.numerator * modinv(q.denominator, modulus) % modulus
