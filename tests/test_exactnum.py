from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from logff.exactnum import NonIntegralError, factorial_valp, modinv, reduce_mod

from oracle import INFINITY, reduce_mod_by_definition, valp


def test_valp_examples():
    assert valp(Fraction(6, 5), 3) == 1
    assert valp(Fraction(0), 5) == INFINITY
    assert valp(Fraction(1, 9), 3) == -2


def test_factorial_valp_examples():
    assert factorial_valp(5, 5) == 1
    assert factorial_valp(4, 5) == 0
    assert factorial_valp(25, 5) == 6


@pytest.mark.parametrize("p", [3, 5, 7])
def test_factorial_valp_against_brute_force(p):
    for m in range(201):
        brute = sum(m // p ** k for k in range(1, 40))
        assert factorial_valp(m, p) == brute


def test_reduce_mod_examples():
    assert reduce_mod(Fraction(-1, 6), 5, 1) == 4
    with pytest.raises(NonIntegralError):
        reduce_mod(Fraction(1, 5), 5, 2)
    # oracle: 3^{-1} = 17 mod 25 by extended Euclid, 10 * 17 = 170 = 20 mod 25
    assert modinv(3, 25) == 17
    assert reduce_mod(Fraction(10, 3), 5, 2) == 20


def test_reduce_mod_zero():
    assert reduce_mod(Fraction(0), 7, 3) == 0


rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4)


@given(rationals, rationals)
def test_valp_multiplicative(q1, q2):
    p = 5
    v = valp(q1 * q2, p)
    if q1 == 0 or q2 == 0:
        assert v == INFINITY
    else:
        assert v == valp(q1, p) + valp(q2, p)


@given(rationals, rationals)
def test_valp_ultrametric(q1, q2):
    p = 3
    assert valp(q1 + q2, p) >= min(valp(q1, p), valp(q2, p))


def test_reduce_mod_is_ring_homomorphism():
    import random
    rng = random.Random(11)
    p, n = 5, 2
    q = p ** n
    count = 0
    while count < 1000:
        q1 = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        q2 = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        if valp(q1, p) < 0 or valp(q2, p) < 0 or valp(q1 + q2, p) < 0:
            continue
        assert reduce_mod(q1 * q2, p, n) == reduce_mod(q1, p, n) * reduce_mod(q2, p, n) % q
        assert reduce_mod(q1 + q2, p, n) == (reduce_mod(q1, p, n) + reduce_mod(q2, p, n)) % q
        count += 1


def _outcome(fn, *args, error=NonIntegralError):
    try:
        return ("value", fn(*args))
    except error as exc:
        return ("raised", str(exc))


@given(st.sampled_from([3, 5, 7]), st.integers(1, 4), st.integers(-10**6, 10**6),
       st.integers(0, 3), st.integers(1, 10**4), st.booleans())
def test_reduce_mod_matches_the_fraction_definition(p, n, num, k, unit, as_int):
    # the denominator p^k * unit makes about half the inputs non-integral
    q = num if as_int else Fraction(num, p ** k * unit)
    got = _outcome(reduce_mod, q, p, n)
    assert got == _outcome(reduce_mod_by_definition, q, p, n, error=ArithmeticError)
    if not as_int and valp(q, p) < 0:
        assert got == ("raised", f"{q} has negative {p}-adic valuation")


def test_modinv_rejects_non_units():
    with pytest.raises(ValueError):
        modinv(10, 25)


@pytest.mark.parametrize("module_name", ["logff.exactnum", "logff.logring"])
def test_docstring_examples(module_name):
    # run here rather than with --doctest-modules, which would also import
    # the demos and scripts
    import doctest
    import importlib

    result = doctest.testmod(importlib.import_module(module_name))
    assert result.attempted > 0
    assert result.failed == 0
