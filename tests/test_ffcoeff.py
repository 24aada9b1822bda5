from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from logff.ffcoeff import (
    falling_poly,
    multi_structure_constants,
    structure_constants,
    to_falling_basis,
    verify_coeff_identity,
)


def closed_form_constant(m: int, n: int, k: int) -> int:
    """Cross-check value a_{mn}^{m+n-j} = C(m,j) C(n,j) j! with j = m+n-k."""
    j = m + n - k
    if j < 0 or j > min(m, n):
        return 0
    return comb(m, j) * comb(n, j) * factorial(j)


def test_falling_poly_examples():
    assert falling_poly(2).coeffs == (0, -1, 1)          # X^2 - X
    assert falling_poly(0).coeffs == (1,)
    assert falling_poly(3).coeffs == (0, 2, -3, 1)       # X^3 - 3X^2 + 2X


def test_falling_poly_roots_and_leading():
    for m in range(1, 9):
        f = falling_poly(m)
        assert f.coeffs[-1] == 1
        for k in range(m):
            assert f(k) == 0
        assert f(m) != 0


def test_to_falling_basis_examples():
    # X^2 = f_1 + f_2: oracle by expanding X(X-1) + X
    assert to_falling_basis([0, 0, 1]) == (0, 1, 1)
    f5 = falling_poly(5).coeffs
    out = to_falling_basis(f5)
    assert out == (0, 0, 0, 0, 0, 1)
    assert to_falling_basis([7]) == (Fraction(7),)


@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=7))
def test_to_falling_basis_round_trip(coeffs):
    out = to_falling_basis(coeffs)
    rebuilt = [Fraction(0)] * max(len(coeffs), 1)
    for k, c in enumerate(out):
        f = falling_poly(k).coeffs
        for i, fc in enumerate(f):
            rebuilt[i] += c * fc
    padded = [Fraction(c) for c in coeffs] + [Fraction(0)] * (len(rebuilt) - len(coeffs))
    assert rebuilt == padded


def test_structure_constants_examples():
    assert structure_constants(1, 1).table == {1: 1, 2: 1}
    assert structure_constants(4, 0).table == {4: 1}
    assert structure_constants(1, 2).table == {2: 2, 3: 1}


def test_structure_constants_invariants():
    for m in range(9):
        for n in range(9):
            table = structure_constants(m, n)
            assert table.table == structure_constants(n, m).table
            for k, c in table.table.items():
                assert max(m, n) <= k <= m + n
                assert isinstance(c, int) and c > 0
                assert c == closed_form_constant(m, n, k)
            assert table[m + n] == 1


def test_product_identity_exact():
    # sum_k a_{mn}^k f_k = f_m f_n as exact polynomials, m, n <= 8
    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return out

    for m in range(9):
        for n in range(9):
            lhs = [0] * (m + n + 1)
            for k, c in structure_constants(m, n).table.items():
                for i, fc in enumerate(falling_poly(k).coeffs):
                    lhs[i] += c * fc
            rhs = mul(list(falling_poly(m).coeffs), list(falling_poly(n).coeffs))
            rhs += [0] * (len(lhs) - len(rhs))
            assert lhs == rhs


def test_multi_structure_constants_examples():
    assert multi_structure_constants((1,), (1,)) == {(2,): 1, (1,): 1}
    assert multi_structure_constants((1, 1), (1, 0)) == {(2, 1): 1, (1, 1): 1}
    assert multi_structure_constants((0, 0), (2, 3)) == {(2, 3): 1}


def test_multi_structure_constants_rejects_mismatch():
    with pytest.raises(ValueError):
        multi_structure_constants((1,), (1, 2))


@pytest.mark.parametrize("k", range(7))
def test_coeff_identity(k):
    assert verify_coeff_identity(k, 6)


def test_coeff_identity_small_cases():
    assert verify_coeff_identity(0, 4)
    assert verify_coeff_identity(1, 4)
    assert verify_coeff_identity(3, 6)
