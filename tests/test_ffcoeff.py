from fractions import Fraction
import pytest
from hypothesis import given, strategies as st

from logff.ffcoeff import (
    falling_poly,
    multi_structure_constants,
    structure_constants,
    to_falling_basis,
    verify_coeff_identity,
)


def test_falling_poly_examples():
    assert falling_poly(2) == (0, -1, 1)          # X^2 - X
    assert falling_poly(0) == (1,)
    assert falling_poly(3) == (0, 2, -3, 1)       # X^3 - 3X^2 + 2X
    with pytest.raises(ValueError):
        falling_poly(-1)


def test_falling_poly_roots_and_leading():
    for m in range(1, 9):
        f = falling_poly(m)
        assert f[-1] == 1 and all(type(c) is int for c in f)

        def value(x):
            return sum(c * x ** i for i, c in enumerate(f))

        for k in range(m):
            assert value(k) == 0
        assert value(m) != 0


def test_to_falling_basis_examples():
    # X^2 = f_1 + f_2: oracle by expanding X(X-1) + X
    assert to_falling_basis([0, 0, 1]) == (0, 1, 1)
    out = to_falling_basis(falling_poly(5))
    assert out == (0, 0, 0, 0, 0, 1)
    assert to_falling_basis([7]) == (Fraction(7),)


def test_to_falling_basis_drops_trailing_zeros():
    assert to_falling_basis([7, 0, 0]) == (Fraction(7),)
    assert to_falling_basis([]) == (Fraction(0),)
    assert to_falling_basis([0, 0]) == (Fraction(0),)
    assert to_falling_basis([0, 0, Fraction(1, 2), 0]) == (0, Fraction(1, 2), Fraction(1, 2))
    assert all(type(c) is Fraction for c in to_falling_basis([1, 2, 0]))


@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=7))
def test_to_falling_basis_round_trip(coeffs):
    out = to_falling_basis(coeffs)
    rebuilt = [Fraction(0)] * max(len(coeffs), 1)
    for k, c in enumerate(out):
        for i, fc in enumerate(falling_poly(k)):
            rebuilt[i] += c * fc
    padded = [Fraction(c) for c in coeffs] + [Fraction(0)] * (len(rebuilt) - len(coeffs))
    assert rebuilt == padded


def test_structure_constants_examples():
    assert structure_constants(1, 1) == {1: 1, 2: 1}
    assert structure_constants(4, 0) == {4: 1}
    assert structure_constants(1, 2) == {2: 2, 3: 1}
    assert list(structure_constants(3, 2)) == [3, 4, 5]
    with pytest.raises(ValueError):
        structure_constants(-1, 2)


def test_structure_constants_are_fresh_dicts():
    table = structure_constants(2, 2)
    table[4] = 99
    table.clear()
    assert structure_constants(2, 2) == {2: 2, 3: 4, 4: 1}


def test_structure_constants_invariants():
    for m in range(9):
        for n in range(9):
            table = structure_constants(m, n)
            assert table == structure_constants(n, m)
            for k, c in table.items():
                assert max(m, n) <= k <= m + n
                assert isinstance(c, int) and c > 0
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
            for k, c in structure_constants(m, n).items():
                for i, fc in enumerate(falling_poly(k)):
                    lhs[i] += c * fc
            rhs = mul(falling_poly(m), falling_poly(n))
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
