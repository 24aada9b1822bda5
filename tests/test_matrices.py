import pytest

from logff.logring import RingElem, RingSpec
from logff.matrices import Matrix

SPEC = RingSpec(5, 2, 1, 1)


def test_product_and_identity():
    A = Matrix.from_ints(SPEC, [[1, 2], [3, 4]])
    I2 = Matrix.identity(SPEC, 2)
    assert A * I2 == A
    assert I2 * A == A
    B = Matrix.from_ints(SPEC, [[0, 1], [1, 0]])
    assert (A * B).rows[0][0] == RingElem.const(SPEC, 2)


def test_det():
    A = Matrix.from_ints(SPEC, [[1, 2], [3, 4]])
    assert A.det() == RingElem.const(SPEC, -2)
    T = RingElem.variable(SPEC, 1)
    B = Matrix(SPEC, [[T, RingElem.one(SPEC)], [RingElem.zero(SPEC), T]])
    assert B.det() == T * T


def test_det_3x3_value():
    C = Matrix.from_ints(SPEC, [[2, 0, 1], [1, 1, 0], [0, 3, 1]])
    # cofactor expansion by hand: 2*(1*1-0*3) - 0 + 1*(1*3-1*0) = 2 + 3
    assert C.det() == RingElem.const(SPEC, 5)


def test_eq_mod_rows():
    A = Matrix.from_ints(SPEC, [[1, 5], [0, 1]])
    B = Matrix.from_ints(SPEC, [[1, 0], [0, 1]])
    assert not A.eq_mod_rows(B, [2, 2])
    assert A.eq_mod_rows(B, [1, 2])
    assert A.first_difference(B, [2, 2]) == (0, 1)
    assert A.first_difference(B, [1, 1]) is None
    # a shape mismatch is a difference even where the compared rows agree
    assert not A.eq_mod_rows(Matrix.from_ints(SPEC, [[1, 5]]), [2])


def test_log_derive_entrywise():
    T = RingElem.variable(SPEC, 1)
    A = Matrix(SPEC, [[T, RingElem.one(SPEC)]])
    assert A.log_derive(1) == Matrix(SPEC, [[T, RingElem.zero(SPEC)]])


def test_shape_errors():
    A = Matrix.from_ints(SPEC, [[1, 2]])
    with pytest.raises(ValueError):
        A * A
    with pytest.raises(ValueError):
        A.det()
