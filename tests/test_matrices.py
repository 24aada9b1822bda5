import random
from collections import defaultdict
from operator import add, sub

import pytest

from logff.fixtures import random_elem
from logff.logring import RingElem, RingSpec, SpecMismatchError
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


@pytest.mark.parametrize("op", [add, sub], ids=["add", "sub"])
@pytest.mark.parametrize("other", [[[1], [2]], [[1, 2]], []],
                         ids=["2x1", "1x2", "empty"])
def test_add_and_sub_refuse_a_shape_mismatch(op, other):
    # zip would silently truncate the result to the smaller shape
    A = Matrix.from_ints(SPEC, [[1, 2], [3, 4]])
    B = Matrix.from_ints(SPEC, other)
    for left, right in [(A, B), (B, A)]:
        with pytest.raises(ValueError, match="shape"):
            op(left, right)


@pytest.mark.parametrize("op", [add, sub], ids=["add", "sub"])
def test_add_and_sub_refuse_a_spec_mismatch(op):
    other = RingSpec(5, 3, 1, 1)
    for left, right in [(Matrix.zeros(SPEC, 2, 2), Matrix.zeros(other, 2, 2)),
                        (Matrix.zeros(SPEC, 0, 0), Matrix.zeros(other, 0, 0))]:
        with pytest.raises(SpecMismatchError):
            op(left, right)


# -- zero-skipping products against a dense reference ---------------------------


def _dense_entry(pairs, spec):
    """sum of a * b over the pairs, by raw coefficient sums over every term."""
    acc = defaultdict(int)
    for a, b in pairs:
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                acc[tuple(map(add, e1, e2))] += c1 * c2
    return RingElem(spec, acc)


def _dense_product(A, B):
    return [[_dense_entry([(A.rows[i][m], B.rows[m][k]) for m in range(A.ncols)], A.spec)
             for k in range(B.ncols)] for i in range(A.nrows)]


def _dense_mul_vec(A, vec):
    return [_dense_entry(list(zip(row, vec)), A.spec) for row in A.rows]


def _sparse(rng, spec, density):
    return random_elem(rng, spec) if rng.random() < density else RingElem.zero(spec)


def _sparse_matrix(rng, spec, nrows, ncols, density):
    return Matrix(spec, [[_sparse(rng, spec, density) for _ in range(ncols)]
                         for _ in range(nrows)])


def _assert_canonical(x, spec):
    assert x.spec == spec
    for exps, c in x.terms.items():
        assert 0 < c < spec.q and len(exps) == spec.d
        assert all(exps[j] >= 0 for j in range(spec.s))


# polynomial, mixed and Laurent charts
CHARTS = [RingSpec(p, n, d, s) for p in (3, 5, 7)
          for (n, d, s) in ((2, 1, 1), (2, 2, 1), (3, 2, 0))]


@pytest.mark.parametrize("spec", CHARTS, ids=lambda s: f"p{s.p}n{s.n}d{s.d}s{s.s}")
def test_zero_skipping_products_match_the_dense_loop(spec):
    rng = random.Random(f"{spec}")
    for trial in range(12):
        density = (0.0, 0.3, 0.6, 1.0)[trial % 4]
        r, c, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        A = _sparse_matrix(rng, spec, r, c, density)
        B = _sparse_matrix(rng, spec, c, k, 1.0 - density / 2)
        vec = [_sparse(rng, spec, 0.5) for _ in range(c)]
        product = A * B
        assert [list(row) for row in product.rows] == _dense_product(A, B)
        applied = A.mul_vec(vec)
        assert applied == _dense_mul_vec(A, vec)
        for x in [x for row in product.rows for x in row] + applied:
            _assert_canonical(x, spec)


def test_spec_mismatch_raises_even_on_an_all_zero_operand():
    other = RingSpec(5, 3, 1, 1)
    A = Matrix.from_ints(SPEC, [[1, 2], [3, 4]])
    with pytest.raises(SpecMismatchError):
        A * Matrix.zeros(other, 2, 2)
    with pytest.raises(SpecMismatchError):
        Matrix.zeros(SPEC, 2, 2) * Matrix.from_ints(other, [[1, 2], [3, 4]])
    with pytest.raises(SpecMismatchError):
        A.mul_vec([RingElem.zero(other), RingElem.zero(other)])
    with pytest.raises(SpecMismatchError):
        A.mul_vec([RingElem.one(SPEC), RingElem.zero(other)])
    with pytest.raises(SpecMismatchError):
        Matrix.zeros(SPEC, 2, 2).mul_vec([RingElem.one(other), RingElem.one(other)])


def test_adding_zero_returns_the_other_operand_but_checks_the_spec():
    x = RingElem.variable(SPEC, 1) + RingElem.const(SPEC, 3)
    zero = RingElem.zero(SPEC)
    assert (zero + x) is x and (x + zero) is x and (x - zero) is x
    other = RingSpec(5, 3, 1, 1)
    for left, right in [(RingElem.zero(other), x), (x, RingElem.zero(other)),
                        (zero, RingElem.variable(other, 1)),
                        (RingElem.variable(other, 1), zero),
                        (zero, RingElem.zero(other))]:
        with pytest.raises(SpecMismatchError):
            left + right
