import itertools
import random
import re

import pytest

from logff.exactnum import modinv
from logff.ffcoeff import multi_structure_constants
from logff.logring import (
    DividedCoeffs,
    WorkingPrecisionError,
    FrobLift,
    LiftMismatchError,
    RingElem,
    RingMap,
    RingSpec,
    SpecMismatchError,
    _pack,
    _unpack,
    design_shell_bound,
    falling,
    multi_indices,
    stop_shell,
    taylor_residual,
)
from logff.fixtures import random_elem, random_lift, rank3_chain


def T(spec, j=1, power=1):
    return RingElem.variable(spec, j, power)


def falling_product(exps, index):
    """prod_j falling(E_j, i_j): the eigenvalue of the falling operator at I on T^E."""
    f = 1
    for e, i in zip(exps, index):
        if i:
            f *= falling(e, i)
            if f == 0:
                break
    return f


def falling_coeff(r, index):
    """The scalar falling-factorial operator on r: T^E -> falling_product(E, I) T^E,
    term by term; the reference the grouped sums of the engine are compared against."""
    if len(index) != r.spec.d:
        raise ValueError(f"multi-index {index} has wrong length for d={r.spec.d}")
    out = {}
    for e, c in r.terms.items():
        f = falling_product(e, index)
        if f:
            out[e] = f * c
    return RingElem(r.spec, out)


class TestRingMul:
    def test_examples(self):
        spec = RingSpec(5, 1, 1, 1)
        one = RingElem.one(spec)
        assert (T(spec) + one) * (T(spec) - one) == T(spec, power=2) - one
        x = RingElem(spec, {(0,): 3, (2,): 4})
        assert x * one == x
        assert T(spec).scale(2) * T(spec).scale(3) == T(spec, power=2)

    def test_spec_mismatch(self):
        with pytest.raises(SpecMismatchError):
            T(RingSpec(5, 1, 1, 1)) * T(RingSpec(5, 2, 1, 1))

    def test_divisor_slot_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            RingElem.variable(RingSpec(5, 1, 2, 1), 1, -1)
        # Laurent slot is fine
        RingElem.variable(RingSpec(5, 1, 2, 1), 2, -1)


class TestFrobenius:
    def test_examples(self):
        spec = RingSpec(3, 2, 1, 1)
        lift = FrobLift.standard(spec)
        r = T(spec).scale(2) + RingElem.one(spec)
        assert lift.apply(r) == T(spec, power=3).scale(2) + RingElem.one(spec)

        spec0 = RingSpec(3, 2, 1, 0)
        lift1 = FrobLift(spec0, [RingElem.one(spec0)])
        # (1+p)^{-1} = 1 - p = 7 mod 9 by extended Euclid
        assert modinv(4, 9) == 7
        assert lift1.apply(T(spec0, power=-1)) == T(spec0, power=-3).scale(7)

        const = RingElem.const(spec, 5)
        assert lift.apply(const) == const

    @pytest.mark.parametrize("p,n,d,s", [(3, 1, 1, 1), (3, 2, 2, 1), (5, 2, 2, 0)])
    def test_ring_homomorphism(self, p, n, d, s):
        rng = random.Random(500 + p + n)
        spec = RingSpec(p, n, d, s)
        for _ in range(500):
            lift = random_lift(rng, spec)
            x, y = random_elem(rng, spec), random_elem(rng, spec)
            assert lift.apply(x + y) == lift.apply(x) + lift.apply(y)
            assert lift.apply(x * y) == lift.apply(x) * lift.apply(y)

    @pytest.mark.parametrize("p,n,d,s", [(3, 2, 1, 1), (5, 2, 2, 2), (5, 3, 1, 0)])
    def test_lift_property_mod_p(self, p, n, d, s):
        rng = random.Random(p * n)
        spec = RingSpec(p, n, d, s)
        for _ in range(500):
            lift = random_lift(rng, spec)
            r = random_elem(rng, spec)
            assert lift.apply(r).eq_mod(r ** p, 1)


class TestDerivations:
    def test_log_derive_examples(self):
        spec = RingSpec(5, 2, 1, 1)
        assert T(spec, power=4).log_derive(1) == T(spec, power=4).scale(4)
        spec0 = RingSpec(5, 2, 1, 0)
        assert T(spec0, power=-2).log_derive(1) == T(spec0, power=-2).scale(-2)
        assert RingElem.const(spec, 7).log_derive(1).is_zero()

    def test_derivations_commute(self):
        rng = random.Random(42)
        spec = RingSpec(3, 2, 2, 1)
        for _ in range(100):
            r = random_elem(rng, spec)
            assert r.log_derive(1).log_derive(2) == r.log_derive(2).log_derive(1)

    def test_leibniz(self):
        rng = random.Random(43)
        spec = RingSpec(5, 2, 2, 2)
        for _ in range(100):
            x, y = random_elem(rng, spec), random_elem(rng, spec)
            assert (x * y).log_derive(1) == x.log_derive(1) * y + x * y.log_derive(1)

    def test_slot_out_of_range(self):
        spec = RingSpec(5, 2, 2, 1)
        r = T(spec) + T(spec, 2)
        for j in (0, spec.d + 1):
            with pytest.raises(ValueError, match="slot index"):
                r.log_derive(j)


class TestFallingOp:
    def test_examples(self):
        spec = RingSpec(5, 2, 1, 1)
        assert falling(4, 2) == 12
        assert falling_coeff(T(spec, power=4), (2,)) == T(spec, power=4).scale(12)
        assert falling_coeff(T(spec), (2,)).is_zero()
        spec2 = RingSpec(5, 2, 2, 2)
        t1t2 = RingElem.monomial(spec2, (1, 1))
        assert falling_coeff(t1t2, (1, 1)) == t1t2

    def test_index_of_wrong_length(self):
        t1t2 = RingElem.monomial(RingSpec(5, 2, 2, 2), (1, 1))
        for index in [(1,), (1, 1, 0)]:
            with pytest.raises(ValueError, match="wrong length"):
                falling_coeff(t1t2, index)

    def test_composition_is_structure_constants(self):
        # scalar avatar of the operator identity, constants from ffcoeff
        rng = random.Random(44)
        spec = RingSpec(5, 2, 2, 1)
        indices = [idx for c in range(4) for idx in multi_indices(2, c)]
        for _ in range(40):
            r = random_elem(rng, spec)
            for I in indices:
                for J in indices:
                    lhs = falling_coeff(falling_coeff(r, J), I)
                    rhs = RingElem.zero(spec)
                    for K, a in multi_structure_constants(I, J).items():
                        rhs = rhs + falling_coeff(r, K).scale(a)
                    assert lhs == rhs, (I, J)


class TestTaylor:
    def test_examples(self):
        spec = RingSpec(3, 2, 1, 1)
        l0 = FrobLift.standard(spec)
        l1 = FrobLift(spec, [RingElem.one(spec)])
        assert taylor_residual(T(spec), l0, l1).is_zero()
        assert taylor_residual(RingElem.one(spec), l0, l1).is_zero()
        spec0 = RingSpec(3, 2, 1, 0)
        l0 = FrobLift.standard(spec0)
        l1 = FrobLift(spec0, [RingElem.one(spec0)])
        assert taylor_residual(T(spec0, power=-1), l0, l1).is_zero()

    def test_same_lift_trivial(self):
        rng = random.Random(45)
        spec = RingSpec(5, 2, 2, 1)
        lift = random_lift(rng, spec)
        assert taylor_residual(random_elem(rng, spec), lift, lift).is_zero()


class TestRingMap:
    def test_examples(self):
        spec = RingSpec(5, 2, 1, 1)
        f = RingMap(spec, spec, [(1, (25,), RingElem.zero(spec))])
        assert f.apply(T(spec)) == T(spec, power=25)
        ident = RingMap.identity(spec)
        r = RingElem(spec, {(0,): 3, (2,): 4})
        assert ident.apply(r) == r
        spec1 = RingSpec(5, 1, 1, 1)
        g = RingMap(spec1, spec1, [(2, (1,), RingElem.zero(spec1))])
        assert g.apply(T(spec1, power=2)) == T(spec1, power=2).scale(4)

    def test_unit_monomial_invariants(self):
        spec = RingSpec(5, 2, 2, 1)
        with pytest.raises(Exception):
            # non-unit constant
            RingMap(spec, spec, [(5, (1, 0), RingElem.zero(spec)),
                                 (1, (0, 1), RingElem.zero(spec))])
        with pytest.raises(Exception):
            # Laurent slot image touching a divisor slot
            RingMap(spec, spec, [(1, (1, 0), RingElem.zero(spec)),
                                 (1, (1, 1), RingElem.zero(spec))])

    def test_composition_matches_application(self):
        rng = random.Random(46)
        spec = RingSpec(5, 2, 2, 1)
        f = RingMap(spec, spec, [(2, (1, 0), random_elem(rng, spec)),
                                 (1, (0, 1), random_elem(rng, spec))])
        g = RingMap(spec, spec, [(1, (1, 0), random_elem(rng, spec)),
                                 (3, (0, -1), random_elem(rng, spec))])
        comp = f.then(g)
        for _ in range(30):
            r = random_elem(rng, spec)
            assert comp.apply(r) == g.apply(f.apply(r))


    def test_hash_agrees_with_eq(self):
        rng = random.Random(47)
        spec = RingSpec(5, 2, 2, 1)
        h = random_elem(rng, spec)
        images = [(2, (1, 0), h), (1, (0, 1), RingElem.zero(spec))]
        f = RingMap(spec, spec, images)
        same = RingMap(spec, spec, [(27, (1, 0), RingElem(spec, dict(h.terms))),
                                    (1, (0, 1), RingElem.zero(spec))])   # 27 = 2 mod 25
        assert f == same and hash(f) == hash(same)
        assert len({f, same, f.with_precision(2)}) == 1
        other = RingMap(spec, spec, [(2, (1, 0), h + RingElem.one(spec)),
                                     (1, (0, 1), RingElem.zero(spec))])
        assert f != other and len({f, other}) == 2
        assert f != f.with_precision(3) and len({f, f.with_precision(3)}) == 2

    def test_with_precision_is_memoized_on_the_map(self):
        rng = random.Random(49)
        spec = RingSpec(5, 2, 2, 1)
        f = RingMap(spec, spec, [(2, (1, 0), random_elem(rng, spec)),
                                 (3, (0, -1), random_elem(rng, spec))])
        assert f.with_precision(2) is f
        for n in (1, 3, 6):
            got = f.with_precision(n)
            assert got is f.with_precision(n)
            fresh = _rebuilt(f, n)
            assert got == fresh and hash(got) == hash(fresh)
            for _ in range(10):
                r = random_elem(rng, got.source)
                assert got.apply(r) == fresh.apply(r)

    def test_negative_image_powers_are_inverse_powers_and_memoized(self, monkeypatch):
        rng = random.Random(50)
        spec = RingSpec(5, 3, 3, 1)
        f = RingMap(spec, spec, [(2, (1, 0, 0), random_elem(rng, spec)),
                                 (3, (0, 1, -1), random_elem(rng, spec)),
                                 (4, (0, 2, 0), random_elem(rng, spec))])
        for j in (2, 3):   # the Laurent slots
            for k in (1, 2, 3):
                assert f._image_pow(j - 1, -k) == f.image_elem(j).invert_unit() ** k
                assert f._image_pow(j - 1, k) == f.image_elem(j) ** k
        r = RingElem(spec, {(1, -2, 3): 7, (0, 1, -1): 2, (2, 0, -3): 1})
        expected = f.apply(r)
        products = []
        real = RingElem.__mul__
        monkeypatch.setattr(RingElem, "__mul__", lambda x, y: products.append(1) or real(x, y))
        assert f.apply(r) == expected
        # one product per nonzero exponent: no power is built again
        assert len(products) == sum(1 for exps in r.terms for e in exps if e)
        assert f._image_pow(1, -2) is f._image_pow(1, -2)

    def test_next_image_power_is_one_product_from_the_memoized_one(self, monkeypatch):
        rng = random.Random(53)
        spec = RingSpec(5, 3, 2, 1)
        f = RingMap(spec, spec, [(2, (1, 0), random_elem(rng, spec)),
                                 (3, (0, -1), random_elem(rng, spec))])
        f._image_pow(0, 3)
        products = []
        real = RingElem.__mul__
        monkeypatch.setattr(RingElem, "__mul__", lambda x, y: products.append(1) or real(x, y))
        got = f._image_pow(0, 4)
        assert len(products) == 1
        monkeypatch.undo()
        assert got == f.image_elem(1) ** 4 == _rebuilt(f, 3)._image_pow(0, 4)

    def test_huge_image_power_of_a_monomial_map_returns_at_once(self):
        # repeated squaring, and the next power from the memoized one: no
        # recursion down a chain of 10^9 predecessors
        import time
        spec = RingSpec(5, 3, 2, 1)
        f = RingMap(spec, spec, [(2, (1, 0), RingElem.zero(spec)),
                                 (3, (0, -1), RingElem.zero(spec))])
        e, q = 10 ** 9, spec.q
        start = time.perf_counter()
        got = f.apply(RingElem.monomial(spec, (e, 0)))
        again = f.apply(RingElem.monomial(spec, (e + 1, e)))
        assert time.perf_counter() - start < 0.5
        assert got == RingElem.monomial(spec, (e, 0), pow(2, e, q))
        assert again == RingElem.monomial(spec, (e + 1, -e), pow(2, e + 1, q) * pow(3, e, q))


class TestFrobLift:
    def test_a_lift_is_the_ring_map_of_its_images(self):
        rng = random.Random(51)
        spec = RingSpec(5, 2, 2, 1)
        lift = random_lift(rng, spec)
        assert issubclass(FrobLift, RingMap) and isinstance(lift, RingMap)
        images = [(1, (5, 0), lift.u[0]), (1, (0, 5), lift.u[1])]
        same = RingMap(spec, spec, images)
        assert lift == same and same == lift and hash(lift) == hash(same)
        assert len({lift, same, FrobLift(spec, list(lift.u))}) == 1
        assert lift != random_lift(rng, spec)
        for j in (1, 2):
            w = RingElem.one(spec) + lift.u[j - 1].scale(5)
            assert lift.unit(j) == w and lift.unit_inverse(j) == w.invert_unit()
        for _ in range(10):
            r = random_elem(rng, spec)
            assert lift.apply(r) == same.apply(r)

    def test_with_precision_is_a_memoized_lift(self):
        spec = RingSpec(5, 2, 2, 1)
        lift = random_lift(random.Random(52), spec)
        assert lift.with_precision(2) is lift
        for n in (1, 4):
            got = lift.with_precision(n)
            assert isinstance(got, FrobLift) and got is lift.with_precision(n)
            assert got.spec == spec.with_precision(n) and got.source is got.spec
            assert got == FrobLift(got.spec, [u.with_spec(got.spec) for u in lift.u])
            assert got == _rebuilt(lift, n)


def test_spec_with_precision_is_the_spec_itself_at_its_own_precision(monkeypatch):
    import logff.logring as logring
    spec = RingSpec(7, 3, 2, 1)
    calls = []
    real = logring._is_prime
    monkeypatch.setattr(logring, "_is_prime", lambda m: calls.append(m) or real(m))
    assert spec.with_precision(3) is spec
    assert calls == []   # no new spec, so no second primality test
    other = spec.with_precision(5)
    assert calls == [7]
    assert other is not spec and other == RingSpec(7, 5, 2, 1)
    assert other.with_precision(5) is other
    assert other.with_precision(3) == spec and other.with_precision(3) is not spec
    # divided coefficients live on the maps' target spec itself, not on an equal copy
    lift = random_lift(random.Random("spec-identity"), spec)
    engine = DividedCoeffs(lift, FrobLift.standard(spec), width=0)
    assert engine.base_spec is spec
    assert engine.coeff((1, 0), 0).spec is spec


def _rebuilt(f, n):
    """f read at precision n, built by the constructor: no memo involved."""
    tgt = f.target.with_precision(n)
    return RingMap(f.source.with_precision(n), tgt,
                   [(c, e, h.with_spec(tgt)) for c, e, h in f.images])


def test_spec_copies_are_memoized_per_spec_and_constants_match_their_definitions():
    rng = random.Random("spec-constants")
    for d in range(6):
        spec = RingSpec(5, 2, d, min(d, 1))
        assert spec.q == 25
        assert RingElem.zero(spec) is spec._zero and spec._zero == RingElem(spec, {})
        assert RingElem.one(spec) is spec._one
        assert spec._one == RingElem(spec, {(0,) * d: 1})
        for _ in range(5):
            a = tuple(rng.randint(-9, 9) for _ in range(d))
            b = tuple(rng.randint(-9, 9) for _ in range(d))
            assert spec._add_exps(a, b) == tuple(x + y for x, y in zip(a, b))
        for m in (1, 3, 4):
            copy = spec.with_precision(m)
            assert copy is spec.with_precision(m)
            assert copy == RingSpec(5, m, d, spec.s) and copy.q == 5 ** m
        # the constants are not fields: equality and hashing read (p, n, d, s) only
        twin = RingSpec(5, 2, d, min(d, 1))
        assert twin == spec and hash(twin) == hash(spec) and twin._zero is not spec._zero


_ARITHMETIC = ("__add__", "__sub__", "__mul__", "__rmul__", "scale")


def _count_arithmetic(monkeypatch) -> list:
    """Record the name of every RingElem sum, difference, product or scaling."""
    calls = []
    for name in _ARITHMETIC:
        real = getattr(RingElem, name)

        def counted(self, *args, _real=real, _name=name):
            calls.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(RingElem, name, counted)
    return calls


def _eager_unit(f, j):
    c, _, h = f.images[j - 1]
    return (RingElem.one(f.target) + h.scale(f.target.p)).scale(c)


def _eager_image(f, j):
    return RingElem.monomial(f.target, f.images[j - 1][1]) * _eager_unit(f, j)


def _eager_apply(f, r):
    """f(r) as sum_E c * prod_j f(T_j)^E_j, a negative power inverting f(T_j)."""
    out = RingElem.zero(f.target)
    for exps, c in r.terms.items():
        term = RingElem.const(f.target, c)
        for j, e in enumerate(exps, start=1):
            term = term * _eager_image(f, j) ** e
        out = out + term
    return out


def test_building_a_map_or_a_precision_copy_performs_no_ring_arithmetic(monkeypatch):
    rng = random.Random("lazy-map-data")
    spec = RingSpec(5, 2, 2, 1)
    hs = [random_elem(rng, spec, max_terms=2, max_exp=2) for _ in range(2)]
    us = [random_elem(rng, spec, max_terms=3, max_exp=2) for _ in range(2)]
    calls = _count_arithmetic(monkeypatch)
    f = RingMap(spec, spec, [(2, (1, 1), hs[0]), (3, (0, -1), hs[1])])
    lift = FrobLift(spec, us)
    built = [f, lift, RingMap.identity(spec), FrobLift.standard(spec)]
    built += [g.with_precision(m) for g in (f, lift) for m in (1, 4)]
    assert calls == []
    monkeypatch.undo()
    rs = [random_elem(rng, spec) for _ in range(5)]
    for g in built:
        for j in (1, 2):
            assert g.unit(j) == _eager_unit(g, j)
            assert g.image_elem(j) == _eager_image(g, j)
        for r in rs:
            r = r.with_spec(g.source)
            assert g.apply(r) == _eager_apply(g, r)


def test_a_map_builds_its_unit_parts_and_images_on_first_read(monkeypatch):
    spec = RingSpec(7, 3, 2, 0)
    lift = random_lift(random.Random("first-read"), spec)
    calls = _count_arithmetic(monkeypatch)
    lift.unit(2)
    units = len(calls)
    assert units > 0          # every slot's unit part, at once
    lift.unit(1)
    assert len(calls) == units
    lift.image_elem(1)
    assert len(calls) > units
    images = len(calls)
    lift.image_elem(2)
    lift.unit(1)
    assert len(calls) == images


class TestLocalize:
    def test_examples(self):
        spec = RingSpec(5, 1, 1, 1)
        r = T(spec) + RingElem.one(spec)
        loc = r.with_spec(r.spec.localized())
        assert loc.spec.s == 0
        assert loc.terms == r.terms
        again = loc.with_spec(loc.spec.localized())
        assert again == loc
        # Laurent multiplication is legal after localizing
        shifted = loc * RingElem.variable(loc.spec, 1, -1)
        assert shifted == RingElem.one(loc.spec) + RingElem.variable(loc.spec, 1, -1)


class TestUnits:
    def test_invert_unit_random(self):
        rng = random.Random(47)
        spec = RingSpec(3, 3, 2, 1)
        one = RingElem.one(spec)
        for _ in range(60):
            z = random_elem(rng, spec)
            c = rng.choice([1, 2, 4, 5, 7, 8])
            exps = (0, rng.randint(-2, 2))
            u = RingElem.monomial(spec, exps, c) * (one + z.scale(3))
            assert u * u.invert_unit() == one

    def test_invert_non_unit_raises(self):
        spec = RingSpec(3, 2, 1, 1)
        with pytest.raises(ZeroDivisionError):
            T(spec).invert_unit()
        with pytest.raises(ZeroDivisionError):
            (T(spec) + RingElem.one(spec)).invert_unit()


class TestTruncation:
    def test_bounds_monotone_and_positive(self):
        for p in (3, 5):
            for n in (1, 2, 3):
                for width in range(p - 1):
                    stop = stop_shell(p, n, width)
                    assert stop > width
                    # the declared design bound is never smaller than needed
                    assert design_shell_bound(p, n, width) >= width + 1

    def test_divided_coeffs_lift_mismatch(self):
        spec = RingSpec(5, 1, 1, 1)
        f = RingMap(spec, spec, [(1, (5,), RingElem.zero(spec))])
        g = RingMap(spec, spec, [(2, (5,), RingElem.zero(spec))])  # 2 != 1 mod 5
        with pytest.raises(LiftMismatchError):
            DividedCoeffs(f, g, width=0)
        h = RingMap(spec, spec, [(1, (10,), RingElem.zero(spec))])
        with pytest.raises(LiftMismatchError):
            DividedCoeffs(f, h, width=0)

    def test_working_precision_error_before_memo(self):
        spec = RingSpec(5, 2, 1, 1)
        l1 = FrobLift(spec, [RingElem.const(spec, 3)])
        engine = DividedCoeffs(l1, FrobLift.standard(spec), width=1)
        reference = engine.coeff((3,), 1)
        engine = DividedCoeffs(l1, FrobLift.standard(spec), width=1)
        work_n = engine.work_n
        engine.work_n = engine.n
        with pytest.raises(WorkingPrecisionError):
            engine.coeff((3,), 1)
        assert ((3,), 1) not in engine._coeffs
        with pytest.raises(AssertionError):   # still an internal assertion failure
            engine.coeff((3,), 1)
        engine.work_n = work_n
        assert engine.coeff((3,), 1) == reference


def test_degenerate_no_coordinates():
    spec = RingSpec(5, 2, 0, 0)
    one = RingElem.one(spec)
    assert (one + one).terms == {(): 2}
    lift = FrobLift.standard(spec)
    assert taylor_residual(one.scale(7), lift, lift).is_zero()


# -- ring axioms under hypothesis ---------------------------------------------

from hypothesis import given, settings, strategies as st  # noqa: E402

@st.composite
def ring_operands(draw, count):
    """A spec with d in 1..4 and s in 0..d, and `count` elements of it.

    Each element is zero, a constant, one term or several terms.  Laurent
    slots reach negative exponents, and each coefficient is a unit times
    p^v with v in 0..n, so many coefficient pairs multiply to 0 mod p^n.
    """
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(min_value=1, max_value=3))
    d = draw(st.integers(min_value=1, max_value=4))
    s = draw(st.integers(min_value=0, max_value=d))
    spec = RingSpec(p, n, d, s)

    def coeff():
        unit = draw(st.integers(min_value=1, max_value=spec.q - 1).filter(lambda c: c % p))
        return unit * p ** draw(st.integers(min_value=0, max_value=n))

    def exps():
        return tuple(draw(st.integers(min_value=0 if j < s else -3, max_value=3))
                     for j in range(d))

    def elem():
        shape = draw(st.sampled_from(["zero", "const", "term", "terms"]))
        if shape == "zero":
            return RingElem.zero(spec)
        if shape == "const":
            return RingElem.const(spec, coeff())
        n_terms = 1 if shape == "term" else draw(st.integers(min_value=2, max_value=6))
        return RingElem(spec, {exps(): coeff() for _ in range(n_terms)})

    return (spec,) + tuple(elem() for _ in range(count))


def _naive_mul(x, y):
    q = x.spec.q
    out = {}
    for e1, c1 in x.terms.items():
        for e2, c2 in y.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c % q for e, c in out.items() if c % q}


def _naive_sub(x, y):
    q = x.spec.q
    out = {e: (x.terms.get(e, 0) - y.terms.get(e, 0)) % q for e in {**x.terms, **y.terms}}
    return {e: c for e, c in out.items() if c}


@given(ring_operands(3))
@settings(max_examples=150, deadline=None)
def test_ring_axioms(case):
    spec, x, y, z = case
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == RingElem.zero(spec)
    assert x - y == x + (-y)
    assert x * RingElem.one(spec) == x


@given(ring_operands(2), st.integers(-10 ** 6, 10 ** 6))
@settings(max_examples=300, deadline=None)
def test_operations_match_naive_dicts(case, k):
    """*, -, scale and log_derive against plain dict arithmetic, on every
    product path below the graded threshold (one-term, constant, general)."""
    spec, x, y = case
    q = spec.q
    for a, b in ((x, y), (y, x), (x, x)):
        assert (a * b).terms == _naive_mul(a, b)
        assert (a - b).terms == _naive_sub(a, b)
    for scalar in (k, 1, 0, spec.p ** (spec.n - 1)):
        assert x.scale(scalar).terms == {e: c * scalar % q for e, c in x.terms.items()
                                         if c * scalar % q}
    for j in range(1, spec.d + 1):
        assert x.log_derive(j).terms == {e: e[j - 1] * c % q for e, c in x.terms.items()
                                         if e[j - 1] * c % q}


@given(ring_operands(2), st.integers(min_value=1, max_value=3 ** 6))
@settings(max_examples=200, deadline=None)
def test_eq_mod_agrees_with_the_residues(case, c):
    """eq_mod(y, m) is equality of the residues mod p^m at every m <= n + 1: the
    full-precision comparison of the term dicts, and below n the residue path,
    also on pairs that differ only by c * p^(n-1)."""
    spec, x, y = case
    p, n = spec.p, spec.n
    e = next(iter(x.terms), (0,) * spec.d)
    near = x + RingElem.monomial(spec, e, c * p ** (n - 1))
    for a, b in ((x, y), (y, x), (x, x), (x, near), (near, x)):
        for m in range(1, n + 2):
            assert a.eq_mod(b, m) == (_residues(a, m) == _residues(b, m)), (a, b, m)


def _residues(z, m):
    """The nonzero residues mod p^m of z's canonical coefficients."""
    pm = z.spec.p ** m
    return {k: v % pm for k, v in z.terms.items() if v % pm}


@pytest.mark.parametrize("d", range(6))
def test_exponent_adder_of_every_dimension(d):
    add_exps = RingSpec(5, 1, d, 0)._add_exps
    for a, b in itertools.combinations(itertools.product((-2, 0, 3), repeat=d), 2):
        assert add_exps(a, b) == tuple(x + y for x, y in zip(a, b))


@pytest.mark.parametrize("p,n", [(3, 1), (5, 2), (7, 3)])
def test_one_term_products_drop_vanishing_pairs(p, n):
    # a one-term operand whose coefficient kills some terms of the other one
    for d, s in [(1, 0), (2, 1), (3, 0), (4, 2)]:
        spec = RingSpec(p, n, d, s)
        unit = tuple(0 if j < s else -1 for j in range(d))
        shift = tuple(range(1, d + 1))
        other = RingElem(spec, {(0,) * d: p, unit: 1, shift: 2 * p ** (n - 1)})
        for one_term in (RingElem.monomial(spec, shift, p ** (n - 1)),
                         RingElem.const(spec, p ** (n - 1)),
                         RingElem.monomial(spec, shift, 1)):
            for a, b in ((one_term, other), (other, one_term)):
                got = (a * b).terms
                assert got == _naive_mul(a, b)
                assert all(got.values())
        if n > 1:
            assert (RingElem.const(spec, p ** (n - 1)) * other).terms == {unit: p ** (n - 1)}


@given(ring_operands(1))
@settings(max_examples=100, deadline=None)
def test_string_round_trip_property(case):
    from logff.exprparse import parse_expr
    spec, x = case
    assert parse_expr(str(x), spec) == x


def test_taylor_at_n3_deeper_shells():
    # precision 3 drives the working-precision machinery hardest
    rng = random.Random(111)
    for p in (3, 5):
        spec = RingSpec(p, 3, 2, 1)
        for _ in range(25):
            l1, l2 = random_lift(rng, spec), random_lift(rng, spec)
            assert taylor_residual(random_elem(rng, spec), l1, l2).is_zero()


def test_taylor_beyond_grid_d3():
    # three slots with a mixed divisor: outside the acceptance grid, same law
    rng = random.Random(112)
    spec = RingSpec(3, 2, 3, 2)
    for _ in range(10):
        l1, l2 = random_lift(rng, spec), random_lift(rng, spec)
        assert taylor_residual(random_elem(rng, spec), l1, l2).is_zero()


def test_divided_coeffs_against_fraction_oracle():
    # for constant lifts the whole coefficient stream is a rational number:
    # x = (1+p*a)/(1+p*b) - 1 and coeff((k,), e) = x^k / (k! p^e), which the
    # raised-precision engine must reproduce after reduce_mod
    from fractions import Fraction
    from math import factorial
    from logff.exactnum import reduce_mod, valp

    rng = random.Random(113)
    for p, n in [(3, 1), (3, 3), (5, 2)]:
        spec = RingSpec(p, n, 1, 1)
        for _ in range(10):
            a, b = rng.randrange(p ** n), rng.randrange(p ** n)
            width = rng.randint(0, p - 2)
            l1 = FrobLift(spec, [RingElem.const(spec, a)])
            l2 = FrobLift(spec, [RingElem.const(spec, b)])
            engine = DividedCoeffs(l1, l2, width=width)
            x = Fraction(1 + p * a, 1 + p * b) - 1
            for k in range(engine.stop):
                for e in range(min(k, width) + 1):
                    exact = x ** k / (factorial(k) * Fraction(p) ** e)
                    assert valp(exact, p) >= 0
                    got = engine.coeff((k,), e)
                    expected = reduce_mod(exact, p, n)
                    assert got == RingElem.const(spec, expected), (p, n, a, b, k, e)


# -- the divided-coefficient engine against the product-and-Fraction formula ----

from fractions import Fraction  # noqa: E402

from logff.exactnum import NonIntegralError, factorial_valp, reduce_mod  # noqa: E402
from logff.fixtures import corpus  # noqa: E402
from logff.logring import multi_factorial, work_precision  # noqa: E402


class ReferenceCoeffs:
    """x^I / (I! * p^e) by the direct formula: x^I as a plain RingElem product
    of the x_j at the working precision, then reduce_mod(Fraction(c, I! * p^e))
    on every term."""

    def __init__(self, g1, g2, width, mode="ratio", base_n=None):
        p = g1.target.p
        self.p = p
        self.n = base_n if base_n is not None else g1.target.n
        self.base_spec = g1.target.with_precision(self.n)
        self.work_n = work_precision(p, self.n, width)
        g1w, g2w = g1.with_precision(self.work_n), g2.with_precision(self.work_n)
        one = RingElem.one(g1w.target)
        self.x = []
        for j in range(g1.source.d):
            if mode == "ratio":
                c1, _, h1 = g1w.images[j]
                c2, _, h2 = g2w.images[j]
                num = (one + h1.scale(p)).scale(c1)
                den = (one + h2.scale(p)).scale(c2)
                self.x.append(num * den.invert_unit() - one)
            else:
                self.x.append(g1w.image_elem(j + 1) - g2w.image_elem(j + 1))
        self.powers = {(0,) * g1.source.d: one}

    def power(self, index):
        # built from the last nonzero slot, the engine builds from the first
        got = self.powers.get(index)
        if got is None:
            j0 = max(j for j, i in enumerate(index) if i)
            parent = index[:j0] + (index[j0] - 1,) + index[j0 + 1:]
            got = self.powers[index] = self.power(parent) * self.x[j0]
        return got

    def coeff(self, index, p_exponent):
        denom = multi_factorial(index) * self.p ** p_exponent
        return RingElem(self.base_spec, {
            e: reduce_mod(Fraction(c, denom), self.p, self.n)
            for e, c in self.power(index).terms.items()})


def _outcome(engine, index, p_exponent):
    try:
        return engine.coeff(index, p_exponent)
    except NonIntegralError:
        return NonIntegralError


def _assert_engines_agree(g1, g2, width, mode="ratio", base_n=None, every_exponent=False):
    """coeff(I, e) of DividedCoeffs equals the reference for every |I| < stop and
    every e the shell sum uses (e <= min(width, |I|)); with every_exponent, for
    every e the working precision allows, where both must raise or both agree."""
    engine = DividedCoeffs(g1, g2, width=width, mode=mode, base_n=base_n)
    reference = ReferenceCoeffs(g1, g2, width, mode=mode, base_n=base_n)
    assert reference.work_n == engine.work_n
    d = g1.source.d
    raised = 0
    for c in range(engine.stop):
        for index in multi_indices(d, c):
            top = min(width, c)
            if every_exponent:
                top = engine.work_n - engine.n - sum(factorial_valp(i, engine.p) for i in index)
            for e in range(top + 1):
                got = _outcome(engine, index, e)
                assert got == _outcome(reference, index, e), (index, e)
                raised += got is NonIntegralError
                assert e > min(width, c) or got is not NonIntegralError, (index, e)
    return raised


# the names of corpus(5, 2), spelled out so that collecting this file builds no
# module: a fault in ring arithmetic then fails the tests that need the corpus
# one by one, and the arithmetic tests above still name the broken operation
GLUE_CORPUS_NAMES = ["nil2_p5n2", "nil2_s0_p5n2", "nil2_d2s1_p5n2", "rank1_p5n2",
                     "rank1_u2_p5n2", "rank1_s0_p5n2", "transported_p5n2", "rank3_p5n2",
                     "shifted_p5n2", "mixed_p5n2", "pullback_p5n2"]


@pytest.fixture(scope="module")
def glue_corpus():
    return dict(corpus(5, 2))


def test_glue_corpus_names_are_the_corpus(glue_corpus):
    assert GLUE_CORPUS_NAMES == list(glue_corpus)


@pytest.mark.parametrize("name", GLUE_CORPUS_NAMES)
def test_divided_coeffs_match_reference_on_glue_corpus(name, glue_corpus):
    module = glue_corpus[name]
    rng = random.Random(f"coeff-differential:{name}")
    a, b = module.hodge_range
    g1 = random_lift(rng, module.spec)
    g2 = module.lift
    raised = _assert_engines_agree(g1, g2, b - a, every_exponent=True)
    assert raised > 0   # the wider exponent range reaches non-integral divisions
    if module.spec.s == 0:
        _assert_engines_agree(g1, g2, b - a, mode="difference")


@pytest.mark.parametrize("p,n,d", [(5, 8, 2), (7, 6, 2), (3, 8, 2)])
def test_divided_coeffs_match_reference_on_taylor_cells(p, n, d):
    spec = RingSpec(p, n, d, d)
    rng = random.Random(f"coeff-differential:{p},{n},{d}")
    l1, l2 = random_lift(rng, spec), random_lift(rng, spec)
    _assert_engines_agree(l1, l2, 0)


def test_divided_coeffs_non_integral_on_both_paths():
    # x_1 = (1 + p)/1 - 1 = p has valuation exactly 1, so x_1 / p^2 is not integral
    spec = RingSpec(5, 2, 2, 1)
    g1 = FrobLift(spec, [RingElem.one(spec), RingElem.zero(spec)])
    g2 = FrobLift.standard(spec)
    engine = DividedCoeffs(g1, g2, width=2)
    reference = ReferenceCoeffs(g1, g2, 2)
    assert reference.x[0] == RingElem.const(reference.x[0].spec, 5)
    with pytest.raises(NonIntegralError):
        reference.coeff((1, 0), 2)
    with pytest.raises(NonIntegralError):
        engine.coeff((1, 0), 2)
    assert ((1, 0), 2) not in engine._coeffs
    assert engine.coeff((1, 0), 1) == reference.coeff((1, 0), 1) == RingElem.one(engine.base_spec)


def _result_or_error(call, *args):
    try:
        return call(*args)
    except (NonIntegralError, WorkingPrecisionError, LiftMismatchError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("p,n,d,s", [(5, 2, 2, 1), (3, 3, 2, 0), (7, 2, 1, 1)])
def test_divided_coeffs_from_memoized_and_fresh_maps_agree(p, n, d, s):
    """DividedCoeffs reads its maps at the working precision through the
    with_precision memo; engines built on fresh maps give the same
    coefficients and raise the same errors, beyond the working precision too."""
    spec = RingSpec(p, n, d, s)
    rng = random.Random(f"memo:{p},{n},{d},{s}")
    g1, g2 = random_lift(rng, spec), random_lift(rng, spec)
    width = min(2, p - 2)
    first = DividedCoeffs(g1, g2, width)
    memoized = DividedCoeffs(g1, g2, width)
    assert g1.with_precision(first.work_n) is g1.with_precision(first.work_n)
    fresh = DividedCoeffs(_rebuilt(g1, n), _rebuilt(g2, n), width)
    raised = set()
    for c in range(fresh.stop):
        for index in multi_indices(d, c):
            for e in range(fresh.work_n - fresh.n + 2):
                want = _result_or_error(fresh.coeff, index, e)
                assert _result_or_error(memoized.coeff, index, e) == want, (index, e)
                if isinstance(want, tuple):
                    raised.add(want[0])
    assert raised == {NonIntegralError, WorkingPrecisionError}
    # a map that does not agree with g2 mod p is refused alike
    c, exps, h = g1.images[0]
    other = RingMap(spec, spec, [(c + 1, exps, h)] + g1.images[1:])
    errors = [_result_or_error(DividedCoeffs, f, g2, width) for f in (other, other)]
    errors.append(_result_or_error(DividedCoeffs, _rebuilt(other, n), g2, width))
    assert errors[0][0] is LiftMismatchError and errors.count(errors[0]) == 3


@pytest.mark.parametrize("p,n,d,s", [(5, 2, 2, 0), (5, 3, 2, 1), (3, 3, 2, 1),
                                     (5, 2, 3, 1), (3, 2, 3, 0)])
def test_divided_coeffs_match_reference_on_laurent_charts(p, n, d, s):
    # Laurent slots give the x_j negative exponents: the packed keys carry
    # negative digits through every product
    spec = RingSpec(p, n, d, s)
    rng = random.Random(f"coeff-laurent:{p},{n},{d},{s}")
    l1, l2 = random_lift(rng, spec), random_lift(rng, spec)
    reference = ReferenceCoeffs(l1, l2, 1)
    assert any(e < 0 for x in reference.x for exps in x.terms for e in exps)
    _assert_engines_agree(l1, l2, 1, every_exponent=True)
    if s == 0:
        _assert_engines_agree(l1, l2, 1, mode="difference")


def _largest_accepted_index(engine, d):
    """An index of largest |I| with n + v_p(I!) <= work_n, found by search."""
    budget = engine.work_n - engine.n
    best = (0,) * d
    for index in itertools.product(range(engine.p * (budget + 1)), repeat=d):
        if sum(factorial_valp(i, engine.p) for i in index) <= budget and sum(index) > sum(best):
            best = index
    return best


@pytest.mark.parametrize("p,n,d", [(5, 8, 2), (7, 6, 2), (3, 8, 2)])
def test_packed_kernel_at_the_largest_accepted_index(p, n, d):
    spec = RingSpec(p, n, d, d)
    rng = random.Random(f"coeff-largest:{p},{n},{d}")
    g1, g2 = (random_lift(rng, spec) for _ in range(2))
    engine = DividedCoeffs(g1, g2, width=0)
    reference = ReferenceCoeffs(g1, g2, 0)
    index = _largest_accepted_index(engine, d)
    assert sum(index) < engine._cap
    assert engine.coeff(index, 0) == reference.coeff(index, 0)
    for j in range(d):
        beyond = index[:j] + (index[j] + 1,) + index[j + 1:]
        with pytest.raises(WorkingPrecisionError):
            engine.coeff(beyond, 0)


@pytest.mark.parametrize("p,n,d", [(5, 8, 2), (7, 6, 2), (3, 8, 2)])
def test_power_refuses_indices_beyond_the_cap(p, n, d):
    spec = RingSpec(p, n, d, d)
    rng = random.Random(f"coeff-cap:{p},{n},{d}")
    engine = DividedCoeffs(*(random_lift(rng, spec) for _ in range(2)), width=0)
    cap = engine._cap
    assert cap == d * p * (engine.work_n - n + 1)
    engine._power((cap,) + (0,) * (d - 1), engine.work_n)
    for index in [(cap + 1,) + (0,) * (d - 1), (cap,) + (1,) + (0,) * (d - 2)]:
        with pytest.raises(WorkingPrecisionError):
            engine._power(index, engine.work_n)
        assert index not in engine._powers


def _round_trip(engine, digits, d):
    keys = {}
    for exps in itertools.product(digits, repeat=d):
        key = _pack(exps, engine._half)
        assert _unpack(key, engine._half, d) == exps
        assert keys.setdefault(key, exps) == exps   # no two vectors share a key
    return keys


@pytest.mark.parametrize("p,n,d,s", [(5, 8, 2, 2), (7, 6, 2, 2), (3, 8, 2, 2), (5, 2, 3, 1)])
def test_pack_round_trip_at_the_extreme_digits(p, n, d, s):
    spec = RingSpec(p, n, d, s)
    rng = random.Random(f"coeff-pack:{p},{n},{d},{s}")
    engine = DividedCoeffs(*(random_lift(rng, spec) for _ in range(2)), width=0)
    h = engine._half
    top = max(abs(e) for x in engine._x for keys, _ in x.values()
              for key in keys for e in _unpack(key, h, d))
    assert h > top * engine._cap
    keys = _round_trip(engine, (-h, -h + 1, -1, 0, 1, h - 1, h), d)
    # linear: the key of a sum is the sum of the keys
    for a, b in itertools.product(list(keys)[::7], repeat=2):
        total = tuple(x + y for x, y in zip(keys[a], keys[b]))
        if all(abs(t) <= h for t in total):
            assert _pack(total, h) == a + b


def test_pack_round_trip_exhaustive_at_half_width_one():
    # constant lifts give exponent-free x_j, so h = 1 and the digit box is tiny
    spec = RingSpec(5, 2, 3, 1)
    l1 = FrobLift(spec, [RingElem.const(spec, 3)] * 3)
    engine = DividedCoeffs(l1, FrobLift.standard(spec), width=0)
    assert engine._half == 1
    assert len(_round_trip(engine, (-1, 0, 1), 3)) == 27


# -- powers kept only to the precision their division reads ---------------------


def _needed(engine, index, p_exponent):
    """n + p_exponent + v_p(I!): the precision coeff(I, p_exponent) reads x^I at."""
    return engine.n + p_exponent + sum(factorial_valp(i, engine.p) for i in index)


def _checked(engine, index, p_exponent):
    try:
        return engine.coeff(index, p_exponent)
    except (NonIntegralError, WorkingPrecisionError) as exc:
        return type(exc)


def _expected(engine, reference, index, p_exponent):
    if _needed(engine, index, p_exponent) > engine.work_n:
        return WorkingPrecisionError
    return _outcome(reference, index, p_exponent)


def _all_exponent_requests(engine, indices):
    """Every (I, e) for I in indices and every e the working precision allows,
    plus the first e beyond it."""
    return [(index, e) for index in indices
            for e in range(engine.work_n - _needed(engine, index, 0) + 2)]


def _assert_memo_within_bounds(engine, reference, asked):
    """Every memoized power, trie chains included, is x^I reduced mod p^m for
    the m it records, and m <= work_n.  Every index in asked holds at least
    the precision asked, or vanishes there (|I| >= m) and is not memoized."""
    for index, (held, graded) in engine._powers.items():
        assert held <= engine.work_n, index
        q = engine.p ** held
        want = {e: c % q for e, c in reference.power(index).terms.items() if c % q}
        have = {_unpack(k, engine._half, engine.base_spec.d): c
                for keys, coeffs in graded.values() for k, c in zip(keys, coeffs)}
        assert have == want, index
    for index, m in asked.items():
        got = engine._powers.get(index)
        assert sum(index) >= m if got is None else got[0] >= m, index


def _rank3_chain_maps(p, n, d, rng):
    module = rank3_chain(p, n, d=d)
    return random_lift(rng, module.spec), module.lift


def _taylor_cell_maps(p, n, d, rng):
    spec = RingSpec(p, n, d, d)
    return random_lift(rng, spec), random_lift(rng, spec)


_PRECISION_CELLS = ([(_taylor_cell_maps, cell) for cell in [(5, 8, 2), (7, 6, 2), (3, 8, 2)]]
                    + [(_rank3_chain_maps, cell)
                       for cell in [(5, 2, 3), (7, 2, 3), (5, 3, 3), (7, 3, 3)]])


@pytest.mark.parametrize("maps,cell", _PRECISION_CELLS,
                         ids=[f"{maps.__name__[1:-5]}-{p},{n},{d}"
                              for maps, (p, n, d) in _PRECISION_CELLS])
def test_precision_tracked_powers_match_reference_on_shuffled_requests(maps, cell):
    """Requests in random order reach a power at a low precision first and at a
    higher one later, and the other way round: every answer and every refusal
    equals the reference, which builds each power at work_n."""
    p, n, d = cell
    rng = random.Random(f"coeff-precision:{p},{n},{d}")
    g1, g2 = maps(p, n, d, rng)
    outcomes = set()
    for width in range(3):
        for mode in ("ratio", "difference"):
            engine = DividedCoeffs(g1, g2, width=width, mode=mode)
            reference = ReferenceCoeffs(g1, g2, width, mode=mode)
            indices = [index for c in range(engine.stop) for index in multi_indices(d, c)]
            requests = _all_exponent_requests(engine, rng.sample(indices, min(6, len(indices))))
            rng.shuffle(requests)
            asked = {}
            for index, e in requests:
                got = _checked(engine, index, e)
                assert got == _expected(engine, reference, index, e), (width, mode, index, e)
                outcomes.add(got if isinstance(got, type) else RingElem)
                if got is not WorkingPrecisionError:
                    asked[index] = max(asked.get(index, 0), _needed(engine, index, e))
            _assert_memo_within_bounds(engine, reference, asked)
    assert outcomes == {RingElem, NonIntegralError, WorkingPrecisionError}


@pytest.mark.parametrize("maps,cell", [(_taylor_cell_maps, (3, 8, 2)),
                                       (_rank3_chain_maps, (5, 3, 3))],
                         ids=["taylor_cell-3,8,2", "rank3_chain-5,3,3"])
def test_power_asked_again_at_a_higher_precision_is_recomputed(maps, cell):
    """An index asked at p-exponent 0 and then at the largest p-exponent the
    working precision allows gives what a fresh engine gives for the second
    request alone, and its memo entry and those of its trie chain are raised."""
    p, n, d = cell
    g1, g2 = maps(p, n, d, random.Random(f"coeff-recompute:{p},{n},{d}"))
    width = 2
    engine = DividedCoeffs(g1, g2, width=width)
    index = (engine.stop - 1,) + (0,) * (d - 1)
    while _needed(engine, index, 0) <= sum(index):   # x^I must not vanish at e = 0
        index = (index[0] - 1,) + index[1:]
    top = engine.work_n - _needed(engine, index, 0)
    assert top > 0
    reference = ReferenceCoeffs(g1, g2, width)
    low = _checked(engine, index, 0)
    assert engine._powers[index][0] == _needed(engine, index, 0) < engine.work_n
    _assert_memo_within_bounds(engine, reference, {index: _needed(engine, index, 0)})
    high = _checked(engine, index, top)
    assert engine._powers[index][0] == engine.work_n
    chain = [(k,) + (0,) * (d - 1) for k in range(index[0])]
    assert all(engine._powers[parent][0] >= engine.work_n - index[0] + k
               for k, parent in enumerate(chain))
    fresh = DividedCoeffs(g1, g2, width=width)
    assert high == _checked(fresh, index, top)
    assert low == _checked(DividedCoeffs(g1, g2, width=width), index, 0)
    assert (low, high) == (_outcome(reference, index, 0), _outcome(reference, index, top))
    _assert_memo_within_bounds(engine, reference, {index: engine.work_n})


# -- the ratio x_j, the all-zero flag and the per-map unit memo ----------------


def _engine_x(engine):
    """The x_j of an engine, decoded from its packed graded form."""
    d = engine.base_spec.d
    return [{_unpack(k, engine._half, d): c
             for keys, coeffs in graded.values() for k, c in zip(keys, coeffs)}
            for graded in engine._x]


def _reduced(x, q):
    """The terms of x reduced mod q, zeros dropped."""
    return {e: c % q for e, c in x.terms.items() if c % q}


def _force_full_x(engine):
    """Ask coeff(e_1, e) for the least e that reads x_1 beyond the digits held,
    which makes the engine hold x at work_n; a no-op if it already does."""
    e = engine._x_prec - engine.n + 1
    if engine.n + e <= engine.work_n:
        _checked(engine, (1,) + (0,) * (engine.base_spec.d - 1), e)
    assert engine._x_prec == engine.work_n


def _assert_x_and_coeffs_match(g1, g2, width, base_n=None):
    """Every x_j equals the reference num * den^-1 - 1 mod p^(digits held),
    the all-zero flag says whether they all vanish there, and every
    coefficient the shell sum uses agrees.  Once a request reads beyond the
    digits held, x_j and the flag equal the reference at work_n."""
    engine = DividedCoeffs(g1, g2, width=width, base_n=base_n)
    reference = ReferenceCoeffs(g1, g2, width, base_n=base_n)
    held = engine.p ** engine._x_prec
    assert _engine_x(engine) == [_reduced(x, held) for x in reference.x]
    assert engine.all_zero == all(not _reduced(x, held) for x in reference.x)
    _assert_engines_agree(g1, g2, width, base_n=base_n)
    _force_full_x(engine)
    assert _engine_x(engine) == [x.terms for x in reference.x]
    assert engine.all_zero == all(x.is_zero() for x in reference.x)
    return engine, reference


_RATIO_CELLS = ([(_taylor_cell_maps, cell, 0) for cell in [(5, 8, 2), (7, 6, 2), (3, 8, 2)]]
                + [(_rank3_chain_maps, cell, 2) for cell in [(5, 2, 3), (7, 3, 3)]])


@pytest.mark.parametrize("maps,cell,width", _RATIO_CELLS,
                         ids=[f"{maps.__name__[1:-5]}-{p},{n},{d}"
                              for maps, (p, n, d), _ in _RATIO_CELLS])
def test_ratio_x_is_the_reference_ratio_minus_one(maps, cell, width):
    p, n, d = cell
    g1, g2 = maps(p, n, d, random.Random(f"ratio-x:{p},{n},{d}"))
    engine, _ = _assert_x_and_coeffs_match(g1, g2, width)
    assert not engine.all_zero


def _pullback_composites(p, n, d, s, width, rng):
    """The composites pullback_ff glues along a map with constants c != 1 and
    Laurent monomial parts: Phi' o f and f o Phi, at the working precision."""
    spec = RingSpec(p, n, d, s)
    work_n = work_precision(p, n, width)
    images = [(2, (1, 0) if s else (1, -1), random_elem(rng, spec)),
              (4, (0, -1), random_elem(rng, spec))]
    f_work = RingMap(spec, spec, images).with_precision(work_n)
    target_lift, lift = random_lift(rng, spec), random_lift(rng, spec)
    g1 = f_work.then(target_lift.with_precision(work_n))
    g2 = lift.with_precision(work_n).then(f_work)
    assert any(c != 1 for c, _, _ in g1.images)
    assert any(e < 0 for _, exps, _ in g1.images for e in exps)
    return g1, g2


_COMPOSITE_CELLS = [(5, 2, 2, 1), (3, 2, 2, 0), (7, 2, 2, 1)]


@pytest.mark.parametrize("p,n,d,s", _COMPOSITE_CELLS)
def test_ratio_x_on_pullback_composites(p, n, d, s):
    rng = random.Random(f"ratio-pullback:{p},{n},{d},{s}")
    g1, g2 = _pullback_composites(p, n, d, s, 1, rng)
    engine, _ = _assert_x_and_coeffs_match(g1, g2, 1, base_n=n)
    assert not engine.all_zero


@pytest.mark.parametrize("p,n,d,s", [(5, 3, 2, 1), (3, 3, 3, 0), (7, 2, 3, 3)])
def test_ratio_x_on_lifts_equal_on_some_slots(p, n, d, s):
    """x_j = 0 exactly on the slots where the two lifts agree; the flag is set
    only when they agree on every slot, equal objects or not."""
    spec = RingSpec(p, n, d, s)
    rng = random.Random(f"ratio-partial:{p},{n},{d},{s}")
    l1 = random_lift(rng, spec)
    for equal in range(d + 1):
        u = list(l1.u[:equal]) + [random_elem(rng, spec, max_exp=2) for _ in range(d - equal)]
        l2 = FrobLift(spec, u)
        engine, reference = _assert_x_and_coeffs_match(l1, l2, 1)
        assert [x.is_zero() for x in reference.x][:equal] == [True] * equal
        assert engine.all_zero == (equal == d)
    same, _ = _assert_x_and_coeffs_match(l1, l1, 1)
    assert same.all_zero
    for c in range(1, same.stop):
        for index in multi_indices(d, c):
            assert same.coeff(index, min(1, c)).is_zero()


def test_equal_maps_invert_nothing_and_a_shared_g2_is_inverted_once(monkeypatch):
    spec = RingSpec(5, 3, 2, 1)
    rng = random.Random("unit-memo")
    g1a, g1b, g2 = (random_lift(rng, spec) for _ in range(3))
    twin = FrobLift(spec, [RingElem(spec, dict(u.terms)) for u in g2.u])
    inverted = []
    real = RingElem.invert_unit
    monkeypatch.setattr(RingElem, "invert_unit", lambda x: inverted.append(x) or real(x))
    DividedCoeffs(g2, g2, width=1)
    DividedCoeffs(twin, g2, width=1)
    assert inverted == []
    first = DividedCoeffs(g1a, g2, width=1)
    second = DividedCoeffs(g1b, g2, width=1)
    g2x = g2.with_precision(first._x_prec)
    assert inverted == [g2x.unit(1), g2x.unit(2)]
    monkeypatch.undo()
    for engine, g1 in [(first, g1a), (second, g1b)]:
        reference = ReferenceCoeffs(g1, g2, 1)
        held = engine.p ** engine._x_prec
        assert _engine_x(engine) == [_reduced(x, held) for x in reference.x]
        _force_full_x(engine)
        assert _engine_x(engine) == [x.terms for x in reference.x]


def test_unit_and_unit_inverse_per_slot():
    spec = RingSpec(5, 2, 3, 1)
    rng = random.Random("unit-per-slot")
    images = [(2, (1, 0, 0), random_elem(rng, spec)), (3, (0, 1, -1), random_elem(rng, spec)),
              (4, (0, 0, 2), random_elem(rng, spec))]
    f = RingMap(spec, spec, images)
    one = RingElem.one(spec)
    for j in (3, 1, 2):   # in no slot order, so a memo that ignores the slot shows
        c, exps, h = images[j - 1]
        assert f.unit(j) == (one + h.scale(5)).scale(c)
        assert f.image_elem(j) == RingElem.monomial(spec, exps) * f.unit(j)
        assert f.unit_inverse(j) is f.unit_inverse(j)
        assert f.unit(j) * f.unit_inverse(j) == one


def test_coeff_of_a_vanishing_power_divides_nothing(monkeypatch):
    """A power that is 0 mod p^(n+v) gives 0 without reduce_mod; a request past
    the working precision still raises WorkingPrecisionError first."""
    import logff.logring as logring
    spec = RingSpec(5, 2, 2, 1)
    rng = random.Random("empty-power")
    g1, g2 = random_lift(rng, spec), random_lift(rng, spec)
    calls = []
    monkeypatch.setattr(logring, "reduce_mod", lambda *a: calls.append(a) or reduce_mod(*a))
    same = DividedCoeffs(g1, g1, width=1)
    other = DividedCoeffs(g1, g2, width=1)
    reference = ReferenceCoeffs(g1, g2, 1)
    for index in [(1, 0), (0, 1), (1, 1), (2, 0)]:
        assert same.coeff(index, 1).is_zero()
    assert other.coeff((2, 0), 0) == reference.coeff((2, 0), 0) == RingElem.zero(spec)
    assert calls == []
    assert other.coeff((1, 0), 1) == reference.coeff((1, 0), 1)
    assert len(calls) == 1
    for engine in (same, other):
        for index in [(1, 0), (2, 0), (5, 0), (0, 5)]:
            for e in range(engine.work_n - engine.n + 1, engine.work_n + 2):
                with pytest.raises(WorkingPrecisionError):
                    engine.coeff(index, e)
                assert (index, e) not in engine._coeffs


# -- x_j held only to the digits the shell sums read ----------------------------

from types import SimpleNamespace  # noqa: E402

from logff.fixtures import nil2  # noqa: E402
from logff.logring import _x_precision  # noqa: E402
from logff.transport import (  # noqa: E402
    check_glue_cocycle,
    check_glue_horizontal,
    check_glue_linearity,
    check_pullback_functorial,
    glue_map,
)


@pytest.fixture
def held_x(monkeypatch):
    """Every (engine, precision) at which an engine builds its x_j, in call order."""
    held = []
    real = DividedCoeffs._hold_x

    def hold(engine, prec):
        held.append((engine, prec))
        return real(engine, prec)

    monkeypatch.setattr(DividedCoeffs, "_hold_x", hold)
    return held


def _held_precisions(held, engine):
    return [prec for built, prec in held if built is engine]


def _glue_sweeps(modules, rng):
    for module in modules:
        l1, l2, l3 = (random_lift(rng, module.spec) for _ in range(3))
        glue_map(module, l1, l2)
        assert check_glue_horizontal(module, l1, l2)
        assert check_glue_linearity(module, l1, l2, random_elem(rng, module.spec))
        assert check_glue_cocycle(module, l1, l2, l3)


def _pullback_sweep(rng):
    for p, n, s in [(5, 2, 1), (3, 2, 0), (7, 2, 1)]:
        module = nil2(p, n, d=2, s=s)
        spec = module.spec
        f, g = (RingMap(spec, spec, [(c1, (1, 0) if s else (1, -1), random_elem(rng, spec)),
                                     (c2, (0, -1), random_elem(rng, spec))])
                for c1, c2 in ((2, 4), (4, 2)))
        assert check_pullback_functorial(module, f, g, random_lift(rng, spec),
                                         random_lift(rng, spec))


def _taylor_sweep(rng):
    for p, n, d in [(5, 8, 2), (7, 6, 2), (3, 8, 2)]:
        spec = RingSpec(p, n, d, d)
        for _ in range(2):
            l1, l2 = random_lift(rng, spec), random_lift(rng, spec)
            assert taylor_residual(random_elem(rng, spec), l1, l2).is_zero()


@pytest.mark.parametrize("sweep", ["glue-corpus-5,2", "glue-rank3_chain-d3",
                                   "pullback-composites", "taylor-cells"])
def test_shell_sums_never_read_beyond_the_held_digits(sweep, held_x):
    """Every engine the gluing sweeps, the pullback composites and the Taylor
    residual build holds its x_j once, at _x_precision digits, and never
    raises them: no shell sum reads a digit of x that is not held."""
    rng = random.Random(f"held-x:{sweep}")
    if sweep == "glue-corpus-5,2":
        _glue_sweeps([module for _, module in corpus(5, 2)], rng)
    elif sweep == "glue-rank3_chain-d3":   # the glue-d3 benchmark cells
        _glue_sweeps([rank3_chain(p, n, d=3) for p, n in [(5, 2), (7, 2), (5, 3), (7, 3)]], rng)
    elif sweep == "pullback-composites":
        _pullback_sweep(rng)
    else:
        _taylor_sweep(rng)
    engines = list({id(engine): engine for engine, _ in held_x}.values())
    for engine in engines:
        assert _held_precisions(held_x, engine) == [
            _x_precision(engine.p, engine.n, engine.width)], engine.mode
    # the sweeps hold fewer digits than work_n on engines with a nonzero x
    assert any(engine._x_prec < engine.work_n and not engine.all_zero for engine in engines)


@pytest.mark.parametrize("maps,cell,width", [(_taylor_cell_maps, (3, 8, 2), 0),
                                             (_rank3_chain_maps, (5, 3, 3), 2)],
                         ids=["taylor_cell-3,8,2", "rank3_chain-5,3,3"])
def test_requests_beyond_the_held_digits_raise_them_once(maps, cell, width, held_x):
    """Shuffled requests below and beyond the digits held: the first one
    beyond makes the engine hold x at work_n, once, with the same packing;
    every answer equals the reference, and so do the powers memoized before."""
    p, n, d = cell
    rng = random.Random(f"held-x-beyond:{p},{n},{d}")
    g1, g2 = maps(p, n, d, rng)
    engine = DividedCoeffs(g1, g2, width=width)
    reference = ReferenceCoeffs(g1, g2, width)
    held, half = engine._x_prec, engine._half
    assert held < engine.work_n

    def beyond(request):
        index, e = request
        return held <= _needed(engine, index, e) - sum(index) and \
            _needed(engine, index, e) <= engine.work_n

    indices = [index for c in range(1, engine.stop) for index in multi_indices(d, c)]
    requests = _all_exponent_requests(engine, rng.sample(indices, min(8, len(indices))))
    below = [request for request in requests if not beyond(request)]
    rng.shuffle(below)
    # half of the requests below come first, so that powers are memoized before the raise
    first, rest = below[:len(below) // 2], below[len(below) // 2:]
    rest += [request for request in requests if beyond(request)]
    rng.shuffle(rest)
    before = None
    asked = {}
    for index, e in first + rest:
        if engine._x_prec == held:
            before = dict(engine._powers)
        got = _checked(engine, index, e)
        assert got == _expected(engine, reference, index, e), (index, e)
        if got is not WorkingPrecisionError:
            asked[index] = max(asked.get(index, 0), _needed(engine, index, e))
    assert _held_precisions(held_x, engine) == [held, engine.work_n]
    assert engine._half == half
    assert any(sum(index) for index in before)
    _assert_memo_within_bounds(engine, reference, asked)
    _assert_memo_within_bounds(SimpleNamespace(**{**vars(engine), "_powers": before}),
                               reference, {})


def _laurent_engines(p, n, d, s):
    spec = RingSpec(p, n, d, s)
    rng = random.Random(f"coeff-laurent:{p},{n},{d},{s}")
    l1, l2 = random_lift(rng, spec), random_lift(rng, spec)
    return [(DividedCoeffs(l1, l2, 1, mode=mode), ReferenceCoeffs(l1, l2, 1, mode=mode))
            for mode in ("ratio", "difference")]


def _composite_engines(p, n, d, s):
    g1, g2 = _pullback_composites(p, n, d, s, 1, random.Random(f"half-pullback:{p},{n},{d},{s}"))
    return [(DividedCoeffs(g1, g2, 1, base_n=n), ReferenceCoeffs(g1, g2, 1, base_n=n))]


_HALF_CELLS = ([(_laurent_engines, cell) for cell in [(5, 2, 2, 0), (5, 3, 2, 1), (3, 3, 2, 1),
                                                      (5, 2, 3, 1), (3, 2, 3, 0)]]
               + [(_composite_engines, cell) for cell in _COMPOSITE_CELLS])


@pytest.mark.parametrize("engines,cell", _HALF_CELLS,
                         ids=[f"{engines.__name__[1:-8]}-{','.join(map(str, cell))}"
                              for engines, cell in _HALF_CELLS])
def test_half_width_covers_x_at_work_n(engines, cell):
    """The packing radix is fixed before any x is held and must leave room for
    x at work_n, which a request beyond the held digits builds."""
    for engine, reference in engines(*cell):
        top = max((abs(e) for x in reference.x for exps in x.terms for e in exps), default=0)
        assert engine._half > top * engine._cap, engine.mode


# -- the Taylor sum grouped by monomial against the per-index sum --------------


def _per_index_residual(r, lift1, lift2):
    """taylor_residual with one product Psi(delta^I r) * x_I per index I."""
    spec = r.spec
    coeffs = DividedCoeffs(lift1, lift2, width=0)
    acc = lift1.apply(r)
    for c in range(coeffs.stop):
        for index in multi_indices(spec.d, c):
            part = falling_coeff(r, index)
            if part.is_zero():
                continue
            acc = acc - lift2.apply(part) * coeffs.coeff(index, 0)
    return acc


_REAL_COEFF = DividedCoeffs.coeff


def _coeff_stream(log, bumped=None, bump=None, refused=None):
    """A stand-in for DividedCoeffs.coeff that logs every request, adds bump
    to the coefficient of index bumped and raises NonIntegralError at refused."""

    def coeff(self, index, p_exponent):
        log.append((index, p_exponent))
        if index == refused:
            raise NonIntegralError(f"refused {index}")
        out = _REAL_COEFF(self, index, p_exponent)
        return out + bump if index == bumped else out

    return coeff


@pytest.mark.parametrize("p,n,d,s", [(5, 8, 2, 2), (7, 6, 2, 2), (3, 8, 2, 2), (5, 3, 2, 1),
                                     (3, 4, 2, 0), (7, 3, 2, 0), (3, 3, 3, 1), (5, 6, 1, 0),
                                     (3, 8, 2, 1)])
def test_grouped_taylor_sum_matches_per_index_sum(p, n, d, s, monkeypatch):
    # the sum is linear in the coefficient stream, so a stream perturbed at one
    # index must leave the same nonzero residual on both paths; on Laurent
    # charts (s < d) both factors of the closing products carry negative exponents
    spec = RingSpec(p, n, d, s)
    rng = random.Random(f"taylor-grouped:{p},{n},{d},{s}")
    for _ in range(3):
        r = random_elem(rng, spec)
        l1, l2 = random_lift(rng, spec), random_lift(rng, spec)
        requested = []
        monkeypatch.setattr(DividedCoeffs, "coeff", _coeff_stream(requested))
        assert taylor_residual(r, l1, l2).is_zero()
        bumped = requested[len(requested) // 2][0]
        bump = RingElem(spec, {(1,) * d: 1, (0,) * d: rng.randrange(1, spec.q)})
        residuals, logs = [], []
        for path in (taylor_residual, _per_index_residual):
            logs.append([])
            monkeypatch.setattr(DividedCoeffs, "coeff", _coeff_stream(logs[-1], bumped, bump))
            residuals.append(path(r, l1, l2))
        assert not residuals[0].is_zero()
        assert residuals[0] == residuals[1]
        assert logs[0] == logs[1] == requested


def test_grouped_taylor_sum_raises_where_the_per_index_sum_raises(monkeypatch):
    spec = RingSpec(5, 3, 2, 1)
    rng = random.Random("taylor-grouped-raise")
    r = random_elem(rng, spec)
    l1, l2 = random_lift(rng, spec), random_lift(rng, spec)
    requested = []
    monkeypatch.setattr(DividedCoeffs, "coeff", _coeff_stream(requested))
    taylor_residual(r, l1, l2)
    refused = requested[-1][0]
    for path in (taylor_residual, _per_index_residual):
        log = []
        monkeypatch.setattr(DividedCoeffs, "coeff", _coeff_stream(log, refused=refused))
        with pytest.raises(NonIntegralError, match=re.escape(str(refused))):
            path(r, l1, l2)
        assert log == requested


# -- the two paths of RingElem.__mul__ give the same terms ----------------------


def _graded_operand(rng, spec, terms, spread=3):
    """A random element with up to `terms` terms whose coefficients p^v * unit
    run over every valuation v < n, Laurent slots reaching negative exponents."""
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0 if j < spec.s else -spread, spread) for j in range(spec.d))
        unit = rng.randrange(1, spec.q)
        while unit % spec.p == 0:
            unit = rng.randrange(1, spec.q)
        out[exps] = spec.p ** rng.randrange(spec.n) * unit
    return RingElem(spec, out)


@pytest.fixture
def direct_mul(monkeypatch):
    """x * y on the pair-by-pair path of RingElem.__mul__, however many pairs."""
    import logff.logring as logring

    def product(x, y):
        with monkeypatch.context() as m:
            m.setattr(logring, "_GRADED_MIN_PAIRS", float("inf"))
            return x * y
    return product


_GRADED_CELLS = [(p, n, d, s) for p in (3, 5, 7) for n in (1, 2, 5, 16)
                 for d in (1, 2, 3) for s in sorted({0, d})]


@pytest.mark.parametrize("p,n,d,s", _GRADED_CELLS)
def test_graded_product_matches_direct_product(p, n, d, s, direct_mul):
    from logff.logring import _graded_product
    spec = RingSpec(p, n, d, s)
    rng = random.Random(f"graded-product:{p},{n},{d},{s}")
    zero = RingElem.zero(spec)
    for _ in range(12):
        # up to 40 x 40 terms: products on both sides of _GRADED_MIN_PAIRS
        a = _graded_operand(rng, spec, rng.randint(1, 40), spread=12)
        b = _graded_operand(rng, spec, rng.randint(1, 40), spread=rng.choice([0, 1, 5, 12]))
        for x, y in ((a, b), (b, a), (a, a)):
            want = direct_mul(x, y).terms
            assert _graded_product(x, y).terms == want
            assert (x * y).terms == want
    single = _graded_operand(rng, spec, 1)
    for x, y in ((single, a), (a, single), (single, single)):
        assert _graded_product(x, y).terms == direct_mul(x, y).terms
    for x, y in ((zero, a), (a, zero), (zero, zero)):
        assert _graded_product(x, y).is_zero()
    # every coefficient pair vanishes mod p^n: a divisible by p^k, b by p^(n-k)
    for k in range(n + 1):
        x = RingElem(spec, {e: c * p ** k for e, c in a.terms.items()})
        y = RingElem(spec, {e: c * p ** (n - k) for e, c in b.terms.items()})
        assert direct_mul(x, y).is_zero() and _graded_product(x, y).is_zero()


def test_graded_product_keeps_the_pairs_one_digit_short_of_vanishing(direct_mul):
    # v1 + v2 = n - 1 is the last valuation sum that survives mod p^n, and
    # (9, -5) and (-5, 5) are the two ends of both slots' spans
    from logff.logring import _graded_product
    for p, n in [(3, 2), (5, 3), (7, 16)]:
        spec = RingSpec(p, n, 2, 0)
        x = RingElem(spec, {(-2, 3): p ** (n - 1), (4, -1): 1, (1, 1): p})
        y = RingElem(spec, {(5, -4): 1, (-3, 2): 2 * p})
        got = _graded_product(x, y)
        assert got.terms == direct_mul(x, y).terms
        assert got.terms[(3, -1)] == p ** (n - 1)
        assert got.terms[(9, -5)] == 1
        assert (-5, 5) not in got.terms                   # v1 + v2 = (n - 1) + 1


def test_mul_takes_the_graded_path_from_the_threshold_on(monkeypatch):
    import logff.logring as logring
    calls = []
    real = logring._graded_product
    monkeypatch.setattr(logring, "_graded_product", lambda a, b: calls.append(1) or real(a, b))
    spec = RingSpec(5, 3, 2, 1)
    row = RingElem(spec, {(0, k): k + 1 for k in range(16)})
    col = RingElem(spec, {(k, 0): k + 2 for k in range(16)})
    short = RingElem(spec, {(k, 0): k + 2 for k in range(15)})
    assert len(row.terms) * len(col.terms) == logring._GRADED_MIN_PAIRS
    assert len(row.terms) * len(short.terms) < logring._GRADED_MIN_PAIRS
    row * short
    assert calls == []
    got = row * col
    assert calls == [1]
    assert got.terms == {(j, k): (j + 2) * (k + 1) % spec.q for j in range(16) for k in range(16)}


# -- the unit inverse on both product paths ---------------------------------------


@pytest.mark.parametrize("p,n,d,s", [(p, n, d, s) for p in (3, 5, 7) for n in (1, 2, 4, 9, 16)
                                     for d in (1, 2, 3) for s in sorted({0, d - 1})])
def test_invert_unit_on_both_product_paths(p, n, d, s, monkeypatch):
    import logff.logring as logring
    calls = []
    real = logring._graded_product
    monkeypatch.setattr(logring, "_graded_product", lambda a, b: calls.append(1) or real(a, b))
    spec = RingSpec(p, n, d, s)
    rng = random.Random(f"invert-unit:{p},{n},{d},{s}")
    one = RingElem.one(spec)
    for _ in range(4):
        exps = tuple(0 if j < s else rng.randint(-3, 3) for j in range(d))
        c = rng.randrange(1, spec.q)
        while c % p == 0:
            c = rng.randrange(1, spec.q)
        u = RingElem.monomial(spec, exps, c) * (one + random_elem(rng, spec, 6, 4).scale(p))
        inv = u.invert_unit()
        assert u * inv == one
        with monkeypatch.context() as m:
            m.setattr(logring, "_GRADED_MIN_PAIRS", float("inf"))
            assert u.invert_unit().terms == inv.terms
    if n == 16 and d > 1:
        assert calls                    # the series' late products are large enough


def test_invert_unit_of_a_unit_monomial_is_a_monomial():
    spec = RingSpec(5, 4, 2, 1)
    u = RingElem.monomial(spec, (0, -3), 7)
    assert u.invert_unit() == RingElem.monomial(spec, (0, 3), modinv(7, spec.q))


# -- coefficient keys are decoded once per engine --------------------------------


def test_coeff_in_shuffled_order_matches_fresh_engines():
    """Requests in shuffled order, interleaved over two engines whose packed
    radices differ, against a fresh engine per request."""
    cells = []
    for p, n, d, s, width in [(3, 5, 2, 2, 0), (5, 3, 2, 1, 1)]:
        spec = RingSpec(p, n, d, s)
        rng = random.Random(f"coeff-shuffled:{p},{n},{d},{s}")
        g1, g2 = random_lift(rng, spec), random_lift(rng, spec)
        engine = DividedCoeffs(g1, g2, width)
        requests = [(index, e) for c in range(engine.stop) for index in multi_indices(d, c)
                    for e in range(min(width, c) + 1)]
        cells.append((engine, (g1, g2, width), requests))
    assert cells[0][0]._half != cells[1][0]._half
    queue = [(k, req) for k, (_, _, requests) in enumerate(cells) for req in requests]
    random.Random(114).shuffle(queue)
    for k, (index, e) in queue:
        engine, args, _ = cells[k]
        assert engine.coeff(index, e) == DividedCoeffs(*args).coeff(index, e), (k, index, e)
    for engine, _, _ in cells:
        assert all(_unpack(key, engine._half, engine.base_spec.d) == exps
                   for key, exps in engine._exps.items())


# -- the trusted constructor keeps results canonical ---------------------------


@st.composite
def spec_and_elems(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(min_value=1, max_value=4))
    d = draw(st.integers(min_value=0, max_value=2))
    s = draw(st.integers(min_value=0, max_value=d))
    spec = RingSpec(p, n, d, s)

    def elem():
        terms = {}
        for _ in range(draw(st.integers(min_value=0, max_value=5))):
            exps = tuple(draw(st.integers(min_value=0 if j < s else -3, max_value=3))
                         for j in range(d))
            # multiples of p and of q exercise the reduction and the dropped zeros
            terms[exps] = draw(st.one_of(st.integers(-3 * spec.q, 3 * spec.q),
                                         st.integers(-9, 9).map(lambda k: k * p)))
        return RingElem(spec, terms)

    pk = p ** draw(st.integers(min_value=0, max_value=n))
    scalar = draw(st.one_of(st.integers(-10 ** 6, 10 ** 6),
                            st.integers(-9, 9).map(lambda k: k * pk)))
    return spec, elem(), elem(), scalar


@given(spec_and_elems())
@settings(max_examples=200, deadline=None)
def test_operation_results_are_canonical(case):
    spec, x, y, c = case
    f = FrobLift(spec, [y] * spec.d)
    zero = RingElem.zero(spec)
    # one-term operands: y's first term, and the constant c
    term = RingElem(spec, dict(list(y.terms.items())[:1]))
    const = RingElem.const(spec, c)
    results = [x + y, x - y, y - x, x - x, zero - x, -x, x * y, x * term, term * x,
               x * const, const * x, x.scale(c), x * c, f.apply(x)]
    results += [x.log_derive(j) for j in range(1, spec.d + 1)]
    # an operation may hand back an operand: elements are immutable
    assert x.scale(1) is x and x.scale(1 + spec.q) is x
    one = RingElem.one(spec)
    # a product by 1 is the other operand, unless both have one term
    assert len(x.terms) == 1 or (x * one is x and one * x is x)
    assert x - zero is x
    assert all(zero.log_derive(j) is zero for j in range(1, spec.d + 1))
    for result in results:
        assert result.spec == spec
        assert result.terms == RingElem(spec, result.terms).terms
        for exps, coeff in result.terms.items():
            assert 1 <= coeff < spec.q
            assert isinstance(exps, tuple) and len(exps) == spec.d
            assert all(exps[j] >= 0 for j in range(spec.s))


def test_public_constructor_still_validates():
    spec = RingSpec(5, 2, 2, 1)
    with pytest.raises(ValueError):
        RingElem(spec, {(1,): 1})
    with pytest.raises(ValueError):
        RingElem(spec, {(-1, 0): 1})
    assert RingElem(spec, {(0, -1): 50, (1, 0): -1}).terms == {(1, 0): 24}


# -- primality of p ---------------------------------------------------------------


class TestPrimality:
    def test_large_prime_accepted_at_once(self):
        import time
        start = time.perf_counter()
        spec = RingSpec(10 ** 15 + 37, 1, 1, 1)
        assert time.perf_counter() - start < 0.5
        assert spec.q == 10 ** 15 + 37

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_small_primes_accepted(self, p):
        assert RingSpec(p, 2, 1, 1).p == p

    @pytest.mark.parametrize("p", [9, 15, 21, 25, 561, 3215031751, 2 ** 61 + 1])
    def test_composites_refused(self, p):
        # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to 2, 3, 5 and 7
        with pytest.raises(ValueError, match="odd prime"):
            RingSpec(p, 1, 1, 1)

    def test_agrees_with_trial_division(self):
        from logff.logring import _is_prime

        def trial(m):
            return m >= 2 and all(m % f for f in range(2, int(m ** 0.5) + 1))

        assert [m for m in range(5000) if _is_prime(m)] == [m for m in range(5000) if trial(m)]

    def test_beyond_the_bound_refused(self):
        from logff.logring import _MR_LIMIT
        with pytest.raises(ValueError, match=str(_MR_LIMIT)):
            RingSpec(_MR_LIMIT + 2, 1, 1, 1)
        with pytest.raises(ValueError, match=str(_MR_LIMIT)):
            RingSpec(10 ** 30 + 57, 1, 1, 1)


@pytest.mark.parametrize("p,n,d,s", [(5, 8, 2, 2), (7, 6, 2, 2), (3, 8, 2, 2), (3, 4, 2, 0),
                                     (5, 3, 1, 1)])
def test_taylor_residual_of_equal_lifts_requests_only_shell_0(p, n, d, s, monkeypatch):
    """With Phi = Psi every x_j is 0, so the shell-sum engine's equal-lift cut
    sums shell 0 alone: the residual is Phi(r) - Phi(r) = 0."""
    spec = RingSpec(p, n, d, s)
    rng = random.Random(f"taylor-equal:{p},{n},{d},{s}")
    for _ in range(3):
        r = random_elem(rng, spec)
        lift = random_lift(rng, spec)
        requested = []
        monkeypatch.setattr(DividedCoeffs, "coeff", _coeff_stream(requested))
        assert taylor_residual(r, lift, lift).is_zero()
        assert requested == ([((0,) * d, 0)] if not r.is_zero() else [])
