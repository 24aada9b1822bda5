import dataclasses
import importlib
import random
import sys

import pytest

from logff.ffmodule import (
    BasisVector,
    InvariantViolationError,
    LogFFModule,
    _ordinary_connection_op,
    divided_connection,
    falling_connection_op,
    root_map,
    run_all_checks,
)
from logff.fixtures import (
    corpus,
    mixed_torsion,
    nil2,
    rank1_flat,
    rank3_chain,
    random_elem,
    random_lift,
)
from logff.logring import (
    DividedCoeffs,
    FrobLift,
    RingElem,
    RingMap,
    RingSpec,
    design_shell_bound,
    multi_indices,
    stop_shell,
    taylor_residual,
    work_precision,
)
from logff.matrices import Matrix
from logff.modfile import parse_module_file
from logff.transport import (
    check_glue_cocycle,
    check_glue_horizontal,
    check_glue_identity,
    check_glue_linearity,
    check_nonlog_agreement,
    check_pullback_functorial,
    glue_map,
    pullback_ff,
    transport,
)

from oracle import glue_matrix_constant


def standard_pair(spec):
    phi = FrobLift.standard(spec)
    psi = FrobLift(spec, [RingElem.one(spec)] + [RingElem.zero(spec)] * (spec.d - 1))
    return phi, psi


class TestGlueMap:
    def test_same_lift_is_identity(self):
        mod = nil2(5, 1)
        g = glue_map(mod, mod.lift, mod.lift)
        assert g.matrix == Matrix.identity(mod.spec, 2)

    def test_zero_connection_is_identity(self):
        mod = rank1_flat(5, 2)
        phi, psi = standard_pair(mod.spec)
        assert glue_map(mod, phi, psi).matrix == Matrix.identity(mod.spec, 1)
        mod3 = rank3_chain(5, 2)
        zeroed = LogFFModule(mod3.spec, mod3.hodge_range, mod3.basis,
                             [Matrix.zeros(mod3.spec, 3, 3)], mod3.lift, mod3.frobenius)
        phi, psi = standard_pair(mod3.spec)
        assert glue_map(zeroed, phi, psi).matrix == Matrix.identity(mod3.spec, 3)

    def test_pinned_nil2_value(self):
        # independent exact-rational shell summation first
        expected = glue_matrix_constant(5, 1, levels=[0, 1], hodge_a=0,
                                        connections=[[[0, 1], [0, 0]]],
                                        u1=[0], u2=[1])
        assert expected == [[1, 4], [0, 1]]
        mod = nil2(5, 1)
        phi, psi = standard_pair(mod.spec)
        g = glue_map(mod, phi, psi)
        assert [[x.terms.get((0,), 0) for x in row] for row in g.matrix.rows] == expected

    @pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (5, 2)])
    def test_oracle_cross_check_constant_lifts(self, p, n):
        rng = random.Random(60 + p + n)
        fixtures = [(nil2(p, n), [[[0, 1], [0, 0]]], [0, 1])]
        if p >= 5:
            fixtures.append((rank3_chain(p, n),
                             [[[0, 1, 0], [0, 0, 1], [0, 0, 0]]], [0, 1, 2]))
        for mod, conn, levels in fixtures:
            for _ in range(5):
                u1 = [rng.randrange(p ** n) for _ in range(mod.spec.d)]
                u2 = [rng.randrange(p ** n) for _ in range(mod.spec.d)]
                expected = glue_matrix_constant(p, n, levels=levels, hodge_a=0,
                                                connections=conn, u1=u1, u2=u2)
                l1 = FrobLift(mod.spec, [RingElem.const(mod.spec, c) for c in u1])
                l2 = FrobLift(mod.spec, [RingElem.const(mod.spec, c) for c in u2])
                g = glue_map(mod, l1, l2)
                got = [[x.terms.get((0,) * mod.spec.d, 0) for x in row]
                       for row in g.matrix.rows]
                assert got == expected

    def test_shells_recorded(self):
        mod = nil2(5, 1)
        phi, psi = standard_pair(mod.spec)
        g = glue_map(mod, phi, psi)
        assert g.shells_used >= 2
        assert g.design_bound >= 2

    @pytest.mark.parametrize("n", [1, 2])
    def test_cocycle_for_lifts_012_against_oracle(self, n):
        # the lifts u = 0, 1, 2 on NIL2 at p = 5: oracle matrices satisfy the
        # cocycle and match the engine entrywise
        p = 5
        conn = [[[0, 1], [0, 0]]]
        mats = {}
        for u1 in (0, 1, 2):
            for u2 in (0, 1, 2):
                mats[(u1, u2)] = glue_matrix_constant(
                    p, n, levels=[0, 1], hodge_a=0, connections=conn,
                    u1=[u1], u2=[u2])
        q = p ** n
        for (a, b, c) in [(0, 1, 2), (2, 0, 1), (1, 2, 0)]:
            g12, g23, g13 = mats[(a, b)], mats[(b, c)], mats[(a, c)]
            prod = [[sum(g23[i][t] * g12[t][j] for t in range(2)) % q
                     for j in range(2)] for i in range(2)]
            assert prod == g13
        mod = nil2(p, n)
        for (u1, u2), expected in mats.items():
            l1 = FrobLift(mod.spec, [RingElem.const(mod.spec, u1)])
            l2 = FrobLift(mod.spec, [RingElem.const(mod.spec, u2)])
            got = [[x.terms.get((0,), 0) for x in row]
                   for row in glue_map(mod, l1, l2).matrix.rows]
            assert got == expected


class TestGlueProperties:
    @pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (5, 2)])
    def test_identity_bullet(self, p, n):
        rng = random.Random(61 + p + n)
        for name, mod in corpus(p, n):
            assert check_glue_identity(mod, mod.lift), name
            assert check_glue_identity(mod, random_lift(rng, mod.spec)), name

    def test_identity_with_variable_lift(self):
        mod = nil2(5, 1)
        eta = FrobLift(mod.spec, [RingElem.variable(mod.spec, 1)])
        assert check_glue_identity(mod, eta)

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 1), (5, 2)])
    def test_cocycle_and_inverse(self, p, n):
        rng = random.Random(62 + p + n)
        for name, mod in corpus(p, n):
            l1, l2, l3 = (random_lift(rng, mod.spec) for _ in range(3))
            assert check_glue_cocycle(mod, l1, l2, l3), name
            # inverse property: G_{21} G_{12} = identity
            g12 = glue_map(mod, l1, l2).matrix
            g21 = glue_map(mod, l2, l1).matrix
            ident = Matrix.identity(g12.spec, mod.rank)
            assert (g21 * g12).eq_mod_rows(ident, mod.torsions), name

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2)])
    def test_linearity(self, p, n):
        rng = random.Random(63 + p + n)
        for name, mod in corpus(p, n):
            l1, l2 = random_lift(rng, mod.spec), random_lift(rng, mod.spec)
            assert check_glue_linearity(mod, l1, l2, RingElem.one(mod.spec))
            c = RingElem.const(mod.spec, 2)
            assert check_glue_linearity(mod, l1, l2, c)
            for _ in range(5):
                r = random_elem(rng, mod.spec)
                assert check_glue_linearity(mod, l1, l2, r), name

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2)])
    def test_horizontality(self, p, n):
        rng = random.Random(64 + p + n)
        for name, mod in corpus(p, n):
            l1, l2 = random_lift(rng, mod.spec), random_lift(rng, mod.spec)
            assert check_glue_horizontal(mod, l1, l2), name


    def test_glue_map_keeps_the_last_gluing_of_the_module(self, monkeypatch):
        rng = random.Random(65)
        mod = rank3_chain(5, 2)
        l1, l2, l3 = (random_lift(rng, mod.spec) for _ in range(3))
        computed = []
        real = transport_module._basis_glue
        monkeypatch.setattr(transport_module, "_basis_glue",
                            lambda module, g1, g2, mode="ratio":
                            computed.append((g1, g2)) or real(module, g1, g2, mode))
        g = glue_map(mod, l1, l2)
        assert mod._glue_cache.glue is g and (g.source_map, g.target_map) == (l1, l2)
        # an equal pair, as the same or as distinct objects, gets the stored gluing
        assert glue_map(mod, l1, l2) is g
        assert glue_map(mod, FrobLift(mod.spec, list(l1.u)), l2) is g
        # the checks of that pair reuse it too
        assert check_glue_horizontal(mod, l1, l2)
        for r in (RingElem.one(mod.spec), random_elem(rng, mod.spec)):
            assert check_glue_linearity(mod, l1, l2, r)
        assert check_glue_cocycle(mod, l1, l2, l3)
        assert computed == [(l1, l2), (l2, l3), (l1, l3)]
        # another pair is computed afresh and replaces it
        reverse = glue_map(mod, l2, l1)
        assert reverse is not g and mod._glue_cache.glue is reverse
        again = glue_map(mod, l1, l2)
        assert again is not g and again.matrix == g.matrix
        assert computed[3:] == [(l2, l1), (l1, l2)]
        monkeypatch.undo()
        assert again.matrix == glue_map(rank3_chain(5, 2), l1, l2).matrix
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.target_map = l3


class TestNonLogAgreement:
    def test_zero_connection(self):
        mod = rank1_flat(5, 2, s=0)
        phi, psi = standard_pair(mod.spec)
        assert check_nonlog_agreement(mod, phi, psi)

    def test_rank2_nilpotent(self):
        mod = nil2(5, 2, s=0)
        phi, psi = standard_pair(mod.spec)
        assert check_nonlog_agreement(mod, phi, psi)

    @pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 2)])
    def test_random_lifts_on_s0_corpus(self, p, n):
        rng = random.Random(65 + p + n)
        for name, mod in corpus(p, n):
            if mod.spec.s != 0:
                continue
            l1, l2 = random_lift(rng, mod.spec), random_lift(rng, mod.spec)
            assert check_nonlog_agreement(mod, l1, l2), name

    def test_requires_s0(self):
        mod = nil2(5, 1)
        phi, psi = standard_pair(mod.spec)
        with pytest.raises(ValueError):
            check_nonlog_agreement(mod, phi, psi)


class TestTransport:
    def test_same_lift_unchanged(self):
        mod = nil2(5, 2)
        assert transport(mod, mod.lift) == mod

    def test_pinned_transport_value(self):
        spec = RingSpec(5, 1, 1, 1)
        psi = FrobLift(spec, [RingElem.one(spec)])
        mod = nil2(5, 1, lift=psi)
        phi = FrobLift.standard(spec)
        moved = transport(mod, phi)
        assert moved.frobenius == Matrix.from_ints(spec, [[1, 4], [0, 1]])

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 1), (5, 2)])
    def test_preserves_validity_and_double_transport(self, p, n):
        rng = random.Random(66 + p + n)
        for name, mod in corpus(p, n):
            lift = random_lift(rng, mod.spec)
            moved = transport(mod, lift)
            results = run_all_checks(moved)
            assert all(v.ok for v in results.values()), name
            back = transport(moved, mod.lift)
            assert back == mod, name


def test_equality_compares_the_lifts():
    mod = nil2(5, 2)
    other_lift = FrobLift(mod.spec, [RingElem.one(mod.spec)])
    moved = mod.with_frobenius(mod.frobenius, other_lift)
    assert moved != mod and mod != moved
    twin = mod.with_frobenius(mod.frobenius, FrobLift(mod.spec, list(mod.lift.u)))
    assert twin.lift is not mod.lift and twin == mod


def test_equality_is_modulo_the_row_torsions():
    """The constructor reduces row i mod p^torsion_i, so == compares modulo the row torsions."""
    mod = mixed_torsion(5, 2)   # torsions (1, 2), connection E_01, phi the identity
    spec = mod.spec

    def rebuilt(connection, frobenius):
        return LogFFModule(spec, mod.hodge_range, mod.basis, [Matrix.from_ints(spec, connection)],
                           mod.lift, Matrix.from_ints(spec, frobenius))
    # p^torsion_i added to every entry of row i: 5 on row 0, 25 on row 1
    shifted = rebuilt([[5, 6], [25, 25]], [[6, 5], [25, 26]])
    assert shifted == mod and mod == shifted
    # one entry of row 1 off by 5, which is below its torsion 25
    assert rebuilt([[0, 1], [0, 5]], [[1, 0], [0, 1]]) != mod
    assert rebuilt([[0, 1], [0, 0]], [[1, 0], [0, 6]]) != mod
    # and one of row 0 off by 1, below its torsion 5
    assert rebuilt([[0, 1], [0, 0]], [[1, 1], [0, 1]]) != mod


class TestCoordinateRescaling:
    @pytest.mark.parametrize("p,n", [(5, 1), (5, 2), (3, 2)])
    def test_glue_commutes_with_rescaling(self, p, n):
        # conjugating the coordinates by T -> cT (unit c) conjugates the
        # gluing matrix: desk-scale coordinate independence
        rng = random.Random(67 + p + n)
        mod = nil2(p, n)
        spec = mod.spec
        c = 2  # unit integer constant
        tau = RingMap(spec, spec, [(c, (1,), RingElem.zero(spec))])
        for _ in range(5):
            l1, l2 = random_lift(rng, spec), random_lift(rng, spec)
            # conjugated lift: w^c = c^(p-1) tau(w), so
            # u^c = (c^(p-1) - 1)/p + c^(p-1) tau(u), exactly in Z
            def conjugate(lift):
                u = []
                for uj in lift.u:
                    const = (c ** (p - 1) - 1) // p
                    u.append(RingElem.const(spec, const) +
                             tau.apply(uj).scale(c ** (p - 1)))
                return FrobLift(spec, u)
            g = glue_map(mod, l1, l2).matrix
            g_conj = glue_map(mod, conjugate(l1), conjugate(l2)).matrix
            expected = g.map_entries(tau.apply)
            assert g_conj.eq_mod_rows(expected, mod.torsions)


class TestPullback:
    def test_identity_pullback(self):
        mod = nil2(5, 2)
        same = pullback_ff(mod, RingMap.identity(mod.spec), mod.lift)
        assert same == mod

    def test_rescaling_keeps_dlog_connection(self):
        # dlog(cT) = dlog T, so the connection matrices are unchanged; the
        # Frobenius picks up the comparison between the composite lifts
        mod = nil2(5, 1)
        spec = mod.spec
        f = RingMap(spec, spec, [(2, (1,), RingElem.zero(spec))])
        pb = pullback_ff(mod, f, mod.lift)
        assert pb.connection[0] == mod.connection[0]
        assert all(v.ok for v in run_all_checks(pb).values())
        # comparison entry: ((c^{1-p} - 1)/p) on the nilpotent slot; exact
        # oracle from integer arithmetic at the canonical lift c = 2
        from fractions import Fraction
        from logff.exactnum import reduce_mod
        x = Fraction(2, 2 ** 5) - 1
        expected = reduce_mod(x / 5, 5, 1)
        assert pb.frobenius.entry(0, 1) == RingElem.const(spec, expected)

    def test_root_map_delegates_to_pole_killing(self):
        mod = nil2(5, 1)
        pb = pullback_ff(mod, root_map(mod.spec, 1), mod.lift)
        assert pb.connection[0].is_zero()

    def test_functoriality_examples(self):
        mod = nil2(5, 2)
        spec = mod.spec
        zero = RingElem.zero(spec)
        ident = RingMap.identity(spec)
        rescale2 = RingMap(spec, spec, [(2, (1,), zero)])
        rescale3 = RingMap(spec, spec, [(3, (1,), zero)])
        phi = mod.lift
        assert check_pullback_functorial(mod, rescale2, ident, phi, phi)
        # two rescalings compose to the rescaling by the product
        two = pullback_ff(pullback_ff(mod, rescale2, phi), rescale3, phi)
        six = pullback_ff(mod, RingMap(spec, spec, [(6, (1,), zero)]), phi)
        assert two == six

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 1), (5, 2)])
    def test_functoriality_random(self, p, n):
        rng = random.Random(68 + p + n)
        mod = nil2(p, n)
        spec = mod.spec
        zero = RingElem.zero(spec)
        t = RingElem.variable(spec, 1)
        maps = [
            RingMap.identity(spec),
            RingMap(spec, spec, [(2, (1,), zero)]),
            RingMap(spec, spec, [(1, (1,), t)]),
            root_map(spec, n),
        ]
        for f in maps:
            for g in maps:
                mid, fin = random_lift(rng, spec), random_lift(rng, spec)
                assert check_pullback_functorial(mod, f, g, mid, fin)

    def test_lift_mismatch_rejected(self):
        from logff.logring import LiftMismatchError
        mod = nil2(5, 1)
        spec = mod.spec
        # a "comparison" between maps with different monomial parts
        f = RingMap(spec, spec, [(1, (5,), RingElem.zero(spec))])
        g = RingMap(spec, spec, [(1, (10,), RingElem.zero(spec))])
        with pytest.raises(LiftMismatchError):
            glue_map(mod, f, g)


class TestMixedTorsionTransport:
    def test_transport_mixed(self):
        rng = random.Random(69)
        mod = mixed_torsion(5, 2)
        lift = random_lift(rng, mod.spec)
        moved = transport(mod, lift)
        assert all(v.ok for v in run_all_checks(moved).values())
        assert transport(moved, mod.lift) == mod


class TestHighPrecisionGlue:
    @pytest.mark.parametrize("p", [3, 5])
    def test_glue_suite_at_n3(self, p):
        # precision 3 exercises the deepest shells and working precision
        rng = random.Random(71 + p)
        mod = nil2(p, 3)
        for _ in range(3):
            l1, l2, l3 = (random_lift(rng, mod.spec) for _ in range(3))
            assert check_glue_identity(mod, l1)
            assert check_glue_cocycle(mod, l1, l2, l3)
            assert check_glue_horizontal(mod, l1, l2)
            for _ in range(3):
                assert check_glue_linearity(mod, l1, l2, random_elem(rng, mod.spec))
            moved = transport(mod, l1)
            assert all(v.ok for v in run_all_checks(moved).values())
            assert transport(moved, mod.lift) == mod

    def test_nonlog_at_n3(self):
        rng = random.Random(72)
        mod = nil2(5, 3, s=0)
        l1, l2 = random_lift(rng, mod.spec), random_lift(rng, mod.spec)
        assert check_nonlog_agreement(mod, l1, l2)


class TestWideRangeEmpirical:
    def test_glue_suite_at_width_p_minus_1(self):
        # the wider weight window b - a = p - 1: not guaranteed in advance,
        # monitored by the NonIntegral machinery; empirically clean here
        spec = RingSpec(3, 2, 1, 1)
        chain = LogFFModule(
            spec, (0, 2),
            [BasisVector("e0", 0, 2), BasisVector("e1", 1, 2), BasisVector("e2", 2, 2)],
            [Matrix.from_ints(spec, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])],
            FrobLift.standard(spec), Matrix.identity(spec, 3), wide_range=True)
        assert all(v.ok for v in run_all_checks(chain).values())
        rng = random.Random(70)
        for _ in range(5):
            l1, l2, l3 = (random_lift(rng, spec) for _ in range(3))
            assert check_glue_identity(chain, l1)
            assert check_glue_cocycle(chain, l1, l2, l3)
            assert check_glue_horizontal(chain, l1, l2)
            assert check_glue_linearity(chain, l1, l2, random_elem(rng, spec))
            moved = transport(chain, l1)
            assert all(v.ok for v in run_all_checks(moved).values())


def _ordinary_direct(connection, vec, index):
    # the slot-by-slot loop the memoized operator must reproduce
    out = list(vec)
    for j0, ij in enumerate(index):
        B = connection[j0].scale(RingElem.variable(connection[j0].spec, j0 + 1, -1))
        for _ in range(ij):
            applied = B.mul_vec(out)
            out = [x + v.d_dT(j0 + 1) for x, v in zip(applied, out)]
    return out


def _glue_suite(mod, lifts, order):
    """Results of glue_map and the check_glue_* functions, run in `order`."""
    l1, l2, l3 = lifts
    calls = {
        "glue12": lambda: glue_map(mod, l1, l2).matrix,
        "glue21": lambda: glue_map(mod, l2, l1).matrix,
        "identity": lambda: check_glue_identity(mod, l2),
        "cocycle": lambda: check_glue_cocycle(mod, l1, l2, l3),
        "horizontal": lambda: check_glue_horizontal(mod, l1, l2),
        "linearity": lambda: check_glue_linearity(mod, l1, l2, RingElem.variable(mod.spec, 1)),
        "linearity_one": lambda: check_glue_linearity(mod, l2, l3, RingElem.one(mod.spec)),
    }
    if mod.spec.s == 0:
        calls["nonlog"] = lambda: check_nonlog_agreement(mod, l1, l2)
    return {name: calls[name]() for name in (order if order else calls)}


class TestGlueCache:
    ORDER = ("linearity", "cocycle", "glue21", "nonlog", "horizontal", "glue12",
             "linearity_one", "identity")

    @pytest.mark.parametrize("name,factory", [
        ("nil2_s0", lambda: nil2(5, 2, s=0)),
        ("rank3", lambda: rank3_chain(5, 2)),
        ("mixed", lambda: mixed_torsion(5, 2)),
        ("nil2_d2s1", lambda: nil2(5, 2, d=2, s=1)),
    ])
    def test_results_do_not_depend_on_call_order(self, name, factory):
        rng = random.Random(name)
        probe = factory()
        lifts = [random_lift(rng, probe.spec) for _ in range(3)]
        order = [k for k in self.ORDER if k != "nonlog" or probe.spec.s == 0]
        one_module = factory()
        forward = _glue_suite(one_module, lifts, None)
        backward = _glue_suite(one_module, lifts, order)
        fresh = {key: _glue_suite(factory(), lifts, [key])[key] for key in forward}
        assert forward == backward == fresh
        assert all(v for k, v in forward.items() if not k.startswith("glue"))

    def test_derived_modules_start_with_an_empty_cache(self):
        mod = nil2(5, 2, d=2, s=1)
        rng = random.Random(5)
        l1, l2 = random_lift(rng, mod.spec), random_lift(rng, mod.spec)
        assert check_glue_cocycle(mod, l1, l2, mod.lift)
        assert check_glue_horizontal(mod, l1, l2)
        cache = mod._glue_cache
        assert cache.operator_memos and cache.glue is not None and cache.valid_for_glue
        f = RingMap(mod.spec, mod.spec,
                    [(1, (1, 0), RingElem.variable(mod.spec, 1)),
                     (1, (0, 1), RingElem.zero(mod.spec))])
        derived = [transport(mod, l1), mod.with_frobenius(mod.frobenius, l2),
                   pullback_ff(mod, f, mod.lift)]
        for other in derived:
            empty = other._glue_cache
            assert empty is not cache
            assert (empty.operator_memos, empty.glue, empty.valid_for_glue) == ({}, None, False)

    def test_failing_gate_raises_on_every_call(self, fixture_dir):
        text = (fixture_dir / "bad_flat_p5n2.json").read_text()
        mod, lifts = parse_module_file(text)
        phi = lifts["Phi"]
        for _ in range(3):
            with pytest.raises(InvariantViolationError):
                glue_map(mod, phi, phi)
        assert not mod._glue_cache.valid_for_glue

    def test_basis_vectors_share_memos_and_other_vectors_do_not(self):
        mod = rank3_chain(5, 2)
        l1, l2 = standard_pair(mod.spec)
        glue_map(mod, l1, l2)
        memos = dict(mod._glue_cache.operator_memos)
        assert len(memos) == mod.rank
        assert check_glue_linearity(mod, l1, l2, RingElem.one(mod.spec))
        assert check_glue_linearity(mod, l1, l2, RingElem.variable(mod.spec, 1))
        assert mod._glue_cache.operator_memos.keys() == memos.keys()
        assert all(mod._glue_cache.operator_memos[k] is memos[k] for k in memos)

    def test_linearity_at_one_makes_no_operator_call(self, monkeypatch):
        """r * e_k is e_k for r = 1, so the basis memos filled by the gluing answer
        every index; a vector that is no basis vector calls the operator."""
        mod = rank3_chain(5, 2)
        l1, l2 = standard_pair(mod.spec)
        glue = glue_map(mod, l1, l2)
        real = ffmodule_module.falling_connection_op
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)
        # the module-level name, in every logff module that holds it
        for name, module in list(sys.modules.items()):
            if name.startswith("logff") and getattr(module, "falling_connection_op", None) is real:
                monkeypatch.setattr(module, "falling_connection_op", counting)
        assert check_glue_linearity(mod, l1, l2, RingElem.one(mod.spec))
        assert calls == [] and mod._glue_cache.glue is glue
        assert check_glue_linearity(mod, l1, l2, RingElem.variable(mod.spec, 1))
        assert calls

    @pytest.mark.parametrize("factory", [lambda: nil2(5, 2, s=0), lambda: rank1_flat(5, 2, s=0, unit=2)])
    def test_ordinary_operator_memo_equals_slot_loop(self, factory):
        mod = factory()
        a, b = mod.hodge_range
        stop = stop_shell(mod.spec.p, mod.spec.n, b - a)
        conn = list(mod.connection)
        r = random_elem(random.Random(9), mod.spec)
        for vec in [vec for _, vec in _r_vectors(mod, RingElem.one(mod.spec))] + \
                [_r_vectors(mod, r)[0][1]]:
            memo = {}
            for c in range(stop):
                for idx in multi_indices(mod.spec.d, c):
                    assert _ordinary_connection_op(conn, vec, idx, memo=memo) == \
                        _ordinary_direct(conn, vec, idx)


# -- equal lifts, shared constants and the gate set by run_all_checks ----------

transport_module = importlib.import_module("logff.transport")
ffmodule_module = importlib.import_module("logff.ffmodule")


class _FullSweep(DividedCoeffs):
    """The engine with its all-zero flag forced off, so that every shell is summed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.all_zero = False


def _recording_operator(monkeypatch, call, engine=DividedCoeffs):
    """call() with `engine` as the gluing's coefficient engine, and the indices
    of every connection operator call it made."""
    indices = []
    with monkeypatch.context() as patch:
        for name in ("falling_connection_op", "_ordinary_connection_op"):
            real = getattr(transport_module, name)
            patch.setattr(transport_module, name,
                          lambda conn, vec, index, *, memo, real=real:
                          indices.append(index) or real(conn, vec, index, memo=memo))
        patch.setattr(transport_module, "DividedCoeffs", engine)
        return call(), indices


def _equal_lift_pairs(spec, rng):
    """The same object twice, and equal lifts that are distinct objects."""
    lift = random_lift(rng, spec)
    twin = FrobLift(spec, [RingElem(spec, dict(u.terms)) for u in lift.u])
    standard = FrobLift.standard(spec)
    return [(lift, lift), (lift, twin), (standard, FrobLift.standard(spec))]


@pytest.mark.parametrize("name,factory", [
    ("nil2", lambda: nil2(5, 2)),
    ("nil2_s0", lambda: nil2(5, 2, s=0)),
    ("rank3_d3", lambda: rank3_chain(7, 3, d=3)),
    ("mixed", lambda: mixed_torsion(5, 2)),
])
def test_equal_lifts_sum_shell_zero_only(name, factory, monkeypatch):
    probe = factory()
    spec, (a, b) = probe.spec, probe.hodge_range
    origin = (0,) * spec.d
    for l1, l2 in _equal_lift_pairs(spec, random.Random(f"equal-lifts:{name}")):
        g, indices = _recording_operator(monkeypatch, lambda: glue_map(factory(), l1, l2))
        assert set(indices) == {origin}
        assert g.matrix == Matrix.identity(spec, probe.rank)
        full, full_indices = _recording_operator(
            monkeypatch, lambda: glue_map(factory(), l1, l2), _FullSweep)
        assert any(sum(index) > 0 for index in full_indices)   # the sweep reaches later shells
        assert full.matrix == g.matrix
        # shells_used counts the shells summed: shell 0 only, unless forced on
        assert g.shells_used == 1
        assert full.shells_used == stop_shell(spec.p, spec.n, b - a)
        assert g.design_bound == full.design_bound == design_shell_bound(spec.p, spec.n, b - a)
        mod = factory()
        assert check_glue_identity(mod, l1) and check_glue_horizontal(mod, l1, l2)
        if spec.s == 0:
            assert check_nonlog_agreement(mod, l1, l2)
            (matrix, coeffs), classical = _recording_operator(
                monkeypatch, lambda: transport_module._basis_glue(
                    factory(), l1, l2, mode="difference"))
            assert coeffs.all_zero and set(classical) == {origin}
            assert matrix == g.matrix


@pytest.mark.parametrize("factory", [lambda: nil2(5, 2), lambda: rank3_chain(5, 2, d=2)])
def test_pullback_along_the_identity_glues_equal_composites(factory):
    mod = factory()
    a, b = mod.hodge_range
    work_n = work_precision(mod.spec.p, mod.spec.n, b - a)
    ident = RingMap.identity(mod.spec).with_precision(work_n)
    lift_w = mod.lift.with_precision(work_n)
    g1, g2 = ident.then(lift_w), lift_w.then(ident)
    assert g1 is not g2 and DividedCoeffs(g1, g2, b - a, base_n=mod.spec.n).all_zero
    assert glue_map(mod, g1, g2).matrix == Matrix.identity(mod.spec, mod.rank)
    assert pullback_ff(mod, RingMap.identity(mod.spec), mod.lift) == mod


def test_shared_zero_and_one_survive_checks_and_gluing(fixture_dir):
    mod, lifts = parse_module_file((fixture_dir / "rank3_p5n2.json").read_text())
    spec, (a, b) = mod.spec, mod.hodge_range
    work_n = work_precision(spec.p, spec.n, b - a)
    work_spec = lifts["Phi"].with_precision(work_n).target
    constants = [(s, RingElem.zero(s), RingElem.one(s)) for s in (spec, work_spec)]
    assert all(RingElem.zero(s) is zero and RingElem.one(s) is one for s, zero, one in constants)
    assert all(run_all_checks(mod).values())
    phi, psi, chi = lifts["Phi"], lifts["Psi"], lifts["Chi"]
    assert check_glue_identity(mod, phi) and check_glue_horizontal(mod, phi, psi)
    for r in [RingElem.one(spec)] + [RingElem.variable(spec, j) for j in range(1, spec.d + 1)]:
        assert check_glue_linearity(mod, phi, psi, r)
    assert check_glue_cocycle(mod, phi, psi, chi)
    for s, zero, one in constants:
        assert RingElem.zero(s) is zero and zero.terms == {}
        assert RingElem.one(s) is one and one.terms == {(0,) * s.d: 1}


def test_run_all_checks_opens_the_gate_only_when_both_checks_pass(fixture_dir, monkeypatch):
    bad, _ = parse_module_file((fixture_dir / "bad_flat_p5n2.json").read_text())
    run_all_checks(bad)
    assert not bad._glue_cache.valid_for_glue
    mod, lifts = parse_module_file((fixture_dir / "rank3_p5n2.json").read_text())
    run_all_checks(mod)
    assert mod._glue_cache.valid_for_glue

    def unexpected(module):
        raise AssertionError("the gate was checked again")
    monkeypatch.setattr(ffmodule_module, "check_flat", unexpected)
    monkeypatch.setattr(ffmodule_module, "check_griffiths", unexpected)
    assert check_glue_identity(mod, lifts["Phi"])


def test_divided_connection_reads_the_unit_inverses_of_the_lift_map(monkeypatch):
    """On a module whose connection lives on every slot, the memoized w_j^-1
    of the lift gives what inverting w_j = 1 + p*u_j afresh gives."""
    base = rank3_chain(5, 2, d=2)
    spec = base.spec
    t1, t2 = RingElem.variable(spec, 1), RingElem.variable(spec, 2)
    mixing = RingMap(spec, spec, [(1, (1, 1), t2 + t1 * t1), (1, (0, 1), t1)])
    mod = pullback_ff(base, mixing, base.lift)
    assert all(v.ok for v in run_all_checks(mod).values())
    assert not any(mat.is_zero() for mat in mod.connection)
    for lift in (random_lift(random.Random(f"winv:{k}"), spec) for k in range(3)):
        w = [RingElem.one(spec) + u.scale(spec.p) for u in lift.u]
        got = divided_connection(mod, lift)
        with monkeypatch.context() as patch:
            patch.setattr(RingMap, "unit_inverse", lambda self, j: w[j - 1].invert_unit())
            assert divided_connection(mod, lift) == got
        assert [lift.unit(j) for j in (1, 2)] == w


def test_package_attribute_is_the_transport_module():
    import importlib

    import logff
    assert logff.transport is importlib.import_module("logff.transport")
    assert logff.transport.transport is transport


# -- the live part of the operator trie, summed by monomial -------------------


def _trie_parent(index):
    """I - e_j0 for the last nonzero slot j0 of I; None for the origin."""
    nonzero = [j for j, i in enumerate(index) if i]
    if not nonzero:
        return None
    j0 = nonzero[-1]
    return index[:j0] + (index[j0] - 1,) + index[j0 + 1:]


def _per_index_columns(module, coeffs, g2, vectors):
    """The gluing formula as a sweep over every index of every shell summed,
    with one map application and one product per (index, row)."""
    a, p = module.hodge_range[0], module.spec.p
    op = falling_connection_op if coeffs.mode == "ratio" else _ordinary_connection_op
    g2_base = g2.with_precision(module.spec.n)
    conn = list(module.connection)
    stop = 1 if coeffs.all_zero else coeffs.stop
    columns = []
    for i, vec in vectors:
        out = [RingElem.zero(coeffs.base_spec)] * module.rank
        for c in range(stop):
            p_exp, lvl = min(i - a, c), max(a, i - c)
            for index in multi_indices(module.spec.d, c):
                w = op(conn, vec, index, memo={})
                coeff = coeffs.coeff(index, p_exp)
                for m, wm in enumerate(w):
                    if module.levels[m] < lvl:
                        torsion = p ** module.basis[m].torsion
                        assert all(x % torsion == 0 for x in wm.terms.values())
                        continue
                    out[m] = out[m] + g2_base.apply(wm).scale(p ** (module.levels[m] - lvl)) * coeff
        columns.append(out)
    return columns


def _r_vectors(module, r):
    """(level_k, r * e_k) for every basis index k: the vectors _glue_columns glues."""
    vectors = []
    for k in range(module.rank):
        vec = [RingElem.zero(module.spec)] * module.rank
        vec[k] = r
        vectors.append((module.levels[k], vec))
    return vectors


def _glue_rs(module, rng):
    """r = 1, whose columns share the module's basis memos, and one random r."""
    return [RingElem.one(module.spec), random_elem(rng, module.spec)]


_SWEEP_CELLS = [(3, 2), (5, 2), (7, 3)]


@pytest.mark.parametrize("p,n", _SWEEP_CELLS)
def test_glue_columns_equal_the_per_index_sweep(p, n):
    modules = corpus(p, n)
    if p >= 5:
        modules.append((f"rank3_d3_p{p}n{n}", rank3_chain(p, n, d=3)))
    rng = random.Random(f"per-index-sweep:{p},{n}")
    compared = 0
    for name, module in modules:
        a, b = module.hodge_range
        spec = module.spec
        modes = ["ratio"] + ["difference"] * (spec.s == 0)
        for mode in modes:
            for g1, g2 in [(random_lift(rng, spec), module.lift),
                           (random_lift(rng, spec), random_lift(rng, spec))]:
                for r in _glue_rs(module, rng):
                    got = transport_module._glue_columns(
                        module, DividedCoeffs(g1, g2, b - a, mode=mode, base_n=n), g2, r)
                    want = _per_index_columns(
                        module, DividedCoeffs(g1, g2, b - a, mode=mode, base_n=n), g2,
                        _r_vectors(module, r))
                    assert got == want, (name, mode, str(r))
                    compared += module.rank
    assert compared > 0


def _mixing_map(spec):
    """T_j -> T_j T_{j+1} (1 + p (T_{j+1} + T_j^2)) on a d = 2 chart: a map
    that mixes the slots, so the pullback's connection lives on both."""
    t1, t2 = RingElem.variable(spec, 1), RingElem.variable(spec, 2)
    return RingMap(spec, spec, [(1, (1, 1), t2 + t1 * t1), (1, (0, 1), t1)])


@pytest.mark.parametrize("name,factory", [
    ("rank3_d3", lambda: rank3_chain(7, 3, d=3)),
    ("nil2_d2s1", lambda: nil2(5, 2, d=2, s=1)),
    ("pullback_d2", lambda: pullback_ff(rank3_chain(5, 2, d=2), _mixing_map(RingSpec(5, 2, 2, 2)),
                                        FrobLift.standard(RingSpec(5, 2, 2, 2)))),
    ("transported_d2", lambda: transport(nil2(5, 2, d=2, s=1),
                                         random_lift(random.Random(5), RingSpec(5, 2, 2, 1)))),
])
def test_operator_is_called_exactly_below_live_parents(name, factory, monkeypatch):
    """The sum calls the operator once for every index whose trie parent has a
    nonzero operator vector (and the origin), and never for any other."""
    module = factory()
    spec, (a, b) = module.spec, module.hodge_range
    rng = random.Random(f"live-parents:{name}")
    g1, g2 = random_lift(rng, spec), random_lift(rng, spec)
    coeffs = DividedCoeffs(g1, g2, b - a, base_n=spec.n)
    assert not coeffs.all_zero
    rs = _glue_rs(module, rng)
    calls = []
    real = transport_module.falling_connection_op
    monkeypatch.setattr(transport_module, "falling_connection_op",
                        lambda conn, vec, index, *, memo:
                        calls.append((tuple(vec), index)) or real(conn, vec, index, memo=memo))
    for r in rs:
        transport_module._glue_columns(module, coeffs, g2, r)
    monkeypatch.undo()
    vectors = [pair for r in rs for pair in _r_vectors(module, r)]
    conn = list(module.connection)
    skipped = 0
    for _, vec in vectors:
        called = [index for v, index in calls if v == tuple(vec)]
        assert len(called) == len(set(called))
        live = set()
        for c in range(coeffs.stop):
            for index in multi_indices(spec.d, c):
                parent = _trie_parent(index)
                if parent is None or any(x.terms for x in falling_connection_op(conn, vec, parent)):
                    live.add(index)
                else:
                    skipped += 1
        assert set(called) == live
    assert skipped > 0   # the module has zero parents, so the skip is exercised


def test_first_difference_reads_each_row_mod_its_torsion():
    """On mixed_torsion the first row has torsion 1 = n - 1: a change by p
    there is no difference, a change by 1 is, and the full-torsion row sees a
    change by p^(n-1)."""
    module = mixed_torsion(5, 2)
    spec, torsions = module.spec, module.torsions
    assert torsions == [1, 2]
    rng = random.Random("first-difference")
    G = glue_map(module, random_lift(rng, spec), random_lift(rng, spec)).matrix

    def bumped(i, k, c):
        rows = [list(row) for row in G.rows]
        rows[i][k] = rows[i][k] + RingElem.const(spec, c)
        return Matrix(spec, rows)

    assert G.first_difference(bumped(0, 1, spec.p), torsions) is None
    assert G.first_difference(bumped(0, 1, 1), torsions) == (0, 1)
    assert G.first_difference(bumped(1, 0, spec.p), torsions) == (1, 0)
    assert G.eq_mod_rows(bumped(0, 0, 3 * spec.p), torsions)
    assert not G.eq_mod_rows(bumped(1, 1, 3 * spec.p), torsions)


_UNIT_CELLS = [(p, n, d, s) for p in (3, 5, 7) for n in range(1, 5)
               for d in (1, 2) for s in range(d + 1)]


@pytest.mark.parametrize("p,n,d,s", _UNIT_CELLS)
def test_taylor_residual_is_the_unit_module_gluing(p, n, d, s, monkeypatch):
    """taylor_residual(r, Phi, Psi) = Phi(r) - the gluing column of the unit module
    O = (R, zero connection, level 0, phi = 1) at r.  The falling tables of the one
    and falling_connection_op on O in the other feed the same shell-sum engine, and
    both request the same coefficients in the same order."""
    unit = rank1_flat(p, n, d, s)
    spec = unit.spec
    rng = random.Random(f"unit-module:{p},{n},{d},{s}")
    requests = []
    real = DividedCoeffs.coeff
    monkeypatch.setattr(DividedCoeffs, "coeff",
                        lambda self, index, e: requests.append((index, e)) or real(self, index, e))
    for _ in range(5):
        r = random_elem(rng, spec)
        phi, psi = random_lift(rng, spec), random_lift(rng, spec)
        residual = taylor_residual(r, phi, psi)
        taylor_requests = requests[:]
        requests.clear()
        column = transport_module._glue_columns(unit, DividedCoeffs(phi, psi, 0), psi, r)
        assert residual == phi.apply(r) - column[0][0]
        assert requests == taylor_requests
        requests.clear()
