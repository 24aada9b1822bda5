import json
import random

import pytest

from logff.exactnum import NonIntegralError
from logff.ffcoeff import multi_structure_constants
from logff.ffmodule import (
    BasisVector,
    _canonical_rows,
    _reduce_entry,
    ElementNotInFilError,
    InvariantViolationError,
    LogFFModule,
    check_flat,
    check_griffiths,
    check_horizontal,
    check_strong_div,
    divided_connection,
    falling_connection_op,
    reduce_mod_pm,
    root_pullback,
    run_all_checks,
    tilde_embed,
)
from logff.fixtures import (
    corpus,
    mixed_torsion,
    negative_controls,
    nil2,
    pulled_back_nil2,
    rank1_flat,
    rank3_chain,
    random_elem,
    random_lift,
)
from logff.logring import FrobLift, RingElem, RingSpec, multi_indices, stop_shell
from logff.matrices import Matrix
from logff.modfile import parse_module_file
from logff.transport import transport


def _nilmat(spec):
    return Matrix.from_ints(spec, [[0, 1], [0, 0]])


class TestFlat:
    def test_nil2_with_second_slot(self):
        mod = nil2(5, 1, d=2, s=1)
        assert check_flat(mod).ok

    def test_t2_curvature_fails(self):
        spec = RingSpec(5, 1, 2, 2)
        t2 = RingElem.variable(spec, 2)
        a1 = Matrix(spec, [[RingElem.zero(spec), t2],
                           [RingElem.zero(spec), RingElem.zero(spec)]])
        mod = LogFFModule(spec, (0, 1),
                          [BasisVector("e0", 0, 1), BasisVector("e1", 1, 1)],
                          [a1, Matrix.zeros(spec, 2, 2)],
                          FrobLift.standard(spec), Matrix.identity(spec, 2))
        res = check_flat(mod)
        assert not res.ok
        assert res.failures[0]["slot_pair"] == (1, 2)

    def test_zero_connection(self):
        assert check_flat(rank1_flat(3, 2, d=2)).ok


class TestGriffiths:
    def test_nil2(self):
        assert check_griffiths(nil2(5, 1)).ok

    def test_level_gap_fails(self):
        spec = RingSpec(5, 1, 1, 1)
        mod = LogFFModule(spec, (0, 2),
                          [BasisVector("e0", 0, 1), BasisVector("e1", 2, 1)],
                          [_nilmat(spec)], FrobLift.standard(spec),
                          Matrix.identity(spec, 2))
        res = check_griffiths(mod)
        assert not res.ok and res.failures[0] == {"slot": 1, "row": 0, "col": 1}

    def test_zero_connection(self):
        assert check_griffiths(rank1_flat(3, 1)).ok


class TestTilde:
    def test_defining_relation(self):
        mod = nil2(5, 2)
        spec = mod.spec
        e1 = [RingElem.zero(spec), RingElem.one(spec)]
        assert tilde_embed(mod, e1, 0) == [RingElem.zero(spec), RingElem.const(spec, 5)]
        assert tilde_embed(mod, e1, 1) == [RingElem.zero(spec), RingElem.one(spec)]
        both = [RingElem.one(spec), RingElem.one(spec)]
        assert tilde_embed(mod, both, 0) == [RingElem.one(spec), RingElem.const(spec, 5)]

    def test_not_in_fil(self):
        mod = nil2(5, 2)
        e0 = [RingElem.one(mod.spec), RingElem.zero(mod.spec)]
        with pytest.raises(ElementNotInFilError):
            tilde_embed(mod, e0, 1)

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (5, 3)])
    def test_tilde_relation_on_corpus(self, p, n):
        # emb_i = p * emb_{i+1} on Fil^{i+1}, for all fixtures and levels
        rng = random.Random(p + n)
        for name, mod in corpus(p, n):
            a, b = mod.hodge_range
            for i in range(a, b):
                vec = [random_elem(rng, mod.spec) if v.level >= i + 1
                       else RingElem.zero(mod.spec) for v in mod.basis]
                lhs = tilde_embed(mod, vec, i)
                rhs = [x.scale(mod.spec.p) for x in tilde_embed(mod, vec, i + 1)]
                for le, ri, v in zip(lhs, rhs, mod.basis):
                    assert le.eq_mod(ri, v.torsion), name


class TestDividedConnection:
    def test_nil2_standard_lift(self):
        mod = nil2(5, 2)
        assert divided_connection(mod)[0] == mod.connection[0]

    def test_rank1_zero_connection(self):
        mod = rank1_flat(3, 2)
        assert divided_connection(mod)[0].is_zero()

    def test_rank1_level0_dlog(self):
        # nabla(e) = e (x) dlog T over s=0: divided connection is p * Phi-image
        spec = RingSpec(5, 2, 1, 0)
        mod = LogFFModule(spec, (0, 0), [BasisVector("e", 0, 2)],
                          [Matrix.from_ints(spec, [[1]])], FrobLift.standard(spec),
                          Matrix.from_ints(spec, [[1]]))
        out = divided_connection(mod)
        assert out[0].entry(0, 0) == RingElem.const(spec, 5)

    def test_never_nonintegral_when_griffiths_holds(self):
        for p, n in [(3, 1), (3, 2), (5, 2)]:
            for name, mod in corpus(p, n):
                divided_connection(mod)  # must not raise

    def test_nonintegral_on_griffiths_violation(self):
        spec = RingSpec(5, 1, 1, 1)
        mod = LogFFModule(spec, (0, 2),
                          [BasisVector("e0", 0, 1), BasisVector("e1", 2, 1)],
                          [_nilmat(spec)], FrobLift.standard(spec),
                          Matrix.identity(spec, 2))
        for _ in range(3):
            with pytest.raises(NonIntegralError):
                divided_connection(mod)

    def test_memo_equals_an_uncached_computation_on_every_fixture(self, fixture_dir):
        """On every shipped module file and each of its lifts (and the module's
        own), divided_connection equals the entrywise formula, NonIntegralError
        included."""
        files = refused = 0
        for path in sorted(fixture_dir.glob("*.json")):
            text = path.read_text()
            try:
                doc = json.loads(text)
            except json.JSONDecodeError:
                continue
            if "lifts" not in doc:
                continue   # a map file
            files += 1
            # the wide-range flag only lifts the weight-width cap, which wide_p3n2 needs
            mod, lifts = parse_module_file(text, wide_range=True)
            for name in sorted(lifts) + [None]:
                lift = lifts[name] if name else mod.lift
                got = _divided_outcome(divided_connection, mod, lift)
                assert got == _divided_outcome(_naive_divided_connection, mod, lift), \
                    (path.name, name)
                if isinstance(got, str):
                    assert path.name.startswith("bad_griffiths"), (path.name, got)
                    refused += 1
        assert files == 11 and refused > 0   # bad_griffiths is not integral


def _naive_divided_connection(mod, lift):
    """The divided connection entry by entry, with every term of the bracket:
    Phi(A_j[i,k]) mapped anew for every l, and every frame correction
    delta_l(u_j) * w_j^{-1} built, zero or not, from w_j = 1 + p*u_j."""
    spec = mod.spec
    p, d, r = spec.p, spec.d, mod.rank
    one = RingElem.one(spec)
    winv = [(one + u.scale(p)).invert_unit() for u in lift.u]
    out = []
    for l in range(d):
        rows = []
        for i in range(r):
            pm = p ** mod.basis[i].torsion
            row = []
            for k in range(r):
                bracket = lift.apply(mod.connection[l].entry(i, k))
                for j in range(d):
                    correction = lift.u[j].log_derive(l + 1) * winv[j]
                    bracket = bracket + lift.apply(mod.connection[j].entry(i, k)) * correction
                exponent = mod.levels[i] - mod.levels[k] + 1
                if exponent < 0:
                    if any(c % pm for c in bracket.terms.values()):
                        raise NonIntegralError(
                            f"divided connection entry ({i},{k}) needs division by p^{-exponent}")
                    bracket = RingElem.zero(spec)
                row.append(RingElem(spec, {e: c * p ** max(exponent, 0) % pm
                                           for e, c in bracket.terms.items()}))
            rows.append(row)
        out.append(Matrix(spec, rows))
    return out


def _divided_outcome(fn, mod, lift):
    try:
        return fn(mod, lift)
    except NonIntegralError as exc:
        return str(exc)


def _reference_lifts(spec, rng):
    """The module's own lift, the standard one and seeded random ones, among
    them u_1 = 0 (the slot of every chain's connection), a constant u_j
    (delta_l(u_j) = 0 with u_j != 0) and, at d > 1, nonzero u_j on the slots
    whose connection is zero."""
    zero, one = RingElem.zero(spec), RingElem.one(spec)
    lifts = [FrobLift.standard(spec)]
    for _ in range(2):
        lifts.append(random_lift(rng, spec))
        rest = [random_elem(rng, spec, max_terms=3, max_exp=2) for _ in range(spec.d - 1)]
        lifts.append(FrobLift(spec, [zero] + rest))
        lifts.append(FrobLift(spec, [one] + rest))
    return lifts


class TestDividedConnectionReference:
    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (7, 3)])
    def test_corpus_matches_the_entrywise_formula(self, p, n):
        rng = random.Random(f"divided-reference-{p}-{n}")
        for name, mod in corpus(p, n):
            for lift in [mod.lift] + _reference_lifts(mod.spec, rng):
                got = divided_connection(mod, lift)
                assert got == _naive_divided_connection(mod, lift), (name, lift.u)

    @pytest.mark.parametrize("p,n", [(5, 2), (7, 3)])
    def test_rank3_chain_d3_matches_the_entrywise_formula(self, p, n):
        mod = rank3_chain(p, n, d=3)
        rng = random.Random(f"divided-reference-d3-{p}-{n}")
        for lift in _reference_lifts(mod.spec, rng):
            assert divided_connection(mod, lift) == _naive_divided_connection(mod, lift)

    def test_nonintegral_error_is_unchanged(self):
        for p, n in [(5, 2), (7, 3)]:
            mod = next(m for name, m, _ in negative_controls(p, n)
                       if name == "griffiths_level_gap")
            for lift in _reference_lifts(mod.spec, random.Random(f"divided-raise-{p}")):
                got = _divided_outcome(divided_connection, mod, lift)
                assert isinstance(got, str) and "needs division by p^1" in got
                assert got == _divided_outcome(_naive_divided_connection, mod, lift)


class TestFullTorsion:
    def test_reduce_entry_returns_its_input_from_torsion_n_on(self):
        spec = RingSpec(5, 3, 2, 1)
        x = random_elem(random.Random("full-torsion"), spec)
        assert _reduce_entry(x, 3) is x
        low = _reduce_entry(x, 1)
        assert low == RingElem(spec, {e: c % 5 for e, c in x.terms.items()}) and low != x

    def test_canonical_rows_return_the_matrix_at_full_torsion(self):
        for name, mod in corpus(5, 2):
            for mat in (mod.frobenius,) + mod.connection:
                if min(mod.torsions) == mod.spec.n:
                    assert _canonical_rows(mat, mod.torsions) is mat, name

    def test_mixed_torsion_still_reduces(self):
        mod = mixed_torsion(5, 2)
        spec = mod.spec
        assert mod.torsions == [1, 2]
        raw = Matrix(spec, [[RingElem.const(spec, 7), RingElem.const(spec, 13)],
                            [RingElem.const(spec, 7), RingElem.const(spec, 13)]])
        got = _canonical_rows(raw, mod.torsions)
        assert got is not raw
        assert got == Matrix.from_ints(spec, [[2, 3], [7, 13]])
        # the module stores row 0 reduced mod 5: 6 * identity has Frobenius 1 on e0
        six = LogFFModule(spec, mod.hodge_range, mod.basis, list(mod.connection), mod.lift,
                          Matrix.from_ints(spec, [[6, 0], [0, 6]]))
        assert six.frobenius.entry(0, 0) == RingElem.one(spec)
        assert six.frobenius.entry(1, 1) == RingElem.const(spec, 6)


class TestHorizontal:
    def test_nil2_identity(self):
        assert check_horizontal(nil2(5, 2)).ok

    def test_unit_twist_fails(self):
        spec = RingSpec(5, 2, 1, 1)
        mod = LogFFModule(spec, (0, 1),
                          [BasisVector("e0", 0, 2), BasisVector("e1", 1, 2)],
                          [_nilmat(spec)], FrobLift.standard(spec),
                          Matrix.from_ints(spec, [[1, 0], [0, 6]]))
        res = check_horizontal(mod)
        assert not res.ok
        assert res.failures[0] == {"slot": 1, "row": 0, "col": 1}

    def test_rank1_constant(self):
        assert check_horizontal(rank1_flat(3, 2, unit=2)).ok

    def test_failure_on_a_laurent_slot_names_it(self):
        # F = T_2 commutes with the zero connection, but delta_2(F) = T_2 != 0
        mod = rank1_flat(5, 2, d=2, s=1)
        mod = mod.with_frobenius(Matrix(mod.spec, [[RingElem.variable(mod.spec, 2)]]), mod.lift)
        assert check_griffiths(mod).ok
        assert check_horizontal(mod).failures == [{"slot": 2, "row": 0, "col": 0}]


class TestStrongDiv:
    def test_identity(self):
        assert check_strong_div(nil2(5, 1)).ok

    def test_p_identity_fails(self):
        spec = RingSpec(5, 2, 1, 1)
        mod = LogFFModule(spec, (0, 1),
                          [BasisVector("e0", 0, 2), BasisVector("e1", 1, 2)],
                          [_nilmat(spec)], FrobLift.standard(spec),
                          Matrix.from_ints(spec, [[5, 0], [0, 5]]))
        assert not check_strong_div(mod).ok

    def test_divisor_monomial_fails_laurent_passes(self):
        for s, expect in [(1, False), (0, True)]:
            spec = RingSpec(5, 1, 1, s)
            mod = LogFFModule(spec, (0, 1),
                              [BasisVector("e0", 0, 1), BasisVector("e1", 1, 1)],
                              [_nilmat(spec)], FrobLift.standard(spec),
                              Matrix(spec, [[RingElem.variable(spec, 1), RingElem.zero(spec)],
                                            [RingElem.zero(spec), RingElem.one(spec)]]))
            assert check_strong_div(mod).ok is expect

    def test_mixed_torsion_blocks(self):
        mod = mixed_torsion(5, 2)
        assert check_strong_div(mod).ok
        bad = LogFFModule(mod.spec, mod.hodge_range, mod.basis, list(mod.connection),
                          mod.lift, Matrix.from_ints(mod.spec, [[1, 0], [0, 5]]))
        assert not check_strong_div(bad).ok


class TestReduceModPm:
    def test_examples(self):
        mod = nil2(5, 2)
        red = reduce_mod_pm(mod, 1)
        assert red.spec.n == 1
        assert red == nil2(5, 1)
        assert reduce_mod_pm(mod, 2) == mod

    def test_connection_entry_reduction(self):
        spec = RingSpec(5, 2, 1, 0)
        entry = RingElem.const(spec, 5) + RingElem.variable(spec, 1)
        mod = LogFFModule(spec, (0, 1),
                          [BasisVector("e0", 0, 2), BasisVector("e1", 1, 2)],
                          [Matrix(spec, [[RingElem.zero(spec), entry],
                                         [RingElem.zero(spec), RingElem.zero(spec)]])],
                          FrobLift.standard(spec), Matrix.identity(spec, 2))
        red = reduce_mod_pm(mod, 1)
        assert red.connection[0].entry(0, 1) == RingElem.variable(red.spec, 1)

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2)])
    def test_reduction_commutes_with_checks(self, p, n):
        for name, mod in corpus(p, n):
            for m in range(1, n):
                red = reduce_mod_pm(mod, m)
                results = run_all_checks(red)
                assert all(v.ok for v in results.values()), (name, m)

    def test_reduction_preserves_negative_verdicts_shape(self):
        for name, mod, expected in negative_controls(5, 2):
            if expected == "horizontal":
                continue  # diag(1, 1+p) is the identity at precision 1
            red = reduce_mod_pm(mod, 1)
            results = run_all_checks(red)
            failing = [k for k, v in results.items() if not v.ok and not v.skipped]
            assert failing == [expected], name


class TestOperatorIdentity:
    @pytest.mark.parametrize("modfactory", [
        lambda: nil2(5, 1),
        lambda: nil2(5, 2, d=2, s=1),
        lambda: nil2(3, 2, d=2, s=2),
        lambda: pulled_back_nil2(5, 2),
    ])
    def test_structure_constants_on_connection(self, modfactory):
        # nabla-operator composition realizes the falling-basis constants,
        # on constant and nonconstant flat connections alike
        mod = modfactory()
        d = mod.spec.d
        conn = list(mod.connection)
        rng = random.Random(mod.spec.p * 10 + d)
        indices = [idx for c in range(4) for idx in multi_indices(d, c)]
        for _ in range(10):
            vec = [random_elem(rng, mod.spec) for _ in range(mod.rank)]
            for I in indices:
                for J in indices:
                    lhs = falling_connection_op(conn, falling_connection_op(conn, vec, J), I)
                    rhs = [RingElem.zero(mod.spec) for _ in range(mod.rank)]
                    for K, a in multi_structure_constants(I, J).items():
                        term = falling_connection_op(conn, vec, K)
                        rhs = [x + t.scale(a) for x, t in zip(rhs, term)]
                    assert lhs == rhs, (I, J)


def _memo_corpus():
    out = corpus(5, 2)
    base = nil2(5, 2, d=2, s=1)
    out.append(("transported", transport(base, random_lift(random.Random(17), base.spec))))
    return out


# the names of _memo_corpus(), spelled out so that collecting this file builds
# no module: a fault in ring arithmetic then fails the tests that need the
# corpus one by one instead of hiding the whole file behind a collection error
MEMO_NAMES = ["nil2_p5n2", "nil2_s0_p5n2", "nil2_d2s1_p5n2", "rank1_p5n2", "rank1_u2_p5n2",
              "rank1_s0_p5n2", "transported_p5n2", "rank3_p5n2", "shifted_p5n2",
              "mixed_p5n2", "pullback_p5n2", "transported"]


@pytest.fixture(scope="module")
def memo_corpus():
    return dict(_memo_corpus())


def test_memo_names_are_the_memo_corpus(memo_corpus):
    assert MEMO_NAMES == list(memo_corpus)


class TestOperatorMemo:
    @pytest.mark.parametrize("name", MEMO_NAMES)
    def test_memo_equals_direct_below_stop_shell(self, name, memo_corpus):
        mod = memo_corpus[name]
        a, b = mod.hodge_range
        stop = stop_shell(mod.spec.p, mod.spec.n, b - a)
        indices = [idx for c in range(stop) for idx in multi_indices(mod.spec.d, c)]
        conn = list(mod.connection)
        r = random_elem(random.Random(name), mod.spec)
        zero, one = RingElem.zero(mod.spec), RingElem.one(mod.spec)
        vectors = [[one if m == k else zero for m in range(mod.rank)] for k in range(mod.rank)]
        vectors.append([zero] * (mod.rank - 1) + [r])
        for vec in vectors:
            in_order, shuffled = {}, {}
            for idx in indices:
                assert falling_connection_op(conn, vec, idx, memo=in_order) == \
                    falling_connection_op(conn, vec, idx), idx
            # out of shell order the memo fills in missing ancestors itself
            for idx in random.Random(3).sample(indices, len(indices)):
                assert falling_connection_op(conn, vec, idx, memo=shuffled) == in_order[idx]
            assert shuffled.keys() == in_order.keys()


class TestRootPullback:
    def test_nil2_poles_vanish(self):
        rp = root_pullback(nil2(5, 1), 1)
        assert rp.connection[0].is_zero()
        assert all(v.ok for v in run_all_checks(rp).values())

    def test_s0_plain_substitution(self):
        mod = nil2(5, 1, d=1, s=0)
        rp = root_pullback(mod, 1)
        assert rp.connection[0] == mod.connection[0]

    def test_depth_zero_identity(self):
        mod = nil2(5, 2)
        assert root_pullback(mod, 0) == mod

    def test_precision_guard(self):
        with pytest.raises(InvariantViolationError):
            root_pullback(nil2(5, 2), 1)


class TestConstructorInvariants:
    def test_weight_width_enforced(self):
        spec = RingSpec(3, 1, 1, 1)
        basis = [BasisVector("e0", 0, 1), BasisVector("e1", 2, 1)]
        conn = [Matrix.zeros(spec, 2, 2)]
        with pytest.raises(InvariantViolationError):
            LogFFModule(spec, (0, 2), basis, conn, FrobLift.standard(spec),
                        Matrix.identity(spec, 2))
        LogFFModule(spec, (0, 2), basis, conn, FrobLift.standard(spec),
                    Matrix.identity(spec, 2), wide_range=True)

    def test_torsion_divisibility(self):
        spec = RingSpec(5, 2, 1, 1)
        basis = [BasisVector("e0", 0, 2), BasisVector("e1", 1, 1)]
        conn = [Matrix.zeros(spec, 2, 2)]
        with pytest.raises(InvariantViolationError):
            # entry into the torsion-2 row from the torsion-1 column must be
            # divisible by p
            LogFFModule(spec, (0, 1), basis, conn, FrobLift.standard(spec),
                        Matrix.from_ints(spec, [[1, 1], [0, 1]]))
        # divisible entry is accepted
        LogFFModule(spec, (0, 1), basis, conn, FrobLift.standard(spec),
                    Matrix.from_ints(spec, [[1, 5], [0, 1]]))

    def test_level_range(self):
        spec = RingSpec(5, 1, 1, 1)
        with pytest.raises(InvariantViolationError):
            LogFFModule(spec, (0, 1), [BasisVector("e", 2, 1)],
                        [Matrix.zeros(spec, 1, 1)], FrobLift.standard(spec),
                        Matrix.identity(spec, 1))
