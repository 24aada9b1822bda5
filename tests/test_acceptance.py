"""Acceptance criteria: one pass/fail line per criterion (run with -s to see them).

All tolerances are exact equality mod p^n; the whole suite targets a single
commodity core in well under two minutes.
"""

import random
import time

from logff.exactnum import NonIntegralError
from logff.ffmodule import (
    reduce_mod_pm,
    root_map,
    root_pullback,
    run_all_checks,
    tilde_embed,
)
from logff.fixtures import (
    check_corpus,
    glue_corpus,
    nil2,
    random_elem,
    random_lift,
)
from logff.logring import FrobLift, RingElem, RingMap
from logff.matrices import Matrix
from logff.selftest import _coeff_section, _negative_section, _taylor_section, run_selftest
from logff.transport import (
    check_glue_cocycle,
    check_glue_horizontal,
    check_glue_identity,
    check_glue_linearity,
    check_nonlog_agreement,
    check_pullback_functorial,
    glue_map,
    modules_equal,
    pullback_ff,
    transport,
)

from oracle import glue_matrix_constant

GRID_PN = [(3, 1), (3, 2), (5, 1), (5, 2)]


def _verdict(name, failures, started):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    print(f"{name}: {status} ({elapsed:.1f}s)")
    assert not failures, f"{name}: {failures[:5]}"


def _acceptance_fixtures():
    out = []
    for p, n in GRID_PN:
        out.extend(glue_corpus(p, n))
    return out


def _run_section(section, failures):
    """Run a selftest section; its assertion message becomes a failure."""
    try:
        section()
    except AssertionError as exc:
        failures.append(str(exc))


def test_a1_coefficient_lemma():
    started = time.perf_counter()
    failures = []
    _run_section(lambda: _coeff_section(max_mn=8), failures)
    _verdict("A1 (coefficient lemma)", failures, started)


def test_a2_log_taylor_formula():
    started = time.perf_counter()
    failures = []
    _run_section(lambda: _taylor_section(ns=(1, 2, 3), per_cell=100, seed=0xA2), failures)
    _verdict("A2 (logarithmic Taylor formula)", failures, started)


def test_a3_identity_bullet():
    started = time.perf_counter()
    failures = []
    rng = random.Random(0xA3)
    for name, mod in _acceptance_fixtures():
        for lift in (mod.lift, random_lift(rng, mod.spec)):
            if not check_glue_identity(mod, lift):
                failures.append(name)
    _verdict("A3 (identity bullet)", failures, started)


def test_a4_transitivity_bullet():
    started = time.perf_counter()
    failures = []
    rng = random.Random(0xA4)
    for name, mod in _acceptance_fixtures():
        for _ in range(50):
            l1, l2, l3 = (random_lift(rng, mod.spec) for _ in range(3))
            if not check_glue_cocycle(mod, l1, l2, l3):
                failures.append(name)
                break
    _verdict("A4 (transitivity bullet, 50 triples per fixture)", failures, started)


def test_a5_well_definedness_bullet():
    started = time.perf_counter()
    failures = []
    rng = random.Random(0xA5)
    for name, mod in _acceptance_fixtures():
        l1, l2 = random_lift(rng, mod.spec), random_lift(rng, mod.spec)
        g = glue_map(mod, l1, l2)
        for _ in range(100):
            r = random_elem(rng, mod.spec)
            if not check_glue_linearity(mod, l1, l2, r, glue=g):
                failures.append(name)
                break
    _verdict("A5 (well-definedness, 100 elements per fixture/lift pair)",
             failures, started)


def test_a6_parallelism_bullet():
    started = time.perf_counter()
    failures = []
    rng = random.Random(0xA6)
    for name, mod in _acceptance_fixtures():
        l1, l2 = random_lift(rng, mod.spec), random_lift(rng, mod.spec)
        if not check_glue_horizontal(mod, l1, l2):
            failures.append(name)
    _verdict("A6 (parallelism bullet)", failures, started)


def test_a7_transport_equivalence():
    started = time.perf_counter()
    failures = []
    rng = random.Random(0xA7)
    for name, mod in _acceptance_fixtures():
        assert all(v.ok for v in run_all_checks(mod).values()), name
        lift = random_lift(rng, mod.spec)
        moved = transport(mod, lift)
        if not all(v.ok for v in run_all_checks(moved).values()):
            failures.append(f"{name}: transported module fails a check")
        if not modules_equal(transport(moved, mod.lift), mod):
            failures.append(f"{name}: double transport differs")
    _verdict("A7 (transport is an equivalence, object level)", failures, started)


def test_a8_nonlog_agreement():
    started = time.perf_counter()
    failures = []
    rng = random.Random(0xA8)
    count = 0
    for name, mod in _acceptance_fixtures():
        if mod.spec.s != 0:
            continue
        count += 1
        l1, l2 = random_lift(rng, mod.spec), random_lift(rng, mod.spec)
        if not check_nonlog_agreement(mod, l1, l2):
            failures.append(name)
    assert count >= 4
    _verdict("A8 (non-log agreement on s=0 fixtures)", failures, started)


def test_a9_pole_killing():
    started = time.perf_counter()
    failures = []
    for p, n in GRID_PN:
        for name, mod in check_corpus(p, n):
            for depth in {1, mod.spec.n}:
                reduced = reduce_mod_pm(mod, min(depth, mod.spec.n))
                rolled = root_pullback(reduced, depth)
                for j in range(rolled.spec.s):
                    if not rolled.connection[j].is_zero():
                        failures.append(f"{name} depth {depth} slot {j + 1}")
    pinned = root_pullback(nil2(5, 1), 1)
    if not all(mat.is_zero() for mat in pinned.connection):
        failures.append("nil2 p=5 n=1 depth 1: connection not identically 0")
    _verdict("A9 (root-cover pole killing)", failures, started)


def test_a10_pullback_functoriality():
    started = time.perf_counter()
    failures = []
    rng = random.Random(0xA10)
    pairs = 0
    for p, n in [(3, 1), (3, 2), (5, 1), (5, 2)]:
        mod = nil2(p, n)
        spec = mod.spec
        zero = RingElem.zero(spec)
        t = RingElem.variable(spec, 1)
        ident = RingMap.identity(spec)
        maps = [ident,
                RingMap(spec, spec, [(2, (1,), zero)]),
                RingMap(spec, spec, [(1, (1,), t)]),
                root_map(spec, n)]
        if not modules_equal(pullback_ff(mod, ident, mod.lift), mod):
            failures.append(f"identity pullback p={p} n={n}")
        for f in maps:
            for g in maps:
                mid, fin = random_lift(rng, spec), random_lift(rng, spec)
                pairs += 1
                if not check_pullback_functorial(mod, f, g, mid, fin):
                    failures.append(f"p={p} n={n}")
    assert pairs >= 10
    _verdict(f"A10 (pullback functoriality, {pairs} map pairs)", failures, started)


def test_a11_structure_checks():
    started = time.perf_counter()
    failures = []
    rng = random.Random(0xA11)
    # tilde relation emb_i = p * emb_{i+1} on Fil^{i+1}
    for p, n in GRID_PN:
        for name, mod in check_corpus(p, n):
            a, b = mod.hodge_range
            for i in range(a, b):
                vec = [random_elem(rng, mod.spec) if v.level >= i + 1
                       else RingElem.zero(mod.spec) for v in mod.basis]
                lhs = tilde_embed(mod, vec, i)
                rhs = [x.scale(mod.spec.p) for x in tilde_embed(mod, vec, i + 1)]
                if not all(le.eq_mod(ri, v.torsion)
                           for le, ri, v in zip(lhs, rhs, mod.basis)):
                    failures.append(f"tilde relation: {name} level {i}")
    # NIL2 with F = identity passes all four checks
    results = run_all_checks(nil2(5, 2))
    if not all(v.ok for v in results.values()):
        failures.append("nil2 does not pass all checks")
    # negative controls fail exactly the intended check
    _run_section(_negative_section, failures)
    _verdict("A11 (structure checks and negative controls)", failures, started)


def test_a12_pinned_glue_value():
    started = time.perf_counter()
    failures = []
    # the independent exact-rational shell-summation oracle comes first
    oracle = glue_matrix_constant(5, 1, levels=[0, 1], hodge_a=0,
                                  connections=[[[0, 1], [0, 0]]], u1=[0], u2=[1])
    if oracle != [[1, 4], [0, 1]]:
        failures.append(f"oracle disagrees: {oracle}")
    mod = nil2(5, 1)
    phi = FrobLift.standard(mod.spec)
    psi = FrobLift(mod.spec, [RingElem.one(mod.spec)])
    got = glue_map(mod, phi, psi).matrix
    if got != Matrix.from_ints(mod.spec, [[1, 4], [0, 1]]):
        failures.append(f"glue_map disagrees: {got}")
    _verdict("A12 (pinned gluing matrix [[1,4],[0,1]])", failures, started)


def test_a13_integrality():
    started = time.perf_counter()
    failures = []
    # the full verification grid must complete without a single NonIntegral
    # division; the selftest sections catch and report them individually
    try:
        report = run_selftest(quick=False)
    except NonIntegralError as exc:
        failures.append(f"NonIntegral escaped: {exc}")
    else:
        for name, section in report["sections"].items():
            if "non_integral" in section:
                failures.append(f"{name}: {section['non_integral']}")
            if not section["ok"]:
                failures.append(f"{name}: section failed")
    _verdict("A13 (no NonIntegral divisions across the grid)", failures, started)
