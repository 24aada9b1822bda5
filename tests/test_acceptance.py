"""Acceptance criteria: one pass/fail line per criterion (run with -s to see them).

A1-A11 run the `logff.selftest` sections, at larger sizes than `logff selftest`.
All tolerances are exact equality mod p^n; the whole suite targets a single
commodity core in well under two minutes.
"""

import random
import time

from logff import selftest as grid
from logff.ffmodule import tilde_embed
from logff.fixtures import corpus, nil2, random_elem
from logff.logring import FrobLift, RingElem
from logff.matrices import Matrix
from logff.selftest import GRID_PN
from logff.transport import glue_map

from oracle import glue_matrix_constant


def _verdict(name, failures, started):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    print(f"{name}: {status} ({elapsed:.1f}s)")
    assert not failures, f"{name}: {failures[:5]}"


def _run_section(section, failures, *args, **kwargs):
    """Run a selftest section; its assertion message becomes a failure."""
    try:
        return section(*args, **kwargs)
    except AssertionError as exc:
        failures.append(str(exc))
        return {}


def _criterion(name, section, *args, **kwargs):
    """A criterion that is one selftest section; returns the section's counters."""
    started = time.perf_counter()
    failures = []
    detail = _run_section(section, failures, *args, **kwargs)
    _verdict(name, failures, started)
    return detail


def test_a1_coefficient_lemma():
    _criterion("A1 (coefficient lemma)", grid._coeff_section, max_mn=8)


def test_a2_log_taylor_formula():
    _criterion("A2 (logarithmic Taylor formula)", grid._taylor_section,
               ns=(1, 2, 3), per_cell=100, seed=0xA2)


def test_a3_identity_bullet():
    _criterion("A3 (identity bullet)", grid._identity_section, GRID_PN, 1, seed=0xA3)


def test_a4_transitivity_bullet():
    _criterion("A4 (transitivity bullet, 50 triples per fixture)",
               grid._cocycle_section, GRID_PN, 50, seed=0xA4)


def test_a5_well_definedness_bullet():
    _criterion("A5 (well-definedness, 100 elements per fixture/lift pair)",
               grid._linearity_section, GRID_PN, 1, 100, seed=0xA5)


def test_a6_parallelism_bullet():
    _criterion("A6 (parallelism bullet)", grid._horizontal_section, GRID_PN, 1, seed=0xA6)


def test_a7_transport_equivalence():
    _criterion("A7 (transport is an equivalence, object level)",
               grid._transport_section, GRID_PN, 1, seed=0xA7)


def test_a8_nonlog_agreement():
    detail = _criterion("A8 (non-log agreement on s=0 fixtures)",
                        grid._nonlog_section, GRID_PN, seed=0xA8)
    assert detail["fixtures"] >= 4


def test_a9_pole_killing():
    _criterion("A9 (root-cover pole killing)", grid._pole_killing_section, GRID_PN)


def test_a10_pullback_functoriality():
    detail = _criterion("A10 (pullback functoriality, 25 map pairs per cell)",
                        grid._functoriality_section, GRID_PN, seed=0xA10)
    assert detail["map_pairs"] >= 10


def test_a11_structure_checks():
    started = time.perf_counter()
    failures = []
    rng = random.Random(0xA11)
    # tilde relation emb_i = p * emb_{i+1} on Fil^{i+1}
    for p, n in GRID_PN:
        for name, mod in corpus(p, n):
            a, b = mod.hodge_range
            for i in range(a, b):
                vec = [random_elem(rng, mod.spec) if v.level >= i + 1
                       else RingElem.zero(mod.spec) for v in mod.basis]
                lhs = tilde_embed(mod, vec, i)
                rhs = [x.scale(mod.spec.p) for x in tilde_embed(mod, vec, i + 1)]
                if not all(le.eq_mod(ri, v.torsion) for le, ri, v in zip(lhs, rhs, mod.basis)):
                    failures.append(f"tilde relation: {name} level {i}")
    # every corpus module, NIL2 with F = identity among them, passes all four checks
    _run_section(grid._module_section, failures, GRID_PN)
    # negative controls fail exactly the intended check
    _run_section(grid._negative_section, failures)
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
    report = grid.run_selftest(quick=False)
    for name, section in report["sections"].items():
        if "non_integral" in section:
            failures.append(f"{name}: {section['non_integral']}")
        if not section["ok"]:
            failures.append(f"{name}: section failed")
    _verdict("A13 (no NonIntegral divisions across the grid)", failures, started)
