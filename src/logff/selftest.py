"""Batch verification grid: every identity suite on one deterministic run.

Used by the `selftest` CLI command; the acceptance test suite calls the same
section functions with its own (larger) sizes.  Each section reports ok/fail plus counters;
NonIntegral errors are never caught silently, they fail the section that
raised them.
"""

from __future__ import annotations

import random
import time

from .exactnum import NonIntegralError
from .ffcoeff import falling_poly, structure_constants, verify_coeff_identity
from .ffmodule import root_pullback, run_all_checks
from .fixtures import (
    check_corpus,
    glue_corpus,
    negative_controls,
    nil2,
    random_elem,
    random_lift,
)
from .logring import RingElem, RingMap, RingSpec, taylor_residual
from .transport import (
    check_glue_cocycle,
    check_glue_horizontal,
    check_glue_identity,
    check_glue_linearity,
    check_nonlog_agreement,
    check_pullback_functorial,
    glue_map,
    transport,
)

SEED = 0x10F7


def _section(fn):
    start = time.perf_counter()
    try:
        detail = fn()
        ok, note = True, detail or {}
    except NonIntegralError as exc:
        ok, note = False, {"non_integral": str(exc)}
    except AssertionError as exc:
        ok, note = False, {"assertion": str(exc)}
    note["elapsed_ms"] = round(1000 * (time.perf_counter() - start), 1)
    note["ok"] = ok
    return note


def _coeff_section(max_mn=8):
    for k in range(7):
        assert verify_coeff_identity(k, 6), f"exponential identity fails at k={k}"
    for m in range(max_mn + 1):
        for n in range(max_mn + 1):
            table = structure_constants(m, n)
            lhs = _poly_mul_int(falling_poly(m).coeffs, falling_poly(n).coeffs)
            rhs = [0] * max(len(lhs), m + n + 1)
            for k, c in table.table.items():
                for i, fc in enumerate(falling_poly(k).coeffs):
                    rhs[i] += c * fc
            assert list(lhs) + [0] * (len(rhs) - len(lhs)) == rhs, (m, n)
    return {"pairs": (max_mn + 1) ** 2}


def _poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _taylor_section(ns, per_cell, seed=SEED):
    rng = random.Random(seed)
    cells = 0
    for p in (3, 5, 7):
        for n in ns:
            for d in (1, 2):
                for s in range(d + 1):
                    spec = RingSpec(p, n, d, s)
                    for _ in range(per_cell):
                        l1 = random_lift(rng, spec)
                        l2 = random_lift(rng, spec)
                        r = random_elem(rng, spec)
                        res = taylor_residual(r, l1, l2)
                        assert res.is_zero(), f"taylor residual nonzero at {spec}"
                    cells += 1
    return {"cells": cells, "per_cell": per_cell}


def _module_section(pn_list):
    count = 0
    for p, n in pn_list:
        for name, module in check_corpus(p, n):
            results = run_all_checks(module)
            bad = [k for k, v in results.items() if not v.ok]
            assert not bad, f"{name}: {bad}"
            count += 1
    return {"modules": count}


def _glue_section(pn_list, triples, rs, seed=SEED):
    rng = random.Random(seed + 1)
    fixtures = 0
    for p, n in pn_list:
        for name, module in glue_corpus(p, n):
            spec = module.spec
            for _ in range(triples):
                l1, l2, l3 = (random_lift(rng, spec) for _ in range(3))
                assert check_glue_identity(module, l1), f"{name}: identity"
                assert check_glue_cocycle(module, l1, l2, l3), f"{name}: cocycle"
                assert check_glue_horizontal(module, l1, l2), f"{name}: horizontality"
                g = glue_map(module, l1, l2)
                for _ in range(rs):
                    r = random_elem(rng, spec)
                    assert check_glue_linearity(module, l1, l2, r, glue=g), \
                        f"{name}: linearity"
                moved = transport(module, l1)
                res = run_all_checks(moved)
                assert all(v.ok for v in res.values()), f"{name}: transport validity"
            if spec.s == 0:
                l1, l2 = random_lift(rng, spec), random_lift(rng, spec)
                assert check_nonlog_agreement(module, l1, l2), f"{name}: nonlog"
            fixtures += 1
    return {"fixtures": fixtures, "triples": triples}


def _pullback_section(seed=SEED):
    rng = random.Random(seed + 2)
    checked = 0
    for p, n in [(3, 1), (5, 2)]:
        module = nil2(p, n)
        spec = module.spec
        zero = RingElem.zero(spec)
        t = RingElem.variable(spec, 1)
        maps = [
            RingMap(spec, spec, [(2, (1,), zero)]),
            RingMap(spec, spec, [(1, (1,), t)]),
            RingMap(spec, spec, [(p + 1, (1,), t)]),
        ]
        for f in maps:
            for g in maps:
                mid = random_lift(rng, spec)
                fin = random_lift(rng, spec)
                assert check_pullback_functorial(module, f, g, mid, fin), "functoriality"
                checked += 1
    for p, n, depth in [(3, 1, 1), (5, 1, 1), (5, 1, 2), (5, 2, 2)]:
        rp = root_pullback(nil2(p, n), depth)
        assert all(rp.connection[j].is_zero() for j in range(rp.spec.s)), "pole killing"
        assert all(v.ok for v in run_all_checks(rp).values()), "root pullback validity"
    return {"map_pairs": checked}


def _negative_section():
    for name, module, expected in negative_controls(5, 2):
        results = run_all_checks(module)
        failing = [k for k, v in results.items() if not v.ok and not v.skipped]
        assert failing == [expected], f"{name}: failed {failing}, expected [{expected}]"
    return {"controls": len(negative_controls(5, 2))}


def run_selftest(quick: bool = False) -> dict:
    """Run every suite; returns a report dict with an overall `ok` flag."""
    if quick:
        plan = {
            "coefficients": lambda: _coeff_section(max_mn=6),
            "taylor": lambda: _taylor_section(ns=(1,), per_cell=5),
            "module_checks": lambda: _module_section([(3, 1), (5, 1)]),
            "gluing": lambda: _glue_section([(3, 1), (5, 1)], triples=1, rs=2),
            "pullback": _pullback_section,
            "negative_controls": _negative_section,
        }
    else:
        plan = {
            "coefficients": _coeff_section,
            "taylor": lambda: _taylor_section(ns=(1, 2), per_cell=15),
            "module_checks": lambda: _module_section([(3, 1), (3, 2), (5, 1), (5, 2)]),
            "gluing": lambda: _glue_section([(3, 1), (3, 2), (5, 1), (5, 2)],
                                            triples=2, rs=3),
            "pullback": _pullback_section,
            "negative_controls": _negative_section,
        }
    sections = {name: _section(fn) for name, fn in plan.items()}
    return {"ok": all(s["ok"] for s in sections.values()), "sections": sections}
