"""Batch verification grid: every identity suite on one deterministic run.

Each gluing and pullback bullet is one section function over a list of
(p, n) cells; `run_selftest` and the acceptance criteria A1-A11 call the
same functions, each at its own sizes and seeds.  Each section reports
ok/fail plus counters; NonIntegral errors are never caught silently, they
fail the section that raised them.
"""

from __future__ import annotations

import random
import time

from .exactnum import NonIntegralError
from .ffcoeff import falling_poly, structure_constants, verify_coeff_identity
from .ffmodule import reduce_mod_pm, root_map, root_pullback, run_all_checks
from .fixtures import corpus, negative_controls, nil2, random_elem, random_lift
from .logring import RingElem, RingMap, RingSpec, taylor_residual
from .transport import (
    check_glue_cocycle,
    check_glue_horizontal,
    check_glue_identity,
    check_glue_linearity,
    check_nonlog_agreement,
    check_pullback_functorial,
    pullback_ff,
    transport,
)

SEED = 0x10F7
GRID_PN = [(3, 1), (3, 2), (5, 1), (5, 2), (7, 3)]


def _expect(ok, message):
    """Fail the running section; unlike an assert statement, `python -O` keeps it."""
    if not ok:
        raise AssertionError(message)


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
        _expect(verify_coeff_identity(k, 6), f"exponential identity fails at k={k}")
    for m in range(max_mn + 1):
        for n in range(max_mn + 1):
            table = structure_constants(m, n)
            lhs = _poly_mul_int(falling_poly(m), falling_poly(n))
            rhs = [0] * max(len(lhs), m + n + 1)
            for k, c in table.items():
                for i, fc in enumerate(falling_poly(k)):
                    rhs[i] += c * fc
            _expect(list(lhs) + [0] * (len(rhs) - len(lhs)) == rhs, (m, n))
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
                        _expect(res.is_zero(), f"taylor residual nonzero at {spec}")
                    cells += 1
    return {"cells": cells, "per_cell": per_cell}


def _passes(module) -> bool:
    return all(v.ok for v in run_all_checks(module).values())


def _cells_corpus(cells):
    return [fixture for p, n in cells for fixture in corpus(p, n)]


def _module_section(cells):
    fixtures = _cells_corpus(cells)
    for name, module in fixtures:
        results = run_all_checks(module)
        bad = [k for k, v in results.items() if not v.ok]
        _expect(not bad, f"{name}: {bad}")
    return {"modules": len(fixtures)}


def _identity_section(cells, count, seed=SEED):
    """Each fixture's own lift and `count` random lifts glue to the identity."""
    rng = random.Random(seed)
    fixtures = _cells_corpus(cells)
    for name, module in fixtures:
        for lift in [module.lift] + [random_lift(rng, module.spec) for _ in range(count)]:
            _expect(check_glue_identity(module, lift), f"{name}: identity")
    return {"fixtures": len(fixtures)}


def _cocycle_section(cells, count, seed=SEED):
    rng = random.Random(seed)
    for name, module in _cells_corpus(cells):
        for _ in range(count):
            l1, l2, l3 = (random_lift(rng, module.spec) for _ in range(3))
            _expect(check_glue_cocycle(module, l1, l2, l3), f"{name}: cocycle")


def _horizontal_section(cells, count, seed=SEED):
    rng = random.Random(seed)
    for name, module in _cells_corpus(cells):
        for _ in range(count):
            l1, l2 = random_lift(rng, module.spec), random_lift(rng, module.spec)
            _expect(check_glue_horizontal(module, l1, l2), f"{name}: horizontality")


def _linearity_section(cells, count, elements, seed=SEED):
    """`elements` random ring elements against each of `count` lift pairs."""
    rng = random.Random(seed)
    for name, module in _cells_corpus(cells):
        for _ in range(count):
            l1, l2 = random_lift(rng, module.spec), random_lift(rng, module.spec)
            for _ in range(elements):
                r = random_elem(rng, module.spec)
                _expect(check_glue_linearity(module, l1, l2, r), f"{name}: linearity")


def _transport_section(cells, count, seed=SEED):
    """Transport to random lifts keeps every check passing; transport back gives the fixture."""
    rng = random.Random(seed)
    for name, module in _cells_corpus(cells):
        _expect(_passes(module), f"{name}: fixture fails a check")
        for _ in range(count):
            moved = transport(module, random_lift(rng, module.spec))
            _expect(_passes(moved), f"{name}: transported module fails a check")
            _expect(transport(moved, module.lift) == module, f"{name}: transport back")


def _nonlog_section(cells, seed=SEED):
    """One random lift pair per fixture without divisor (s = 0)."""
    rng = random.Random(seed)
    fixtures = [(name, module) for name, module in _cells_corpus(cells) if module.spec.s == 0]
    for name, module in fixtures:
        l1, l2 = random_lift(rng, module.spec), random_lift(rng, module.spec)
        _expect(check_nonlog_agreement(module, l1, l2), f"{name}: nonlog")
    return {"fixtures": len(fixtures)}


def _glue_section(cells, count, elements):
    """The six gluing bullets over the corpus of every cell."""
    fixtures = _identity_section(cells, count)["fixtures"]
    _cocycle_section(cells, count)
    _horizontal_section(cells, count)
    _linearity_section(cells, count, elements)
    _transport_section(cells, count)
    _nonlog_section(cells)
    return {"fixtures": fixtures, "triples": count}


def _functoriality_section(cells, seed=SEED):
    """Pullback along f then g equals pullback along g o f on nil2(p, n), for every
    pair of five self-maps of A^1 and two pairs that change the ring:
    A^1 -> G_m -> G_m (restriction, then T -> 2T(1 + pT)) and A^1 -> A^2 -> A^1 x G_m
    (the diagonal T -> T_1 T_2, then restriction to T_2 != 0)."""
    rng = random.Random(seed)
    pairs = 0
    for p, n in cells:
        module = nil2(p, n)
        spec = module.spec
        t = RingElem.variable(spec, 1)
        ident = RingMap.identity(spec)
        maps = [ident, RingMap(spec, spec, [(2, (1,), RingElem.zero(spec))]),
                RingMap(spec, spec, [(1, (1,), t)]), RingMap(spec, spec, [(p + 1, (1,), t)]),
                root_map(spec, n)]
        _expect(pullback_ff(module, ident, module.lift) == module,
                f"p={p} n={n}: identity pullback")
        gm, plane, chart = spec.localized(), RingSpec(p, n, 2, 2), RingSpec(p, n, 2, 1)
        ring_changing = [
            (RingMap(spec, gm, [(1, (1,), RingElem.zero(gm))]),
             RingMap(gm, gm, [(2, (1,), RingElem.variable(gm, 1))])),
            (RingMap(spec, plane, [(1, (1, 1), RingElem.zero(plane))]),
             RingMap(plane, chart, [(1, e, RingElem.zero(chart)) for e in ((1, 0), (0, 1))]))]
        for f, g in [(f, g) for f in maps for g in maps] + ring_changing:
            mid, fin = random_lift(rng, f.target), random_lift(rng, g.target)
            _expect(check_pullback_functorial(module, f, g, mid, fin),
                    f"p={p} n={n}: functoriality")
            pairs += 1
    return {"map_pairs": pairs}


def _pole_killing_section(cells):
    """The root cover of depth 1, n and n + 1 kills every divisor-slot connection."""
    for name, module in _cells_corpus(cells):
        n = module.spec.n
        for depth in sorted({1, n, n + 1}):
            rolled = root_pullback(reduce_mod_pm(module, min(depth, n)), depth)
            _expect(all(rolled.connection[j].is_zero() for j in range(rolled.spec.s)),
                    f"{name} depth {depth}: pole killing")
            _expect(_passes(rolled), f"{name} depth {depth}: root pullback validity")
    _expect(all(mat.is_zero() for mat in root_pullback(nil2(5, 1), 1).connection),
            "nil2 p=5 n=1 depth 1: connection not identically 0")


def _pullback_section(functor_cells, pole_cells):
    pairs = _functoriality_section(functor_cells)["map_pairs"]
    _pole_killing_section(pole_cells)
    return {"map_pairs": pairs}


def _negative_section():
    controls = negative_controls(5, 2)
    for name, module, expected in controls:
        results = run_all_checks(module)
        failing = [k for k, v in results.items() if not v.ok and not v.skipped]
        _expect(failing == [expected], f"{name}: failed {failing}, expected [{expected}]")
    return {"controls": len(controls)}


def run_selftest(quick: bool = False) -> dict:
    """Run every suite; returns a report dict with an overall `ok` flag."""
    if quick:
        max_mn, ns, per_cell, grid, count, elements = 6, (1,), 5, [(3, 1), (5, 1)], 1, 2
        functor_cells, pole_cells = [(3, 1)], [(3, 1), (5, 1)]
    else:
        max_mn, ns, per_cell, grid, count, elements = 8, (1, 2), 15, GRID_PN, 2, 3
        functor_cells, pole_cells = [(3, 1), (5, 2)], [(3, 1), (5, 1), (5, 2)]
    plan = {
        "coefficients": lambda: _coeff_section(max_mn),
        "taylor": lambda: _taylor_section(ns, per_cell),
        "module_checks": lambda: _module_section(grid),
        "gluing": lambda: _glue_section(grid, count, elements),
        "pullback": lambda: _pullback_section(functor_cells, pole_cells),
        "negative_controls": _negative_section,
    }
    sections = {name: _section(fn) for name, fn in plan.items()}
    return {"ok": all(s["ok"] for s in sections.values()), "sections": sections}
