#!/usr/bin/env python3
"""The logarithmic Taylor formula and the gluing isomorphism, narrated.

Over R = (Z/p^n)[T] with the boundary divisor T = 0, a log-compatible
Frobenius lift sends T to (1 + p*u) T^p.  Two such lifts are compared by a
Taylor-type formula whose divided coefficients are provably p-integral; on a
filtered module with a log connection, the same formula produces the gluing
matrix between the two Frobenius twists of the tilde module.
"""

import random

from logff import (
    FrobLift,
    RingElem,
    RingSpec,
    check_glue_cocycle,
    check_glue_horizontal,
    check_glue_identity,
    check_glue_linearity,
    glue_map,
    run_all_checks,
    taylor_residual,
)
from logff.fixtures import nil2, random_elem, random_lift
from logff.transport import transport

print("Scalar level: the logarithmic Taylor formula")
print("--------------------------------------------")
spec = RingSpec(5, 2, 1, 1)
phi = FrobLift.standard(spec)                     # T -> T^5
psi = FrobLift(spec, [RingElem.one(spec)])        # T -> (1+5) T^5
for text in ["T1", "3*T1^2 + 1", "2*T1^3 + 4*T1 + 1"]:
    from logff import parse_expr
    r = parse_expr(text, spec)
    res = taylor_residual(r, phi, psi)
    print(f"  residual on {text:20s} -> {res}")

print()
print("Module level: the gluing matrix")
print("-------------------------------")
mod = nil2(5, 1)
print("  fixture: rank 2, levels (0, 1), nabla(delta) e1 = e0, F = identity")
print("  verdicts:", {k: v.ok for k, v in run_all_checks(mod).items()})
g = glue_map(mod, phi := FrobLift.standard(mod.spec),
             psi := FrobLift(mod.spec, [RingElem.one(mod.spec)]))
print(f"  glue matrix between the lifts u=0 and u=1: {g.matrix}")
print(f"  shells summed: {g.shells_used} (design bound {g.design_bound})")

print()
print("Its defining properties, checked exactly mod p^n")
print("------------------------------------------------")
rng = random.Random(1)
l1, l2, l3 = (random_lift(rng, mod.spec) for _ in range(3))
print("  identity:     ", check_glue_identity(mod, l1))
print("  cocycle:      ", check_glue_cocycle(mod, l1, l2, l3))
print("  linearity:    ", check_glue_linearity(mod, l1, l2, random_elem(rng, mod.spec)))
print("  horizontality:", check_glue_horizontal(mod, l1, l2))

print()
print("Transport to another lift preserves every check and is invertible")
print("------------------------------------------------------------------")
moved = transport(mod, l1)
print("  transported verdicts:", {k: v.ok for k, v in run_all_checks(moved).items()})
back = transport(moved, mod.lift)
print("  double transport returns the original:", back == mod)
