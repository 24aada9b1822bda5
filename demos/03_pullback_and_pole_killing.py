#!/usr/bin/env python3
"""Pullback of modules and the root-cover mechanism, narrated.

Pulling a module back along a coordinate map transforms the connection in
the dlog frame and corrects the Frobenius by a comparison between the two
composite lifts.  Adjoining p^m-th roots of the divisor coordinates
multiplies the divisor-slot connection by p^m, so at precision <= m the
logarithmic poles vanish: the mechanism that turns a log module into an
honest one on a finite cover.
"""

from logff import (
    FrobLift,
    RingElem,
    RingMap,
    check_pullback_functorial,
    pullback_ff,
    root_map,
    root_pullback,
    run_all_checks,
)
from logff.fixtures import nil2

mod = nil2(5, 1)
spec = mod.spec
print("Base fixture over (Z/5)[T], divisor T = 0:")
print("  connection matrix:", mod.connection[0])

print()
print("Rescaling T -> 2T: dlog(2T) = dlog T, so the connection is unchanged,")
print("but the Frobenius picks up the comparison of the composite lifts:")
pb = pullback_ff(mod, RingMap(spec, spec, [(2, (1,), RingElem.zero(spec))]), mod.lift)
print("  connection:", pb.connection[0])
print("  frobenius: ", pb.frobenius)
print("  verdicts:  ", {k: v.ok for k, v in run_all_checks(pb).items()})

print()
print("A map may change the ring: restricting to the open chart T != 0")
print("(T invertible, no divisor) keeps the connection and every verdict:")
gm = spec.localized()
restricted = pullback_ff(mod, RingMap(spec, gm, [(1, (1,), RingElem.zero(gm))]),
                         FrobLift.standard(gm))
print("  ring:      ", restricted.spec)
print("  connection:", restricted.connection[0])
print("  verdicts:  ", {k: v.ok for k, v in run_all_checks(restricted).items()})

print()
print("The root cover T -> T^5 kills the logarithmic pole mod 5:")
rolled = root_pullback(mod, 1)
print("  connection after pullback:", rolled.connection[0])
print("  verdicts:", {k: v.ok for k, v in run_all_checks(rolled).items()})

print()
print("Pullback is functorial: two steps equal the composite, exactly")
f = RingMap(spec, spec, [(2, (1,), RingElem.zero(spec))])
g = RingMap(spec, spec, [(1, (1,), RingElem.variable(spec, 1))])
print("  rescale then unit-twist:", check_pullback_functorial(mod, f, g, mod.lift, mod.lift))
print("  twist then root map:    ", check_pullback_functorial(mod, g, root_map(spec, 1),
                                                              mod.lift, mod.lift))
ident = RingMap.identity(spec)
print("  identity pullback is the identity:",
      pullback_ff(mod, ident, mod.lift) == mod)
