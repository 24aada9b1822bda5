"""Fixture corpus: small valid modules, negative controls, random data.

Every base fixture is a nilpotent chain built by `_chain`: connection
E_{k,k+1} on slot 1 and zero on the other slots, consecutive levels, and a
constant Frobenius (a constant connection is the only shape that admits the
identity as a horizontal Frobenius).  Nonconstant Frobenius structures and
nonconstant connections are produced from them by transport to a
nonconstant lift and by pullback along a nonconstant coordinate map, both
of which preserve validity.  `corpus(p, n)` lists every valid fixture of one
cell; the structural checks, the gluing sections and pole killing all run
over it.  Negative controls break exactly one check each and ship with the
name of the check they are expected to fail.
"""

from __future__ import annotations

import random

from .ffmodule import BasisVector, LogFFModule
from .logring import FrobLift, RingElem, RingMap, RingSpec
from .matrices import Matrix


# -- base modules -------------------------------------------------------------


def _chain(p: int, n: int, rank: int, d: int = 1, s: int | None = None, a: int = 0,
           torsions: tuple[int, ...] | None = None, unit: int = 1,
           lift: FrobLift | None = None, wide_range: bool = False) -> LogFFModule:
    """Rank-`rank` chain nabla(delta_1) e_{k+1} = e_k with levels a, ..., a + rank - 1,
    torsions n unless given, F = unit * identity and the standard lift unless given."""
    spec = RingSpec(p, n, d, d if s is None else s)
    names = ["e"] if rank == 1 else [f"e{k}" for k in range(rank)]
    torsions = torsions or (n,) * rank
    basis = [BasisVector(name, a + k, t) for k, (name, t) in enumerate(zip(names, torsions))]
    chain = Matrix.from_ints(spec, [[int(k == i + 1) for k in range(rank)] for i in range(rank)])
    conn = [chain] + [Matrix.zeros(spec, rank, rank)] * (d - 1)
    frob = Matrix.from_ints(spec, [[unit * (i == k) for k in range(rank)] for i in range(rank)])
    return LogFFModule(spec, (a, a + rank - 1), basis, conn,
                       FrobLift.standard(spec) if lift is None else lift, frob, wide_range)


def nil2(p: int, n: int, d: int = 1, s: int | None = None,
         lift: FrobLift | None = None) -> LogFFModule:
    """Rank-2 module with levels (0,1), nabla(delta_1) e_1 = e_0, F = identity."""
    return _chain(p, n, 2, d, s, lift=lift)


def rank1_flat(p: int, n: int, d: int = 1, s: int | None = None,
               unit: int = 1) -> LogFFModule:
    """Rank-1 module at level 0 with zero connection and constant Frobenius."""
    return _chain(p, n, 1, d, s, unit=unit)


def rank3_chain(p: int, n: int, d: int = 1, s: int | None = None) -> LogFFModule:
    """Rank-3 nilpotent chain with levels (0,1,2); needs p >= 5."""
    return _chain(p, n, 3, d, s)


def mixed_torsion(p: int, n: int = 2, d: int = 1, s: int | None = None) -> LogFFModule:
    """Rank-2 module with torsion exponents (1, n); exercises the graded checks."""
    if n < 2:
        raise ValueError("mixed torsion needs n >= 2")
    return _chain(p, n, 2, d, s, torsions=(1, n))


def shifted_nil2(p: int, n: int, a: int = 1) -> LogFFModule:
    """NIL2 with the Hodge window moved to [a, a+1]; exercises the a-shift."""
    return _chain(p, n, 2, a=a)


def transported_nil2(p: int, n: int, d: int = 1, s: int | None = None) -> LogFFModule:
    """NIL2 transported to a nonconstant lift: nonconstant Frobenius matrix."""
    from .transport import transport
    base = nil2(p, n, d, s)
    spec = base.spec
    u = [RingElem.variable(spec, 1)] + [RingElem.zero(spec)] * (spec.d - 1)
    return transport(base, FrobLift(spec, u))


def pulled_back_nil2(p: int, n: int) -> LogFFModule:
    """NIL2 pulled back along T -> T(1 + pT): nonconstant connection for n >= 2."""
    from .transport import pullback_ff
    base = nil2(p, n)
    spec = base.spec
    f = RingMap(spec, spec, [(1, (1,), RingElem.variable(spec, 1))])
    return pullback_ff(base, f, FrobLift.standard(spec))


# -- negative controls --------------------------------------------------------


def negative_controls(p: int = 5, n: int = 2) -> list[tuple[str, LogFFModule, str]]:
    """(name, module, check expected to fail); every other check passes or is skipped."""
    base = nil2(p, n)
    spec = base.spec
    twist = Matrix.from_ints(spec, [[1, 0], [0, 1 + p]])
    gap = [base.basis[0], BasisVector("e1", 2, n)]
    # E_01 * T_2 on slot 1: its delta_2 derivative is the curvature
    plane = nil2(p, n, d=2)
    curved = [plane.connection[0] * RingElem.variable(plane.spec, 2), plane.connection[1]]
    return [
        ("frobenius_p_times_identity", _chain(p, n, 2, unit=p), "strong_div"),
        ("frobenius_unit_twist", base.with_frobenius(twist, base.lift), "horizontal"),
        ("griffiths_level_gap", LogFFModule(spec, (0, 2), gap, base.connection, base.lift,
                                            base.frobenius), "griffiths"),
        ("curvature_t2", LogFFModule(plane.spec, (0, 1), plane.basis, curved, plane.lift,
                                     plane.frobenius), "flat"),
    ]


# -- the corpus ---------------------------------------------------------------


def corpus(p: int, n: int) -> list[tuple[str, LogFFModule]]:
    """Every valid fixture of one (p, n) cell (ranks <= 3, levels in [0, p-2])."""
    out = [
        (f"nil2_p{p}n{n}", nil2(p, n)),
        (f"nil2_s0_p{p}n{n}", nil2(p, n, d=1, s=0)),
        (f"nil2_d2s1_p{p}n{n}", nil2(p, n, d=2, s=1)),
        (f"rank1_p{p}n{n}", rank1_flat(p, n)),
        (f"rank1_u2_p{p}n{n}", rank1_flat(p, n, unit=2)),
        (f"rank1_s0_p{p}n{n}", rank1_flat(p, n, s=0, unit=2)),
        (f"transported_p{p}n{n}", transported_nil2(p, n)),
    ]
    if p >= 5:
        out.append((f"rank3_p{p}n{n}", rank3_chain(p, n)))
        out.append((f"shifted_p{p}n{n}", shifted_nil2(p, n)))
    if n >= 2:
        out.append((f"mixed_p{p}n{n}", mixed_torsion(p, n)))
        out.append((f"pullback_p{p}n{n}", pulled_back_nil2(p, n)))
    return out


# -- random data --------------------------------------------------------------


def random_elem(rng: random.Random, spec: RingSpec, max_terms: int = 4,
                max_exp: int = 3) -> RingElem:
    """Random sparse element with small monomial support."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = []
        for j in range(spec.d):
            low = 0 if j < spec.s else -2
            exps.append(rng.randint(low, max_exp))
        terms[tuple(exps)] = rng.randrange(spec.q)
    return RingElem(spec, terms)


def random_lift(rng: random.Random, spec: RingSpec, max_terms: int = 3) -> FrobLift:
    """Random log-compatible Frobenius lift with u_j of small monomial support."""
    u = []
    for _ in range(spec.d):
        u.append(random_elem(rng, spec, max_terms=max_terms, max_exp=2))
    return FrobLift(spec, u)
