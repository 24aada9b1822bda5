"""The gluing isomorphism between Frobenius twists, and module transport.

For two lifts g1, g2 that agree mod p, the comparison of the twisted tilde
modules sends the class of a basis vector e_k at level i to

    sum_I [ prod (nabla(delta)-shifts) e_k ]_{max(a, i-|I|)}
              (x)  (g1(T)/g2(T) - 1)^I / (I! * p^{min(i-a, |I|)})

summed over shells |I| = 0, 1, ... until every later shell provably
vanishes mod p^n.  The same formula, applied to a pair of composable
unit-monomial maps agreeing mod p, yields the comparison needed to pull a
module back along a ring map; transport composes a module's Frobenius with
the gluing matrix.  All divided coefficients go through the checked
exact-division layer, so the integrality claims are verified at runtime.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .ffmodule import (
    LogFFModule,
    _horizontal_failures,
    _ordinary_connection_op,
    _require_valid_for_glue,
    divided_connection,
    falling_connection_op,
)
from .logring import (
    DividedCoeffs,
    FrobLift,
    RingElem,
    RingMap,
    SpecMismatchError,
    _shell_sum,
    _shells_summed,
    work_precision,
)
from .matrices import Matrix


@dataclass(frozen=True)
class GlueMap:
    """Matrix of the comparison Vtilde (x)_{g1} R' -> Vtilde (x)_{g2} R'.

    Frozen, so that the gluing a module's GlueCache keeps always carries the
    pair of maps it was computed for, and the coefficient engine that built
    it, which the linearity check of that pair reuses.
    """

    source_map: RingMap
    target_map: RingMap
    matrix: Matrix
    shells_used: int
    design_bound: int
    coeffs: DividedCoeffs = field(compare=False, repr=False)


def _glue_columns(module: LogFFModule, coeffs: DividedCoeffs, g2: RingMap, r: RingElem):
    """The gluing formula on r * e_k at level_k, for every basis index k: one
    logring._shell_sum per column, carried along g2, with the coefficient
    engine coeffs of (g1, g2) at the module's precision.

    The engine's mode picks the operator: falling_connection_op ("ratio")
    or _ordinary_connection_op ("difference").  For r = 1 (the gluing
    matrix, and the first linearity sample of `logff glue`) the vectors are
    the basis vectors, whose operator memos live in the module's GlueCache;
    for any other r each memo lives for this call only.
    """
    a, mode = module.hodge_range[0], coeffs.mode
    # read at call time, so that a wrapper installed on the module-level name
    # sees every operator call
    op = falling_connection_op if mode == "ratio" else _ordinary_connection_op
    memos = module._glue_cache.operator_memos
    shared = r == RingElem.one(module.spec)
    rows = [(v.level, v.torsion) for v in module.basis]
    connection = list(module.connection)
    columns = []
    for k, (level, _) in enumerate(rows):
        vec = [RingElem.zero(module.spec)] * module.rank
        vec[k] = r
        memo = memos.setdefault((mode, k), {}) if shared else {}
        columns.append(_shell_sum(coeffs, g2, rows, a, level,
                                  functools.partial(op, connection, vec, memo=memo), memo))
    return columns


def _basis_glue(module: LogFFModule, g1: RingMap, g2: RingMap, mode: str = "ratio"):
    """_glue_columns at r = 1, as a matrix (column k for e_k), with the
    coefficient engine of (g1, g2) in the given mode that it builds."""
    a, b = module.hodge_range
    base_n = module.spec.n
    if g1.source.with_precision(base_n) != module.spec:
        raise SpecMismatchError("maps must start at the module's ring")
    coeffs = DividedCoeffs(g1, g2, width=b - a, mode=mode, base_n=base_n)
    columns = _glue_columns(module, coeffs, g2, RingElem.one(module.spec))
    rows = [[columns[k][m] for k in range(module.rank)] for m in range(module.rank)]
    return Matrix(coeffs.base_spec, rows), coeffs


def glue_map(module: LogFFModule, g1: RingMap, g2: RingMap) -> GlueMap:
    """The gluing matrix between the g1- and g2-twists of the tilde module.

    g1 and g2 are unit-monomial ring maps out of the module's ring that agree
    mod p (LiftMismatchError if not), Frobenius lifts among them.  Column k
    holds the image of etilde_k (x) 1.  The module's GlueCache keeps the last
    gluing, so asking again for an equal pair returns it.
    """
    _require_valid_for_glue(module)
    cache = module._glue_cache
    glue = cache.glue
    if glue is None or (glue.source_map, glue.target_map) != (g1, g2):
        matrix, coeffs = _basis_glue(module, g1, g2)
        glue = cache.glue = GlueMap(g1, g2, matrix, _shells_summed(coeffs),
                                    coeffs.design_bound, coeffs)
    return glue


def check_glue_identity(module: LogFFModule, lift) -> bool:
    """alpha computed against a single lift is the identity matrix."""
    g = glue_map(module, lift, lift)
    ident = Matrix.identity(g.matrix.spec, module.rank)
    return g.matrix.eq_mod_rows(ident, module.torsions)


def check_glue_cocycle(module: LogFFModule, l1, l2, l3) -> bool:
    """Transitivity G_{13} = G_{23} G_{12} of the gluing matrices."""
    g12 = glue_map(module, l1, l2).matrix
    g23 = glue_map(module, l2, l3).matrix
    g13 = glue_map(module, l1, l3).matrix
    return g13.eq_mod_rows(g23 * g12, module.torsions)


def check_glue_linearity(module: LogFFModule, l1, l2, r: RingElem) -> bool:
    """Well-definedness on the tensor relation (r m) (x) 1 = m (x) g1(r).

    The gluing formula applied directly to the filtered element r*e_k must
    equal the matrix column for e_k times g1(r).  A batch over many r for
    one pair computes the gluing matrix and its coefficients once (glue_map
    keeps both).
    """
    g = glue_map(module, l1, l2)
    r_image = l1.with_precision(module.spec.n).apply(r)
    columns = _glue_columns(module, g.coeffs, l2, r)
    for k in range(module.rank):
        expected = [g.matrix.entry(m, k) * r_image for m in range(module.rank)]
        for m in range(module.rank):
            tor = module.basis[m].torsion
            if not columns[k][m].eq_mod(expected[m], tor):
                return False
    return True


def check_glue_horizontal(module: LogFFModule, l1: FrobLift, l2: FrobLift) -> bool:
    """Parallelism: delta_j(G) + A'_j(l2) G = G A'_j(l1) for every slot."""
    g = glue_map(module, l1, l2)
    div1 = divided_connection(module, l1)
    div2 = divided_connection(module, l2)
    return not _horizontal_failures(g.matrix, div2, div1, module.torsions)


def check_nonlog_agreement(module: LogFFModule, l1: FrobLift, l2: FrobLift) -> bool:
    """On a chart without divisor (s = 0) the gluing matrix agrees with the
    classical one built from ordinary derivations and (Phi(T) - Psi(T))^I."""
    if module.spec.s != 0:
        raise ValueError("non-log comparison needs all slots Laurent (s = 0)")
    G = glue_map(module, l1, l2).matrix
    classical, _ = _basis_glue(module, l1, l2, mode="difference")
    return G.eq_mod_rows(classical, module.torsions)


def transport(module: LogFFModule, new_lift: FrobLift) -> LogFFModule:
    """(V, nabla, Fil, phi) -> (V, nabla, Fil, phi o alpha) over the new lift."""
    g = glue_map(module, new_lift, module.lift)
    return module.with_frobenius(module.frobenius * g.matrix, new_lift)


def pullback_ff(module: LogFFModule, f: RingMap, target_lift: FrobLift) -> LogFFModule:
    """Pullback of a module along a unit-monomial map, with Frobenius comparison.

    The connection is base-changed in the dlog frame (monomial exponents
    rescale the frame, unit parts contribute du/(1+pu) corrections), and the
    new Frobenius is f(F) composed with the gluing matrix between the two
    composite lifts Phi' o f and f o Phi, which agree mod p.  The result is
    over f's target ring, which may differ from the module's (a restriction
    to an open chart, a diagonal).

    The composites are formed at the divided-coefficient working precision:
    a base-precision composite would underdetermine the digits the division
    by p^{min(i-a,|I|)} consumes.  f itself may be given at any precision at
    or above the module's; its canonical lift is the map pulled back along.
    """
    base_n = module.spec.n
    if f.source.with_precision(base_n) != module.spec:
        raise SpecMismatchError("map must start at the module's ring")
    if target_lift.spec.with_precision(base_n) != f.target.with_precision(base_n):
        raise SpecMismatchError("target lift over the wrong spec")
    a, b = module.hodge_range
    work_n = work_precision(module.spec.p, base_n, b - a)
    f_work = f.with_precision(work_n)
    g1 = f_work.then(target_lift.with_precision(work_n))   # Phi' o f
    g2 = module.lift.with_precision(work_n).then(f_work)  # f o Phi
    comparison = glue_map(module, g1, g2).matrix

    f_base = f.with_precision(base_n)
    target = f_base.target
    p = target.p
    # built in the target ring, since f may change the ring
    def mapped(mat: Matrix) -> Matrix:
        return Matrix(target, [[f_base.apply(x) for x in row] for row in mat.rows])

    # frame transform: f^*(dlog T_j) = sum_l J[j][l] dlog T'_l
    J = []
    for j, (c, exps, h) in enumerate(f_base.images):
        inv = f_base.unit_inverse(j + 1).scale(c)   # (1 + p*h)^-1 = c * unit(j)^-1
        row = []
        for l in range(target.d):
            term = RingElem.const(target, exps[l])
            row.append(term + h.log_derive(l + 1).scale(p) * inv)
        J.append(row)
    connection = [mapped(mat) for mat in module.connection]
    new_connection = []
    for l in range(target.d):
        acc = Matrix.zeros(target, module.rank, module.rank)
        for j in range(module.spec.d):
            acc = acc + connection[j].scale(J[j][l])
        new_connection.append(acc)
    new_frobenius = mapped(module.frobenius) * comparison
    return LogFFModule(target, module.hodge_range, list(module.basis), new_connection,
                       target_lift.with_precision(base_n), new_frobenius,
                       wide_range=module.wide_range)


def check_pullback_functorial(module: LogFFModule, f: RingMap, g: RingMap,
                              mid_lift: FrobLift, final_lift: FrobLift) -> bool:
    """Pulling back along f then g agrees with pulling back along g o f.

    Both paths must see the same honest maps, so f and g are lifted to the
    working precision once and the composite is formed there.
    """
    a, b = module.hodge_range
    work_n = work_precision(module.spec.p, module.spec.n, b - a)
    f_w = f.with_precision(work_n)
    g_w = g.with_precision(work_n)
    two_step = pullback_ff(pullback_ff(module, f_w, mid_lift), g_w, final_lift)
    one_step = pullback_ff(module, f_w.then(g_w), final_lift)
    return two_step == one_step
