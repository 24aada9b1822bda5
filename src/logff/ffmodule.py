"""Logarithmic Fontaine-Faltings module data and its structural checks.

A module is a quadruple (V, nabla, Fil, phi) in basis-adapted form: a basis
with Hodge levels and torsion exponents (Fil^i is the span of basis vectors
of level >= i, and V = (+)_k R/p^{e_k} e_k), connection matrices in the
uniform dlog frame, and a Frobenius matrix phi relative to a chosen lift.
Validity of a module is a verdict delivered by check_flat / check_griffiths /
check_horizontal / check_strong_div, not an assumption of the constructor;
the constructor enforces only shape invariants (level range, torsion
divisibility of matrix entries, weight width b - a <= p - 2 unless the
wide-range flag is set).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .exactnum import NonIntegralError, int_valp
from .logring import FrobLift, RingElem, RingMap, RingSpec, SpecMismatchError
from .matrices import Matrix


class ElementNotInFilError(ValueError):
    """An element was used at a filtration level it does not lie in."""


class InvariantViolationError(ValueError):
    """Module data violates a structural invariant."""

    def __init__(self, invariant: str, detail: str = ""):
        super().__init__(f"{invariant}" + (f": {detail}" if detail else ""))
        self.invariant = invariant


@dataclass(frozen=True)
class BasisVector:
    name: str
    level: int
    torsion: int


@dataclass
class CheckResult:
    name: str
    ok: bool
    failures: list = field(default_factory=list)
    skipped: bool = False
    reason: str = ""

    def __bool__(self):
        return self.ok

    def to_dict(self):
        out = {"status": "skipped" if self.skipped else ("pass" if self.ok else "fail")}
        if self.failures:
            out["first_failure"] = self.failures[0]
        if self.reason:
            out["reason"] = self.reason
        return out


def _reduce_entry(x: RingElem, torsion: int) -> RingElem:
    pm = x.spec.p ** torsion
    return RingElem(x.spec, {e: c % pm for e, c in x.terms.items()})


def _canonical_rows(mat: Matrix, torsions: list[int]) -> Matrix:
    rows = [[_reduce_entry(x, torsions[i]) for x in row] for i, row in enumerate(mat.rows)]
    return Matrix(mat.spec, rows)


class GlueCache:
    """Gluing work a module reuses across its own shell sums (transport._glue_columns)
    and its horizontality checks.

    Each entry depends only on the module, or on the module and one lift or
    pair of maps, so no result depends on the order of calls.  The size is
    bounded: one operator memo per (mode, basis index), each holding at most
    one vector per index below stop_shell; the last DividedCoeffs with its
    key; the divided connections (divided_connection) of at most
    MAX_DIVIDED lifts, the oldest dropped first; and whether the module
    passed the flatness and Griffiths gate.  A failure is never remembered:
    a failing gate or a NonIntegralError of divided_connection raises on
    every call.
    """

    # a module file names a handful of lifts (every shipped one at most four)
    MAX_DIVIDED = 8

    def __init__(self):
        self.operator_memos: dict = {}     # (mode, k) -> {index: vector}
        # ((g1, g2, mode), DividedCoeffs) as one tuple, so that a sweep running
        # concurrently on this module never pairs a key with another engine
        self.coeffs = None
        self.divided: dict = {}            # the lift's RingMap -> divided connection
        self.valid_for_glue = False


class LogFFModule:
    """Basis-adapted module with log connection, Hodge filtration and Frobenius."""

    def __init__(self, spec: RingSpec, hodge_range: tuple[int, int],
                 basis: list[BasisVector], connection: list[Matrix],
                 lift: FrobLift, frobenius: Matrix, wide_range: bool = False):
        a, b = hodge_range
        self.spec = spec
        self.hodge_range = (a, b)
        self.basis = tuple(basis)
        self.wide_range = wide_range
        if a > b:
            raise InvariantViolationError("hodge_range", f"need a <= b, got {hodge_range}")
        width_cap = spec.p - 1 if wide_range else spec.p - 2
        if b - a > width_cap:
            raise InvariantViolationError(
                "weight_width", f"b - a = {b - a} exceeds {width_cap} (p = {spec.p})")
        for v in basis:
            if not a <= v.level <= b:
                raise InvariantViolationError("level_range", f"{v.name} has level {v.level}")
            if not 1 <= v.torsion <= spec.n:
                raise InvariantViolationError("torsion_range", f"{v.name} has torsion {v.torsion}")
        r = len(basis)
        if len(connection) != spec.d:
            raise InvariantViolationError("connection_shape", f"need {spec.d} matrices")
        if lift.spec != spec:
            raise SpecMismatchError("lift over the wrong spec")
        self.lift = lift
        torsions = [v.torsion for v in basis]
        mats = []
        for j, mat in enumerate(connection):
            if (mat.nrows, mat.ncols) != (r, r) or mat.spec != spec:
                raise InvariantViolationError("connection_shape", f"slot {j + 1}")
            mats.append(_canonical_rows(mat, torsions))
        if (frobenius.nrows, frobenius.ncols) != (r, r) or frobenius.spec != spec:
            raise InvariantViolationError("frobenius_shape", "")
        self.connection = tuple(mats)
        self.frobenius = _canonical_rows(frobenius, torsions)
        for label, mat in [("connection", m) for m in self.connection] + [("frobenius", self.frobenius)]:
            self._check_torsion_divisibility(label, mat)
        self._glue_cache = GlueCache()

    def _check_torsion_divisibility(self, label: str, mat: Matrix):
        # Hom(R/p^{e_k}, R/p^{e_i}) = p^{max(0, e_i - e_k)} R/p^{e_i}
        for i, vi in enumerate(self.basis):
            for k, vk in enumerate(self.basis):
                need = max(0, vi.torsion - vk.torsion)
                if need and not _reduce_entry(mat.entry(i, k), vi.torsion).divisible_by_p(need):
                    raise InvariantViolationError(
                        "torsion_divisibility",
                        f"{label} entry ({i},{k}) not divisible by p^{need}")

    # -- convenience ------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def levels(self) -> list[int]:
        return [v.level for v in self.basis]

    @property
    def torsions(self) -> list[int]:
        return [v.torsion for v in self.basis]

    def with_frobenius(self, frobenius: Matrix, lift: FrobLift) -> "LogFFModule":
        return LogFFModule(self.spec, self.hodge_range, self.basis, list(self.connection),
                           lift, frobenius, wide_range=self.wide_range)

    def basis_vector(self, k: int) -> list[RingElem]:
        vec = [RingElem.zero(self.spec) for _ in range(self.rank)]
        vec[k] = RingElem.one(self.spec)
        return vec

    def __eq__(self, other):
        if not isinstance(other, LogFFModule):
            return NotImplemented
        return (self.spec == other.spec and self.hodge_range == other.hodge_range
                and self.basis == other.basis and self.connection == other.connection
                and self.lift == other.lift and self.frobenius == other.frobenius)


# -- connection operators ----------------------------------------------------


def apply_connection(connection: list[Matrix], vec: list[RingElem], j: int) -> list[RingElem]:
    """nabla(delta_j) on a coefficient vector: entrywise delta_j plus A_j."""
    A = connection[j - 1]
    out = A.mul_vec(vec)
    return [x + v.log_derive(j) for x, v in zip(out, vec)]


def falling_connection_op(connection: list[Matrix], vec: list[RingElem],
                          index: tuple[int, ...], *,
                          memo: dict | None = None) -> list[RingElem]:
    """prod_j prod_{k < i_j} (nabla(delta_j) - k) applied to a vector.

    The factor order is immaterial on flat modules, which is the only place
    this operator is meaningful.

    memo, if given, maps indices to results for this connection and this
    start vector, and is filled with the result and any missing ancestors
    (see _trie_walk): the same factors in the same order as without a memo,
    so the two agree term for term.  Memoized vectors are shared between
    calls and must not be mutated.
    """
    if memo is None:
        out = list(vec)
        for j0, ij in enumerate(index):
            for k in range(ij):
                out = _falling_factor(connection, out, j0, k)
        return out
    return _trie_walk(_falling_factor, connection, vec, index, memo)


def _falling_factor(connection: list[Matrix], vec: list[RingElem], j0: int, k: int):
    """nabla(delta_j) - k on a vector, j = j0 + 1."""
    nabla = apply_connection(connection, vec, j0 + 1)
    return [x - v.scale(k) for x, v in zip(nabla, vec)]


def _ordinary_connection_op(connection: list[Matrix], vec: list[RingElem],
                            index: tuple[int, ...], *, memo: dict) -> list[RingElem]:
    """Iterated nabla(d/dT_j) = entrywise d/dT_j plus A_j T_j^{-1}, slot by slot.

    The operator of the classical (non-logarithmic) comparison formula, so
    every slot must be Laurent.  memo is filled as in falling_connection_op.
    """
    return _trie_walk(_ordinary_factor, connection, vec, index, memo)


def _ordinary_factor(connection: list[Matrix], vec: list[RingElem], j0: int, k: int):
    """nabla(d/dT_j) on a vector, j = j0 + 1; k is unused."""
    tinv = RingElem.variable(connection[j0].spec, j0 + 1, -1)
    applied = connection[j0].scale(tinv).mul_vec(vec)
    return [x + v.d_dT(j0 + 1) for x, v in zip(applied, vec)]


def _trie_walk(factor, connection: list[Matrix], vec: list[RingElem],
               index: tuple[int, ...], memo: dict) -> list[RingElem]:
    """An iterated operator on vec along the index trie, memoized in memo.

    The result for I is factor(connection, w, j0, i_j0 - 1), where j0 is
    the last nonzero slot of I and w is the result for I - e_j0; the result
    for I = 0 is vec itself.  A zero parent gives its (shared) zero vector.
    """
    got = memo.get(index)
    if got is not None:
        return got
    j0 = next((j for j in range(len(index) - 1, -1, -1) if index[j]), None)
    if j0 is None:
        out = list(vec)
    else:
        parent = index[:j0] + (index[j0] - 1,) + index[j0 + 1:]
        prev = _trie_walk(factor, connection, vec, parent, memo)
        if all(v.is_zero() for v in prev):
            out = prev
        else:
            out = factor(connection, prev, j0, index[j0] - 1)
    memo[index] = out
    return out


# -- checks -------------------------------------------------------------------


def check_flat(module: LogFFModule) -> CheckResult:
    """Curvature in the dlog frame: delta_i(A_j) - delta_j(A_i) + [A_i, A_j] = 0."""
    failures = []
    mods = module.torsions
    for i in range(module.spec.d):
        Ai = module.connection[i]
        for j in range(i + 1, module.spec.d):
            Aj = module.connection[j]
            curv = Aj.log_derive(i + 1) - Ai.log_derive(j + 1) + Ai * Aj - Aj * Ai
            loc = curv.first_difference(Matrix.zeros(module.spec, module.rank, module.rank), mods)
            if loc is not None:
                failures.append({"slot_pair": (i + 1, j + 1), "row": loc[0], "col": loc[1]})
    return CheckResult("flat", not failures, failures)


def check_griffiths(module: LogFFModule) -> CheckResult:
    """Griffiths transversality: nabla drops the Hodge level by at most one."""
    failures = []
    levels = module.levels
    for j, A in enumerate(module.connection):
        for i in range(module.rank):
            for k in range(module.rank):
                if levels[i] < levels[k] - 1:
                    entry = _reduce_entry(A.entry(i, k), module.basis[i].torsion)
                    if not entry.is_zero():
                        failures.append({"slot": j + 1, "row": i, "col": k})
    return CheckResult("griffiths", not failures, failures)


def tilde_embed(module: LogFFModule, vec: list[RingElem], i: int) -> list[RingElem]:
    """[vec]_i in the coordinates of the tilde module (+)_i Fil^i / (p x ~ x).

    vec must lie in Fil^i.  The class of e_k at level i <= level(e_k) is
    p^(level_k - i) * etilde_k, and the convention [x]_i = p^(a-i) [x]_a
    extends this below level a with the same exponent formula.
    """
    p = module.spec.p
    out = []
    for k, v in enumerate(module.basis):
        c = _reduce_entry(vec[k], v.torsion)
        if v.level < i:
            if not c.is_zero():
                raise ElementNotInFilError(
                    f"component on {v.name} (level {v.level}) at filtration level {i}")
            out.append(RingElem.zero(module.spec))
        else:
            out.append(c.scale(p ** (v.level - i)))
    return out


def divided_connection(module: LogFFModule, lift: FrobLift | None = None) -> list[Matrix]:
    """Connection matrices of the divided Frobenius pullback on Vtilde (x)_Phi R.

    Realizes nabla'([v]_i (x) 1) = sum_j [v_j]_{i-1} (x) (1/p) Phi^*(dlog T_j)
    with (1/p) Phi^*(dlog T_j) = dlog T_j + du_j/(1 + p u_j), coefficients of
    the twisted side passing through Phi, and the below-level-a convention
    [x]_i = p^(a-i) [x]_a.  Under Griffiths transversality every p-exponent
    that appears is nonnegative; a negative one raises NonIntegralError.

    The result is memoized per lift in the module's GlueCache; a lift is
    identified by its ring map, so equal lifts share one entry.
    """
    lift = lift if lift is not None else module.lift
    if lift.spec != module.spec:
        raise SpecMismatchError("lift over the wrong spec")
    memo = module._glue_cache.divided
    key = lift.as_ring_map()
    got = memo.get(key)
    if got is None:
        got = _divided_connection(module, lift)
        if len(memo) >= GlueCache.MAX_DIVIDED:
            memo.pop(next(iter(memo)), None)
        memo[key] = got
    return list(got)


def _divided_connection(module: LogFFModule, lift: FrobLift) -> list[Matrix]:
    """divided_connection without the module's memo."""
    spec = module.spec
    p, d, r = spec.p, spec.d, module.rank
    levels = module.levels
    frob = lift.as_ring_map()
    winv = [lift.w(j).invert_unit() for j in range(1, d + 1)]
    # D[l][j] = delta_l(u_j) * w_j^{-1}, the frame correction of the lift
    correction = [[lift.u[j].log_derive(l + 1) * winv[j] for j in range(d)] for l in range(d)]
    out = []
    for l in range(d):
        rows = []
        for i in range(r):
            row = []
            for k in range(r):
                bracket = frob.apply(module.connection[l].entry(i, k))
                for j in range(d):
                    base = module.connection[j].entry(i, k)
                    if not base.is_zero():
                        bracket = bracket + frob.apply(base) * correction[l][j]
                exponent = levels[i] - levels[k] + 1
                if exponent >= 0:
                    row.append(bracket.scale(p ** exponent))
                else:
                    bracket = _reduce_entry(bracket, module.basis[i].torsion)
                    if not bracket.is_zero():
                        raise NonIntegralError(
                            f"divided connection entry ({i},{k}) needs division by p^{-exponent}")
                    row.append(RingElem.zero(spec))
            rows.append(row)
        out.append(_canonical_rows(Matrix(spec, rows), module.torsions))
    return out


def check_horizontal(module: LogFFModule) -> CheckResult:
    """Horizontality of phi: delta_j(F) + A_j F = F A'_j for every slot j."""
    g = check_griffiths(module)
    if not g.ok:
        return CheckResult("horizontal", False, skipped=True,
                           reason="requires Griffiths transversality")
    failures = _horizontal_failures(module.frobenius, module.connection,
                                    divided_connection(module), module.torsions)
    return CheckResult("horizontal", not failures, failures)


def _horizontal_failures(H: Matrix, A: list[Matrix], B: list[Matrix],
                         row_mods: list[int]) -> list[dict]:
    """Slots j where delta_j(H) + A_j H != H B_j, row i compared mod p^row_mods[i].

    H is horizontal from the connection B to the connection A when the list
    is empty; each failure names its slot and its first differing entry.
    """
    failures = []
    for j, (Aj, Bj) in enumerate(zip(A, B)):
        loc = (H.log_derive(j + 1) + Aj * H).first_difference(H * Bj, row_mods)
        if loc is not None:
            failures.append({"slot": j + 1, "row": loc[0], "col": loc[1]})
    return failures


def run_all_checks(module: LogFFModule) -> dict[str, CheckResult]:
    """The four structural verdicts with standard gating.

    The divided connection presumes an integrable connection satisfying
    Griffiths transversality, so the horizontality verdict is reported as
    skipped when flatness or transversality fails.
    """
    flat = check_flat(module)
    griffiths = check_griffiths(module)
    if flat.ok and griffiths.ok:
        horizontal = check_horizontal(module)
    else:
        horizontal = CheckResult("horizontal", False, skipped=True,
                                 reason="requires flatness and Griffiths transversality")
    return {
        "flat": flat,
        "griffiths": griffiths,
        "horizontal": horizontal,
        "strong_div": check_strong_div(module),
    }


def _torsion_blocks(module: LogFFModule) -> dict[int, list[int]]:
    blocks: dict[int, list[int]] = {}
    for i, v in enumerate(module.basis):
        blocks.setdefault(v.torsion, []).append(i)
    return blocks


def check_strong_div(module: LogFFModule) -> CheckResult:
    """Strong p-divisibility: phi is an isomorphism Vtilde (x)_Phi R -> V.

    With uniform torsion this is the determinant-unit test mod p (units of
    the mod-p ring are c T^E supported on Laurent slots).  For mixed torsion
    the entries with e_row > e_col vanish mod p by the divisibility
    invariant, so the matrix mod p is block triangular along the p-graded
    pieces and the test applies blockwise after rank matching.
    """
    failures = []
    blocks = _torsion_blocks(module)
    for tor, idxs in sorted(blocks.items()):
        sub = Matrix(module.spec, [[module.frobenius.entry(i, k) for k in idxs] for i in idxs])
        det = sub.det()
        if det.unit_monomial_mod_p() is None:
            failures.append({"torsion_block": tor, "det": str(det)})
    return CheckResult("strong_div", not failures, failures)


def reduce_mod_pm(module: LogFFModule, m: int) -> LogFFModule:
    """Coefficientwise reduction to precision m, torsion exponents clamped to m."""
    if not 1 <= m <= module.spec.n:
        raise ValueError(f"need 1 <= m <= {module.spec.n}")
    spec = module.spec.with_precision(m)
    basis = [replace(v, torsion=min(v.torsion, m)) for v in module.basis]
    conn = [mat.with_spec(spec) for mat in module.connection]
    frob = module.frobenius.with_spec(spec)
    lift = FrobLift(spec, [u.with_spec(spec) for u in module.lift.u])
    return LogFFModule(spec, module.hodge_range, basis, conn, lift, frob,
                       wide_range=module.wide_range)


def root_map(spec: RingSpec, depth: int) -> RingMap:
    """T_j -> T_j^(p^depth) on divisor slots, identity on Laurent slots."""
    images = []
    for j in range(spec.d):
        e = [0] * spec.d
        e[j] = spec.p ** depth if j < spec.s else 1
        images.append((1, tuple(e), RingElem.zero(spec)))
    return RingMap(spec, spec, images)


def root_pullback(module: LogFFModule, depth: int,
                  target_lift: FrobLift | None = None) -> LogFFModule:
    """Base change along the p^depth-th root cover of the divisor coordinates.

    dlog T_j = p^depth dlog T_j^(1/p^depth), so divisor-slot connection
    matrices acquire a factor p^depth and vanish at precision <= depth; the
    module must already be at precision <= depth.
    """
    if module.spec.n > depth and depth != 0:
        raise InvariantViolationError(
            "root_depth", f"module precision {module.spec.n} exceeds root depth {depth}")
    if depth == 0:
        return module
    from .transport import pullback_ff
    lift = target_lift if target_lift is not None else module.lift
    return pullback_ff(module, root_map(module.spec, depth), lift)


@dataclass
class MorphismData:
    source: LogFFModule
    target: LogFFModule
    matrix: Matrix

    def __post_init__(self):
        if self.source.spec != self.target.spec:
            raise SpecMismatchError("morphism between different specs")
        if (self.matrix.nrows, self.matrix.ncols) != (self.target.rank, self.source.rank):
            raise InvariantViolationError("morphism_shape", "")
        self.matrix = _canonical_rows(self.matrix, self.target.torsions)
        for i, vi in enumerate(self.target.basis):
            for k, vk in enumerate(self.source.basis):
                need = max(0, vi.torsion - vk.torsion)
                if need and not self.matrix.entry(i, k).divisible_by_p(need):
                    raise InvariantViolationError(
                        "torsion_divisibility", f"morphism entry ({i},{k})")


def _is_constant(x: RingElem) -> bool:
    return all(all(e == 0 for e in exps) for exps in x.terms)


def check_morphism(md: MorphismData) -> dict[str, CheckResult]:
    """The four morphism verdicts: connection, filtration, strictness, frobenius."""
    out = {"connection": _morphism_connection(md), "filtration": _morphism_filtration(md)}
    if all(_is_constant(x) for row in md.matrix.rows for x in row):
        out["strictness"] = _morphism_strictness(md)
    else:
        out["strictness"] = CheckResult(
            "strictness", False, skipped=True,
            reason="decidable here for constant matrices only")
    out["frobenius"] = _morphism_frobenius(md, out["filtration"].ok)
    return out


def _morphism_connection(md: MorphismData) -> CheckResult:
    failures = _horizontal_failures(md.matrix, md.target.connection, md.source.connection,
                                    md.target.torsions)
    return CheckResult("connection", not failures, failures)


def _morphism_filtration(md: MorphismData) -> CheckResult:
    failures = []
    for i, vi in enumerate(md.target.basis):
        for k, vk in enumerate(md.source.basis):
            if vi.level < vk.level:
                entry = _reduce_entry(md.matrix.entry(i, k), vi.torsion)
                if not entry.is_zero():
                    failures.append({"row": i, "col": k})
    return CheckResult("filtration", not failures, failures)


def _morphism_frobenius(md: MorphismData, filtration_ok: bool) -> CheckResult:
    if not filtration_ok:
        return CheckResult("frobenius", False, skipped=True,
                           reason="requires filtration compatibility")
    spec = md.source.spec
    p = spec.p
    frob = md.target.lift.as_ring_map()
    if md.source.lift != md.target.lift:
        raise SpecMismatchError("morphism checks require a common Frobenius lift")
    # induced map on tilde modules: Htilde[i][k] = p^(lvl2_i - lvl1_k) H[i][k];
    # the exponent is nonnegative wherever the entry is nonzero since the
    # filtration check passed
    rows = []
    for i, vi in enumerate(md.target.basis):
        row = []
        for k, vk in enumerate(md.source.basis):
            entry = md.matrix.entry(i, k)
            if entry.is_zero() or vi.level < vk.level:
                row.append(RingElem.zero(spec))
            else:
                row.append(frob.apply(entry).scale(p ** (vi.level - vk.level)))
        rows.append(row)
    lhs = md.target.frobenius * Matrix(spec, rows)
    rhs = md.matrix * md.source.frobenius
    loc = lhs.first_difference(rhs, md.target.torsions)
    failures = [] if loc is None else [{"row": loc[0], "col": loc[1]}]
    return CheckResult("frobenius", not failures, failures)


def _morphism_strictness(md: MorphismData, cap: int = 200_000) -> CheckResult:
    """Strictness H(V_1) cap Fil^i V_2 = H(Fil^i V_1), by enumeration.

    Constant matrices decompose the condition monomial by monomial, so the
    whole check reduces to the finite coefficient modules.  Non-constant
    entries would need module-theoretic machinery out of scope here.
    """
    H = md.matrix
    if not all(_is_constant(x) for row in H.rows for x in row):
        raise ValueError("strictness check supports constant matrices only")
    p = md.source.spec.p
    src_tors = [p ** v.torsion for v in md.source.basis]
    tgt_tors = [p ** v.torsion for v in md.target.basis]
    size = 1
    for t in src_tors:
        size *= t
    if size > cap:
        raise ValueError(f"source module too large to enumerate ({size} elements)")
    hmat = [[_const_value(x) for x in row] for row in H.rows]

    def apply(vec):
        return tuple(sum(hmat[i][k] * vec[k] for k in range(len(vec))) % tgt_tors[i]
                     for i in range(len(tgt_tors)))

    def vectors(active):
        def rec(k):
            if k == len(src_tors):
                yield ()
                return
            rng = range(src_tors[k]) if active[k] else (0,)
            for c in rng:
                for rest in rec(k + 1):
                    yield (c,) + rest
        return rec(0)

    a, b = md.source.hodge_range
    failures = []
    for i in range(a + 1, b + 1):
        in_fil_src = [v.level >= i for v in md.source.basis]
        low_rows = [r for r, v in enumerate(md.target.basis) if v.level < i]
        fil_images = {apply(vec) for vec in vectors(in_fil_src)}
        for vec in vectors([True] * len(src_tors)):
            img = apply(vec)
            if all(img[r] == 0 for r in low_rows) and img not in fil_images:
                failures.append({"level": i, "witness": list(vec)})
                break
    return CheckResult("strictness", not failures, failures)


def _const_value(x: RingElem) -> int:
    if not x.terms:
        return 0
    return next(iter(x.terms.values()))


# -- fixture generation by linear algebra -------------------------------------


def _diagonalize(mat: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Integer diagonalization M -> U M V = D; returns (D, V).  Row ops are
    not tracked since only the solution reparametrization x = V y is needed."""
    m = [row[:] for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    V = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col_op(c1, c2, q):  # col c2 -= q * col c1
        for r in range(nrows):
            m[r][c2] -= q * m[r][c1]
        for r in range(ncols):
            V[r][c2] -= q * V[r][c1]

    def swap_cols(c1, c2):
        for r in range(nrows):
            m[r][c1], m[r][c2] = m[r][c2], m[r][c1]
        for r in range(ncols):
            V[r][c1], V[r][c2] = V[r][c2], V[r][c1]

    def swap_rows(r1, r2):
        m[r1], m[r2] = m[r2], m[r1]

    t = 0
    while t < min(nrows, ncols):
        # find pivot of minimal absolute value in the remaining block
        pivot = None
        best = None
        for r in range(t, nrows):
            for c in range(t, ncols):
                if m[r][c] and (best is None or abs(m[r][c]) < best):
                    best = abs(m[r][c])
                    pivot = (r, c)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = True
        while dirty:
            dirty = False
            for r in range(t + 1, nrows):
                if m[r][t]:
                    q = m[r][t] // m[t][t]
                    for c in range(t, ncols):
                        m[r][c] -= q * m[t][c]
                    if m[r][t]:
                        swap_rows(t, r)
                        dirty = True
            for c in range(t + 1, ncols):
                if m[t][c]:
                    q = m[t][c] // m[t][t]
                    col_op(t, c, q)
                    if m[t][c]:
                        swap_cols(t, c)
                        dirty = True
        t += 1
    return m, V


def nullspace_mod_pn(rows: list[list[int]], ncols: int, p: int, n: int) -> list[list[int]]:
    """Generators of {x : M x = 0 mod p^n} as vectors of representatives."""
    if not rows:
        ident = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
        return ident
    D, V = _diagonalize(rows)
    q = p ** n
    gens = []
    rank = min(len(D), ncols)
    for i in range(ncols):
        v = int_valp(D[i][i] if i < rank else 0, p)
        scale = 1 if v >= n else p ** (n - v)
        if scale < q:
            gens.append([V[r][i] * scale % q for r in range(ncols)])
    return [g for g in gens if any(g)]


def solve_frobenius(spec: RingSpec, hodge_range: tuple[int, int], basis: list[BasisVector],
                    connection: list[Matrix], lift: FrobLift,
                    support: list[tuple[int, ...]], cap: int = 4096
                    ) -> list[tuple[Matrix, bool]]:
    """All Frobenius matrices with the given monomial support that are horizontal.

    Horizontality delta_j(F) + A_j F = F A'_j is linear in F, so the solutions
    form a module over Z/p^n; they are enumerated from kernel generators and
    each is flagged with its strong-divisibility verdict.  Torsion
    divisibility is built in by solving for the divided entries.
    """
    probe = LogFFModule(spec, hodge_range, basis, connection, lift,
                        Matrix.zeros(spec, len(basis), len(basis)))
    if not check_flat(probe).ok:
        raise InvariantViolationError("flatness", "solve_frobenius needs a flat connection")
    if not check_griffiths(probe).ok:
        raise InvariantViolationError("griffiths", "solve_frobenius needs Griffiths transversality")
    divided = divided_connection(probe)
    r = len(basis)
    p, n, q = spec.p, spec.n, spec.q
    support = [tuple(e) for e in support]
    unknowns = [(i, k, e) for i in range(r) for k in range(r) for e in support]
    scale_for = {(i, k): p ** max(0, basis[i].torsion - basis[k].torsion)
                 for i in range(r) for k in range(r)}

    def unknown_matrix(i, k, exps):
        m = Matrix.zeros(spec, r, r)
        rows = [list(row) for row in m.rows]
        rows[i][k] = RingElem.monomial(spec, exps, scale_for[(i, k)])
        return Matrix(spec, rows)

    eq_rows = []
    for (i, k, exps) in unknowns:
        F1 = unknown_matrix(i, k, exps)
        effects = []
        for j in range(spec.d):
            eff = F1.log_derive(j + 1) + connection[j] * F1 - F1 * divided[j]
            effects.append(eff)
        eq_rows.append(effects)
    # coordinates: (slot j, row i', col k', monomial E')
    coords = []
    seen = set()
    for effects in eq_rows:
        for j, eff in enumerate(effects):
            for i2 in range(r):
                for k2 in range(r):
                    for exps in eff.entry(i2, k2).terms:
                        key = (j, i2, k2, exps)
                        if key not in seen:
                            seen.add(key)
                            coords.append(key)
    matrix_rows = []
    for key in coords:
        j, i2, k2, exps = key
        # equations hold in R/p^{e_{i2}}: scale by p^{n - e} to work mod p^n
        lift_factor = p ** (n - basis[i2].torsion)
        row = []
        for u, effects in enumerate(eq_rows):
            row.append(effects[j].entry(i2, k2).terms.get(exps, 0) * lift_factor % q)
        matrix_rows.append(row)
    gens = nullspace_mod_pn(matrix_rows, len(unknowns), p, n)
    orders = [_vector_order(g, p, n) for g in gens]
    total = 1
    for o in orders:
        total *= o
    if total > cap:
        raise ValueError(f"solution family too large to enumerate ({total})")
    sols = {tuple([0] * len(unknowns))}
    for g, o in zip(gens, orders):
        sols = {tuple((x + t * gi) % q for x, gi in zip(s, g))
                for s in sols for t in range(o)}
    out = []
    seen_matrices = set()
    for s in sorted(sols):
        rows = [[RingElem.zero(spec) for _ in range(r)] for _ in range(r)]
        for (i, k, exps), c in zip(unknowns, s):
            if c:
                rows[i][k] = rows[i][k] + RingElem.monomial(spec, exps, c * scale_for[(i, k)])
        module = LogFFModule(spec, hodge_range, basis, connection, lift, Matrix(spec, rows))
        F = module.frobenius
        key = str(F)
        if key in seen_matrices:
            continue
        seen_matrices.add(key)
        assert check_horizontal(module).ok
        out.append((F, check_strong_div(module).ok))
    return out


def _vector_order(g: list[int], p: int, n: int) -> int:
    """Additive order of a vector mod p^n: p^(n - min valuation of its entries)."""
    q = p ** n
    return p ** (n - min([n] + [int_valp(c % q, p) for c in g]))
