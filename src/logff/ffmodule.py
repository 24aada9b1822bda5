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

from .exactnum import NonIntegralError
from .logring import (
    ElementNotInFilError,
    FrobLift,
    RingElem,
    RingMap,
    RingSpec,
    SpecMismatchError,
)
from .matrices import Matrix


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
    """x reduced mod p^torsion; x itself from torsion n on, since its
    coefficients are already canonical in [1, p^n)."""
    if torsion >= x.spec.n:
        return x
    pm = x.spec.p ** torsion
    return RingElem(x.spec, {e: c % pm for e, c in x.terms.items()})


def _canonical_rows(mat: Matrix, torsions: list[int]) -> Matrix:
    """mat with row i reduced mod p^torsions[i]; mat itself when every
    torsion is at least n, since every entry is then canonical already."""
    if min(torsions, default=mat.spec.n) >= mat.spec.n:
        return mat
    rows = [[_reduce_entry(x, torsions[i]) for x in row] for i, row in enumerate(mat.rows)]
    return Matrix(mat.spec, rows)


class GlueCache:
    """Gluing work a module reuses across its own shell sums (transport._glue_columns)
    and its gluing checks.

    Each entry depends only on the module, or on the module and one pair of
    maps, so no result depends on the order of calls.  The size is bounded:
    one operator memo per (mode, basis index), each holding at most one
    vector per index below stop_shell; the last gluing (transport.glue_map),
    a frozen GlueMap that names its own pair of maps and carries the
    coefficient engine that built it; and whether the module passed the
    flatness and Griffiths gate (_require_valid_for_glue), which either the
    gate of a gluing or `run_all_checks` sets once both pass.  A failing
    gate is never remembered: it raises on every call.  Divided connections
    are not kept: divided_connection maps each entry once, so computing one
    again costs about what a lookup keyed by the lift would.
    """

    def __init__(self):
        self.operator_memos: dict = {}     # (mode, k) -> {index: vector}
        self.glue = None                   # the last transport.GlueMap, with its pair
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
    (see _trie_walk); without one the walk runs on a fresh dict.  Memoized
    vectors are shared between calls and must not be mutated.
    """
    return _trie_walk(_falling_factor, connection, vec, index, {} if memo is None else memo)


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

    Entry (i, k) of matrix l is p^(level_i - level_k + 1) times the bracket
    Phi(A_l[i,k]) + sum_j Phi(A_j[i,k]) * D[l][j], with the frame correction
    D[l][j] = delta_l(u_j) * w_j^{-1} of the lift, w_j = 1 + p*u_j.  Each
    connection entry is mapped through the lift once, for every l, and a
    correction, with the inverse w_j^{-1} it reads, is built only for a slot
    j whose connection matrix is nonzero and where delta_l(u_j) != 0: every
    other product in the sum is zero.  A negative exponent needs the
    bracket to vanish mod the row's torsion (NonIntegralError otherwise).
    """
    lift = lift if lift is not None else module.lift
    if lift.spec != module.spec:
        raise SpecMismatchError("lift over the wrong spec")
    spec = module.spec
    p, d, r = spec.p, spec.d, module.rank
    levels = module.levels
    zero = RingElem.zero(spec)
    # Phi(A_j[i,k]), each entry mapped once
    mapped = [[[zero if x.is_zero() else lift.apply(x) for x in row] for row in mat.rows]
              for mat in module.connection]
    live = [j for j, mat in enumerate(module.connection)
            if any(not x.is_zero() for row in mat.rows for x in row)]
    out = []
    for l in range(d):
        # (j, D[l][j]) for the slots whose products can be nonzero
        correction = []
        for j in live:
            du = lift.u[j].log_derive(l + 1)
            if not du.is_zero():
                correction.append((j, du * lift.unit_inverse(j + 1)))
        rows = []
        for i in range(r):
            row = []
            for k in range(r):
                bracket = mapped[l][i][k]
                for j, dj in correction:
                    image = mapped[j][i][k]
                    if not image.is_zero():
                        bracket = bracket + image * dj
                exponent = levels[i] - levels[k] + 1
                if exponent >= 0:
                    row.append(bracket.scale(p ** exponent))
                else:
                    bracket = _reduce_entry(bracket, module.basis[i].torsion)
                    if not bracket.is_zero():
                        raise NonIntegralError(
                            f"divided connection entry ({i},{k}) needs division by p^{-exponent}")
                    row.append(zero)
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


def _require_valid_for_glue(module: LogFFModule):
    """The gate of a gluing: flatness and Griffiths transversality, checked once."""
    cache = module._glue_cache
    if cache.valid_for_glue:
        return
    if not check_flat(module).ok:
        raise InvariantViolationError("flatness", "gluing needs an integrable connection")
    if not check_griffiths(module).ok:
        raise InvariantViolationError("griffiths", "gluing needs Griffiths transversality")
    cache.valid_for_glue = True


def run_all_checks(module: LogFFModule) -> dict[str, CheckResult]:
    """The four structural verdicts with standard gating.

    The divided connection presumes an integrable connection satisfying
    Griffiths transversality, so the horizontality verdict is reported as
    skipped when flatness or transversality fails.  When both pass, the
    module's GlueCache records that it passed the gluing gate, so a later
    gluing of the module does not check them again.
    """
    flat = check_flat(module)
    griffiths = check_griffiths(module)
    if flat.ok and griffiths.ok:
        module._glue_cache.valid_for_glue = True
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
    return LogFFModule(spec, module.hodge_range, basis, conn, module.lift.with_precision(m), frob,
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
