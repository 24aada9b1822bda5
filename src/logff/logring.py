"""The coordinate ring of a logarithmically small chart mod p^n.

Elements live in R = (Z/p^n)[T_1..T_s][T_{s+1}^{+-1}..T_d^{+-1}]: the first s
slots are polynomial (they cut out the boundary divisor T_1*..*T_s = 0), the
rest are Laurent.  The module provides Frobenius lifts T_j -> w_j*T_j^p with
w_j = 1 + p*u_j, unit-monomial ring maps T_j -> c_j*T^{E_j}*(1 + p*h_j),
logarithmic derivations, falling-factorial differential operators, and the
logarithmic Taylor formula.

Internally the 1-form frame is dlog T_j = dT_j/T_j for every slot, with dual
derivations delta_j = T_j d/dT_j; non-divisor slots are Laurent so this loses
nothing.  Divided coefficients such as (Phi(T)/Psi(T)-1)^I / I! are computed
at a raised precision, each power only as far as its own division reads and
never beyond the working precision, from base quantities x_j held only to
the digits those divisions read; each coefficient is then divided by the
power of p in I! * p^e with a checked integer division (a nonzero remainder
raises `exactnum.NonIntegralError`) and multiplied by the inverse of the
unit part of I!, which `exactnum.reduce_mod` supplies.  So every division
by p is an exact, checked operation.  Inside `DividedCoeffs` an exponent
vector is packed into one integer in a balanced radix whose half-width is
proven larger than any exponent an accepted index can produce, so a product
of monomials is one integer addition; `RingElem` stays keyed by tuples.

The gluing formula and the logarithmic Taylor formula are one shell sum,
`_shell_sum`: `taylor_residual` is the gluing of the unit module
O = (R, zero connection, level 0, phi = 1) at r, where delta^I acts
diagonally on monomials, and `transport._glue_columns` feeds the same
engine a module's connection operator.

Packed keys also serve `RingElem.__mul__` once a product has at least
_GRADED_MIN_PAIRS term pairs, as the large closing products of that sum do
(`_graded_product`): both operands are packed in the same balanced radix
(`_pack`), grouped by p-adic valuation, and the pairs of groups whose
products all vanish mod p^n are skipped, with the same bucket-pair loop
that `DividedCoeffs` uses.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import ceil, factorial, gcd
from operator import add

from .exactnum import NonIntegralError, factorial_valp, modinv, reduce_mod


class SpecMismatchError(ValueError):
    """Operands belong to different ring specs."""


class IllegalMapError(ValueError):
    """A ring map violates the unit-monomial invariants."""


class LiftMismatchError(ValueError):
    """Two maps that must agree mod p do not."""


class ElementNotInFilError(ValueError):
    """An element was used at a filtration level it does not lie in."""


class WorkingPrecisionError(AssertionError):
    """Internal: a division needs more p-adic digits than the working precision holds.

    work_precision is proven sufficient for every coefficient a shell sum
    requests, so this signals a bug in that bound, not bad input.
    """


@dataclass(frozen=True)
class RingSpec:
    """Shape of the chart: prime p, precision n, d slots of which the first s are polynomial.

    A spec is frozen, so it derives its constants once, when it is built:
    p^n (`q`), the constants 0 and 1 that `RingElem.zero` and `RingElem.one`
    hand out, and the exponent adder of `RingElem.__mul__`.  It also keeps
    its copies at other precisions (`with_precision` builds each precision
    once per spec).  None of these is a field, so equality and hashing read
    (p, n, d, s) only.
    """

    p: int
    n: int
    d: int
    s: int

    def __post_init__(self):
        if self.p <= 2 or not _is_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.n < 1:
            raise ValueError("precision n must be >= 1")
        if not 0 <= self.s <= self.d:
            raise ValueError("need 0 <= s <= d")
        # plain attributes rather than cached_property: every precision copy
        # reads all four, and on CPython 3.11 each first read of a
        # cached_property takes a lock
        put = object.__setattr__
        put(self, "q", self.p ** self.n)
        put(self, "_zero", RingElem._trusted(self, {}))
        put(self, "_one", RingElem(self, {(0,) * self.d: 1}))
        put(self, "_add_exps", _exponent_adder(self.d))
        put(self, "_at_precision", {})

    def with_precision(self, n: int) -> "RingSpec":
        """The spec at precision n: the spec itself at its own precision (it
        is frozen), else a copy built once per precision and kept."""
        if n == self.n:
            return self
        got = self._at_precision.get(n)
        if got is None:
            got = self._at_precision[n] = RingSpec(self.p, n, self.d, self.s)
        return got

    def localized(self) -> "RingSpec":
        return RingSpec(self.p, self.n, self.d, 0)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least strong pseudoprime to all twelve bases above (OEIS A014233)
_MR_LIMIT = 318665857834031151167461


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin over the first twelve primes.

    Exact for every m below _MR_LIMIT (about 3.2*10^23); larger m are
    refused with ValueError rather than answered probabilistically.
    """
    if m >= _MR_LIMIT:
        raise ValueError(f"p = {m} is beyond the supported bound {_MR_LIMIT}")
    if m < 2:
        return False
    for b in _MR_BASES:
        if m % b == 0:
            return m == b
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _falling_table(x: int, stop: int) -> list[int]:
    """The falling factorials x(x-1)...(x-i+1) of an integer x for i < stop,
    each one product from the one before.

    >>> _falling_table(5, 4), _falling_table(2, 5), _falling_table(-1, 3)
    ([1, 5, 20, 60], [1, 2, 2, 0, 0], [1, -1, 2])
    """
    out = [1]
    for i in range(stop - 1):
        out.append(out[-1] * (x - i))
    return out


def _exponent_adder(d: int):
    """The sum of two exponent vectors of length d, spelled out for d <= 3
    (about half the time of tuple(map(add, ...)) at d = 3)."""
    if d == 1:
        return lambda a, b: (a[0] + b[0],)
    if d == 2:
        return lambda a, b: (a[0] + b[0], a[1] + b[1])
    if d == 3:
        return lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2])
    return lambda a, b: tuple(map(add, a, b))


def _slot0(spec: RingSpec, j: int) -> int:
    """The 0-based position of the 1-based slot index j; ValueError if out of range."""
    if not 1 <= j <= spec.d:
        raise ValueError(f"slot index {j} out of range 1..{spec.d}")
    return j - 1


class RingElem:
    """Sparse element of the mixed polynomial/Laurent ring mod p^n.

    Stored as a map from exponent vectors (tuples of length d) to canonical
    coefficient representatives in [1, p^n).  Zero coefficients are dropped;
    divisor-slot exponents must be nonnegative.
    """

    __slots__ = ("spec", "terms")

    def __init__(self, spec: RingSpec, terms: dict[tuple[int, ...], int]):
        q = spec.q
        clean: dict[tuple[int, ...], int] = {}
        for exps, c in terms.items():
            c %= q
            if c == 0:
                continue
            if len(exps) != spec.d:
                raise ValueError(f"exponent vector {exps} has wrong length for d={spec.d}")
            for j in range(spec.s):
                if exps[j] < 0:
                    raise ValueError(f"negative exponent on divisor slot {j + 1}: {exps}")
            clean[tuple(exps)] = c
        self.spec = spec
        self.terms = clean

    @classmethod
    def _trusted(cls, spec: RingSpec, terms: dict[tuple[int, ...], int]) -> "RingElem":
        """Wrap terms that are already canonical, skipping the checks of __init__.

        Only for results of ring operations on valid elements: every
        coefficient in [1, q), exponent vectors of length d, divisor-slot
        exponents nonnegative.  The dict is taken over, not copied.
        """
        elem = object.__new__(cls)
        elem.spec = spec
        elem.terms = terms
        return elem

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, spec: RingSpec) -> "RingElem":
        """The zero of spec's ring: one shared element per spec (elements are immutable)."""
        return spec._zero

    @classmethod
    def const(cls, spec: RingSpec, c: int) -> "RingElem":
        return cls(spec, {(0,) * spec.d: c})

    @classmethod
    def one(cls, spec: RingSpec) -> "RingElem":
        """The one of spec's ring: one shared element per spec (elements are immutable)."""
        return spec._one

    @classmethod
    def variable(cls, spec: RingSpec, j: int, power: int = 1) -> "RingElem":
        """T_j^power for the 1-based slot index j."""
        exps = [0] * spec.d
        exps[_slot0(spec, j)] = power
        return cls(spec, {tuple(exps): 1})

    @classmethod
    def monomial(cls, spec: RingSpec, exps: tuple[int, ...], c: int = 1) -> "RingElem":
        return cls(spec, {tuple(exps): c})

    # -- ring structure ------------------------------------------------

    def _check(self, other: "RingElem"):
        if self.spec is not other.spec and self.spec != other.spec:
            raise SpecMismatchError(f"{self.spec} vs {other.spec}")

    def __add__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        # elements are immutable, so a zero summand hands back the other operand
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        q = self.spec.q
        for exps, c in other.terms.items():
            r = (out.get(exps, 0) + c) % q
            if r:
                out[exps] = r
            else:
                out.pop(exps, None)
        return RingElem._trusted(self.spec, out)

    def __neg__(self) -> "RingElem":
        q = self.spec.q
        return RingElem._trusted(self.spec, {e: q - c for e, c in self.terms.items()})

    def __sub__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        if not other.terms:
            return self
        out = dict(self.terms)
        q = self.spec.q
        for exps, c in other.terms.items():
            r = (out.get(exps, 0) - c) % q
            if r:
                out[exps] = r
            else:
                out.pop(exps, None)
        return RingElem._trusted(self.spec, out)

    def __mul__(self, other):
        """The product mod p^n, on one of three paths chosen by the operands' sizes.

        From _GRADED_MIN_PAIRS term pairs on, `_graded_product` skips the
        pairs whose product is = 0 mod p^n.  Below that, a one-term operand
        c * T^E shifts every exponent of the other operand by E and scales
        its coefficients by c: distinct terms stay distinct, so nothing is
        merged, and E = 0 is a pure scale (`scale`, so a product by 1 is the
        other operand itself).  Otherwise every pair is multiplied and
        reduced in turn.  All three give the same terms.
        The threshold is measured; see _GRADED_MIN_PAIRS.
        """
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        if len(self.terms) * len(other.terms) >= _GRADED_MIN_PAIRS:
            return _graded_product(self, other)
        spec = self.spec
        q = spec.q
        add_exps = spec._add_exps
        a, b = (other, self) if len(self.terms) == 1 else (self, other)
        out: dict[tuple[int, ...], int] = {}
        if len(b.terms) == 1:
            (shift, c1), = b.terms.items()
            if not any(shift):
                return a.scale(c1)
            for e, c2 in a.terms.items():
                c = c1 * c2 % q
                if c:
                    out[add_exps(e, shift)] = c
            return RingElem._trusted(spec, out)
        right = b.terms.items()
        for e1, c1 in a.terms.items():
            for e2, c2 in right:
                c = c1 * c2 % q
                if c:
                    e = add_exps(e1, e2)
                    if e in out:
                        c = (out[e] + c) % q
                        if not c:
                            del out[e]
                            continue
                    out[e] = c
        return RingElem._trusted(spec, out)

    __rmul__ = __mul__

    def scale(self, c: int) -> "RingElem":
        q = self.spec.q
        c %= q
        if c == 1:
            return self
        out = {}
        for e, v in self.terms.items():
            r = c * v % q
            if r:
                out[e] = r
        return RingElem._trusted(self.spec, out)

    def __pow__(self, m: int) -> "RingElem":
        if m < 0:
            return self.invert_unit() ** (-m)
        out = RingElem.one(self.spec)
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base if m > 1 else base
            m >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElem):
            return NotImplemented
        return self.spec == other.spec and self.terms == other.terms

    def __hash__(self):
        return hash((self.spec, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def eq_mod(self, other: "RingElem", m: int) -> bool:
        """Equality after reduction mod p^m.

        From m = n on this is equality of the canonical representatives in
        [1, p^n), so the term dicts are compared directly; below n every
        difference is reduced mod p^m.
        """
        self._check(other)
        if m >= self.spec.n:
            return self.terms == other.terms
        pm = self.spec.p ** m
        keys = set(self.terms) | set(other.terms)
        return all((self.terms.get(k, 0) - other.terms.get(k, 0)) % pm == 0 for k in keys)

    # -- derivations and operators --------------------------------------

    def log_derive(self, j: int) -> "RingElem":
        """delta_j = T_j d/dT_j on the 1-based slot j: T^E -> E_j T^E."""
        j0 = _slot0(self.spec, j)
        if not self.terms:
            return self
        q = self.spec.q
        out = {}
        for e, c in self.terms.items():
            r = e[j0] * c % q
            if r:
                out[e] = r
        return RingElem._trusted(self.spec, out)

    def d_dT(self, j: int) -> "RingElem":
        """Ordinary derivative d/dT_j; produces T_j^{-1} factors, so the slot must be Laurent."""
        j0 = _slot0(self.spec, j)
        out: dict[tuple[int, ...], int] = {}
        for e, c in self.terms.items():
            if e[j0] == 0:
                continue
            e2 = list(e)
            e2[j0] -= 1
            out[tuple(e2)] = e[j0] * c
        return RingElem(self.spec, out)

    # -- precision and units --------------------------------------------

    def with_spec(self, spec: RingSpec) -> "RingElem":
        """Reinterpret over a compatible spec (canonical lift when raising precision)."""
        if (spec.p, spec.d) != (self.spec.p, self.spec.d):
            raise SpecMismatchError("incompatible specs")
        return RingElem(spec, dict(self.terms))

    def unit_monomial_mod_p(self):
        """If this element is a unit of R/p, return (exps, coeff mod p); else None.

        Units of the mixed ring mod p are exactly c*T^E with c != 0 and E
        supported on Laurent slots.
        """
        p = self.spec.p
        modp = {e: c % p for e, c in self.terms.items() if c % p}
        if len(modp) != 1:
            return None
        (exps, c), = modp.items()
        if any(exps[j] for j in range(self.spec.s)):
            return None
        return exps, c

    def invert_unit(self) -> "RingElem":
        """Inverse of a unit c*T^E*(1 + p*z), via a finite geometric series mod p^n.

        The series' products are RingElem products: a large one skips only
        the term pairs whose product is = 0 mod p^n, and the only division
        is the inverse of the unit c.
        """
        um = self.unit_monomial_mod_p()
        if um is None:
            raise ZeroDivisionError(f"not a unit of the ring: {self}")
        exps, _ = um
        a = self.terms[exps]
        base_inv = RingElem.monomial(self.spec, tuple(-e for e in exps), modinv(a, self.spec.q))
        z = self * base_inv - RingElem.one(self.spec)
        # z is divisible by p, so z^n = 0 mod p^n
        out = RingElem.one(self.spec)
        term = RingElem.one(self.spec)
        for _ in range(1, self.spec.n):
            term = -(term * z)
            if term.is_zero():
                break
            out = out + term
        return out * base_inv

    def divisible_by_p(self, k: int = 1) -> bool:
        pk = self.spec.p ** k
        return all(c % pk == 0 for c in self.terms.values())

    def div_exact_p(self, k: int) -> "RingElem":
        """Divide the canonical representatives by p^k; top k digits of the result are zero.

        The quotient of an element of Z/p^n by p^k is only defined mod p^{n-k};
        this picks the representative with vanishing top digits.
        """
        pk = self.spec.p ** k
        out = {}
        for e, c in self.terms.items():
            if c % pk:
                raise ValueError(f"coefficient {c} not divisible by p^{k}")
            out[e] = c // pk
        return RingElem(self.spec, out)

    # -- display ---------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms):
            c = self.terms[exps]
            factors = [f"T{j + 1}" + (f"^{e}" if e != 1 else "") for j, e in enumerate(exps) if e]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append("*".join([str(c)] + factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"RingElem({self.spec.p}^{self.spec.n}, {self})"


# -- maps ------------------------------------------------------------------


class RingMap:
    """Unit-monomial ring map f(T_j) = c_j * T^{E_j} * (1 + p*h_j).

    The structured (c, E, h) form is kept because ratios f(T_j)/g(T_j) of two
    such maps with equal monomial parts are honest units, which is what the
    divided-power Taylor machinery needs.

    A map is immutable.  Its constructor validates the images and derives
    nothing from them; it memoizes what it derives, each on first read: the
    unit parts c_j * (1 + p*h_j) of the slot images (`unit`), which
    `DividedCoeffs`, the divided connection and the pullback frame read; the
    slot images T^E_j * unit(j) (`image_elem`); each unit's inverse
    (`unit_inverse`); the powers f(T_j)^e that `apply` uses, one per (slot,
    exponent), a negative one built from f(T_j)^(-1) = T^(-E_j) *
    unit_inverse(j); and its copies at other precisions (`with_precision`
    builds each precision once per map and returns the map itself at its own
    precision).  Most precision copies and composites are read by a few of
    these, or by none.
    """

    def __init__(self, source: RingSpec, target: RingSpec,
                 images: list[tuple[int, tuple[int, ...], RingElem]]):
        if (source.p, source.n) != (target.p, target.n):
            raise IllegalMapError("source and target must share p and precision")
        if len(images) != source.d:
            raise IllegalMapError(f"need {source.d} images, got {len(images)}")
        self.source = source
        self.target = target
        norm = []
        for j, (c, exps, h) in enumerate(images):
            c %= target.q
            if c % target.p == 0:
                raise IllegalMapError(f"constant of image {j + 1} is not a unit")
            exps = tuple(exps)
            if len(exps) != target.d:
                raise IllegalMapError(f"image {j + 1}: exponent vector has wrong length")
            if any(exps[l] < 0 for l in range(target.s)):
                raise IllegalMapError(f"image {j + 1}: negative exponent on a target divisor slot")
            if j >= source.s and any(exps[l] for l in range(target.s)):
                raise IllegalMapError(
                    f"image of Laurent slot {j + 1} must be a unit monomial")
            if h.spec != target:
                raise SpecMismatchError("unit part lives in the wrong ring")
            norm.append((c, exps, h))
        self.images = norm
        self._units: list[RingElem] | None = None
        self._elems: list[RingElem] | None = None
        self._unit_invs: dict[int, RingElem] = {}
        # (slot, exponent) -> f(T_j)^e (see _image_pow); without it glue-d3 ran at
        # a median x0.983 of its throughput over 5 in-process A/B runs
        # (CPython 3.11.7, 2 vCPU x86-64 Xeon)
        self._pows: dict[tuple[int, int], RingElem] = {}
        self._at_precision: dict[int, RingMap] = {}

    @classmethod
    def identity(cls, spec: RingSpec) -> "RingMap":
        images = []
        for j in range(spec.d):
            e = [0] * spec.d
            e[j] = 1
            images.append((1, tuple(e), RingElem.zero(spec)))
        return cls(spec, spec, images)

    def image_elem(self, j: int) -> RingElem:
        """f(T_j) for the 1-based slot j; every slot's is built on the first read."""
        elems = self._elems
        if elems is None:
            target = self.target
            elems = self._elems = [RingElem.monomial(target, exps) * self.unit(j0 + 1)
                                   for j0, (_, exps, _) in enumerate(self.images)]
        return elems[j - 1]

    def unit(self, j: int) -> RingElem:
        """The unit part c_j * (1 + p*h_j) of f(T_j), for the 1-based slot j;
        every slot's is built on the first read."""
        units = self._units
        if units is None:
            target = self.target
            one = RingElem.one(target)
            units = self._units = [(one + h.scale(target.p)).scale(c) for c, _, h in self.images]
        return units[j - 1]

    def unit_inverse(self, j: int) -> RingElem:
        """The inverse of unit(j), computed on the first request and kept."""
        inv = self._unit_invs.get(j)
        if inv is None:
            inv = self._unit_invs[j] = self.unit(j).invert_unit()
        return inv

    def _image_pow(self, j0: int, e: int) -> RingElem:
        """f(T_j)^e for j = j0 + 1 and e != 0, memoized per (slot, exponent).

        A positive power whose predecessor f(T_j)^(e-1) is memoized is that
        power times f(T_j); any other is built by repeated squaring, with no
        recursion, so a huge e costs only log e products.  A negative e
        occurs only on a Laurent slot, whose image __init__ has proved to be
        the unit monomial T^E_j * unit(j).
        """
        got = self._pows.get((j0, e))
        if got is None:
            if e > 0:
                prev = self._pows.get((j0, e - 1))
                elem = self.image_elem(j0 + 1)
                got = elem ** e if prev is None else prev * elem
            else:
                exps = tuple(-x for x in self.images[j0][1])
                inv = RingElem.monomial(self.target, exps) * self.unit_inverse(j0 + 1)
                got = inv ** -e
            self._pows[(j0, e)] = got
        return got

    def apply(self, r: RingElem) -> RingElem:
        if r.spec is not self.source and r.spec != self.source:
            raise SpecMismatchError("element not in the source ring")
        out = RingElem.zero(self.target)
        for exps, c in r.terms.items():
            # c is already canonical: source and target share p^n
            term = RingElem._trusted(self.target, {(0,) * self.target.d: c})
            for j0, e in enumerate(exps):
                if e:
                    term = term * self._image_pow(j0, e)
            out = out + term
        return out

    def then(self, g: "RingMap") -> "RingMap":
        """The composite g after self, again in unit-monomial form."""
        if self.target != g.source:
            raise IllegalMapError("maps are not composable")
        p, q = g.target.p, g.target.q
        images = []
        for c, exps, h in self.images:
            new_c = c % q
            new_exps = [0] * g.target.d
            unit = RingElem.one(g.target)
            for l0, e in enumerate(exps):
                if e == 0:
                    continue
                cl, el, hl = g.images[l0]
                new_c = new_c * (pow(cl, e, q) if e > 0 else pow(modinv(cl, q), -e, q)) % q
                for t in range(g.target.d):
                    new_exps[t] += e * el[t]
                one_plus = RingElem.one(g.target) + hl.scale(p)
                unit = unit * (one_plus ** e)
            unit = unit * (RingElem.one(g.target) + g.apply(h).scale(p))
            new_h = (unit - RingElem.one(g.target)).div_exact_p(1)
            images.append((new_c, tuple(new_exps), new_h))
        return RingMap(self.source, g.target, images)

    def with_precision(self, n: int) -> "RingMap":
        """The same images read at precision n (canonical lifts when raising),
        built once per precision and of the same class as the map."""
        if n == self.source.n:
            return self
        got = self._at_precision.get(n)
        if got is None:
            got = self._at_precision[n] = self._at(n)
        return got

    def _at(self, n: int) -> "RingMap":
        src = self.source.with_precision(n)
        tgt = self.target.with_precision(n)
        return RingMap(src, tgt, [(c, e, h.with_spec(tgt)) for c, e, h in self.images])

    def __eq__(self, other):
        if not isinstance(other, RingMap):
            return NotImplemented
        return (self.source, self.target, self.images) == (other.source, other.target, other.images)

    def __hash__(self):
        return hash((self.source, self.target, tuple(self.images)))


class FrobLift(RingMap):
    """Frobenius lift Phi(T_j) = w_j T_j^p with w_j = 1 + p*u_j.

    A lift is the unit-monomial map with c_j = 1, E_j = p*e_j and h_j = u_j,
    so w_j is `unit(j)` and its inverse `unit_inverse(j)`; a lift equals,
    and hashes like, the RingMap with the same images.  `with_precision`
    returns a FrobLift, memoized like any map's.

    Storing the u_j makes the invariant w_j = 1 mod p structural; the lift
    property Phi(r) = r^p mod p then holds for every element.
    """

    def __init__(self, spec: RingSpec, u: list[RingElem]):
        if len(u) != spec.d:
            raise ValueError(f"need {spec.d} unit parts, got {len(u)}")
        for uj in u:
            if uj.spec != spec:
                raise SpecMismatchError("unit part in the wrong ring")
        self.spec = spec
        self.u = list(u)
        images = []
        for j in range(spec.d):
            e = [0] * spec.d
            e[j] = spec.p
            images.append((1, tuple(e), u[j]))
        super().__init__(spec, spec, images)

    @classmethod
    def standard(cls, spec: RingSpec) -> "FrobLift":
        """The lift with w_j = 1 (T_j -> T_j^p)."""
        return cls(spec, [RingElem.zero(spec)] * spec.d)

    def _at(self, n: int) -> "FrobLift":
        spec = self.spec.with_precision(n)
        return FrobLift(spec, [uj.with_spec(spec) for uj in self.u])


# -- truncation control ------------------------------------------------------


def design_shell_bound(p: int, n: int, width: int) -> int:
    """The design truncation bound width + ceil(n(p-1)/(p-2)) for shell sums."""
    return width + ceil(n * (p - 1) / (p - 2))


@cache
def stop_shell(p: int, n: int, width: int) -> int:
    """First shell c from which on every divided term provably vanishes mod p^n.

    A term of order |I| = c carries p-valuation at least
    c - v_p(I!) - min(width, c) >= c - floor((c-1)/(p-1)) - min(width, c),
    and the bound is nondecreasing for c >= width, so once it reaches n all
    later shells are zero.  This makes the truncation a checked fact rather
    than an article of faith; stopping on an observed zero shell alone could
    terminate too early.  A pure function of its arguments, so it is cached.
    """
    c = max(width, 1)
    while c - (c - 1) // (p - 1) - min(width, c) < n:
        c += 1
    return c


def multi_indices(d: int, total: int):
    """All multi-indices of length d with |I| = total, in lexicographic order."""
    if d == 0:
        if total == 0:
            yield ()
        return
    if d == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in multi_indices(d - 1, total - first):
            yield (first,) + rest


def multi_factorial(index: tuple[int, ...]) -> int:
    out = 1
    for i in index:
        out *= factorial(i)
    return out


@cache
def work_precision(p: int, base_n: int, width: int) -> int:
    """The ceiling work_n of the precision for divided coefficients reduced into Z/p^base_n.

    Every division removes at most width + v_p(I!) powers of p beyond those
    guaranteed in the numerator, and v_p(I!) over the computed shells is
    bounded by stop_shell // (p - 1).  work_n bounds what any one coefficient
    may need; `DividedCoeffs` keeps each numerator only to the precision its
    own division reads, which is at most work_n.  Cached, like stop_shell.
    """
    return base_n + width + stop_shell(p, base_n, width) // (p - 1) + 1


@cache
def _x_precision(p: int, base_n: int, width: int) -> int:
    """The digits of the x_j that `DividedCoeffs` holds: the most any shell sum reads.

    A shell sum asks coeff(I, e) with c = |I| < stop_shell and
    e <= min(width, c), which reads x^I mod p^(base_n + e + v_p(I!)), and
    v_p(I!) <= v_p(c!).  Every x_j is divisible by p, so changing one by a
    multiple of p^k changes x^I by a multiple of p^(k + c - 1): x^I mod p^m
    reads the x_j only mod p^(m - c + 1).  That is base_n digits at width 0
    and base_n + 1 at the widths a module allows, never more than
    work_precision.  Cached, like stop_shell.
    """
    top = max((min(width, c) + factorial_valp(c, p) - c + 1
               for c in range(1, stop_shell(p, base_n, width))), default=0)
    return min(work_precision(p, base_n, width), base_n + top)


# -- valuation-graded products on packed keys -----------------------------------


# RingElem.__mul__ takes the graded path from this many term pairs on.  Each
# product RingElem.__mul__ sees over the seed-401 prefixes of the three
# benchmark workloads was timed on both paths (CPython 3.11.7, 2 vCPU x86-64
# Xeon).  Below 64 pairs, where nearly all products of verify-mix and glue-d3
# fall, the graded path is slower by a median 7.0x (taylor-highn), 11.4x
# (glue-d3) and 7.7x (verify-mix); with every product graded the prefixes'
# product time went 26 -> 54 ms (taylor-highn), 8.2 -> 57 ms (glue-d3) and
# 4.3 -> 32 ms (verify-mix).  With this threshold taylor-highn's went to 21 ms
# (88 of its 2786 products graded), glue-d3 grades one product and verify-mix
# none; 256 to 1024 agree within 2%.  End to end, in ten alternating 30 s runs
# per workload against a RingElem.__mul__ with no graded path (timed before
# the one-term path existed), grading every product raised p50 by 37%
# (taylor-highn), 77% (glue-d3) and 44% (verify-mix), while this threshold
# lowered taylor-highn's p50 by 10% and left the other two flat.  Re-timed
# with the graded path removed (in-process A/B, same machine), throughput was
# x0.981 on taylor-highn and x1.017 on glue-d3: each path wins one workload,
# and the operand sizes choose between them.
_GRADED_MIN_PAIRS = 256


@cache
def _valuation_table(p: int, top: int) -> dict[int, int]:
    """p^k -> k for k < top: the valuation of a residue c in [1, p^m), m <= top,
    is read off gcd(c, p^m).  Shared between callers; read it, never change it."""
    return {p ** k: k for k in range(top)}


def _grade(terms: dict[int, int], q: int, valuation_of: dict[int, int]) -> dict:
    """Residues mod q = p^m grouped by exact p-adic valuation.

    Maps v to a pair of parallel lists (packed exponent keys, coefficients);
    zero residues are dropped.  valuation_of must cover every k < m.
    """
    out: dict[int, tuple[list, list]] = {}
    for e, c in terms.items():
        c %= q
        if c:
            v = valuation_of[gcd(c, q)]
            bucket = out.get(v)
            if bucket is None:
                bucket = out[v] = ([], [])
            bucket[0].append(e)
            bucket[1].append(c)
    return out


def _graded_sums(left: dict, right: dict, m: int) -> dict[int, int]:
    """The unreduced product of two graded operands (see _grade) mod p^m.

    Maps each sum of packed keys to the raw sum of its coefficient products.
    A bucket pair with v1 + v2 >= m is skipped without touching its terms:
    every product in it is divisible by p^m, so only pairs whose product is
    = 0 mod p^m are left out, and the result agrees mod p^m with the full
    product.
    """
    acc: dict[int, int] = {}
    get = acc.get
    right_terms = [(v2, list(zip(keys2, coeffs2))) for v2, (keys2, coeffs2) in right.items()]
    for v1, (keys1, coeffs1) in left.items():
        live = [term for v2, terms in right_terms if v1 + v2 < m for term in terms]
        for k1, c1 in zip(keys1, coeffs1):
            for k2, c2 in live:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
    return acc


def _top_exponent(x: RingElem) -> int:
    """max |E_j| over the terms of x (0 for x = 0)."""
    return max((abs(e) for exps in x.terms for e in exps), default=0)


def _x_exponent_bound(g1: RingMap, g2: RingMap, mode: str, work_n: int) -> int:
    """A bound on |exponent| in every x_j that `DividedCoeffs` builds at any precision <= work_n.

    It reads only the maps' images c * T^E * (1 + p*h), whose h keep their
    monomials when a map is read at a higher precision and lose some at a
    lower one, so the monomials of x_j at any precision are among those the
    bound covers.  With M(h) the top |exponent| of h: in mode "ratio"
    x_j = (num - den) * den^(-1), num - den has exponents within
    max(M(h1), M(h2)), and the series of den^(-1) sums at most work_n - 1
    powers of a z with den's exponents; in mode "difference" x_j is
    g1(T_j) - g2(T_j), within max |E| + max(M(h1), M(h2)).
    """
    bound = 0
    for (_, e1, h1), (_, e2, h2) in zip(g1.images, g2.images):
        m1, m2 = _top_exponent(h1), _top_exponent(h2)
        if mode == "ratio":
            top = max(m1, m2) + (work_n - 1) * m2
        else:
            top = max(map(abs, e1 + e2), default=0) + max(m1, m2)
        bound = max(bound, top)
    return bound


def _pack(exps: tuple[int, ...], half: int) -> int:
    """The balanced radix-(2*half + 1) number sum_j E_j * (2*half + 1)^j.

    It is linear in E, so the key of a product of monomials is the sum of
    their keys; `_unpack` inverts it for every E with all |E_j| <= half.
    """
    base = 2 * half + 1
    key = 0
    for e in reversed(exps):
        key = key * base + e
    return key


def _unpack(key: int, half: int, d: int) -> tuple[int, ...]:
    """The d exponents, each in [-half, half], that `_pack` maps to key."""
    base = 2 * half + 1
    digits = []
    for _ in range(d):
        digit = (key + half) % base - half
        digits.append(digit)
        key = (key - digit) // base
    return tuple(digits)


def _graded_product(a: RingElem, b: RingElem) -> RingElem:
    """a * b mod p^n without the term pairs that vanish mod p^n (RingElem.__mul__'s large path).

    Both operands are packed (`_pack`) with half-width max|exponent of a| +
    max|exponent of b|, which bounds every exponent of the product, so no
    carry crosses a slot.  The coefficients are graded by valuation and
    multiplied by `_graded_sums`; each output key is reduced mod p^n and
    decoded once.
    """
    spec = a.spec
    if not a.terms or not b.terms:
        return RingElem._trusted(spec, {})
    half = _top_exponent(a) + _top_exponent(b)
    q = spec.q
    valuation_of = _valuation_table(spec.p, spec.n)

    def graded(x: RingElem) -> dict:
        return _grade({_pack(e, half): c for e, c in x.terms.items()}, q, valuation_of)

    out = {}
    for key, c in _graded_sums(graded(a), graded(b), spec.n).items():
        c %= q
        if c:
            out[_unpack(key, half, spec.d)] = c
    return RingElem._trusted(spec, out)


class DividedCoeffs:
    """Divided coefficients (g1(T)/g2(T) - 1)^I / (I! * p^e) for a pair of maps.

    g1 and g2 must be unit-monomial maps with identical monomial parts that
    agree mod p (LiftMismatchError otherwise).  The powers x^I are accumulated
    at a raised precision, and each requested coefficient is divided exactly
    and reduced into the base precision; a division that is not p-integral
    raises NonIntegralError.

    Each power is kept only to the precision its division reads.  With
    v = p_exponent + v_p(I!), a numerator known mod p^(n+v) determines both
    its remainder mod p^v, which the NonIntegralError check reads, and its
    quotient by p^v mod p^n, which is the coefficient; so `coeff` asks for
    x^I mod p^(n+v), and WorkingPrecisionError fires once n + v > work_n.
    Every x_j is divisible by p, so x^(I - e_j) mod p^(m-1) determines
    x^I mod p^m, and `_power` builds the trie chain of x^I with the
    precision falling by one per step.  No division is skipped and no
    comparison relaxed: every term of every requested coefficient is still
    divided and checked.

    In the default mode="ratio" the base quantity is
    x_j = (num_j - den_j) * den_j^(-1), with num_j and den_j the unit parts of
    g1(T_j) and g2(T_j) (`RingMap.unit`, inverse `RingMap.unit_inverse`) at
    the precision x is held at.  In Z/p^m this is exactly
    num_j * den_j^(-1) - 1, because den_j * den_j^(-1) = 1 there; when
    num_j = den_j, x_j = 0 and no inverse is computed.  With
    mode="difference" the base quantity is x_j = g1(T_j) - g2(T_j) instead;
    this is the coefficient stream of the classical (non-logarithmic)
    comparison formula.

    The x_j are held only to the digits the divisions read.  Changing an
    x_j by a multiple of p^k changes x^I by a multiple of p^(k + |I| - 1),
    so x^I mod p^m reads x only mod p^(m - |I| + 1), and a shell sum reads
    at most `_x_precision` digits of x: n at width 0 and n + 1 at the widths
    a module allows (8 of work_n = 16 at p = 3, n = 8).  `coeff` still accepts
    every request with n + v <= work_n: one that reads more digits of x
    (only a direct request outside the shell-sum contract does) makes
    `_power` build x once more, at work_n.  The powers memoized before stay
    valid to the precision they record, since they read only held digits.
    In either mode `all_zero` records whether every x_j vanishes to the
    digits held, as it does for two equal maps: then every x^I with I != 0
    that a shell sum reads is 0, and every coefficient beyond shell 0 is
    exactly 0 with nothing to divide.

    base_n is the precision of the reduced output; the maps are read at the
    precision x is held at, from whatever precision they carry.  Maps assembled by
    composition must be composed at the working precision already, since a
    base-precision composite underdetermines the digits the divisions
    consume; `work_precision` names the precision to compose at.

    Inside the engine an exponent vector E is one integer, the balanced
    radix-B number P(E) = sum_j E_j * B^j with B = 2h + 1 and digits in
    [-h, h] (`_pack`; Laurent slots carry negative exponents).  P is linear,
    so the exponent of a product is the sum of the keys.  The half-width h
    comes from a proof, not a setting: `coeff` refuses I once
    v_p(I!) > work_n - n, and v_p(i!) >= floor(i/p), so every index it
    accepts has |I| < cap = d * p * (work_n - n + 1); x^I then has exponents
    of absolute value at most M * |I|, M a bound on |exponent| in any x_j,
    and h = M * cap + 1 leaves no carry between digits.  M is read off the
    maps (`_x_exponent_bound`) and covers x at every precision up to
    work_n, so x held at work_n later packs in the same radix and no
    memoized power is ever repacked.  `_power` refuses |I| > cap, so no key
    it builds can collide with another.  `coeff` decodes every output term
    back into the tuple keys of RingElem, which never sees a packed key.
    """

    def __init__(self, g1: RingMap, g2: RingMap, width: int,
                 mode: str = "ratio", base_n: int | None = None):
        if g1.source != g2.source or g1.target != g2.target:
            raise SpecMismatchError("the two maps must share source and target")
        n = base_n if base_n is not None else g1.target.n
        tgt = g1.target.with_precision(n)
        self.base_spec = tgt
        p = tgt.p
        self.p, self.n = p, n
        self.width = width
        self.mode = mode
        self.stop = stop_shell(p, n, width)
        self.design_bound = design_shell_bound(p, n, width)
        self.work_n = work_precision(p, n, width)
        self._maps = (g1, g2)
        self._valuation_of = _valuation_table(p, self.work_n)
        d = g1.source.d
        self._cap = d * p * (self.work_n - n + 1)
        self._half = _x_exponent_bound(g1, g2, mode, self.work_n) * self._cap + 1
        self._hold_x(_x_precision(p, n, width))
        # index -> (m, x^I mod p^m in graded form); m never exceeds work_n
        self._powers: dict[tuple[int, ...], tuple[int, dict]] = {
            (0,) * d: (self.work_n, self._graded({0: 1}, self.work_n))}
        self._coeffs: dict[tuple[tuple[int, ...], int], RingElem] = {}
        # packed key -> exponent tuple: each key is decoded once per engine
        self._exps: dict[int, tuple[int, ...]] = {}

    def _hold_x(self, prec: int):
        """Build every x_j mod p^prec from the maps read at precision prec, and
        keep them packed and graded; `all_zero` says whether they all vanish."""
        g1, g2 = (g.with_precision(prec) for g in self._maps)
        graded = []
        for j in range(g1.source.d):
            if self.mode == "ratio":
                if g1.images[j][1] != g2.images[j][1]:
                    raise LiftMismatchError(
                        f"images of slot {j + 1} have different monomial parts")
                num, den = g1.unit(j + 1), g2.unit(j + 1)
                if num == den:
                    xj = RingElem.zero(g2.target)
                else:
                    xj = (num - den) * g2.unit_inverse(j + 1)
            else:
                xj = g1.image_elem(j + 1) - g2.image_elem(j + 1)
            if not xj.divisible_by_p():
                raise LiftMismatchError(f"maps do not agree mod p on slot {j + 1}")
            graded.append(self._graded({_pack(e, self._half): c for e, c in xj.terms.items()},
                                       prec))
        self._x = graded
        self._x_prec = prec
        self.all_zero = not any(graded)

    def _graded(self, terms: dict[int, int], prec: int) -> dict:
        """Residues mod p^prec (1 <= prec <= work_n) grouped by exact p-adic valuation."""
        return _grade(terms, self.p ** prec, self._valuation_of)

    def _power(self, index: tuple[int, ...], prec: int) -> dict:
        """x^I mod p^prec (prec <= work_n) in graded form (see _graded), memoized
        along the index trie; `coeff` asks for the precision its division reads.

        Every x_j is divisible by p, so x^(I - e_j) mod p^(prec - 1) determines
        x^I = x^(I - e_j) * x_j mod p^prec: the parent is computed only to
        prec - 1, and x^I vanishes mod p^prec outright once |I| >= prec.
        The memo records the precision each power holds; a request for more
        recomputes the power and the part of its trie chain that falls short.
        The chain reads x only mod p^(prec - |I| + 1), the same at every
        step; when that is beyond the digits held, x is held at work_n first.

        Most coefficient pairs of the product have valuation v1 + v2 >= prec
        and vanish; `_graded_sums` skips such a bucket pair without touching
        its terms, and the raw products are reduced mod p^prec once per
        output term.  The grading pays off over the long chains of products
        along the index trie; RingElem.__mul__ uses it only for products of
        at least _GRADED_MIN_PAIRS term pairs, where it was measured to.
        """
        got = self._powers.get(index)
        if got is not None and got[0] >= prec:
            return got[1]
        size = sum(index)
        if size > self._cap:
            raise WorkingPrecisionError(
                f"x^{index} is beyond |I| <= {self._cap}, the largest index the "
                f"packed exponent keys hold")
        if size >= prec:
            return {}
        if prec - size >= self._x_prec:
            # reads x beyond the digits held, which no shell sum does
            self._hold_x(self.work_n)
        j0 = next(i for i, v in enumerate(index) if v)
        parent = list(index)
        parent[j0] -= 1
        out = self._graded(
            _graded_sums(self._power(tuple(parent), prec - 1), self._x[j0], prec), prec)
        self._powers[index] = (prec, out)
        return out

    def coeff(self, index: tuple[int, ...], p_exponent: int) -> RingElem:
        """x^I / (I! * p^p_exponent) as an element mod p^n.

        With v = p_exponent + v_p(I!), x^I is read mod p^(n+v): its remainder
        mod p^v is checked (NonIntegralError if nonzero) and its quotient by
        p^v, taken mod p^n, is the coefficient.  A power memoized at a higher
        precision serves as well.  Each (index, p_exponent) is divided once;
        later requests reuse it.  A power that is 0 mod p^(n+v) has nothing to
        divide: the coefficient is 0, without the inverse of the unit part of
        I! * p^e.
        """
        key = (index, p_exponent)
        got = self._coeffs.get(key)
        if got is not None:
            return got
        p, n = self.p, self.n
        v = p_exponent + sum(factorial_valp(i, p) for i in index)
        if n + v > self.work_n:
            raise WorkingPrecisionError(
                f"coefficient {index} / p^{p_exponent} needs precision {n + v}, "
                f"working precision is {self.work_n}")
        power = self._power(index, n + v)
        if not power:
            self._coeffs[key] = RingElem.zero(self.base_spec)
            return self._coeffs[key]
        pv = p ** v
        # I! * p^e = p^v * unit; invert the unit once for the whole coefficient
        unit_inv = reduce_mod(Fraction(pv, multi_factorial(index) * p ** p_exponent), p, n)
        q, d, half = self.base_spec.q, self.base_spec.d, self._half
        decoded = self._exps
        out = {}
        for w, (keys, coeffs) in power.items():
            if w >= v + n:
                continue   # divisible by p^(v+n): the quotient vanishes mod p^n
            for k, c in zip(keys, coeffs):
                quotient, remainder = divmod(c, pv)
                if remainder:
                    raise NonIntegralError(
                        f"coefficient of T^{_unpack(k, half, d)} in x^{index} is not divisible by "
                        f"{index}! * {p}^{p_exponent}")
                r = quotient * unit_inv % q
                if r:
                    exps = decoded.get(k)
                    if exps is None:
                        exps = decoded[k] = _unpack(k, half, d)
                    out[exps] = r
        result = RingElem._trusted(self.base_spec, out)
        self._coeffs[key] = result
        return result


@cache
def _shells(d: int, stop: int):
    """The multi-indices of length d, grouped by shell |I| = 0 .. stop - 1, each
    paired with its trie parent I - e_j0, j0 the last nonzero slot of I (the
    parent ffmodule._trie_walk derives I from); the origin's parent is None."""
    shells = []
    for c in range(stop):
        shell = []
        for index in multi_indices(d, c):
            j0 = next((j for j in range(d - 1, -1, -1) if index[j]), None)
            parent = None if j0 is None else index[:j0] + (index[j0] - 1,) + index[j0 + 1:]
            shell.append((index, parent))
        shells.append(tuple(shell))
    return tuple(shells)


def _shells_summed(coeffs: DividedCoeffs) -> int:
    """How many shells _shell_sum sums with this engine (see its docstring)."""
    return 1 if coeffs.all_zero else coeffs.stop


def _shell_sum(coeffs: DividedCoeffs, g2: RingMap, rows: list[tuple[int, int]], a: int,
               level: int, operator, memo: dict) -> list[RingElem]:
    """The gluing formula's shell sum on one vector of Fil^level: the one
    engine behind `transport._glue_columns` (a module's connection operator)
    and `taylor_residual` (the falling operator of the unit module).

    Row m is sum_I g2(w_m(I)) * p^(level_m - lvl) * x_I over the shells
    |I| = c, with lvl = max(a, level - c), x_I = coeffs.coeff(I, min(level -
    a, c)) and w(I) the operator vector: memo[I] if held, else operator(I).
    rows holds (level_m, torsion_m); a row with level_m < lvl must have
    w_m(I) = 0 mod p^torsion_m (else ElementNotInFilError) and adds nothing.
    The result is over coeffs.base_spec; g2 may carry more precision.

    Only the live part of the operator trie is visited: the operator at I is
    a factor applied to its value at the trie parent I - e_j0, so below a
    zero parent it is zero too, and the sum skips I with no operator call,
    coefficient or Fil check.  Every other index is visited in shell order,
    so the coefficient requests, and the checked divisions and any error
    they raise, are those of a sweep over every index.

    g2 is additive, so with w_m(I) = sum_E c_E T^E each row regroups as
    sum_E g2(T^E) * S_(m,E), S_(m,E) = sum_I p^(level_m - lvl) * c_E * x_I,
    kept as raw integer sums per monomial of x_I and reduced mod p^n once:
    one map application and one product per (m, E), not one per term.

    When every x_j is 0 (two equal maps), only shell 0 is summed: every
    later x^I / (I! * p^e) is exactly 0 with no division to check, so no
    later shell adds a term or reaches a Fil check.
    """
    p = coeffs.p
    g2_base = g2.with_precision(coeffs.n)
    spec, target = g2_base.source, coeffs.base_spec
    q = target.q
    dead = set()   # the indices whose operator vector is zero
    # row m -> monomial E of w_m -> monomial of x_I -> raw integer sum
    sums: list[dict] = [{} for _ in rows]
    for c, shell in enumerate(_shells(spec.d, _shells_summed(coeffs))):
        p_exp = min(level - a, c)
        lvl = max(a, level - c)
        for index, parent in shell:
            if parent in dead:
                dead.add(index)
                continue
            w = memo.get(index)
            if w is None:
                w = operator(index)
            if not any(x.terms for x in w):
                dead.add(index)
                continue
            coeff = coeffs.coeff(index, p_exp).terms.items()
            if not coeff:
                continue
            for m, wm in enumerate(w):
                if not wm.terms:
                    continue
                level_m, torsion_m = rows[m]
                if level_m < lvl:
                    pm = p ** torsion_m
                    if any(x % pm for x in wm.terms.values()):
                        raise ElementNotInFilError(
                            f"operator output leaves Fil^{lvl} on row {m}")
                    continue
                factor = p ** (level_m - lvl)
                row = sums[m]
                for E, cE in wm.terms.items():
                    s = row.get(E)
                    if s is None:
                        s = row[E] = defaultdict(int)
                    weight = factor * cE
                    for F, x in coeff:
                        s[F] += weight * x
    out = []
    for row in sums:
        acc = RingElem.zero(target)
        for E, s in row.items():
            reduced = {}
            for F, x in s.items():
                x %= q
                if x:
                    reduced[F] = x
            if reduced:
                image = g2_base.apply(RingElem._trusted(spec, {E: 1}))
                acc = acc + image * RingElem._trusted(target, reduced)
        out.append(acc)
    return out


def taylor_residual(r: RingElem, lift1: FrobLift, lift2: FrobLift) -> RingElem:
    """Phi(r) - sum_I Psi(delta^{I}(r)) * (Phi(T)/Psi(T)-1)^I / I!, truncated.

    The sum runs over all shells |I| < stop_shell(p, n, 0); the remaining
    shells provably vanish mod p^n, so the residual is exactly the defect of
    the logarithmic Taylor formula.  The contract is that it is 0 for every r.

    The sum is `_shell_sum` on the unit module O = (R, zero connection,
    level 0, phi = 1) at the vector r, whose operator delta^I is scalar:
    I -> sum_E c_E falling(E, I) T^E for r = sum_E c_E T^E, with falling(E_j,
    i) read off one table per term and slot, built once.
    """
    spec = r.spec
    if lift1.spec != spec or lift2.spec != spec:
        raise SpecMismatchError("lifts must live over the element's spec")
    coeffs = DividedCoeffs(lift1, lift2, width=0)
    q = spec.q
    terms = list(r.terms.items())
    # per term, per slot: falling(E_j, i) for every i < stop
    tables = [[_falling_table(e, coeffs.stop) for e in E] for E, _ in terms]

    def operator(index):
        out = {}
        for (E, cE), table in zip(terms, tables):
            w = cE
            for row, i in zip(table, index):
                if i:
                    w *= row[i]
                    if not w:
                        break
            w %= q
            if w:
                out[E] = w
        return [RingElem._trusted(spec, out)]

    column = _shell_sum(coeffs, lift2, [(0, spec.n)], 0, 0, operator, {})
    return lift1.apply(r) - column[0]
