"""Dense matrices over RingElem, sized for rank <= 4 module computations."""

from __future__ import annotations

from .logring import RingElem, RingSpec, SpecMismatchError


class Matrix:
    __slots__ = ("spec", "rows")

    def __init__(self, spec: RingSpec, rows):
        rows = tuple(tuple(r) for r in rows)
        width = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != width:
                raise ValueError("ragged matrix")
            for x in r:
                if x.spec is not spec and x.spec != spec:
                    raise SpecMismatchError("entry in the wrong ring")
        self.spec = spec
        self.rows = rows

    @classmethod
    def zeros(cls, spec: RingSpec, nrows: int, ncols: int) -> "Matrix":
        z = RingElem.zero(spec)
        return cls(spec, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, spec: RingSpec, size: int) -> "Matrix":
        z, one = RingElem.zero(spec), RingElem.one(spec)
        return cls(spec, [[one if i == k else z for k in range(size)] for i in range(size)])

    @classmethod
    def from_ints(cls, spec: RingSpec, rows) -> "Matrix":
        return cls(spec, [[RingElem.const(spec, c) for c in r] for r in rows])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def entry(self, i: int, k: int) -> RingElem:
        return self.rows[i][k]

    def _check_same_shape(self, other: "Matrix"):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        if other.spec != self.spec:
            raise SpecMismatchError(f"{self.spec} vs {other.spec}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.spec, [[a + b for a, b in zip(r1, r2)]
                                  for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.spec, [[a - b for a, b in zip(r1, r2)]
                                  for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self) -> "Matrix":
        return self.map_entries(lambda x: -x)

    def __mul__(self, other):
        """Matrix product, or scaling by a ring element or an integer.

        Products with a zero factor are skipped.  The spec of the other
        matrix is checked once up front, so a mismatch raises even when
        every product would be skipped.
        """
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            if other.spec != self.spec:
                raise SpecMismatchError(f"{self.spec} vs {other.spec}")
            zero = RingElem.zero(self.spec)
            out = []
            for row in self.rows:
                pairs = [(a, other.rows[m]) for m, a in enumerate(row) if a.terms]
                out_row = []
                for k in range(other.ncols):
                    acc = zero
                    for a, brow in pairs:
                        b = brow[k]
                        if b.terms:
                            acc = acc + a * b
                    out_row.append(acc)
                out.append(out_row)
            return Matrix(self.spec, out)
        return self.scale(other)

    def scale(self, c) -> "Matrix":
        if isinstance(c, int):
            return self.map_entries(lambda x: x.scale(c))
        return self.map_entries(lambda x: x * c)

    def mul_vec(self, vec: list[RingElem]) -> list[RingElem]:
        """The matrix applied to a coefficient vector, skipping zero factors.

        Every vector entry's spec is checked up front, zero or not.
        """
        spec = self.spec
        for v in vec:
            if v.spec is not spec and v.spec != spec:
                raise SpecMismatchError(f"{spec} vs {v.spec}")
        support = [(m, v) for m, v in enumerate(vec) if v.terms]
        zero = RingElem.zero(spec)
        out = []
        for row in self.rows:
            acc = zero
            for m, v in support:
                a = row[m]
                if a.terms:
                    acc = acc + a * v
            out.append(acc)
        return out

    def map_entries(self, fn) -> "Matrix":
        return Matrix(self.spec, [[fn(x) for x in r] for r in self.rows])

    def log_derive(self, j: int) -> "Matrix":
        return self.map_entries(lambda x: x.log_derive(j))

    def is_zero(self) -> bool:
        return all(x.is_zero() for r in self.rows for x in r)

    def det(self) -> RingElem:
        size = self.nrows
        if size != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        if size == 0:
            return RingElem.one(self.spec)
        if size == 1:
            return self.rows[0][0]
        acc = RingElem.zero(self.spec)
        for k in range(size):
            if self.rows[0][k].is_zero():
                continue
            minor = Matrix(self.spec, [r[:k] + r[k + 1:] for r in self.rows[1:]])
            term = self.rows[0][k] * minor.det()
            acc = acc + term if k % 2 == 0 else acc - term
        return acc

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.spec == other.spec and self.rows == other.rows

    def eq_mod_rows(self, other: "Matrix", row_mods: list[int]) -> bool:
        """Entrywise equality where row i is compared mod p^row_mods[i]."""
        return ((self.nrows, self.ncols) == (other.nrows, other.ncols)
                and self.first_difference(other, row_mods) is None)

    def first_difference(self, other: "Matrix", row_mods: list[int]):
        """(row, col) of the first entry differing mod the row torsion, or None."""
        for i, m in enumerate(row_mods):
            for k, (a, b) in enumerate(zip(self.rows[i], other.rows[i])):
                if not a.eq_mod(b, m):
                    return (i, k)
        return None

    def with_spec(self, spec: RingSpec) -> "Matrix":
        return Matrix(spec, [[x.with_spec(spec) for x in r] for r in self.rows])

    def __str__(self):
        return "[" + "; ".join(", ".join(str(x) for x in r) for r in self.rows) + "]"

    __repr__ = __str__
