"""Independent oracles, kept deliberately naive.

The gluing oracle works only for constant connection matrices and constant
lift units, which lets everything stay in exact `fractions.Fraction`
arithmetic with hand-rolled matrix products: no ring elements, no shared
shell machinery, no working-precision tricks.  Shell sums run until three
consecutive shells reduce to zero mod p^n and are cross-checked for
stability against a longer run.  The p-adic valuation and the reduction
into Z/p^n are defined here too, so the oracle shares no arithmetic with
the engine.
"""

import math
from fractions import Fraction

INFINITY = math.inf


def int_valp(m, p):
    """v_p(m) for an integer, with v_p(0) = +infinity."""
    if m == 0:
        return INFINITY
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def valp(q, p):
    """p-adic valuation of a rational: v_p(num) - v_p(den); +inf for 0."""
    q = Fraction(q)
    if q == 0:
        return INFINITY
    return int_valp(q.numerator, p) - int_valp(q.denominator, p)


def reduce_mod_by_definition(q, p, n):
    """A p-integral rational in Z/p^n as the definition states it: valp by
    valp, then the numerator times the inverse of the denominator mod p^n."""
    q = Fraction(q)
    if q == 0:
        return 0
    if valp(q, p) < 0:
        raise ArithmeticError(f"{q} has negative {p}-adic valuation")
    return q.numerator * pow(q.denominator, -1, p ** n) % p ** n


def mat_mul(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, c):
    return [[c * x for x in row] for row in A]


def _multi_indices(d, total):
    if d == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _multi_indices(d - 1, total - first):
            out.append((first,) + rest)
    return out


def _factorial(m):
    out = 1
    for t in range(2, m + 1):
        out *= t
    return out


def glue_matrix_constant(p, n, levels, hodge_a, connections, u1, u2, max_shell=14):
    """Gluing matrix for constant data, as exact rationals reduced mod p^n.

    connections: list of d integer matrices A_j (constant dlog-frame
    connection).  u1, u2: constant unit parts of the two lifts, as integers
    per slot.  On constant vectors nabla(delta_j) acts by A_j alone, so the
    operator for a multi-index is a product of shifted matrices.
    """
    d = len(connections)
    rank = len(levels)
    x = [Fraction(1 + p * a, 1 + p * b) - 1 for a, b in zip(u1, u2)]
    ident = [[Fraction(int(i == j)) for j in range(rank)] for i in range(rank)]
    G = [[Fraction(0) for _ in range(rank)] for _ in range(rank)]
    for k in range(rank):
        i = levels[k]
        tail_vanishes = 0
        for c in range(max_shell):
            shell_vanishes = True
            for index in _multi_indices(d, c):
                # falling operator on the k-th basis vector: product of
                # shifted connection matrices
                op = [row[:] for row in ident]
                for j, ij in enumerate(index):
                    for shift in range(ij):
                        shifted = mat_add(connections[j], mat_scale(ident, -shift))
                        op = mat_mul([[Fraction(v) for v in row] for row in shifted], op)
                coeff = Fraction(1)
                for xj, ij in zip(x, index):
                    coeff *= xj ** ij
                fact = 1
                for ij in index:
                    fact *= _factorial(ij)
                coeff /= fact * Fraction(p) ** min(i - hodge_a, c)
                lvl = max(hodge_a, i - c)
                for m in range(rank):
                    w = op[m][k]
                    if w == 0:
                        continue
                    assert levels[m] >= lvl, "operator left the filtration"
                    term = w * coeff * Fraction(p) ** (levels[m] - lvl)
                    G[m][k] += term
                    if valp(term, p) < n:
                        shell_vanishes = False
            tail_vanishes = tail_vanishes + 1 if shell_vanishes else 0
        assert tail_vanishes >= 3, "oracle shell budget too small"
    return [[reduce_mod_by_definition(entry, p, n) for entry in row] for row in G]
