"""Inputs made by the benchmark itself: structure constants, Gram matrices,
complex structures and CLI documents.  Standard library only, so that the
set-up time measures metriclie's imports and not the benchmark's.
"""

from __future__ import annotations

import json
from fractions import Fraction as F

# [X1, X2] = X3
H3_BRACKETS = {(0, 1): [(2, F(1))]}
# h3(C) as a real algebra: [E1,E3] = E5, [E1,E4] = E6, [E2,E3] = E6, [E2,E4] = -E5
H3C_BRACKETS = {(0, 2): [(4, F(1))], (0, 3): [(5, F(1))],
                (1, 2): [(5, F(1))], (1, 3): [(4, F(-1))]}
# h3 + h3 in the basis X1, X2, Y1, Y2, Z1, Z2: [X1,Y1] = Z1, [X2,Y2] = Z2
H3H3_BRACKETS = {(0, 2): [(4, F(1))], (1, 3): [(5, F(1))]}
# its two summands, as the projections onto (X1, Y1, Z1) and (X2, Y2, Z2)
H3H3_FACTORS = [[[F(int(i == j and i % 2 == b)) for j in range(6)] for i in range(6)]
                for b in (0, 1)]


def scaled(brackets, t, offset=0):
    """Brackets multiplied by t, with every index shifted by offset."""
    return {(i + offset, j + offset): [(k + offset, c * t) for k, c in terms]
            for (i, j), terms in brackets.items()}


def direct_sum(*parts):
    """Brackets of a direct sum of (dim, brackets, scale) parts."""
    out, off = {}, 0
    for dim, brackets, t in parts:
        out.update(scaled(brackets, t, off))
        off += dim
    return out


def identity(n, c=1):
    return [[F(c) if i == j else F(0) for j in range(n)] for i in range(n)]


def mult_by_i(n):
    """E1 -> E2, E2 -> -E1, E3 -> E4, ...: the complex structure of h3c blocks."""
    J = [[F(0)] * n for _ in range(n)]
    for a in range(0, n, 2):
        J[a + 1][a] = F(1)
        J[a][a + 1] = F(-1)
    return J


def block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[F(0)] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(b)] = row
        off += len(b)
    return out


def scale_mat(c, M):
    return [[c * x for x in r] for r in M]


def transpose(M):
    return [list(r) for r in zip(*M)]


def mat_mul(A, B):
    Bt = transpose(B)
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def _det(M):
    m = [list(r) for r in M]
    n, d = len(m), F(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return F(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            d = -d
        d *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return d


def random_spd(n, rng):
    """G = B^T B with B = I + R/10, R a random integer matrix in [-5, 5]."""
    while True:
        B = [[F(int(i == j)) + F(rng.randint(-5, 5), 10) for j in range(n)] for i in range(n)]
        if _det(B):
            return mat_mul(transpose(B), B)


def hermitize(G, J):
    """(G + J^T G J) / 2: a Gram matrix for which J is an isometry."""
    JGJ = mat_mul(transpose(J), mat_mul(G, J))
    return [[(a + b) / 2 for a, b in zip(r1, r2)] for r1, r2 in zip(G, JGJ)]


def sign_choices(blocks):
    """All block-diagonal sums of +-block, in sign order."""
    out = [[]]
    for b in blocks:
        out = [prefix + [s] for prefix in out for s in (1, -1)]
    return [block_diag(*[scale_mat(s, b) for s, b in zip(signs, blocks)]) for signs in out]


def fmt(x):
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def algebra_document(name, dim, brackets, gram):
    """An algebra document in metriclie's JSON input format."""
    return json.dumps({
        "name": name,
        "dim": dim,
        "brackets": [{"i": i + 1, "j": j + 1,
                      "terms": [{"k": k + 1, "c": fmt(c)} for k, c in terms]}
                     for (i, j), terms in sorted(brackets.items())],
        "gram": [[fmt(x) for x in row] for row in gram],
    })
