"""Dense and sparse linear algebra over exact rationals or float64.

All matrices are tuples of row tuples.  Exact computations use
``fractions.Fraction`` entries and ``tol == 0``; the numeric backend uses
floats and a strictly positive tolerance.  Dimensions here are tiny
(algebras of dim <= 12, operator spaces of dim <= 144), so the dense
routines are plain Gaussian elimination.  The one place where the system
gets large, solving the centroid equations, goes through
``nullspace_sparse`` which eliminates integer rows incrementally.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple
Mat = tuple


def is_zero(x, tol: float = 0.0) -> bool:
    if tol:
        return abs(x) <= tol
    return x == 0


def vec(entries) -> Vec:
    return tuple(entries)


def mat(rows) -> Mat:
    return tuple(tuple(r) for r in rows)


def _zero_one(tol: float):
    return (0.0, 1.0) if tol else (Fraction(0), Fraction(1))


def zeros(n: int, m: int, tol: float = 0.0) -> Mat:
    return ((_zero_one(tol)[0],) * m,) * n


def identity(n: int, tol: float = 0.0) -> Mat:
    z, one = _zero_one(tol)
    return tuple(tuple(one if i == j else z for j in range(n)) for i in range(n))


def zero_vec(n: int, tol: float = 0.0) -> Vec:
    return (_zero_one(tol)[0],) * n


def basis_vec(n: int, i: int, tol: float = 0.0) -> Vec:
    z, one = _zero_one(tol)
    return tuple(one if j == i else z for j in range(n))


def transpose(A: Mat) -> Mat:
    return tuple(zip(*A)) if A else ()


def mat_mul(A: Mat, B: Mat) -> Mat:
    Bt = transpose(B)
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in Bt) for row in A)


def mat_vec(A: Mat, v: Sequence) -> Vec:
    return tuple(sum(a * x for a, x in zip(row, v)) for row in A)


def mat_add(A: Mat, B: Mat) -> Mat:
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_sub(A: Mat, B: Mat) -> Mat:
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_scale(c, A: Mat) -> Mat:
    return tuple(tuple(c * a for a in row) for row in A)


def vec_add(u: Sequence, v: Sequence) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Sequence, v: Sequence) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v: Sequence) -> Vec:
    return tuple(c * x for x in v)


def dot(u: Sequence, v: Sequence):
    return sum(a * b for a, b in zip(u, v))


def bilinear(G: Mat, u: Sequence, v: Sequence):
    """u^T G v."""
    return dot(mat_vec(G, v), u)


def max_abs(A: Iterable) -> float:
    m = 0
    for row in A:
        for x in row:
            if abs(x) > m:
                m = abs(x)
    return m


def max_abs_vec(v: Sequence):
    return max((abs(x) for x in v), default=0)


def mat_max_diff(A: Mat, B: Mat):
    return max_abs(mat_sub(A, B))


def rref(rows, tol: float = 0.0):
    """Reduced row echelon form.  Returns (rref_rows, pivot_cols).

    Zero rows are dropped.  On the numeric backend the pivot is chosen by
    largest magnitude and entries below tol are snapped to zero.
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= len(m):
            break
        # pick pivot row
        if tol:
            best, best_val = None, tol
            for i in range(r, len(m)):
                if abs(m[i][c]) > best_val:
                    best, best_val = i, abs(m[i][c])
            if best is None:
                continue
        else:
            best = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
            if best is None:
                continue
        m[r], m[best] = m[best], m[r]
        piv = m[r][c]
        m[r] = [x / piv for x in m[r]]
        for i in range(len(m)):
            if i != r and not is_zero(m[i][c], tol):
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    out = []
    for row in m[:r]:
        if tol:
            row = [0.0 if abs(x) <= tol else x for x in row]
        out.append(tuple(row))
    return out, pivots


def rank(A: Mat, tol: float = 0.0) -> int:
    return len(rref(A, tol)[0])


def canonical_rows(vectors, ncols: int, tol: float = 0.0):
    """Canonical reduced-echelon basis of the span of the given vectors."""
    vs = [v for v in vectors if not all(is_zero(x, tol) for x in v)]
    if not vs:
        return []
    rows, _ = rref(vs, tol)
    return [tuple(r) for r in rows]


def nullspace(A: Mat, tol: float = 0.0):
    """Basis of {x : A x = 0}, one vector per free column."""
    if not A:
        return []
    ncols = len(A[0])
    rows, pivots = rref(A, tol)
    return _nullspace_from_rref(rows, pivots, ncols, tol)


def _nullspace_from_rref(rows, pivots, ncols, tol=0.0):
    z, one = _zero_one(tol)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for f in free:
        x = [z] * ncols
        x[f] = one
        for row, p in zip(rows, pivots):
            x[p] = -row[f]
        basis.append(tuple(x))
    return basis


def solve(A: Mat, b: Sequence, tol: float = 0.0):
    """One solution of A x = b, or None if inconsistent."""
    if not A:
        return () if all(is_zero(x, tol) for x in b) else None
    ncols = len(A[0])
    aug = [list(row) + [bb] for row, bb in zip(A, b)]
    rows, pivots = rref(aug, tol)
    x = [_zero_one(tol)[0]] * ncols
    for row, p in zip(rows, pivots):
        if p == ncols:
            return None  # pivot in the constant column
        x[p] = row[-1]
    return tuple(x)


def inverse(A: Mat, tol: float = 0.0) -> Mat:
    n = len(A)
    I = identity(n, tol)
    aug = [list(row) + list(I[i]) for i, row in enumerate(A)]
    rows, pivots = rref(aug, tol)
    if pivots[:n] != list(range(n)) or len(rows) < n:
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def det(A: Mat, tol: float = 0.0):
    n = len(A)
    m = [list(r) for r in A]
    sign = 1
    d = _zero_one(tol)[1]
    for c in range(n):
        if tol:
            piv = max(range(c, n), key=lambda i: abs(m[i][c]))
            if abs(m[piv][c]) <= tol:
                return 0.0
        else:
            piv = next((i for i in range(c, n) if m[i][c] != 0), None)
            if piv is None:
                return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        d *= m[c][c]
        for i in range(c + 1, n):
            if not is_zero(m[i][c], tol):
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return sign * d


def leading_principal_minors(A: Mat, tol: float = 0.0):
    return [det(tuple(tuple(row[: k + 1]) for row in A[: k + 1]), tol) for k in range(len(A))]


# ---------------------------------------------------------------------------
# Sparse integer elimination for the big centroid-style systems.
# ---------------------------------------------------------------------------

def _to_int_row(row: dict) -> dict:
    """Clear denominators and divide by the content."""
    denom = 1
    for v in row.values():
        denom = denom * v.denominator // math.gcd(denom, v.denominator)
    ints = {c: int(v * denom) for c, v in row.items() if v != 0}
    if not ints:
        return {}
    g = 0
    for v in ints.values():
        g = math.gcd(g, v)
    return {c: v // g for c, v in ints.items()}


def nullspace_sparse(equations, ncols: int, tol: float = 0.0):
    """Nullspace basis for a system given as sparse rows {col: coeff}.

    Exact rows are scaled to coprime integers so the incremental
    elimination stays in machine/bignum integer arithmetic.  The numeric
    path densifies and reuses ``nullspace``.
    """
    if tol:
        dense = []
        for eq in equations:
            row = [0.0] * ncols
            for c, v in eq.items():
                row[c] = float(v)
            dense.append(tuple(row))
        if not dense:
            return [basis_vec(ncols, i, tol) for i in range(ncols)]
        return nullspace(tuple(dense), tol)

    pivot_rows = {}  # leading col -> integer row dict
    for eq in equations:
        row = _to_int_row({c: Fraction(v) for c, v in eq.items() if v != 0})
        while row:
            c = min(row)
            if c not in pivot_rows:
                pivot_rows[c] = row
                break
            p = pivot_rows[c]
            a, b = p[c], row[c]
            new = {col: a * v for col, v in row.items()}
            for col, v in p.items():
                new[col] = new.get(col, 0) - b * v
            row = {col: v for col, v in new.items() if v}
            if row:
                g = 0
                for v in row.values():
                    g = math.gcd(g, v)
                row = {col: v // g for col, v in row.items()}
    # back-substitute the small set of pivot rows into RREF
    if not pivot_rows:
        return [basis_vec(ncols, i) for i in range(ncols)]
    dense = []
    for c in sorted(pivot_rows):
        r = [Fraction(0)] * ncols
        for col, v in pivot_rows[c].items():
            r[col] = Fraction(v)
        dense.append(tuple(r))
    rows, pivots = rref(dense)
    return _nullspace_from_rref(rows, pivots, ncols)


# ---------------------------------------------------------------------------
# Operator vectorization and minimal polynomials.
# ---------------------------------------------------------------------------

def vectorize(M: Mat) -> Vec:
    return tuple(x for row in M for x in row)


def unvectorize(v: Sequence, n: int) -> Mat:
    return tuple(tuple(v[i * n + j] for j in range(n)) for i in range(n))


def minimal_polynomial(M: Mat, tol: float = 0.0):
    """Monic minimal polynomial of M as coefficients [c0, c1, ..., 1]."""
    n = len(M)
    P = identity(n, tol)
    powers = [P]
    for _ in range(n + 1):
        P = mat_mul(P, M)
        target = vectorize(P)
        A = transpose(mat([vectorize(Q) for Q in powers]))
        coords = solve(A, target, tol)
        if coords is not None:
            return list(vec_scale(-1, coords)) + [_zero_one(tol)[1]]
        powers.append(P)
    raise AssertionError("minimal polynomial search exceeded dimension bound")


def poly_eval_matrix(coeffs, M: Mat) -> Mat:
    """Evaluate a polynomial (low-to-high coefficients) at a matrix."""
    n = len(M)
    P = identity(n, 1.0 if isinstance(coeffs[-1], float) else 0.0)
    out = mat_scale(0, P)
    for c in coeffs:
        out = mat_add(out, mat_scale(c, P))
        P = mat_mul(P, M)
    return out


def frac_sqrt(x: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    if x == 0:
        return Fraction(0)
    pn = math.isqrt(x.numerator)
    pd = math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


def to_float_mat(A: Mat) -> Mat:
    return tuple(tuple(float(x) for x in row) for row in A)
