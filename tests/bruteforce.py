"""Brute-force oracle for orthogonal bi-invariant complex structures.

Independent route: parametrize the full linear space of operators that are
bi-invariant and skew w.r.t. the Gram, then solve J^2 = -I exactly over the
(low-dimensional) parameter space with sympy.  No decomposition, no
centroid eigenprojections.
"""

from __future__ import annotations

from fractions import Fraction

import sympy

from fraction_reference import basis_vec
from metriclie import linalg
from metriclie.core import MetricLieAlgebra, bracket


def _biinvariance_rows(A: MetricLieAlgebra):
    """Rows of {M : M [X_i, X_j] = [M X_i, X_j] for all ordered pairs}."""
    n = A.dim
    e = [basis_vec(n, i) for i in range(n)]
    c = {(i, j): bracket(A, e[i], e[j]) for i in range(n) for j in range(n)}
    for i in range(n):
        for j in range(n):
            for r in range(n):
                row = {}
                for s in range(n):
                    if c[(i, j)][s]:
                        row[r * n + s] = row.get(r * n + s, 0) + c[(i, j)][s]
                    # [M e_i, e_j] = sum_s M[s][i] [e_s, e_j]
                    if c[(s, j)][r]:
                        row[s * n + i] = row.get(s * n + i, 0) - c[(s, j)][r]
                row = {k: v for k, v in row.items() if v}
                if row:
                    yield row


def _adjoint_rows(A: MetricLieAlgebra, sign):
    """Rows of G M - sign * M^T G = 0 (sign=+1 symmetric, -1 skew)."""
    n = A.dim
    G = A.gram
    for r in range(n):
        for s in range(r, n):
            row = {}
            for t in range(n):
                if G[r][t]:
                    row[t * n + s] = row.get(t * n + s, 0) + G[r][t]
                if G[t][s]:
                    row[t * n + r] = row.get(t * n + r, 0) - sign * G[t][s]
            row = {k: v for k, v in row.items() if v}
            if row:
                yield row


def _sympy_nullspace(rows, ncols):
    M = sympy.SparseMatrix(len(rows), ncols, {
        (ri, col): sympy.Rational(v.numerator, v.denominator)
        for ri, row in enumerate(rows) for col, v in row.items()
    })
    return M.nullspace()


def skew_biinvariant_space(A: MetricLieAlgebra):
    """Basis matrices of the space {J : bi-invariant and G-skew}."""
    n = A.dim
    rows = list(_biinvariance_rows(A)) + list(_adjoint_rows(A, -1))
    basis = [
        tuple(Fraction(int(x.p), int(x.q)) for x in ns)
        for ns in _sympy_nullspace(rows, n * n)
    ]
    return [linalg.unvectorize(b, n) for b in basis]


def centroid_space(A: MetricLieAlgebra, sign=0):
    """Reduced-echelon basis, as vectorized n x n operators, of the
    bi-invariant M, cut down to G M = sign * M^T G when sign is nonzero."""
    n = A.dim
    rows = list(_biinvariance_rows(A))
    if sign:
        rows += _adjoint_rows(A, sign)
    ns = _sympy_nullspace(rows, n * n)
    if not ns:
        return []
    R, _ = sympy.Matrix.hstack(*ns).T.rref()
    return [tuple(Fraction(int(x.p), int(x.q)) for x in R.row(i)) for i in range(len(ns))]


def oracle_complex_structures(A: MetricLieAlgebra, max_params: int = 3):
    """All J with J^2 = -I in the skew bi-invariant space, solved exactly.

    Returns a list of matrices; entries are Fractions when the solution is
    rational, floats otherwise.
    """
    n = A.dim
    ks = skew_biinvariant_space(A)
    d = len(ks)
    if d == 0:
        return []
    assert d <= max_params, f"parameter space has dim {d}, oracle not applicable"
    ts = sympy.symbols(f"t0:{d}")
    prods = {
        (i, j): linalg.mat_mul(ks[i], ks[j]) for i in range(d) for j in range(d)
    }
    eqs = set()
    for r in range(n):
        for s in range(n):
            expr = sympy.Integer(1 if r == s else 0)
            for (i, j), P in prods.items():
                v = P[r][s]
                if v:
                    expr += sympy.Rational(v.numerator, v.denominator) * ts[i] * ts[j]
            if expr != 0:
                eqs.add(sympy.expand(expr))
    sols = sympy.solve(list(eqs), list(ts), dict=True)
    out = []
    for sol in sols:
        vals = [sympy.nsimplify(sol.get(t, sympy.Integer(0))) for t in ts]
        if any(v.free_symbols for v in vals):
            raise AssertionError("continuum of solutions; oracle expects finitely many")
        if any(not v.is_real for v in vals):
            continue
        if all(v.is_rational for v in vals):
            coeffs = [Fraction(int(v.p), int(v.q)) for v in vals]
            J = linalg.zeros(n, n)
        else:
            coeffs = [float(v) for v in vals]
            J = linalg.zeros(n, n, tol=1e-9)
            ks_local = [linalg.to_float_mat(K) for K in ks]
        for idx, cf in enumerate(coeffs):
            K = ks[idx] if isinstance(cf, Fraction) else ks_local[idx]
            J = linalg.mat_add(J, linalg.mat_scale(cf, K))
        out.append(J)
    return out


def matches_within(J, oracle_set, tol=0.0):
    """Is J equal to some oracle matrix (exactly, or entrywise within tol)?"""
    for O in oracle_set:
        if tol:
            if linalg.max_abs(linalg.mat_sub(linalg.to_float_mat(J), linalg.to_float_mat(O))) <= tol:
                return True
        elif J == O:
            return True
    return False


def same_sets(enumerated, oracle_set, tol=0.0):
    if len(enumerated) != len(oracle_set):
        return False
    return all(matches_within(J, oracle_set, tol) for J in enumerated) and all(
        matches_within(O, enumerated, tol) for O in oracle_set
    )
