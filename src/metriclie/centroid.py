"""Centroid computation and the orthogonal decomposition into irreducible factors.

The centroid of an algebra is the space of operators f with
f([X,Y]) = [f(X),Y] for all X, Y.  Fixing Y = X_j, the condition reads
f∘ad(X_j) = ad(X_j)∘f, so the centroid is the commutant of ad(g): its
equations and its residual are the n commutators [ad(X_j), M], read off
the nonzero entries of the ad matrices cached on the algebra.  Every
eigenspace of an element of its symmetric part S (the G-self-adjoint
elements) is an orthogonal ideal; with no abelian factor the decomposition
is unique, so that ideal is a sum of irreducible factors.  Hence S is
spanned by the projections onto the k irreducible factors, and dim S = k.
Decomposition draws one seeded generic element of S with a minimal
polynomial of degree dim S; its k eigenprojections are the factor
projections.

Eigenvalues are extracted exactly from the minimal polynomial when they are
rational; otherwise the whole computation falls back to the float backend
and reports backend="numeric".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import sympy

from . import linalg
from .core import (
    MetricLieAlgebra,
    Subspace,
    has_abelian_factor,
    restrict,
    to_numeric,
)
from .errors import (
    AbelianFactorPresent,
    GenericityFailure,
    InternalAssertionFailure,
    NotAProjection,
)

GENERIC_COEFF_BOUND = 7
MAX_RETRIES = 20


class _NeedNumeric(Exception):
    """Internal: a minimal polynomial has irrational roots."""


@dataclass(frozen=True)
class OperatorSubspace:
    """Canonical basis of a linear space of n x n operators."""

    ambient: MetricLieAlgebra
    basis: tuple  # tuple of matrices

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, M) -> bool:
        if not self.basis:
            return linalg.is_zero(linalg.max_abs(M), self.ambient.tol)
        A = linalg.transpose(linalg.mat([linalg.vectorize(B) for B in self.basis]))
        return linalg.solve(A, linalg.vectorize(M), self.ambient.tol) is not None


def _canonical_operator_space(A: MetricLieAlgebra, vectors) -> OperatorSubspace:
    n = A.dim
    rows = linalg.canonical_rows(vectors, n * n, A.tol)
    return OperatorSubspace(A, tuple(linalg.unvectorize(r, n) for r in rows))


def _commutant_rows(A: MetricLieAlgebra):
    """Sparse rows of the commutant equations (ad(X_j)·M − M·ad(X_j))[r][i] = 0.

    Unknowns are the entries M[r][s] at index r*n + s.  Rows come in the
    order (i, j, r) and zero rows are dropped.
    """
    n = A.dim
    per_j = []
    for entries in A.algebra.ad_entries:
        rows = {}
        for a, b, c in entries:
            for t in range(n):
                # ad[a][b] * M[b][t] in entry (a, t); M[t][a] * ad[a][b] in entry (t, b)
                row = rows.setdefault((a, t), {})
                row[b * n + t] = row.get(b * n + t, 0) + c
                row = rows.setdefault((t, b), {})
                row[t * n + a] = row.get(t * n + a, 0) - c
        per_j.append(rows)
    for i in range(n):
        for rows in per_j:
            for r in range(n):
                row = {k: v for k, v in rows.get((r, i), {}).items() if not linalg.is_zero(v, A.tol)}
                if row:
                    yield row


def _adjoint_constraint_rows(A: MetricLieAlgebra, sign):
    """Rows of G M - sign * M^T G = 0 (sign=+1 symmetric, -1 skew)."""
    n = A.dim
    G = A.gram
    for r in range(n):
        for s in range(r, n):
            row = {}
            for t in range(n):
                if not linalg.is_zero(G[r][t], A.tol):
                    row[t * n + s] = row.get(t * n + s, 0) + G[r][t]
                if not linalg.is_zero(G[t][s], A.tol):
                    row[t * n + r] = row.get(t * n + r, 0) - sign * G[t][s]
            row = {k: v for k, v in row.items() if not linalg.is_zero(v, A.tol)}
            if row:
                yield row


def _centroid_space(A: MetricLieAlgebra, sign=0) -> OperatorSubspace:
    """The commutant of ad(g), cut down to its G-symmetric (sign=+1) or
    G-skew (sign=-1) part when sign is nonzero."""
    eqs = list(_commutant_rows(A))
    if sign:
        eqs += _adjoint_constraint_rows(A, sign)
    basis = linalg.nullspace_sparse(eqs, A.dim * A.dim, A.tol)
    return _canonical_operator_space(A, basis)


def centroid(A: MetricLieAlgebra) -> OperatorSubspace:
    """Solution space of f([X,Y]) = [f(X),Y]; always contains the identity."""
    return _centroid_space(A)


def symmetric_centroid(A: MetricLieAlgebra) -> OperatorSubspace:
    return _centroid_space(A, 1)


def skew_centroid(A: MetricLieAlgebra) -> OperatorSubspace:
    return _centroid_space(A, -1)


def centroid_residual(A: MetricLieAlgebra, M) -> object:
    """Max over i, j of |M[X_i,X_j] − [MX_i,X_j]|, the largest entry of the
    commutators ad(X_j)·M − M·ad(X_j)."""
    n = A.dim
    worst = 0
    for entries in A.algebra.ad_entries:
        D = [[0] * n for _ in range(n)]
        for a, b, c in entries:
            Mb, Da = M[b], D[a]
            for t in range(n):
                Da[t] += c * Mb[t]
                D[t][b] -= M[t][a] * c
        worst = max(worst, linalg.max_abs(D))
    return worst


@dataclass(frozen=True)
class ProjectionCertificate:
    idempotent_residual: object
    bracket_residual: object  # condition (i)
    symmetry_residual: object  # condition (ii)
    passed: bool

    def residuals(self):
        return {
            "idempotent": self.idempotent_residual,
            "bracket": self.bracket_residual,
            "symmetry": self.symmetry_residual,
        }


def is_orthogonal_projection(A: MetricLieAlgebra, P) -> ProjectionCertificate:
    """Check p∘p = p, the bracket condition and G-symmetry, with residuals."""
    tol = A.tol
    idem = linalg.mat_max_diff(linalg.mat_mul(P, P), P)
    br = centroid_residual(A, P)
    G = A.gram
    sym = linalg.mat_max_diff(linalg.mat_mul(G, P), linalg.mat_mul(linalg.transpose(P), G))
    passed = all(linalg.is_zero(r, tol) for r in (idem, br, sym))
    return ProjectionCertificate(idem, br, sym, passed)


@dataclass(frozen=True)
class Factor:
    carrier: Subspace
    projection: tuple
    induced: MetricLieAlgebra
    certificate: dict


@dataclass(frozen=True)
class Decomposition:
    algebra: MetricLieAlgebra
    factors: tuple
    backend: str
    seed: int

    @property
    def k(self) -> int:
        return len(self.factors)

    def carriers(self):
        return [f.carrier for f in self.factors]


def _image_subspace(A: MetricLieAlgebra, P) -> Subspace:
    cols = linalg.transpose(P)
    return Subspace.from_vectors(len(P), list(cols), A.tol)


def _kernel_subspace(A: MetricLieAlgebra, P) -> Subspace:
    return Subspace.from_vectors(len(P), linalg.nullspace(P, A.tol), A.tol)


def split_by_projection(A: MetricLieAlgebra, P):
    """Split A into the factors carried by im(P) and ker(P)."""
    cert = is_orthogonal_projection(A, P)
    if not cert.passed:
        raise NotAProjection(f"operator fails projection axioms: {cert.residuals()}")
    n = A.dim
    im = _image_subspace(A, P)
    ker = _kernel_subspace(A, P)
    Q = linalg.mat_sub(linalg.identity(n, A.tol), P)
    f1 = Factor(im, P, restrict(A, im), {"projection": cert.residuals()})
    f2 = Factor(ker, Q, restrict(A, ker), {"projection": is_orthogonal_projection(A, Q).residuals()})
    return f1, f2


def _rational_roots(coeffs):
    """All roots of a squarefree rational polynomial, if they are all rational.

    Returns a list of Fractions or raises _NeedNumeric.
    """
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(coeffs))
    rts = sympy.roots(expr, x)
    if sum(rts.values()) != len(coeffs) - 1 or any(not r.is_rational for r in rts):
        raise _NeedNumeric
    return [Fraction(int(r.p), int(r.q)) for r in rts]


def _numeric_eigenvalues(M, tol):
    import numpy as np

    gap = max(tol, 1e-8) * 100
    vals = np.linalg.eigvals(np.array(M, dtype=float))
    if np.abs(vals.imag).max() > gap:
        raise InternalAssertionFailure(f"self-adjoint operator has complex eigenvalues {vals}")
    vals = sorted(float(v.real) for v in vals)
    clusters = []
    for v in vals:
        if clusters and abs(v - clusters[-1][-1]) <= gap:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return [sum(c) / len(c) for c in clusters]


def _eigenprojections(a, eigenvalues, tol):
    """Lagrange interpolation projections onto the eigenspaces of a."""
    n = len(a)
    projections = []
    I = linalg.identity(n, tol)
    for lam in eigenvalues:
        P = I
        for mu in eigenvalues:
            if mu == lam:
                continue
            P = linalg.mat_mul(P, linalg.mat_scale(1 / (lam - mu), linalg.mat_sub(a, linalg.mat_scale(mu, I))))
        projections.append(P)
    return projections


def _random_generic_element(S: OperatorSubspace, rng):
    coeffs = []
    for _ in range(S.dim):
        c = 0
        while c == 0:
            c = rng.randint(-GENERIC_COEFF_BOUND, GENERIC_COEFF_BOUND)
        coeffs.append(c)
    n = S.ambient.dim
    tol = S.ambient.tol
    a = linalg.zeros(n, n, tol)
    for c, B in zip(coeffs, S.basis):
        a = linalg.mat_add(a, linalg.mat_scale(float(c) if tol else Fraction(c), B))
    return a


def _factor_projections(A: MetricLieAlgebra, seed: int, max_retries: int):
    """The projections onto the irreducible factors of A: the eigenprojections
    of a symmetric-centroid element with dim S eigenvalues, one per factor.
    Raises _NeedNumeric when those eigenvalues are irrational."""
    S = symmetric_centroid(A)
    if S.dim == 0:
        raise InternalAssertionFailure("symmetric centroid lost the identity operator")
    if S.dim == 1:
        return [linalg.identity(A.dim, A.tol)]
    rng = random.Random(seed)
    for _ in range(max_retries):
        a = _random_generic_element(S, rng)
        mp = linalg.minimal_polynomial(a, A.tol)
        if len(mp) - 1 != S.dim:
            continue  # two factors share an eigenvalue, resample
        eigenvalues = _numeric_eigenvalues(a, A.tol) if A.tol else _rational_roots(mp)
        if len(eigenvalues) == S.dim:
            return _eigenprojections(a, eigenvalues, A.tol)
    raise GenericityFailure(
        f"no separating symmetric centroid element found in {max_retries} draws"
    )


def _carrier_sort_key(f: Factor):
    return (f.carrier.dim, tuple(tuple(x for x in row) for row in f.carrier.basis))


def decompose(A: MetricLieAlgebra, seed: int = 0, max_retries: int = MAX_RETRIES) -> Decomposition:
    """Unique orthogonal decomposition into irreducible factors.

    One generic symmetric-centroid element separates the factors; each
    carrier is the canonical image of its certified projection, and its own
    symmetric centroid must be one-dimensional.  Refuses algebras with a
    non-zero abelian factor, for which uniqueness fails.  Factors are
    ordered by (dim, carrier basis): exact output is bit-identical across
    seeds, numeric output agrees to within ``tol``.
    """
    if A.dim == 0:
        return Decomposition(A, (), A.backend, seed)
    if has_abelian_factor(A):
        raise AbelianFactorPresent(
            "algebra has a non-zero abelian factor; decomposition is not unique"
        )
    work = A
    try:
        projections = _factor_projections(work, seed, max_retries)
    except _NeedNumeric:
        work = to_numeric(A)
        projections = _factor_projections(work, seed, max_retries)

    factors = []
    for P in projections:
        cert = is_orthogonal_projection(work, P)
        if not cert.passed:
            raise InternalAssertionFailure(
                f"factor projection failed verification: {cert.residuals()}"
            )
        carrier = _image_subspace(work, P)
        induced = restrict(work, carrier)
        sdim = symmetric_centroid(induced).dim
        if sdim != 1:
            raise InternalAssertionFailure(
                f"factor is not irreducible: symmetric centroid dim {sdim}"
            )
        factors.append(Factor(carrier, P, induced, {
            "projection": cert.residuals(),
            "symmetric_centroid_dim": sdim,
        }))
    factors.sort(key=_carrier_sort_key)

    # completeness: projections sum to the identity
    n = work.dim
    total = linalg.zeros(n, n, work.tol)
    for f in factors:
        total = linalg.mat_add(total, f.projection)
    if not linalg.is_zero(linalg.mat_max_diff(total, linalg.identity(n, work.tol)), work.tol):
        raise InternalAssertionFailure("factor projections do not sum to the identity")
    return Decomposition(work, tuple(factors), work.backend, seed)


def is_irreducible(A: MetricLieAlgebra) -> bool:
    """No abelian factor and a one-dimensional symmetric centroid."""
    if has_abelian_factor(A):
        raise AbelianFactorPresent("irreducibility criterion needs no abelian factor")
    return symmetric_centroid(A).dim == 1
