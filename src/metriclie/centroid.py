"""Centroid computation and the orthogonal decomposition into irreducible factors.

The centroid of an algebra is the space of operators f with
f([X,Y]) = [f(X),Y] for all X, Y.  Fixing Y = X_j, the condition reads
f∘ad(X_j) = ad(X_j)∘f, so the centroid is the commutant of ad(g): its
equations and its residual are the n commutators [ad(X_j), M], read off
the nonzero entries of the ad matrices cached on the algebra.  It does not
depend on the metric, so it is solved once per Lie algebra and cached with
the ad matrices.  The metric enters only as a system in d = dim(centroid)
unknowns, the coordinates on the centroid basis, that selects the
symmetric part S (the G-self-adjoint elements) or the skew part.  Every
eigenspace of an element of S is an orthogonal ideal; with no abelian
factor the decomposition is unique, so that ideal is a sum of irreducible
factors.  Hence S is spanned by the projections onto the k irreducible
factors, and dim S = k.
Decomposition draws one seeded generic element a of S with dim S distinct
eigenvalues; its k eigenprojections are the factor projections.  On both
backends the split is a k×k problem: S's basis is in reduced echelon form
as n²-vectors (a float one up to rounding at its pivots), so the
coordinates of an element of S are its entries at the k pivots, and a acts
on S by a k×k matrix L_a with a's eigenvalues, read off S's multiplication
table, in integers when exact.  The Lagrange factors of L_a, applied one
after another to the coordinates of I (a k-vector), give the coordinates
of the factor projections, which are lifted back to n×n.

A certified factor projection P = C·R is an idempotent of the centroid, so
g = im P ⊕ ker P as ideals, an operator on im P extends by zero, and
Cᵀ·G·(I − P) = 0: the factor's centroid, symmetric part and skew part are
the compressions {R·M·C} of A's (Melville, Comm. Algebra 20, 1992), which
``_compressions`` forms.  So only A's commutant and metric parts are ever
solved, on both backends.

Both backends share each function's body: it works on sparse integer rows
over one denominator when exact and on the floats over 1 when float, and
only ``linalg``'s helpers that take the tol choose the arithmetic.  The
Lagrange steps of ``_eigenprojections`` stay two algorithms.

Exact eigenvalues are the roots of L_a's minimal polynomial, found by
Sturm-sequence isolation in integers when they are all rational; otherwise
the whole computation falls back to the float backend, backend="numeric",
where a draw is generic when numpy's k eigenvalues of L_a lie apart.

Every projection is certified (idempotent, bracket condition, G-symmetric)
and the projections must sum to I.  On exact operands these residuals are
integer matrix identities over common denominators, with one Fraction per
residual; on float operands they are the float formulas.  A float operator
on an exact algebra is taken on its float copy, ``to_numeric``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property

from . import linalg
from .core import (
    MetricLieAlgebra,
    Subspace,
    _backend_for,
    _Record,
    has_abelian_factor,
    restrict,
    to_numeric,
)
from .errors import (
    AbelianFactorPresent,
    GenericityFailure,
    InternalAssertionFailure,
    NotASubalgebra,
)

GENERIC_COEFF_BOUND = 7
MAX_RETRIES = 20


class _NeedNumeric(Exception):
    """Internal: a minimal polynomial has irrational roots."""


class OperatorSubspace(_Record):
    """Canonical basis of a linear space of n x n operators."""

    ambient: MetricLieAlgebra
    basis: tuple  # tuple of matrices

    @property
    def dim(self) -> int:
        return len(self.basis)


def centroid(A: MetricLieAlgebra) -> OperatorSubspace:
    """Solution space of f([X,Y]) = [f(X),Y]; always contains the identity."""
    return OperatorSubspace(A, A.algebra._centroid_basis)


def _metric_part(A: MetricLieAlgebra, sign) -> OperatorSubspace:
    """The centroid elements M = Σ x_k·B_k with G·M = sign·Mᵀ·G (+1: symmetric,
    -1: skew), solved for x.  G·M − sign·Mᵀ·G is (skew-)symmetric, so its rows
    are its entries (r, s) with r <= s, read off the nonzero B_k[t][u].

    The solutions are canonicalised in the d coordinates x, not in the n²
    matrix entries: the centroid basis B is in reduced echelon form as
    n²-vectors, so rref(X·B) = rref(X)·B, and Σ x_k·B_k is formed only for
    the rows of rref(X).

    G is cleared and the basis read from ``_centroid_entries``, never from
    its Fraction view: when exact, the equations are integer rows, solved by
    sparse integer elimination, and each result entry is an integer sum
    with one Fraction per matrix entry; when float, both are the floats over
    d = 1, and each entry of Σ x_k·B_k is one ``sum`` over its nonzero
    terms, as float ``mat_mul`` forms it, bit for bit.
    """
    n, tol = A.dim, A.tol
    (entries, e), (G, _) = A.algebra._centroid_entries, linalg._cleared_matrix(A.gram, tol)
    eqs = {}  # (r, s) -> {k: coefficient of x_k}
    cols = {}  # t·n + u -> the (k, b) with B_k[t][u] = b ≠ 0, in k order
    for k, E in enumerate(entries):
        for t, u, b in E:
            cols.setdefault(t * n + u, []).append((k, b))
            for r in range(u + 1):
                eq = eqs.setdefault((r, u), {})
                eq[k] = eq.get(k, 0) + G[r][t] * b
            for s in range(u, n):
                eq = eqs.setdefault((u, s), {})
                eq[k] = eq.get(k, 0) - sign * b * G[t][s]
    eqs = [{k: v for k, v in eq.items() if not linalg.is_zero(v, tol)} for eq in eqs.values()]
    coords, dx = linalg._canonical_nullspace([eq for eq in eqs if eq], len(entries), tol)
    rows = ({i: v for i, col in cols.items() if (v := sum([x[k] * b for k, b in col if k in x], 0))}
            for x in coords)
    return OperatorSubspace(A, tuple(linalg.unvectorize(r, n)
                                     for r in linalg._fraction_rows(rows, dx * e, n * n, tol)))


def symmetric_centroid(A: MetricLieAlgebra) -> OperatorSubspace:
    return _metric_part(A, 1)


def skew_centroid(A: MetricLieAlgebra) -> OperatorSubspace:
    return _metric_part(A, -1)


def centroid_residual(A: MetricLieAlgebra, M) -> object:
    """Max over i, j of |M[X_i,X_j] − [MX_i,X_j]|, the largest entry of the
    commutators ad(X_j)·M − M·ad(X_j), formed by ``_int_centroid_residual``
    from M cleared.  A float M on an exact A is taken on to_numeric(A)."""
    A = _backend_for(A, M)
    return _int_centroid_residual(A, *linalg._cleared_matrix(M, A.tol))


def _int_centroid_residual(A: MetricLieAlgebra, X, d) -> object:
    """centroid_residual of the operator X / d, for X cleared as A's tol
    picks (integer rows, or floats over d = 1): the commutators of X with
    the ad entries of ``_int_ad_entries``, over e·d, in one flat list.  Per
    ad entry (a, b, c) and ascending t, over the nonzero entries of X,
    c·X[b][t] is added at (a, t) and then X[t][a]·c subtracted at (t, b),
    so float entries add in the order of the dense formula."""
    n, (ads, e) = A.dim, A.algebra._int_ad_entries
    D = [0] * (n * n * n)  # entry (a, t) of the j-th commutator at (j·n + a)·n + t
    for j, entries in enumerate(ads):
        for a, b, c in entries:
            Xb = X[b]
            for t in range(n):
                if x := Xb[t]:
                    D[(j * n + a) * n + t] += c * x
                if x := X[t][a]:
                    D[(j * n + t) * n + b] -= x * c
    return linalg._int_max_abs([D], e * d, A.tol)


class ProjectionCertificate(_Record):
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
    """Check p∘p = p, the bracket condition and G-symmetry, with residuals;
    the first and last are ``linalg.residual`` of P·P − P and G·P − Pᵀ·G,
    integer identities on exact operands and float formulas otherwise.  A
    float P on an exact A is checked on to_numeric(A)."""
    A = _backend_for(A, P)
    G, tol = A.gram, A.tol
    idem = linalg.residual([(1, P, P), (-1, P)])
    sym = linalg.residual([(1, G, P), (-1, linalg.transpose(P), G)])
    br = centroid_residual(A, P)
    passed = all(linalg.is_zero(r, tol) for r in (idem, br, sym))
    return ProjectionCertificate(idem, br, sym, passed)


class Factor(_Record):
    carrier: Subspace
    projection: tuple
    induced: MetricLieAlgebra
    certificate: dict

    @cached_property
    def _int_split(self):
        """``_int_rows`` of R and of C, for P = C·R (``_pivot_rows``): cleared
        once for the factor's compressions and its J piece."""
        R, C = _pivot_rows(self.projection, self.carrier), self.carrier.matrix_columns()
        return _int_rows(R, self.carrier.tol), _int_rows(C, self.carrier.tol)


class Decomposition(_Record):
    algebra: MetricLieAlgebra
    factors: tuple
    seed: int

    @property
    def backend(self) -> str:
        return self.algebra.backend

    @property
    def k(self) -> int:
        return len(self.factors)

    def carriers(self):
        return [f.carrier for f in self.factors]


def _sign_at(p, t):
    """Sign of the integer polynomial p (low-to-high coefficients) at the integer t."""
    v = 0
    for c in reversed(p):
        v = v * t + c
    return (v > 0) - (v < 0)


def _variations(sturm, t):
    """Sign changes along the Sturm sequence at t; V(lo) − V(hi) counts the
    distinct real roots in (lo, hi]."""
    signs = [s for s in (_sign_at(p, t) for p in sturm) if s]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def _negated_remainder(a, b):
    """−(a mod b) times a positive integer, made primitive: the next term of
    a Sturm sequence.  [] when b divides a."""
    r, lb = list(a), b[-1]
    while len(r) >= len(b):
        c, shift = r[-1], len(r) - len(b)
        # |lb|·r − sign(lb)·c·x^shift·b cancels the leading term
        r = [abs(lb) * x for x in r]
        for i, y in enumerate(b):
            r[shift + i] -= (c if lb > 0 else -c) * y
        while r and r[-1] == 0:
            r.pop()
    g = math.gcd(*r)
    return [-x // g for x in r]


def _integer_root(h, lo, hi):
    """The one simple root of h in (lo, hi], if it is an integer, else raise
    _NeedNumeric.  With one root inside, the sign of h alone bisects."""
    s_hi = _sign_at(h, hi)
    while s_hi and hi - lo > 1:
        mid = (lo + hi) // 2
        s = _sign_at(h, mid)
        if s == -s_hi:
            lo = mid
        else:
            hi, s_hi = mid, s
    if s_hi:
        raise _NeedNumeric  # the root lies strictly between two integers
    return hi


def _rational_roots(coeffs):
    """All roots of a squarefree rational polynomial, if they are all rational.

    Returns a list of Fractions or raises _NeedNumeric.  Exact throughout: with
    integer coefficients a_i and leading a = a_d, h(y) = a^(d−1)·f(y/a) is
    monic with integer coefficients, so every rational root of f is y/a for
    an integer root y of h.  Sturm sequences of h isolate its real roots by
    bisection between integers, starting from the Cauchy bound; a root that
    is alone in an interval (lo, lo + 1] is rational iff h(lo + 1) = 0.
    A repeated root raises ValueError.
    """
    den = math.lcm(*(Fraction(c).denominator for c in coeffs))
    f = [int(Fraction(c) * den) for c in coeffs]
    g = math.gcd(*f)
    f = [c // g for c in f]
    a, d = f[-1], len(f) - 1
    h = [c * a ** (d - 1 - i) for i, c in enumerate(f[:-1])] + [1]
    sturm = [h, [i * c for i, c in enumerate(h)][1:]]
    while len(sturm[-1]) > 1:
        r = _negated_remainder(sturm[-2], sturm[-1])
        if not r:
            raise ValueError("polynomial is not squarefree")
        sturm.append(r)
    bound = 1 + max(map(abs, h[:-1]), default=0)  # every root has |y| < bound
    v_lo, v_hi = _variations(sturm, -bound), _variations(sturm, bound)
    if v_lo - v_hi != d:
        raise _NeedNumeric  # some roots are not real
    roots, intervals = [], [(-bound, v_lo, bound, v_hi)]
    while intervals:
        lo, v_lo, hi, v_hi = intervals.pop()
        if v_lo - v_hi == 1:
            roots.append(Fraction(_integer_root(h, lo, hi), a))
        elif v_lo - v_hi > 1:
            if hi - lo == 1:
                raise _NeedNumeric  # two roots in (lo, lo + 1]: one is not an integer
            mid = (lo + hi) // 2
            v_mid = _variations(sturm, mid)
            intervals += [(lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)]
    return sorted(roots)


def _numeric_eigenvalues(M, tol):
    """numpy's eigenvalues of the float matrix M, their real parts sorted,
    or [] when two adjacent ones lie within 100·max(tol, 1e-8): then two
    factors share an eigenvalue, and the draw is resampled."""
    import numpy as np

    gap = max(tol, 1e-8) * 100
    vals = np.linalg.eigvals(np.array(M, dtype=float))
    if np.abs(vals.imag).max() > gap:
        raise InternalAssertionFailure(f"self-adjoint operator has complex eigenvalues {vals}")
    vals = sorted(float(v.real) for v in vals)
    return [] if any(b - a <= gap for a, b in zip(vals, vals[1:])) else vals


def _eigenprojections(a, eigenvalues, tol, x):
    """The Lagrange projections onto the eigenspaces of the k×k matrix a,
    the products of (a − μ·I)/(λ − μ) over μ ≠ λ, each applied to the
    k-vector x: the factors commute, so they act on x one after another,
    O(k²) each, and no product is formed.  Float operands are a plain loop;
    exact ones stay in integers, a = M / e and the vector w / D."""
    out = []
    if tol:
        for lam in eigenvalues:
            w = list(x)
            for mu in (mu for mu in eigenvalues if mu != lam):
                w = [(sum(m * y for m, y in zip(row, w)) - mu * z) / (lam - mu) for row, z in zip(a, w)]
            out.append(w)
        return out
    M, e = linalg._cleared_matrix(a)
    for lam in eigenvalues:
        w, D = list(x), 1
        for mu in eigenvalues:
            if mu == lam:
                continue
            (p, q), (r, s) = mu.as_integer_ratio(), (lam - mu).as_integer_ratio()
            # (a − μ·I)/(λ − μ) · w/D = s·(q·M·w − e·p·w) / (r·e·q·D), then made primitive
            w = [s * (q * sum(m * y for m, y in zip(row, w)) - e * p * z) for row, z in zip(M, w)]
            D *= r * e * q
            g = math.gcd(D, *w) if D > 0 else -math.gcd(D, *w)
            w, D = [y // g for y in w], D // g
        out.append([Fraction(y, D) for y in w])
    return out


def _random_generic_element(S: OperatorSubspace, rng, table):
    """Σ c_l·S_l with seeded nonzero integer coefficients c_l from [−B, B],
    B = max(GENERIC_COEFF_BOUND, k²) for k = dim S.  Two of the k
    eigenvalues coincide on a hyperplane of coefficients, so by
    Schwartz–Zippel (Schwartz, J. ACM 27, 1980) a draw fails with
    probability below C(k, 2)/(2B) < 1/4.  ``table`` is (T, e) from
    ``_multiplication_table``, and the element is drawn as its k×k matrix
    L_a = Σ c_l·T_l / e on S's coordinates: Fractions on exact operands,
    floats otherwise."""
    k, tol = S.dim, S.ambient.tol
    bound = max(GENERIC_COEFF_BOUND, k ** 2)
    coeffs = []
    for _ in range(k):
        c = 0
        while c == 0:
            c = rng.randint(-bound, bound)
        coeffs.append(c)
    T, e = table
    sums = [[sum(c * Tl[i][j] for c, Tl in zip(coeffs, T)) for j in range(k)] for i in range(k)]
    return tuple(tuple(v / e if tol else Fraction(v, e) for v in row) for row in sums)


def _multiplication_table(S: OperatorSubspace):
    """(R, d, pivots, T) for S: its basis as n²-vectors S_l = R_l / d, in
    integers over one common denominator when exact, as they are with d = 1
    when float; the k pivots of its reduced echelon form (R_l is d at its own
    pivot, every other R_j is 0 there; float R_l is 1 up to rounding); and the
    table T[l][i][j] = (R_l·R_j)[pivot i], so that S_l·S_j = Σ_i
    T[l][i][j]/d²·S_i.  Each entry is one row of R_l times one column of
    R_j, over the nonzero entries of that row: O(k³·n) products."""
    n, k = S.ambient.dim, S.dim
    flat = [x for B in S.basis for row in B for x in row]
    flat, d = linalg._cleared(flat, S.ambient.tol)
    R = [flat[l * n * n:(l + 1) * n * n] for l in range(k)]
    pivots = [next(t for t, x in enumerate(Rl) if not linalg.is_zero(x, S.ambient.tol)) for Rl in R]
    T = []
    for Rl in R:
        Tl = []
        for p in pivots:
            r, s = divmod(p, n)
            row = [(t, x) for t, x in enumerate(Rl[r * n:(r + 1) * n]) if x]
            Tl.append([sum(x * Rj[t * n + s] for t, x in row) for Rj in R])
        T.append(Tl)
    return R, d, pivots, T


def _lift(coords, R, d, n, tol):
    """The operator Σ_j x_j·S_j, S_j = R_j / d, with coordinates x = coords,
    cleared as tol picks: each entry one sum over the nonzero x_j, with one
    Fraction per entry when exact."""
    X, dx = linalg._cleared(coords, tol)
    terms = [(x, Rj) for x, Rj in zip(X, R) if x]
    P = {t: v for t in range(n * n) if (v := sum(x * Rj[t] for x, Rj in terms))}
    return linalg.unvectorize(linalg._fraction_rows([P], dx * d, n * n, tol)[0], n)


def _factor_projections(A: MetricLieAlgebra, seed: int, max_retries: int):
    """The projections onto the irreducible factors of A: the eigenprojections
    of a symmetric-centroid element with dim S eigenvalues, one per factor.
    On both backends the element is its k×k matrix L_a on S's coordinates,
    with the rational roots of its minimal polynomial (exact) or its k
    float eigenvalues, pairwise apart; the eigenprojections are applied to
    the coordinates of I as k-vectors, and each is lifted to n×n once.
    Returns (projections, S).  Raises _NeedNumeric when exact eigenvalues
    are irrational."""
    S = symmetric_centroid(A)
    if S.dim == 0:
        raise InternalAssertionFailure("symmetric centroid lost the identity operator")
    if S.dim == 1:
        return [linalg.identity(A.dim, A.tol)], S
    rng = random.Random(seed)
    R, d, pivots, T = _multiplication_table(S)
    ones = [int(p % (A.dim + 1) == 0) for p in pivots]  # I: 1 at the diagonal pivots
    for _ in range(max_retries):
        a = _random_generic_element(S, rng, (T, d * d))
        if A.tol:
            eigenvalues = _numeric_eigenvalues(a, A.tol)
        else:
            mp = linalg.minimal_polynomial(a)
            eigenvalues = _rational_roots(mp) if len(mp) - 1 == S.dim else ()
        if len(eigenvalues) == S.dim:  # else two factors share an eigenvalue: resample
            return [_lift(x, R, d, A.dim, A.tol) for x in _eigenprojections(a, eigenvalues, A.tol, ones)], S
    raise GenericityFailure(
        f"no separating symmetric centroid element found in {max_retries} draws"
    )


def _pivot_rows(P, carrier: Subspace):
    """R with P = C·R, C the echelon carrier basis as columns: P's rows at
    the carrier's pivots, a row's pivot its first nonzero entry.  R·C = I."""
    return tuple(P[next(c for c, x in enumerate(b) if x)] for b in carrier.basis)


def _int_rows(M, tol):
    """(rows, d): the rows of M = V / d as lists of their nonzero (column, v),
    cleared as tol picks: integers v over one denominator d, or floats over 1."""
    rows = [[(c, x) for c, x in enumerate(row) if x] for row in M]
    ints, d = linalg._cleared([x for row in rows for _, x in row], tol)
    it = iter(ints)
    return [[(c, next(it)) for c, _ in row] for row in rows], d


def _compressions(ops, f: Factor):
    """The canonical basis of {R·M·C : M ∈ span(ops)}, for the factor's
    P = C·R, C its echelon carrier basis as columns and R P's pivot rows:
    the compressions of n×n operators to im P, as s×s matrices.  Each is
    the product R·(M·C) of ``Factor._int_split`` and the op's nonzero
    entries, in integers up to a positive factor when exact, reduced by
    ``linalg._canonical``.  The canonical basis is unique, so a solve on the
    factor gives it too.  For P = I the ops, a canonical basis, are
    returned as they are."""
    s, n, tol = f.carrier.dim, len(f.projection), f.carrier.tol
    if s == n:
        return ops
    ((R, _), (C, _)), products = f._int_split, []
    for M in ops:  # R·(M·C) as {a·s + c: entry}
        MC = linalg._add_int_product(linalg._zero_rows(n, s), _int_rows(M, tol)[0], C)
        X = linalg._add_int_product(linalg._zero_rows(s, s), R, linalg._sparse_rows(MC))
        products.append({a * s + c: x for a, row in enumerate(X) for c, x in enumerate(row) if x})
    rows, e = linalg._canonical(products, s * s, tol)
    return tuple(linalg.unvectorize(r, s) for r in linalg._fraction_rows(rows, e, s * s, tol))


def _carrier_sort_key(f: Factor):
    return (f.carrier.dim, tuple(tuple(x for x in row) for row in f.carrier.basis))


def decompose(A: MetricLieAlgebra, seed: int = 0, max_retries: int = MAX_RETRIES) -> Decomposition:
    """Unique orthogonal decomposition into irreducible factors.

    One generic symmetric-centroid element separates the factors; each
    carrier is the canonical image of its certified projection, and its own
    symmetric centroid, the compression of A's S (``_compressions``), must
    be one-dimensional: a P that merged two factors leaves more.  Refuses
    algebras with a non-zero abelian factor, for which uniqueness fails.
    Factors are ordered by (dim, carrier basis): exact output is
    bit-identical across seeds, numeric output within ``tol``.
    """
    if A.dim == 0:
        return Decomposition(A, (), seed)
    if has_abelian_factor(A):
        raise AbelianFactorPresent(
            "algebra has a non-zero abelian factor; decomposition is not unique"
        )
    work = A
    try:
        projections, S = _factor_projections(work, seed, max_retries)
    except _NeedNumeric:
        work = to_numeric(A)
        projections, S = _factor_projections(work, seed, max_retries)

    factors = []
    for i, P in enumerate(projections):
        cert = is_orthogonal_projection(work, P)
        if not cert.passed:
            raise InternalAssertionFailure(
                f"factor projection failed verification: {cert.residuals()}"
            )
        carrier = Subspace.from_vectors(work.dim, list(linalg.transpose(P)), work.tol)  # the image of P
        try:
            induced = restrict(work, carrier)
        except NotASubalgebra as exc:  # the image of a centroid idempotent is an ideal
            msg = f"carrier of factor {i + 1} (dim {carrier.dim}) is not a subalgebra: {exc}"
            raise InternalAssertionFailure(msg) from exc
        factor = Factor(carrier, P, induced, {"projection": cert.residuals(), "symmetric_centroid_dim": 1})
        sdim = len(_compressions(S.basis, factor))
        if sdim != 1:
            raise InternalAssertionFailure(f"factor is not irreducible: symmetric centroid dim {sdim}")
        factors.append(factor)
    factors.sort(key=_carrier_sort_key)

    # completeness: projections sum to the identity
    I = linalg.identity(work.dim, work.tol)
    residual = linalg.residual([(1, f.projection) for f in factors] + [(-1, I)])
    if not linalg.is_zero(residual, work.tol):
        raise InternalAssertionFailure("factor projections do not sum to the identity")
    return Decomposition(work, tuple(factors), seed)


def is_irreducible(A: MetricLieAlgebra) -> bool:
    """No abelian factor and a one-dimensional symmetric centroid."""
    if has_abelian_factor(A):
        raise AbelianFactorPresent("irreducibility criterion needs no abelian factor")
    return symmetric_centroid(A).dim == 1
