"""Metric Lie algebras over exact rationals or float64.

The central object is :class:`MetricLieAlgebra`: structure constants stored
sparsely over ordered pairs i < j, plus a positive definite Gram matrix.
Antisymmetry of the bracket is structural, not data; diagonal entries are
rejected at parse time.  All values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from . import linalg
from .errors import (
    DimensionMismatch,
    JacobiViolation,
    MetricNotPositiveDefinite,
    NotASubalgebra,
    ParseError,
)

EXACT = "exact"
NUMERIC = "numeric"
DEFAULT_TOL = 1e-9


def parse_scalar(value, backend: str = EXACT):
    """Parse an int, Fraction, decimal string or "p/q" string into a scalar.
    The exact backend refuses a float: its decimal input is already lost."""
    try:
        if backend == NUMERIC:
            if isinstance(value, str) and "/" in value:
                num, den = value.split("/")
                return float(num) / float(den)
            return float(value)
        if isinstance(value, float):
            raise ParseError(f"exact scalar given as a float: {value!r}")
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ParseError(f"bad scalar {value!r}: {exc}") from exc


def format_scalar(value) -> str:
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    return repr(float(value))


@dataclass(frozen=True)
class Subspace:
    """A subspace of coordinate space in reduced-echelon canonical form.

    Equality of subspaces is literal equality of their canonical bases.
    """

    ambient_dim: int
    basis: tuple  # tuple of canonical row vectors
    tol: float = 0.0

    @classmethod
    def from_vectors(cls, ambient_dim, vectors, tol=0.0):
        rows = linalg.canonical_rows(vectors, ambient_dim, tol)
        return cls(ambient_dim, tuple(rows), tol)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v) -> bool:
        if not self.basis:
            return all(linalg.is_zero(x, self.tol) for x in v)
        A = linalg.transpose(linalg.mat(self.basis))
        return linalg.solve(A, v, self.tol) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def matrix_columns(self):
        """Basis vectors as the columns of an (ambient x dim) matrix."""
        return linalg.transpose(linalg.mat(self.basis)) if self.basis else tuple(() for _ in range(self.ambient_dim))

    def intersect(self, other: "Subspace") -> "Subspace":
        # x in both spans: solve [B1^T | -B2^T] (a, b) = 0
        if not self.basis or not other.basis:
            return Subspace.from_vectors(self.ambient_dim, [], self.tol)
        rows = []
        for i in range(self.ambient_dim):
            rows.append(tuple(v[i] for v in self.basis) + tuple(-v[i] for v in other.basis))
        sols = linalg.nullspace(linalg.mat(rows), self.tol)
        vecs = []
        for s in sols:
            a = s[: len(self.basis)]
            vecs.append(linalg.vec(sum(c * v[i] for c, v in zip(a, self.basis)) for i in range(self.ambient_dim)))
        return Subspace.from_vectors(self.ambient_dim, vecs, self.tol)


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    structure: tuple  # tuple of ((i, j), ((k, c), ...)) with 0-based i < j
    basis_labels: tuple = ()
    tol: float = 0.0

    def __post_init__(self):
        if not self.basis_labels:
            object.__setattr__(self, "basis_labels", tuple(f"X{i+1}" for i in range(self.dim)))

    @property
    def backend(self) -> str:
        return NUMERIC if self.tol else EXACT

    @cached_property
    def _ad_matrices(self) -> tuple:
        """ad(X_i) for every i, built once: column j of ad(X_i) is [X_i, X_j]."""
        n = self.dim
        z = 0.0 if self.tol else Fraction(0)
        ads = [[[z] * n for _ in range(n)] for _ in range(n)]
        for (i, j), terms in self.structure:
            for k, c in terms:
                ads[i][k][j] += c
                ads[j][k][i] -= c
        return tuple(linalg.mat(ad) for ad in ads)

    @cached_property
    def ad_entries(self) -> tuple:
        """Per i, the nonzero entries (r, s, c) of ad(X_i)."""
        return tuple(
            tuple((r, s, c) for r, row in enumerate(ad) for s, c in enumerate(row) if c)
            for ad in self._ad_matrices
        )

    def bracket_basis(self, i: int, j: int):
        """[X_i, X_j] as a coordinate vector (0-based indices)."""
        return tuple(row[j] for row in self._ad_matrices[i])

    def ad_matrix(self, i: int):
        """Matrix of ad(X_i): v -> [X_i, v]."""
        return self._ad_matrices[i]

    def _commutant_rows(self):
        """Sparse rows of the commutant equations (ad(X_j)·M − M·ad(X_j))[r][i] = 0.

        Unknowns are the entries M[r][s] at index r*n + s.  Rows come in the
        order (i, j, r) and zero rows are dropped.
        """
        n = self.dim
        per_j = []
        for entries in self.ad_entries:
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
                    row = {k: v for k, v in rows.get((r, i), {}).items() if not linalg.is_zero(v, self.tol)}
                    if row:
                        yield row

    @cached_property
    def _centroid_basis(self) -> tuple:
        """Canonical basis of the centroid, the commutant of ad(g), as n x n
        matrices.  It reads only the bracket, so it is solved once per algebra
        and shared by every metric on it."""
        n = self.dim
        null = linalg.nullspace_sparse(list(self._commutant_rows()), n * n, self.tol)
        return tuple(linalg.unvectorize(r, n) for r in linalg.canonical_rows(null, n * n, self.tol))


@dataclass(frozen=True)
class Metric:
    gram: tuple

    def __post_init__(self):
        G = self.gram
        n = len(G)
        for i in range(n):
            if len(G[i]) != n:
                raise DimensionMismatch("Gram matrix is not square")

    def validate(self, tol=0.0):
        G = self.gram
        n = len(G)
        for i in range(n):
            for j in range(i + 1, n):
                if not linalg.is_zero(G[i][j] - G[j][i], tol):
                    raise MetricNotPositiveDefinite(-1)
        for k, minor in enumerate(linalg.leading_principal_minors(G, tol)):
            if not minor > (tol if tol else 0):
                raise MetricNotPositiveDefinite(k + 1)


@dataclass(frozen=True)
class MetricLieAlgebra:
    algebra: LieAlgebra
    metric: Metric
    name: str = ""
    j_marker: Optional[tuple] = None  # optional designated complex-structure matrix

    def __post_init__(self):
        if len(self.metric.gram) != self.algebra.dim:
            raise DimensionMismatch("metric dimension differs from algebra dimension")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def gram(self):
        return self.metric.gram

    @property
    def backend(self) -> str:
        return self.algebra.backend

    @property
    def tol(self) -> float:
        return self.algebra.tol

    def with_metric(self, metric: Metric, name: str = "") -> "MetricLieAlgebra":
        metric.validate(self.tol)
        return MetricLieAlgebra(self.algebra, metric, name or self.name, self.j_marker)


def _check_backend(backend, tol):
    """tol decides the scalars (0: Fraction, > 0: float), so it must agree with backend."""
    if backend == NUMERIC and not tol > 0:
        raise ParseError(f"the numeric backend needs a positive tol, got {tol}")
    if backend != NUMERIC and tol != 0:
        raise ParseError(f"the exact backend needs tol 0, got {tol}")


def make_algebra(dim, brackets, gram=None, name="", backend=EXACT, tol=None,
                 labels=(), j_marker=None, check=True) -> MetricLieAlgebra:
    """Build a validated MetricLieAlgebra.

    ``brackets`` maps (i, j) with 0-based i < j to a list of (k, coeff).
    """
    if tol is None:
        tol = DEFAULT_TOL if backend == NUMERIC else 0.0
    _check_backend(backend, tol)
    structure = []
    for (i, j), terms in sorted(brackets.items()):
        if i == j:
            raise ParseError(f"diagonal bracket [{i+1},{i+1}] is forbidden")
        if not (0 <= i < j < dim):
            raise ParseError(f"bracket indices ({i+1},{j+1}) out of range for dim {dim}")
        clean = tuple((k, c) for k, c in terms if not linalg.is_zero(c, tol))
        for k, _ in clean:
            if not 0 <= k < dim:
                raise ParseError(f"bracket target index {k+1} out of range")
        if clean:
            structure.append(((i, j), clean))
    alg = LieAlgebra(dim, tuple(structure), tuple(labels), tol)
    if gram is None:
        gram = linalg.identity(dim, tol)
    metric = Metric(linalg.mat(gram))
    A = MetricLieAlgebra(alg, metric, name, j_marker)
    if check:
        report = check_jacobi(A)
        if not report.passed:
            raise JacobiViolation(report.worst_triple, report.max_residual)
        metric.validate(tol)
    return A


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def bracket(A: MetricLieAlgebra, u, v):
    """Bilinear antisymmetric extension of the structure constants."""
    alg = A.algebra
    n = alg.dim
    if len(u) != n or len(v) != n:
        raise DimensionMismatch(f"expected vectors of length {n}")
    out = list(linalg.zero_vec(n, A.tol))
    for (i, j), terms in alg.structure:
        coef = u[i] * v[j] - u[j] * v[i]
        if coef:
            for k, c in terms:
                out[k] += coef * c
    return tuple(out)


@dataclass(frozen=True)
class JacobiReport:
    max_residual: object
    worst_triple: Optional[tuple]
    passed: bool


def check_jacobi(A: MetricLieAlgebra) -> JacobiReport:
    """Max residual of the Jacobi identity over all basis triples."""
    n = A.dim
    worst = 0
    worst_triple = None
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                ei, ej, ek = (linalg.basis_vec(n, t, A.tol) for t in (i, j, k))
                res = linalg.vec_add(
                    bracket(A, ei, bracket(A, ej, ek)),
                    linalg.vec_add(
                        bracket(A, ej, bracket(A, ek, ei)),
                        bracket(A, ek, bracket(A, ei, ej)),
                    ),
                )
                r = linalg.max_abs_vec(res)
                if r > worst:
                    worst, worst_triple = r, (i + 1, j + 1, k + 1)
    return JacobiReport(worst, worst_triple, linalg.is_zero(worst, A.tol))


def center(A: MetricLieAlgebra) -> Subspace:
    """Nullspace of the stacked adjoint maps."""
    rows = []
    for j in range(A.dim):
        rows.extend(A.algebra.ad_matrix(j))
    if not rows:
        return Subspace.from_vectors(0, [], A.tol)
    basis = linalg.nullspace(linalg.mat(rows), A.tol)
    return Subspace.from_vectors(A.dim, basis, A.tol)


def derived_subalgebra(A: MetricLieAlgebra) -> Subspace:
    """Span of all basis brackets [X_i, X_j]."""
    vecs = [A.algebra.bracket_basis(i, j) for i in range(A.dim) for j in range(i + 1, A.dim)]
    return Subspace.from_vectors(A.dim, vecs, A.tol)


def has_abelian_factor(A: MetricLieAlgebra) -> bool:
    """True iff Z(g) is not contained in [g, g]; metric-independent."""
    if A.dim == 0:
        return False
    return not derived_subalgebra(A).contains_subspace(center(A))


def direct_sum(A: MetricLieAlgebra, B: MetricLieAlgebra, name: str = "") -> MetricLieAlgebra:
    if A.backend != B.backend:
        raise DimensionMismatch("cannot sum algebras on different backends")
    n, m = A.dim, B.dim
    brackets = {}
    for (i, j), terms in A.algebra.structure:
        brackets[(i, j)] = list(terms)
    for (i, j), terms in B.algebra.structure:
        brackets[(i + n, j + n)] = [(k + n, c) for k, c in terms]
    z = 0.0 if A.tol else Fraction(0)
    gram = [
        [A.gram[i][j] if i < n and j < n else (B.gram[i - n][j - n] if i >= n and j >= n else z)
         for j in range(n + m)]
        for i in range(n + m)
    ]
    labels = tuple(f"{l}" for l in A.algebra.basis_labels) + tuple(f"{l}'" for l in B.algebra.basis_labels)
    jm = None
    if A.j_marker is not None and B.j_marker is not None:
        jm = linalg.mat(
            [list(A.j_marker[i]) + [z] * m for i in range(n)]
            + [[z] * n + list(B.j_marker[i]) for i in range(m)]
        )
    return make_algebra(n + m, brackets, gram, name or f"{A.name}+{B.name}",
                        A.backend, A.tol, labels, j_marker=jm, check=False)


def restrict(A: MetricLieAlgebra, S: Subspace, name: str = "") -> MetricLieAlgebra:
    """Induced bracket and Gram on a bracket-closed subspace."""
    if S.ambient_dim != A.dim:
        raise DimensionMismatch("subspace ambient dimension mismatch")
    basis = S.basis
    s = len(basis)
    C = S.matrix_columns()  # n x s
    brackets = {}
    for p in range(s):
        for q in range(p + 1, s):
            w = bracket(A, basis[p], basis[q])
            coords = linalg.solve(C, w, A.tol) if s else None
            if coords is None:
                raise NotASubalgebra((p + 1, q + 1))
            terms = [(k, c) for k, c in enumerate(coords) if not linalg.is_zero(c, A.tol)]
            if terms:
                brackets[(p, q)] = terms
    gram = [[linalg.bilinear(A.gram, basis[p], basis[q]) for q in range(s)] for p in range(s)]
    return make_algebra(s, brackets, gram, name or f"{A.name}|sub", A.backend, A.tol, check=False)


def to_numeric(A: MetricLieAlgebra, tol: float = DEFAULT_TOL) -> MetricLieAlgebra:
    """Convert an exact algebra to the float backend."""
    _check_backend(NUMERIC, tol)
    if A.backend == NUMERIC:
        return A
    brackets = {}
    for (i, j), terms in A.algebra.structure:
        brackets[(i, j)] = [(k, float(c)) for k, c in terms]
    gram = linalg.to_float_mat(A.gram)
    jm = linalg.to_float_mat(A.j_marker) if A.j_marker is not None else None
    return make_algebra(A.dim, brackets, gram, A.name, NUMERIC, tol,
                        A.algebra.basis_labels, j_marker=jm, check=False)
