"""Metric Lie algebras over exact rationals or float64.

The central object is :class:`MetricLieAlgebra`: structure constants stored
sparsely over ordered pairs i < j, plus a positive definite Gram matrix.
Antisymmetry of the bracket is structural, not data; diagonal entries are
rejected at parse time.  All values are immutable after construction.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import cached_property

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


def parse_scalar(value, tol: float = 0.0):
    """Parse an int, Fraction, decimal string or "p/q" string into a scalar:
    a Fraction at tol 0, a float at tol > 0.  At tol 0 a float is refused:
    its decimal input is already lost."""
    try:
        if tol:
            if isinstance(value, str) and "/" in value:
                num, den = value.split("/")
                return float(num) / float(den)
            return float(value)
        if isinstance(value, float):
            raise ParseError(f"exact scalar given as a float: {value!r}")
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ParseError(f"bad scalar {value!r}: {exc}") from exc


def _scalar(x, tol: float):
    """x as a scalar of the backend that tol picks: a float at tol > 0, and
    at tol 0 a Fraction, an int read as the Fraction it equals.  Anything
    else at tol 0, a float above all, raises TypeError: exact work on a
    float's binary value would approximate it silently."""
    if tol:
        return float(x)
    if type(x) is int or type(x) is Fraction:
        return Fraction(x)
    raise TypeError(f"exact entries are Fractions or ints, not {x!r}; use tol > 0 for floats")


def _scalars(M, tol: float):
    """The matrix M with ``_scalar`` entries, or M itself when it has them."""
    kind = float if tol else Fraction
    if all(type(x) is kind for row in M for x in row):
        return M
    return linalg.mat((_scalar(x, tol) for x in row) for row in M)


def format_scalar(value) -> str:
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    return repr(float(value))


class _Record:
    """A frozen record that generates no code, so a cold CLI call imports
    neither ``inspect`` nor the standard frozen-record module.

    A subclass's own annotated names are its fields, in order, and a class
    attribute of the same name is a field's default.  Instances of one class
    compare and hash as the tuple of their fields, and refuse assignment;
    ``__post_init__`` may still set a field through ``object.__setattr__``.
    """

    def __init_subclass__(cls):
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: getattr(cls, f) for f in fields if f in cls.__dict__}
        get = operator.attrgetter(*fields)
        cls._key = staticmethod(get if len(fields) > 1 else lambda r: (get(r),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):  # keywords and defaults, in field order
            try:
                args += tuple(kwargs.pop(f) if f in kwargs else self._defaults[f]
                              for f in fields[len(args):])
            except KeyError as exc:
                raise TypeError(f"{type(self).__name__}() missing field {exc}") from None
            if kwargs or len(args) > len(fields):
                raise TypeError(f"{type(self).__name__}() got unexpected arguments")
        # field by field: touching self.__dict__ would materialise it, and
        # every later attribute read would then be about twice as slow
        for f, v in zip(fields, args):
            object.__setattr__(self, f, v)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key(self)))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Subspace(_Record):
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

    def matrix_columns(self):
        """Basis vectors as the columns of an (ambient x dim) matrix."""
        return linalg.transpose(linalg.mat(self.basis)) if self.basis else tuple(() for _ in range(self.ambient_dim))


class LieAlgebra(_Record):
    """Structure constants, stored as ``_scalar`` gives them: an exact
    algebra refuses a float when it is built, so no exact solve sees one."""

    dim: int
    structure: tuple  # tuple of ((i, j), ((k, c), ...)) with 0-based i < j
    basis_labels: tuple = ()
    tol: float = 0.0

    def __post_init__(self):
        if not self.basis_labels:
            object.__setattr__(self, "basis_labels", tuple(f"X{i+1}" for i in range(self.dim)))
        tol, kind = self.tol, float if self.tol else Fraction
        if any(type(c) is not kind for _, terms in self.structure for _, c in terms):
            object.__setattr__(self, "structure", tuple(
                (pair, tuple((k, _scalar(c, tol)) for k, c in terms)) for pair, terms in self.structure))

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

    @cached_property
    def _int_ad_entries(self):
        """(per i, the entries (r, s, c·e) of ad(X_i); e), over the one common
        denominator e of all structure constants; at tol > 0 the float
        entries as they are, over e = 1."""
        ints, e = linalg._cleared([c for entries in self.ad_entries for _, _, c in entries], self.tol)
        it = iter(ints)
        return tuple(tuple((r, s, next(it)) for r, s, _ in entries) for entries in self.ad_entries), e

    def bracket_basis(self, i: int, j: int):
        """[X_i, X_j] as a coordinate vector (0-based indices)."""
        return tuple(row[j] for row in self._ad_matrices[i])

    def ad_matrix(self, i: int):
        """Matrix of ad(X_i): v -> [X_i, v]."""
        return self._ad_matrices[i]

    def _commutant_rows(self):
        """Sparse rows of the commutant equations (ad(X_j)·M − M·ad(X_j))[r][i] = 0.

        Unknowns are the entries M[r][s] at index r*n + s.  Rows come in the
        order (i, j, r) and zero rows are dropped.  The coefficients are the
        ad entries of ``_int_ad_entries``: on an exact algebra the system
        times their common denominator, with the same solutions.
        """
        n = self.dim
        per_j = []
        for entries in self._int_ad_entries[0]:
            rows = {}
            for a, b, c in entries:
                for t in range(n):
                    # ad[a][b] * M[b][t] in entry (a, t); M[t][a] * ad[a][b] in entry (t, b)
                    row = rows.setdefault((a, t), {})
                    row[b * n + t] = row.get(b * n + t, 0) + c
                    row = rows.setdefault((t, b), {})
                    row[t * n + a] = row.get(t * n + a, 0) - c
            # each (r, i) is yielded once, so its zero coefficients are dropped here, once
            per_j.append({key: {k: v for k, v in row.items() if not linalg.is_zero(v, self.tol)}
                          for key, row in rows.items()})
        for i in range(n):
            for rows in per_j:
                for r in range(n):
                    row = rows.get((r, i))
                    if row:
                        yield row

    @cached_property
    def _centroid_basis(self) -> tuple:
        """Canonical basis of the centroid, the commutant of ad(g), as n x n
        matrices: ``_centroid_entries`` divided out.  It reads only the
        bracket, so it is solved once per algebra and shared by every metric
        on it."""
        n = self.dim
        entries, e = self._centroid_entries
        rows = [{t * n + u: b for t, u, b in E} for E in entries]
        return tuple(linalg.unvectorize(r, n) for r in linalg._fraction_rows(rows, e, n * n, self.tol))

    @cached_property
    def _centroid_entries(self):
        """(per centroid basis element B_k, its nonzero entries (t, u, b·e) in
        row-major order; e), over the one common denominator e of the whole
        basis, and e = 1 on a float algebra: the commutant rows solved and
        reduced by ``linalg._canonical_nullspace``."""
        n = self.dim
        rows, e = linalg._canonical_nullspace(list(self._commutant_rows()), n * n, self.tol)
        return tuple(tuple((*divmod(col, n), b) for col, b in sorted(row.items())) for row in rows), e

    @cached_property
    def _has_abelian_factor(self) -> bool:
        """Whether Z(g) is not contained in [g, g]: rank([g, g] ∪ Z) > rank([g, g]),
        [g, g] spanned by the brackets of the nonzero pairs.  It reads only
        the bracket, so it is decided once per algebra, like the centroid."""
        if not self.dim:
            return False
        A = MetricLieAlgebra(self, Metric(linalg.identity(self.dim, self.tol)))  # center reads no Gram
        derived = [self.bracket_basis(i, j) for (i, j), _ in self.structure]
        return linalg.rank(derived + list(center(A).basis), self.tol) > linalg.rank(derived, self.tol)


class Metric(_Record):
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
                if not (linalg.is_zero(G[i][j] - G[j][i], tol) if tol else G[i][j] == G[j][i]):
                    raise MetricNotPositiveDefinite(-1)
        for k, minor in enumerate(linalg.leading_principal_minors(G, tol)):
            if not minor > (tol if tol else 0):
                raise MetricNotPositiveDefinite(k + 1)


class MetricLieAlgebra(_Record):
    algebra: LieAlgebra
    metric: Metric
    name: str = ""
    j_marker: tuple | None = None  # optional designated complex-structure matrix

    def __post_init__(self):
        if len(self.metric.gram) != self.algebra.dim:
            raise DimensionMismatch("metric dimension differs from algebra dimension")
        # Gram and marker are stored as ``_scalar`` gives them: a float refused at tol 0
        G = _scalars(self.gram, self.tol)
        if G is not self.gram:
            object.__setattr__(self, "metric", Metric(G))
        if self.j_marker is not None:
            object.__setattr__(self, "j_marker", _scalars(self.j_marker, self.tol))

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


def make_algebra(dim, brackets, gram=None, name="", tol=0.0,
                 labels=(), j_marker=None, check=True) -> MetricLieAlgebra:
    """Build a validated MetricLieAlgebra.

    ``brackets`` maps (i, j) with 0-based i < j to a list of (k, coeff).
    tol picks the backend: at tol 0 the constants, Gram and ``j_marker``
    are stored as Fractions, ints among them read as the Fractions they
    equal, and a float constant is refused (ParseError); at tol > 0 they are
    stored as floats, whatever their input type.
    """
    if not tol >= 0:
        raise ParseError(f"tol must be 0 (exact) or positive (float), got {tol}")
    structure = []
    for (i, j), terms in sorted(brackets.items()):
        if i == j:
            raise ParseError(f"diagonal bracket [{i+1},{i+1}] is forbidden")
        if not (0 <= i < j < dim):
            raise ParseError(f"bracket indices ({i+1},{j+1}) out of range for dim {dim}")
        clean = tuple((k, c) for k, c in terms if not linalg.is_zero(c, tol))
        for k, c in clean:
            if not 0 <= k < dim:
                raise ParseError(f"bracket target index {k+1} out of range")
            if not tol and isinstance(c, float):
                raise ParseError(f"exact structure constant given as a float: {c!r}")
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
    out = list(linalg.zeros(1, n, A.tol)[0])
    for (i, j), terms in alg.structure:
        coef = u[i] * v[j] - u[j] * v[i]
        if coef:
            for k, c in terms:
                out[k] += coef * c
    return tuple(out)


class JacobiReport(_Record):
    max_residual: object
    worst_triple: tuple | None
    passed: bool


def check_jacobi(A: MetricLieAlgebra) -> JacobiReport:
    """Max residual of the Jacobi identity over the basis triples i < j < k.
    The cyclic terms Σ_l c_yz^l·c_xl^m are summed over the sparse structure
    constants, as integers over one denominator e when exact, with one
    Fraction over e² for the result (the int 0 if all residuals are zero).
    The first strictly largest residual in (i, j, k) order names the triple."""
    exact = not A.tol
    e = math.lcm(*(c.denominator for _, terms in A.algebra.structure for _, c in terms)) if exact else 1
    br = {}  # [X_a, X_b] as {l: c·e}, a < b and a > b; ascending l adds floats as a dense bracket does
    for (a, b), terms in A.algebra.structure:
        d = br[(a, b)] = {}
        for k, c in sorted(terms, key=lambda t: t[0]):
            d[k] = d.get(k, 0) + (c.numerator * (e // c.denominator) if exact else c)
        br[(b, a)] = {k: -c for k, c in d.items()}

    def term(x, y, z):  # [X_x, [X_y, X_z]] as {m: coefficient}
        t = {}
        for l, w in br.get((y, z), {}).items():
            for m, c in br.get((x, l), {}).items():
                t[m] = t.get(m, 0) + w * c
        return t

    worst, worst_triple = 0, None
    for i, j, k in itertools.combinations(range(A.dim), 3):
        if (i, j) in br or (j, k) in br or (i, k) in br:
            t1, t2, t3 = term(i, j, k), term(j, k, i), term(k, i, j)
            r = max((abs(t1.get(m, 0) + (t2.get(m, 0) + t3.get(m, 0))) for m in {*t1, *t2, *t3}), default=0)
            if r > worst:
                worst, worst_triple = r, (i + 1, j + 1, k + 1)
    if exact and worst:
        worst = Fraction(worst, e * e)
    return JacobiReport(worst, worst_triple, linalg.is_zero(worst, A.tol))


def center(A: MetricLieAlgebra) -> Subspace:
    """The common kernel of the adjoint maps: its rows are the rows of the
    ad matrices (``_int_ad_entries``, integers when exact), a sparse system
    in n unknowns reduced to the canonical basis by
    ``linalg._canonical_nullspace``."""
    n, rows = A.dim, []
    for entries in A.algebra._int_ad_entries[0]:
        per_row = {}
        for r, s, c in entries:
            per_row.setdefault(r, {})[s] = c
        rows += per_row.values()
    rows, d = linalg._canonical_nullspace(rows, n, A.tol)
    return Subspace(n, tuple(linalg._fraction_rows(rows, d, n, A.tol)), A.tol)


def derived_subalgebra(A: MetricLieAlgebra) -> Subspace:
    """Span of all basis brackets [X_i, X_j]."""
    vecs = [A.algebra.bracket_basis(i, j) for i in range(A.dim) for j in range(i + 1, A.dim)]
    return Subspace.from_vectors(A.dim, vecs, A.tol)


def has_abelian_factor(A: MetricLieAlgebra) -> bool:
    """True iff Z(g) is not contained in [g, g]; metric-independent, so it is
    cached on the Lie algebra and shared by every metric on it."""
    return A.algebra._has_abelian_factor


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
                        A.tol, labels, j_marker=jm, check=False)


def _int_bracket(ads, u, v):
    """Σ u_i·v_j·[X_i, X_j] for integer vectors u, v, from the integer ad
    entries (r, j, c) of ``_int_ad_entries``: e·d²·[u/d, v/d] for their
    denominators e and d."""
    out = [0] * len(u)
    for ui, entries in zip(u, ads):
        if ui:
            for r, j, c in entries:
                if v[j]:
                    out[r] += ui * v[j] * c
    return out


def restrict(A: MetricLieAlgebra, S: Subspace, name: str = "") -> MetricLieAlgebra:
    """Induced bracket and Gram on a bracket-closed subspace.

    One reduction of [C | w_1 … w_m], C the carrier basis as columns and w
    the brackets of its pairs, gives the coordinates of every w at once; the
    row operations depend on C alone, so each column comes out as a solve of
    its own would give it.  On exact operands the brackets are formed in
    integers, from the carrier basis cleared to one denominator d and the
    integer structure constants over theirs, e; the carrier columns are
    scaled by d·e to match, which leaves the reduced form unchanged.

    The standard basis, the carrier of every irreducible algebra, needs no
    reduction: the coordinates of [X_p, X_q] are the structure constants,
    merged per k, in ascending k and exact ones as Fractions, as the
    reduction gives them.  The Gram is Cᵀ·(G·C) on both paths.  The
    induced algebra is a new record: it shares no cache with A.
    """
    if S.ambient_dim != A.dim:
        raise DimensionMismatch("subspace ambient dimension mismatch")
    basis = S.basis
    s = len(basis)
    brackets = {}
    if s == A.dim and all(x == (i == j) for i, b in enumerate(basis) for j, x in enumerate(b)):
        z = 0.0 if A.tol else Fraction(0)
        for pair, terms in A.algebra.structure:
            w = {}
            for k, c in terms:  # in term order, as bracket adds them
                w[k] = w.get(k, z) + c
            brackets[pair] = [(k, w[k]) for k in sorted(w) if not linalg.is_zero(w[k], A.tol)]
    elif s > 1:
        pairs = [(p, q) for p in range(s) for q in range(p + 1, s)]
        int_ad = A.algebra._int_ad_entries if not A.tol and linalg._is_exact(basis) else None
        if int_ad is None:
            cols = [*basis, *(bracket(A, basis[p], basis[q]) for p, q in pairs)]
        else:  # [D·C | D·W] in integers, D = d²·e, has the reduced form of [C | W]
            (ads, e), (U, d) = int_ad, linalg._cleared_matrix(basis)
            cols = [[x * d * e for x in u] for u in U] + [_int_bracket(ads, U[p], U[q]) for p, q in pairs]
        rows, pivots = linalg.rref(tuple(zip(*cols)), A.tol)
        outside = [c - s for c in pivots if c >= s]  # the first is the first bracket not in S
        if outside:
            raise NotASubalgebra(tuple(x + 1 for x in pairs[outside[0]]))
        for m, (p, q) in enumerate(pairs):
            terms = [(k, row[s + m]) for row, k in zip(rows, pivots) if not linalg.is_zero(row[s + m], A.tol)]
            if terms:
                brackets[(p, q)] = terms
    gram = linalg.mat_mul(basis, linalg.mat_mul(A.gram, S.matrix_columns()))  # Cᵀ·(G·C)
    return make_algebra(s, brackets, gram, name or f"{A.name}|sub", A.tol, check=False)


def _backend_for(A: MetricLieAlgebra, *operators) -> MetricLieAlgebra:
    """A, or to_numeric(A) when A is exact and an operator holds a float, as
    the J of an irrational normalizer does: exact eliminations take no
    floats, and float results are judged at the default tol."""
    if A.tol or not any(isinstance(x, float) for M in operators for row in M for x in row):
        return A
    return to_numeric(A)


def to_numeric(A: MetricLieAlgebra, tol: float = DEFAULT_TOL) -> MetricLieAlgebra:
    """Convert an exact algebra to the float backend; a float one is returned as it is."""
    if not tol > 0:
        raise ParseError(f"the numeric backend needs a positive tol, got {tol}")
    if A.tol:
        return A
    # the records store every constant, Gram and marker entry as a float at tol > 0
    return make_algebra(A.dim, dict(A.algebra.structure), A.gram, A.name, tol,
                        A.algebra.basis_labels, j_marker=A.j_marker, check=False)
