"""Orthogonal bi-invariant complex structures: verification, enumeration,
complexification, eigenspace splits and the doubling isometry.

A complex structure here is an operator J with J^2 = -I that is
bi-invariant (J[X,Y] = [JX,Y]) and skew-symmetric with respect to the Gram
matrix (equivalently, an isometry).  On an algebra with no abelian factor
the full set of such J is either empty or has exactly 2^k elements, one per
sign choice on the k irreducible factors.

Each J is a signed sum Σ sᵢ·Kᵢ of k pieces, one per factor.  Exact J's are
certified from their pieces: the conditions are checked once on the k
pieces, in integers, which holds iff every J passes
``verify_complex_structure``.  Float J's are checked one by one with the
float formulas.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import linalg
from .centroid import Decomposition, _int_centroid_residual, _pivot_rows, centroid_residual, decompose, skew_centroid
from .core import (
    DEFAULT_TOL,
    EXACT,
    NUMERIC,
    MetricLieAlgebra,
    Subspace,
    _Record,
    make_algebra,
    to_numeric,
)
from .errors import (
    DimensionMismatch,
    InternalAssertionFailure,
    InvalidComplexStructure,
    IrrationalNormalizer,
)


class ComplexStructureCertificate(_Record):
    square_residual: object  # J^2 = -I
    bracket_residual: object  # bi-invariance
    skew_residual: object  # G J = -J^T G
    passed: bool

    def residuals(self):
        return {
            "square": self.square_residual,
            "bracket": self.bracket_residual,
            "skew": self.skew_residual,
        }


class ComplexStructure(_Record):
    J: tuple
    certificate: ComplexStructureCertificate
    backend: str = EXACT
    signs: tuple = ()


class HermitianValue(_Record):
    re: object
    im: object


def _holds_float(*operators) -> bool:
    return any(isinstance(x, float) for M in operators for row in M for x in row)


def _backend_for(A: MetricLieAlgebra, *operators) -> MetricLieAlgebra:
    """A, or to_numeric(A) when A is exact and an operator holds a float, as
    the J of an irrational normalizer does: exact eliminations take no
    floats, and float results are judged at the default tol."""
    return to_numeric(A) if not A.tol and _holds_float(*operators) else A


def verify_complex_structure(A: MetricLieAlgebra, J) -> ComplexStructureCertificate:
    """Residuals for J^2 = -I, bi-invariance and skewness w.r.t. the Gram;
    the first and last are ``linalg.residual`` of J·J + I and G·J + Jᵀ·G,
    integer identities on exact operands and float formulas otherwise.  A
    float J on an exact A is judged at DEFAULT_TOL."""
    n, G = A.dim, A.gram
    if len(J) != n or any(len(r) != n for r in J):
        raise DimensionMismatch("operator dimension differs from algebra dimension")
    tol = A.tol or (DEFAULT_TOL if _holds_float(J) else 0.0)
    sq = linalg.residual([(1, J, J), (1, linalg.identity(n, A.tol))])
    sk = linalg.residual([(1, G, J), (1, linalg.transpose(J), G)])
    br = centroid_residual(A, J)
    passed = all(linalg.is_zero(r, tol) for r in (sq, br, sk))
    return ComplexStructureCertificate(sq, br, sk, passed)


def hermitian_form(A: MetricLieAlgebra, J, u, v) -> HermitianValue:
    """The Hermitian inner product (<X,Y> + i <X,JY>) / 2 on (g, J)."""
    cert = verify_complex_structure(A, J)
    if not cert.passed:
        raise InvalidComplexStructure(f"residuals {cert.residuals()}")
    G = A.gram
    re = linalg.bilinear(G, u, v)
    im = linalg.bilinear(G, u, linalg.mat_vec(J, v))
    return HermitianValue(re / 2, im / 2)


# ---------------------------------------------------------------------------
# Complexification as a real doubling.
# ---------------------------------------------------------------------------

class ComplexifiedAlgebra(_Record):
    """Real doubling of an algebra, with the multiplication-by-i operator.

    Coordinates are (real block, imaginary block) over the original basis.
    """

    real_form: MetricLieAlgebra
    i_op: tuple
    sigma_op: tuple
    base: MetricLieAlgebra

    @property
    def dim(self) -> int:
        return self.real_form.dim


def complexify(A: MetricLieAlgebra) -> ComplexifiedAlgebra:
    """Real 2n-dim algebra with bracket [(a,b),(c,d)] = ([a,c]-[b,d], [a,d]+[b,c])."""
    n = A.dim
    z, one = (0.0, 1.0) if A.tol else (Fraction(0), Fraction(1))
    brackets = {}
    for (i, j), terms in A.algebra.structure:
        brackets[(i, j)] = [(k, c) for k, c in terms]
        brackets[(i, n + j)] = [(n + k, c) for k, c in terms]
        brackets[(j, n + i)] = [(n + k, -c) for k, c in terms]
        brackets[(n + i, n + j)] = [(k, -c) for k, c in terms]
    G = A.gram
    gram = [
        [G[i % n][j % n] if (i < n) == (j < n) else z for j in range(2 * n)]
        for i in range(2 * n)
    ]
    labels = tuple(A.algebra.basis_labels) + tuple(f"i{l}" for l in A.algebra.basis_labels)
    real_form = make_algebra(2 * n, brackets, gram, f"{A.name}^C", A.backend, A.tol, labels, check=False)
    i_op = tuple(
        tuple(
            (-one if (r < n and c == r + n) else (one if (r >= n and c == r - n) else z))
            for c in range(2 * n)
        )
        for r in range(2 * n)
    )
    sigma = tuple(
        tuple((one if r < n else -one) if r == c else z for c in range(2 * n))
        for r in range(2 * n)
    )
    return ComplexifiedAlgebra(real_form, i_op, sigma, A)


def hermitian_form_complexified(AC: ComplexifiedAlgebra, u, v) -> HermitianValue:
    """The extended inner product on g^C (orthonormal-basis extension)."""
    n = AC.base.dim
    G = AC.base.gram
    a, b = u[:n], u[n:]
    c, d = v[:n], v[n:]
    re = linalg.bilinear(G, a, c) + linalg.bilinear(G, b, d)
    im = linalg.bilinear(G, b, c) - linalg.bilinear(G, a, d)
    return HermitianValue(re, im)


def extend_operator(AC: ComplexifiedAlgebra, f) -> tuple:
    """C-linear extension of an operator on the base algebra: block diag(f, f)."""
    n = AC.base.dim
    if len(f) != n:
        raise DimensionMismatch("operator does not act on the base algebra")
    z = 0.0 if AC.base.tol else Fraction(0)
    return tuple(
        tuple(f[r % n][c % n] if (r < n) == (c < n) else z for c in range(2 * n))
        for r in range(2 * n)
    )


def eigensplit(A: MetricLieAlgebra, J):
    """Images of (I -+ i_op J^C)/2 in the complexification: the +-i eigenspaces.
    A float J is taken on to_numeric(A)."""
    A = _backend_for(A, J)
    cert = verify_complex_structure(A, J)
    if not cert.passed:
        raise InvalidComplexStructure(f"residuals {cert.residuals()}")
    AC = complexify(A)
    n2 = AC.dim
    I = linalg.identity(n2, A.tol)
    Jc = extend_operator(AC, J)
    iJ = linalg.mat_mul(AC.i_op, Jc)
    half = 0.5 if A.tol else Fraction(1, 2)
    Pplus = linalg.mat_scale(half, linalg.mat_sub(I, iJ))
    Pminus = linalg.mat_scale(half, linalg.mat_add(I, iJ))
    g1 = Subspace.from_vectors(n2, list(linalg.transpose(Pplus)), A.tol)
    gm1 = Subspace.from_vectors(n2, list(linalg.transpose(Pminus)), A.tol)
    return g1, gm1


class DoublingCertificate(_Record):
    bracket_residual: object
    intertwine_residual: object
    isometry_residual: object
    rank: int
    passed: bool

    def residuals(self):
        return {
            "bracket": self.bracket_residual,
            "intertwine": self.intertwine_residual,
            "isometry": self.isometry_residual,
        }


def verify_doubling_isometry(A: MetricLieAlgebra, J) -> DoublingCertificate:
    """Check that Φ(a, b) = (a + Jb, a − Jb) is an isometric isomorphism
    from the complexification g ⊕ i·g onto (g, J) ⊕ (g, −J).

    Each identity in Φ splits into blocks over g ⊕ i·g, so it is checked as
    n × n identities in J, by linearity for any operator J:
    - bracket: real pairs give 0; a real X_p with an imaginary X_q gives
      ±[J, ad X_p]·X_q, the centroid residual; two imaginary ones give
      −([X_p, X_q] + [JX_p, JX_q]), entry k of Jᵀ·Cₖ·J + Cₖ with
      Cₖ[r][s] = [X_r, X_s]ₖ;
    - intertwining: Φ·i − (J ⊕ −J)·Φ is 0 on the real block and −(J·J + I)
      on the imaginary one;
    - isometry: the real and imaginary parts of the Hermitian forms leave
      Jᵀ·G·J − G and G·J·J + G;
    - rank Φ = n + rank J.
    A float J is checked on to_numeric(A)."""
    A = _backend_for(A, J)
    cert = verify_complex_structure(A, J)
    if not cert.passed:
        raise InvalidComplexStructure(f"residuals {cert.residuals()}")
    n, G, tol = A.dim, A.gram, A.tol
    Jt, ads = linalg.transpose(J), [A.algebra.ad_matrix(r) for r in range(n)]
    # every Jᵀ·Cₖ·J + Cₖ at once: its entry (p, q) is entry ((p, k), q) of ad(JX_p)·J + ad(X_p)
    # stacked over p, where ad(JX_p) = Σ_r J[r][p]·ad(X_r) is row p of Jᵀ times the vectorised ads
    adJ = [row for v in linalg.mat_mul(Jt, [linalg.vectorize(ad) for ad in ads])
           for row in linalg.unvectorize(v, n)]
    imag = linalg.residual([(1, adJ, J), (1, [row for ad in ads for row in ad])])
    worst_br = max(centroid_residual(A, J), imag)
    inter = linalg.residual([(1, J, J), (1, linalg.identity(n, tol))])
    GJ = linalg.mat_mul(G, J)
    worst_iso = max(linalg.residual([(1, Jt, GJ), (-1, G)]), linalg.residual([(1, GJ, J), (1, G)]))
    rk = n + linalg.rank(J, tol)
    passed = rk == 2 * n and all(linalg.is_zero(r, tol) for r in (worst_br, inter, worst_iso))
    return DoublingCertificate(worst_br, inter, worst_iso, rk, passed)


class CommuteReport(_Record):
    commute: bool
    commutator_image_in_center: bool
    residual: object

    def __bool__(self):
        return self.commute


def commute_check(A: MetricLieAlgebra, J1, J2) -> CommuteReport:
    """Do J1 and J2 commute?  Also reports whether the commutator image
    lies in the center, the weaker fact for merely bi-invariant pairs.  Float
    operators are compared on to_numeric(A)."""
    from .core import center

    A = _backend_for(A, J1, J2)
    comm = linalg.mat_sub(linalg.mat_mul(J1, J2), linalg.mat_mul(J2, J1))
    res = linalg.max_abs(comm)
    Z = center(A)
    in_center = all(Z.contains(col) for col in linalg.transpose(comm))
    return CommuteReport(linalg.is_zero(res, A.tol), in_center, res)


def jlambda(lam, backend: str = EXACT, tol: float = DEFAULT_TOL):
    """The 4x4 rotation family J_lambda on abelian R^4, prefactor 1/sqrt(lam^2+1)."""
    if backend == EXACT:
        lam = Fraction(lam)
        s = linalg.frac_sqrt(lam * lam + 1)
        if s is None:
            raise IrrationalNormalizer(
                f"lambda^2 + 1 = {lam * lam + 1} is not a rational square"
            )
        f = 1 / s
        z, one = Fraction(0), Fraction(1)
    else:
        lam = float(lam)
        f = 1.0 / math.sqrt(lam * lam + 1.0)
        z, one = 0.0, 1.0
    rows = (
        (z, one, -lam, z),
        (-one, z, z, lam),
        (lam, z, z, one),
        (z, -lam, -one, z),
    )
    return linalg.mat_scale(f, rows)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def _normalize_sign(J, tol):
    """Fix the global sign so the first nonzero entry in row-major order is positive."""
    for row in J:
        for x in row:
            if not linalg.is_zero(x, tol):
                return J if x > 0 else linalg.mat_scale(-1, J)
    return J


def _factor_complex_structure(induced: MetricLieAlgebra):
    """The canonical J on one irreducible factor, or None.

    Returns (J, numeric_flag).  The skew centroid of an irreducible factor
    has dimension 0 or 1; anything larger contradicts the theory and is a
    hard error.
    """
    K_space = skew_centroid(induced)
    if K_space.dim == 0:
        return None
    if K_space.dim > 1:
        raise InternalAssertionFailure(
            f"skew centroid of an irreducible factor has dim {K_space.dim}; "
            f"basis dump: {K_space.basis}"
        )
    K = K_space.basis[0]
    lam = linalg.mat_mul(K[:1], K)[0][0]
    scal_res = linalg.residual([(1, K, K), (-lam, linalg.identity(induced.dim, induced.tol))])
    if not linalg.is_zero(scal_res, induced.tol) or not lam < 0:
        raise InternalAssertionFailure(
            f"skew centroid element has non-scalar or non-negative square (lam={lam})"
        )
    if induced.tol:
        J = linalg.mat_scale(1.0 / math.sqrt(-lam), K)
        return _normalize_sign(J, induced.tol), True
    root = linalg.frac_sqrt(-lam)
    if root is None:
        J = linalg.mat_scale(1.0 / math.sqrt(float(-lam)), linalg.to_float_mat(K))
        return _normalize_sign(J, DEFAULT_TOL), True
    return _normalize_sign(linalg.mat_scale(1 / root, K), 0.0), False


def _signed_sums(pieces, n: int, tol):
    """(signs, Σ sᵢ·pieceᵢ) for every sign vector, +1 before −1, in floats."""
    for signs in itertools.product((1, -1), repeat=len(pieces)):
        J = linalg.zeros(n, n, tol)
        for s, piece in zip(signs, pieces):
            J = linalg.mat_add(J, linalg.mat_scale(s, piece))
        yield signs, J


def _int_signed_sums(Z, den, n: int):
    """(signs, Σ sᵢ·Zᵢ / den) for every sign vector, +1 before −1, for integer
    pieces Zᵢ: each sum is formed in integers, one Fraction per entry."""
    flat, zero = [[x for row in Zi for x in row] for Zi in Z], Fraction(0)
    negated = [[-x for x in f] for f in flat]
    for signs in itertools.product((1, -1), repeat=len(Z)):
        terms = (f if s > 0 else g for s, f, g in zip(signs, flat, negated))
        total = map(sum, zip([0] * (n * n), *terms))
        yield signs, linalg.unvectorize([Fraction(v, den) if v else zero for v in total], n)


def _int_pieces(parts):
    """The pieces C·J_f·R of exact (C, J_f, R) as integer matrices Zᵢ over one
    common denominator: each is the integer product chain of its cleared
    operands, made primitive."""
    pieces = []
    for C, Jf, R in parts:
        (C, dc), (Jf, dj), (R, dr) = (linalg._cleared_matrix(X) for X in (C, Jf, R))
        Z = linalg._int_product(C, linalg._int_product(Jf, R, len(C)), len(C))
        g = math.gcd(dc * dj * dr, *(x for row in Z for x in row))
        pieces.append(([[x // g for x in row] for row in Z], dc * dj * dr // g))
    den = math.lcm(*(d for _, d in pieces))
    return [[[x * (den // d) for x in row] for row in Z] for Z, d in pieces], den


def _certify_pieces(A: MetricLieAlgebra, Z, den):
    """Raise InternalAssertionFailure unless every signed sum J = Σ sᵢ·Kᵢ of
    the exact pieces Kᵢ = Zᵢ / den is an orthogonal bi-invariant complex
    structure of A, naming the piece or pair that fails.  The bracket and
    skew residuals are linear in J, so they vanish for every J iff they
    vanish for every piece; and J·J = Σ Kᵢ² + Σ_{i<j} sᵢ·sⱼ·(KᵢKⱼ + KⱼKᵢ),
    so J·J = −I for every J iff Σ Kᵢ² = −I and every pair anticommutes.
    That takes k + k(k−1) integer products, not three per J."""
    n, add = A.dim, linalg._add_int_product
    G, g = linalg._cleared_matrix(A.gram)
    G = linalg._sparse_rows(G)
    rows, cols = [linalg._sparse_rows(Zi) for Zi in Z], [linalg._sparse_rows(zip(*Zi)) for Zi in Z]

    def zeros():
        return [[0] * n for _ in range(n)]

    for i, Zi in enumerate(Z):
        br = _int_centroid_residual(A, Zi, den)
        sk = linalg._int_max_abs(add(add(zeros(), G, rows[i]), cols[i], G), g * den)  # G·K + Kᵀ·G
        if br or sk:
            raise InternalAssertionFailure(f"piece {i} of the complex structures fails: bracket {br}, skew {sk}")
    square = [[den * den if r == c else 0 for c in range(n)] for r in range(n)]
    for Zr in rows:
        add(square, Zr, Zr)
    sq = linalg._int_max_abs(square, den * den)
    if sq:
        raise InternalAssertionFailure(f"the squares of the pieces do not sum to -I: residual {sq}")
    for i, j in itertools.combinations(range(len(Z)), 2):
        anti = linalg._int_max_abs(add(add(zeros(), rows[i], rows[j]), rows[j], rows[i]), den * den)
        if anti:
            raise InternalAssertionFailure(f"pieces {i} and {j} do not anticommute: residual {anti}")


def complex_structures(dec: Decomposition):
    """All orthogonal bi-invariant complex structures, assembled factor-wise.

    Returns the empty list or exactly 2^k certified structures, ordered by
    sign vector (+1 before -1).  A factor's piece is C·J_f·R, where P = C·R:
    C has the echelon carrier basis as columns, so R is P's pivot rows.
    When every factor's J is exact, the k pieces are formed in integers
    over one common denominator and certified once (``_certify_pieces``):
    that holds iff every J passes ``verify_complex_structure``, so each J
    gets its certificate, all residuals the int 0, and is summed in
    integers.  Once a factor's J is float, each J is summed and verified
    with the float formulas.
    """
    work = dec.algebra
    tol = work.tol  # becomes DEFAULT_TOL once a factor's J is float
    parts = []
    for f in dec.factors:
        res = _factor_complex_structure(f.induced)
        if res is None:
            return []
        Jf, numeric = res
        C, R = f.carrier.matrix_columns(), _pivot_rows(f.projection, f.carrier)
        if numeric:
            C, R = linalg.to_float_mat(C), linalg.to_float_mat(R)
            tol = tol or DEFAULT_TOL
        parts.append((C, Jf, R))

    if not tol:
        Z, den = _int_pieces(parts)
        _certify_pieces(work, Z, den)
        passed = ComplexStructureCertificate(0, 0, 0, True)
        return [ComplexStructure(J, passed, EXACT, signs) for signs, J in _int_signed_sums(Z, den, work.dim)]
    out = []
    pieces = [linalg.mat_mul(C, linalg.mat_mul(Jf, R)) for C, Jf, R in parts]
    for signs, J in _signed_sums(pieces, work.dim, tol):
        cert = verify_complex_structure(work, J)
        if not cert.passed:
            raise InternalAssertionFailure(
                f"assembled structure failed verification: {cert.residuals()}"
            )
        out.append(ComplexStructure(J, cert, NUMERIC, signs))
    return out


def enumerate_complex_structures(A: MetricLieAlgebra, seed: int = 0):
    """complex_structures of A; refuses algebras with an abelian factor."""
    return complex_structures(decompose(A, seed=seed))
