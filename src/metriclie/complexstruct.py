"""Orthogonal bi-invariant complex structures: verification, enumeration,
complexification, eigenspace splits and the doubling isometry.

A complex structure here is an operator J with J^2 = -I that is
bi-invariant (J[X,Y] = [JX,Y]) and skew-symmetric with respect to the Gram
matrix (equivalently, an isometry).  On an algebra with no abelian factor
the full set of such J is either empty or has exactly 2^k elements, one per
sign choice on the k irreducible factors.

Each J is a signed sum Σ sᵢ·Jᵢ of k pieces, one per factor, and every J
is certified from the pieces: the conditions are checked once on the k
pieces, by one code path in integers or in floats as the algebra's tol
picks.  An exact certificate holds iff every J passes
``verify_complex_structure``; a float J's certificate bounds its own
residuals.  A factor with an irrational normalizer √(−λ) keeps its exact
piece K with K² = λ·I, certified exactly, and its J's are rounded from it
at output.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from . import linalg
from .centroid import Decomposition, _compressions, _int_centroid_residual, _int_rows, centroid_residual
from .centroid import decompose, skew_centroid
from .core import EXACT, NUMERIC, MetricLieAlgebra, Subspace, _backend_for, _Record, _scalar, make_algebra
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


def verify_complex_structure(A: MetricLieAlgebra, J) -> ComplexStructureCertificate:
    """Residuals for J^2 = -I, bi-invariance and skewness w.r.t. the Gram;
    the first and last are ``linalg.residual`` of J·J + I and G·J + Jᵀ·G,
    integer identities on exact operands and float formulas otherwise.  A
    float J is checked on to_numeric(A)."""
    n = A.dim
    if len(J) != n or any(len(r) != n for r in J):
        raise DimensionMismatch("operator dimension differs from algebra dimension")
    A = _backend_for(A, J)
    G, tol = A.gram, A.tol
    sq = linalg.residual([(1, J, J), (1, linalg.identity(n, tol))])
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
    real_form = make_algebra(2 * n, brackets, gram, f"{A.name}^C", A.tol, labels, check=False)
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


def jlambda(lam, tol: float = 0.0):
    """The 4x4 rotation family J_lambda on abelian R^4, prefactor 1/sqrt(lam^2+1):
    Fractions at tol 0, floats at tol > 0.  At tol 0 a float lam raises
    TypeError, as ``core._scalar`` does."""
    if not tol:
        lam = _scalar(lam, tol)
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


def _factor_complex_structure(induced: MetricLieAlgebra, K_basis):
    """The canonical (K, λ) on one irreducible factor, K·K = λ·I, or None,
    from the basis of its skew centroid.  When √(−λ) is rational, or the
    algebra float, K is divided by it and λ = −1, so K is the factor's J.
    K's sign makes its first nonzero entry positive.

    The skew centroid of an irreducible factor has dimension 0 or 1;
    anything larger contradicts the theory and is a hard error.
    """
    if not K_basis:
        return None
    if len(K_basis) > 1:
        raise InternalAssertionFailure(f"skew centroid of an irreducible factor has dim {len(K_basis)}: {K_basis}")
    (K,) = K_basis
    tol = induced.tol
    lam = linalg.mat_mul(K[:1], K)[0][0]
    scal_res = linalg.residual([(1, K, K), (-lam, linalg.identity(induced.dim, tol))])
    if not linalg.is_zero(scal_res, tol) or not lam < 0:
        raise InternalAssertionFailure(
            f"skew centroid element has non-scalar or non-negative square (lam={lam})"
        )
    root = math.sqrt(-lam) if tol else linalg.frac_sqrt(-lam)
    if root is None:
        return _normalize_sign(K, tol), lam
    return _normalize_sign(linalg.mat_scale(1 / root, K), tol), (-1.0 if tol else Fraction(-1))


def _pieces(parts, tol):
    """(Z, den, λ's): the pieces C·K_f·R of the (f, K_f, λ_f) in parts, f a
    factor with P = C·R, as matrices Zᵢ over one common denominator den,
    and their λ_f.  Each is the product chain C·(K_f·R) of the factor's
    ``_int_split`` and K_f cleared as tol picks: an integer matrix, made
    primitive, when exact, and a float one over den = 1."""
    pieces = []
    for f, K, _ in parts:
        ((R, dr), (C, dc)), (K, dk) = f._int_split, _int_rows(K, tol)
        KR = linalg._add_int_product(linalg._zero_rows(len(K), len(C)), K, R)
        Z = linalg._add_int_product(linalg._zero_rows(len(C), len(C), tol), C, linalg._sparse_rows(KR))
        d = dc * dk * dr
        if not tol:
            g = math.gcd(d, *(x for row in Z for x in row))
            Z, d = [[x // g for x in row] for row in Z], d // g
        pieces.append((Z, d))
    den = math.lcm(*(d for _, d in pieces))
    return [[[x * (den // d) for x in row] for row in Z] for Z, d in pieces], den, [lam for _, _, lam in parts]


def _certify_pieces(A: MetricLieAlgebra, Z, den, lams) -> ComplexStructureCertificate:
    """The certificate that every signed sum J = Σ sᵢ·Kᵢ/√(−λᵢ) of the
    pieces Kᵢ = Zᵢ / den, Kᵢ·Kᵢ = λᵢ·I, carries as an orthogonal
    bi-invariant complex structure of A.  The bracket and skew residuals are
    linear in J, so J's are at most the sums of the pieces'; and
    J·J + I = (Σ Kᵢ²/(−λᵢ) + I) + Σ_{i<j} sᵢ·sⱼ·(JᵢJⱼ + JⱼJᵢ), so J's square
    residual is at most that of Σ Kᵢ²/λᵢ = I plus the pairs' anticommutators.
    That takes k + k(k−1) products, not three per J.  Once a bound exceeds
    A's tol, InternalAssertionFailure names the piece or pair.

    A's tol picks the arithmetic, on one code path.  Exact pieces are
    integer rows, Σ Kᵢ²/λᵢ = I is exact for any rational λᵢ, and any nonzero
    residual raises, so every residual is the int 0.  Float pieces are float
    rows over den = 1 with λᵢ = −1, so Kᵢ is the factor's Jᵢ and the
    certificate bounds each J's own residuals; their largest entries go
    through ``max_abs``."""
    n, tol, add, zeros = A.dim, A.tol, linalg._add_int_product, linalg._zero_rows
    (G, g), (w, m) = linalg._cleared_matrix(A.gram, tol), linalg._cleared([1 / lam for lam in lams], tol)
    G = linalg._sparse_rows(G)
    rows, cols = [linalg._sparse_rows(Zi) for Zi in Z], [linalg._sparse_rows(zip(*Zi)) for Zi in Z]
    br = sk = 0
    for i, Zi in enumerate(Z):
        bi = _int_centroid_residual(A, Zi, den)
        si = linalg._int_max_abs(add(add(zeros(n, n), G, rows[i]), cols[i], G), g * den, tol)  # G·K + Kᵀ·G
        br, sk = br + bi, sk + si
        if not (linalg.is_zero(br, tol) and linalg.is_zero(sk, tol)):
            raise InternalAssertionFailure(f"the residuals summed to piece {i} of the complex structures "
                                           f"exceed tol: bracket {br}, skew {sk}")
    square = [[-m * den * den if r == c else 0 for c in range(n)] for r in range(n)]  # Σ wᵢ·Zᵢ² − m·den²·I
    for wi, Zr in zip(w, rows):
        add(square, [[(t, wi * x) for t, x in row] for row in Zr], Zr)
    sq = linalg._int_max_abs(square, m * den * den, tol)
    if not linalg.is_zero(sq, tol):
        raise InternalAssertionFailure(f"the squares of the pieces over their λ do not sum to I: residual {sq}")
    for i, j in itertools.combinations(range(len(Z)), 2):
        anti = linalg._int_max_abs(add(add(zeros(n, n), rows[i], rows[j]), rows[j], rows[i]), den * den, tol)
        sq += anti
        if not linalg.is_zero(sq, tol):
            raise InternalAssertionFailure(f"pieces {i} and {j} do not anticommute: residual {anti}, square bound {sq}")
    return ComplexStructureCertificate(sq, br, sk, True)


def _signed_sums(Z, den, n: int, exact: bool):
    """(signs, Σ sᵢ·Zᵢ / den) for every sign vector, +1 before −1, each
    entry added left to right from 0.  Exact pieces are integer matrices,
    summed in integers with one Fraction per entry; float ones (den 1) are
    summed from 0.0, bit for bit the ``mat_add`` of the signed pieces,
    which a compensated ``sum`` would not be."""
    flat, zero = [[x for row in Zi for x in row] for Zi in Z], Fraction(0)
    negated = [[-x for x in f] for f in flat]
    for signs in itertools.product((1, -1), repeat=len(Z)):
        total = [0 if exact else 0.0] * (n * n)
        for s, f, g in zip(signs, flat, negated):
            total = list(map(operator.add, total, f if s > 0 else g))
        yield signs, linalg.unvectorize([Fraction(v, den) if v else zero for v in total] if exact else total, n)


def complex_structures(dec: Decomposition):
    """All orthogonal bi-invariant complex structures, assembled factor-wise.

    Returns the empty list or exactly 2^k certified structures, ordered by
    sign vector (+1 before -1).  The skew part of the algebra is solved
    once, and each factor's is its compression R·K·C (``_compressions``),
    where P = C·R: C has the echelon carrier basis as columns, so R is P's
    pivot rows.  Each factor gives (K_f, λ_f), K_f² = λ_f·I, and its piece
    C·K_f·R.  The k pieces are certified once (``_certify_pieces``), on
    both backends, and every J = Σ sᵢ·C·K_f·R/√(−λ_f) carries that
    certificate: on an exact algebra all its residuals are the int 0, on a
    float one they bound the J's own.  Exact J's are summed in integers,
    float ones left to right.  On an exact algebra with an irrational
    √(−λ_f), each J is rounded entry by entry from the exact pieces and
    tagged numeric; its certificate is the exact one.
    """
    A, n = dec.algebra, dec.algebra.dim
    K = skew_centroid(A).basis if dec.factors else ()
    parts = []
    for f in dec.factors:
        Klam = _factor_complex_structure(f.induced, _compressions(K, f))
        if Klam is None:
            return []
        parts.append((f, *Klam))
    Z, den, lams = _pieces(parts, A.tol)
    cert = _certify_pieces(A, Z, den, lams)
    if all(lam == -1 for lam in lams):  # every float λ is −1
        return [ComplexStructure(J, cert, A.backend, signs) for signs, J in _signed_sums(Z, den, n, not A.tol)]
    rounded = [[[math.copysign(math.sqrt(Fraction(z * z, den * den) / -lam), z) for z in row] for row in Zi]
               for Zi, lam in zip(Z, lams)]  # Zᵢ / (den·√(−λᵢ)), each entry from its exact square
    return [ComplexStructure(J, cert, NUMERIC, signs) for signs, J in _signed_sums(rounded, 1, n, False)]


def enumerate_complex_structures(A: MetricLieAlgebra, seed: int = 0):
    """complex_structures of A; refuses algebras with an abelian factor."""
    return complex_structures(decompose(A, seed=seed))
