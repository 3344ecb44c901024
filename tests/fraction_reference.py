"""The code that the integer matrix identities and the sparse integer
solves replaced, kept as their reference.

The certificates here compute in the entries' own arithmetic (Fractions,
ints or floats), entry by entry, as metriclie did before its exact
certificates were formed over common denominators.  Their products are
their own (``mat_mul``, a plain ``sum`` of products), not the integer
``linalg.mat_mul`` under test; on float operands that sum is linalg's own
float path, so float results are compared bit for bit.  ``exact_rref`` is the
exact Gauss-Jordan elimination in Fractions, dense over all columns, and
the exact kernel (``int_nullspace``, ``canonical_nullspace``,
``exact_nullspace_sparse``) is built on it, not on the linalg eliminations
it checks.  ``metric_part`` builds its
equations and its result rows in Fractions, and ``generic_element`` and ``eigenprojections`` form the eigen
step as Fraction sums and products from I, as before the centroid and
metric-part solves ran in sparse integers.  ``float_rref`` is the float
Gauss-Jordan elimination as a dense loop over Python floats, which linalg
replaced with one numpy array and then with sparse row dicts, with the float
``nullspace``, ``solve``, ``canonical_rows`` and ``nullspace_sparse`` built
on it; ``center`` solves
the centre as the dense nullspace of the stacked ad matrices on these two
eliminations.  ``check_jacobi`` is the dense Jacobi check, six ``bracket``
calls per basis triple, from before it was expanded over the sparse
structure constants, and ``leading_principal_minors`` is the exact Gaussian
elimination in Fractions that Bareiss's integer elimination replaced.  On
exact operands the library returns Fractions (and the int 0 for a zero
residual), so the tests hand these functions exact operands as Fractions:
plain arithmetic on ints would give ints.  The tests then require the same
values with the same types, and the same floats bit for bit.
"""

import math
from fractions import Fraction

from metriclie import linalg
from metriclie.centroid import GENERIC_COEFF_BOUND
from metriclie.complexstruct import complexify, hermitian_form_complexified
from metriclie.core import JacobiReport, Subspace, bracket, direct_sum


def fractions(M):
    """The exact matrix M with its entries as Fractions."""
    return tuple(tuple(Fraction(x) for x in row) for row in M)


def mat_mul(A, B):
    """The matrix product as entrywise sums of products."""
    Bt = linalg.transpose(B)
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in Bt) for row in A)


def mat_max_diff(A, B):
    """The largest |A − B| over the entries, in the entries' own arithmetic."""
    return linalg.max_abs(linalg.mat_sub(A, B))


def float_rref(rows, tol):
    """linalg.rref with tol > 0: Gauss-Jordan over Python floats, pivoting on
    the first entry of largest magnitude above tol, snapping to 0.0 at the
    end the entries within tol."""
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
        best, best_val = None, tol
        for i in range(r, len(m)):
            if abs(m[i][c]) > best_val:
                best, best_val = i, abs(m[i][c])
        if best is None:
            continue
        m[r], m[best] = m[best], m[r]
        piv = m[r][c]
        m[r] = [x / piv for x in m[r]]
        for i in range(len(m)):
            if i != r and not abs(m[i][c]) <= tol:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    out = []
    for row in m[:r]:
        row = [0.0 if abs(x) <= tol else x for x in row]
        out.append(tuple(row))
    return out, pivots


def _nullspace_from_rref(rows, pivots, ncols, zero=0.0, one=1.0):
    pivset = set(pivots)
    basis = []
    for f in (c for c in range(ncols) if c not in pivset):
        x = [zero] * ncols
        x[f] = one
        for row, p in zip(rows, pivots):
            x[p] = -row[f]
        basis.append(tuple(x))
    return basis


def float_nullspace(A, tol):
    """linalg.nullspace with tol > 0, on float_rref."""
    if not A:
        return []
    return _nullspace_from_rref(*float_rref(A, tol), len(A[0]))


def float_solve(A, b, tol):
    """linalg.solve with tol > 0, on float_rref."""
    if not A:
        return () if all(abs(x) <= tol for x in b) else None
    ncols = len(A[0])
    rows, pivots = float_rref([list(row) + [bb] for row, bb in zip(A, b)], tol)
    x = [0.0] * ncols
    for row, p in zip(rows, pivots):
        if p == ncols:
            return None
        x[p] = row[-1]
    return tuple(x)


def float_canonical_rows(vectors, tol):
    """linalg.canonical_rows with tol > 0, on float_rref."""
    vs = [v for v in vectors if not all(abs(x) <= tol for x in v)]
    return float_rref(vs, tol)[0] if vs else []


def float_nullspace_sparse(equations, ncols, tol):
    """linalg.nullspace_sparse with tol > 0: the rows densified to lists of
    floats, on float_rref."""
    dense = []
    for eq in equations:
        row = [0.0] * ncols
        for c, v in eq.items():
            row[c] = float(v)
        dense.append(tuple(row))
    if not dense:
        return [tuple(1.0 if j == i else 0.0 for j in range(ncols)) for i in range(ncols)]
    return float_nullspace(tuple(dense), tol)


def center(A):
    """core.center as the dense nullspace of the n stacked ad matrices, in
    canonical form: ``exact_rref`` twice, or ``float_rref`` twice."""
    n, tol = A.dim, A.tol
    rows = [row for j in range(n) for row in A.algebra.ad_matrix(j)]
    if not rows:
        return Subspace(0, (), tol)
    if tol:
        basis = float_canonical_rows(float_nullspace(rows, tol), tol)
    else:
        kernel = _nullspace_from_rref(*exact_rref(rows), n, Fraction(0), Fraction(1))
        basis = exact_rref(kernel)[0]
    return Subspace(n, tuple(basis), tol)


def check_jacobi(A):
    """core.check_jacobi as six dense brackets of basis vectors per triple."""
    n, tol = A.dim, A.tol
    worst = 0
    worst_triple = None
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                ei, ej, ek = (linalg.basis_vec(n, t, tol) for t in (i, j, k))
                t1 = bracket(A, ei, bracket(A, ej, ek))
                t2 = bracket(A, ej, bracket(A, ek, ei))
                t3 = bracket(A, ek, bracket(A, ei, ej))
                r = max((abs(a + (b + c)) for a, b, c in zip(t1, t2, t3)), default=0)
                if r > worst:
                    worst, worst_triple = r, (i + 1, j + 1, k + 1)
    return JacobiReport(worst, worst_triple, linalg.is_zero(worst, tol))


def leading_principal_minors(A):
    """linalg.leading_principal_minors at tol 0: the running products of the
    pivots of one Gaussian elimination in Fractions, without row exchanges;
    a zero pivot ends the list with a zero minor."""
    m = [[Fraction(x) for x in row] for row in A]
    minors, d = [], 1
    for c, prow in enumerate(m):
        piv = prow[c]
        if piv == 0:
            return minors + [Fraction(0)]
        d = d * piv
        minors.append(d)
        for row in m[c + 1:]:
            f = row[c] / piv
            if f:
                row[c:] = [a - f * b for a, b in zip(row[c:], prow[c:])]
    return minors


def centroid_residual(A, M):
    """The largest entry of the commutators ad(X_j)·M − M·ad(X_j)."""
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


def projection_residuals(A, P):
    """(idempotent, bracket, symmetry) of is_orthogonal_projection."""
    idem = mat_max_diff(mat_mul(P, P), P)
    br = centroid_residual(A, P)
    G = A.gram
    sym = mat_max_diff(mat_mul(G, P), mat_mul(linalg.transpose(P), G))
    return idem, br, sym


def complex_structure_residuals(A, J):
    """(square, bracket, skew) of verify_complex_structure."""
    n = A.dim
    sq = mat_max_diff(mat_mul(J, J), linalg.mat_scale(-1, linalg.identity(n, A.tol)))
    br = centroid_residual(A, J)
    G = A.gram
    sk = linalg.max_abs(
        linalg.mat_add(mat_mul(G, J), mat_mul(linalg.transpose(J), G))
    )
    return sq, br, sk


def projections_sum_residual(projections, n, tol=0.0):
    """decompose's completeness check: max|Σ P − I|."""
    total = linalg.zeros(n, n, tol)
    for P in projections:
        total = linalg.mat_add(total, P)
    return mat_max_diff(total, linalg.identity(n, tol))


def square_scalar(K, tol=0.0):
    """(λ, max|K·K − λ·I|) with λ = (K·K)[0][0], the check on a factor's K."""
    K2 = mat_mul(K, K)
    lam = K2[0][0]
    return lam, mat_max_diff(K2, linalg.mat_scale(lam, linalg.identity(len(K), tol)))


def signed_sums(pieces, n, tol=0.0):
    """complex_structures' assembly: Σ sᵢ·pieceᵢ for every sign vector."""
    import itertools

    out = []
    for signs in itertools.product((1, -1), repeat=len(pieces)):
        J = linalg.zeros(n, n, tol)
        for s, piece in zip(signs, pieces):
            J = linalg.mat_add(J, linalg.mat_scale(s, piece))
        out.append((signs, J))
    return out


def complex_structures(dec):
    """(signs, J, certificate residuals) for each structure that
    complex_structures assembles on an exact decomposition with a J on
    every factor: the pieces C·J_f·R and their signed sums."""
    from metriclie.complexstruct import _factor_complex_structure

    pieces = []
    for f in dec.factors:
        Jf, _ = _factor_complex_structure(f.induced)
        C = f.carrier.matrix_columns()
        R = tuple(f.projection[next(c for c, x in enumerate(b) if x == 1)] for b in f.carrier.basis)
        pieces.append(mat_mul(C, mat_mul(Jf, R)))
    return [(signs, J, complex_structure_residuals(dec.algebra, J))
            for signs, J in signed_sums(pieces, dec.algebra.dim)]


def restrict_gram(G, basis):
    """restrict's induced Gram: G·b once per carrier vector, then dot products."""
    Gb = [linalg.mat_vec(G, b) for b in basis]
    s = len(basis)
    return tuple(tuple(linalg.dot(Gb[q], basis[p]) for q in range(s)) for p in range(s))


def _hermitian(A, J, u, v):
    G = A.gram
    re = linalg.bilinear(G, u, v)
    im = linalg.bilinear(G, u, linalg.mat_vec(J, v))
    return re / 2, im / 2


def doubling_residuals(A, J):
    """(bracket, intertwine, isometry, rank) of
    verify_doubling_isometry, checked on every pair of basis vectors."""
    n = A.dim
    tol = A.tol
    AC = complexify(A)
    n2 = AC.dim
    minusJ = linalg.mat_scale(-1, J)
    I = linalg.identity(n, tol)
    Phi = tuple(
        tuple(I[r % n][c] if c < n else (J if r < n else minusJ)[r % n][c - n] for c in range(n2))
        for r in range(n2)
    )
    D = direct_sum(A, A)

    worst_br = 0
    for p in range(n2):
        ep = linalg.basis_vec(n2, p, tol)
        for q in range(p + 1, n2):
            eq = linalg.basis_vec(n2, q, tol)
            lhs = linalg.mat_vec(Phi, bracket(AC.real_form, ep, eq))
            rhs = bracket(D, linalg.mat_vec(Phi, ep), linalg.mat_vec(Phi, eq))
            worst_br = max([worst_br] + [abs(a - b) for a, b in zip(lhs, rhs)])

    JJ = tuple(
        tuple((J if r < n else minusJ)[r % n][c % n] if (r < n) == (c < n) else (0.0 if tol else Fraction(0))
              for c in range(n2))
        for r in range(n2)
    )
    inter = mat_max_diff(mat_mul(Phi, AC.i_op), mat_mul(JJ, Phi))

    worst_iso = 0
    for p in range(n2):
        ep = linalg.basis_vec(n2, p, tol)
        fp = linalg.mat_vec(Phi, ep)
        for q in range(n2):
            eq = linalg.basis_vec(n2, q, tol)
            fq = linalg.mat_vec(Phi, eq)
            re1, im1 = _hermitian(A, J, fp[:n], fq[:n])
            re2, im2 = _hermitian(A, minusJ, fp[n:], fq[n:])
            hc = hermitian_form_complexified(AC, ep, eq)
            worst_iso = max(worst_iso, abs(re1 + re2 - hc.re), abs(im1 + im2 - hc.im))

    rank = len(float_rref(Phi, tol)[0] if tol else exact_rref([[Fraction(x) for x in r] for r in Phi])[0])
    return worst_br, inter, worst_iso, rank


def exact_rref(rows):
    """linalg.rref at tol == 0: Gauss-Jordan elimination in the entries' own
    arithmetic, each pivot row divided by its pivot when chosen.  It divides
    with /, which turns int rows into floats, so exact rows are given to it
    as Fractions."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        if r >= len(m):
            break
        best = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if best is None:
            continue
        m[r], m[best] = m[best], m[r]
        piv = m[r][c]
        m[r] = [x / piv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in m[:r]], pivots


def _primitive_row(row):
    """The row as coprime integers: denominators cleared, content divided out."""
    d = math.lcm(*(x.denominator for x in row))
    ints = [x.numerator * (d // x.denominator) for x in row]
    g = math.gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def int_nullspace(equations, ncols):
    """linalg._int_nullspace: the dense Gauss-Jordan of the rows in Fractions
    (``exact_rref``), then per free column f the kernel vector with x[f] = L,
    L the lcm of the pivots of the coprime integer multiples of the reduced
    rows that have an entry at f."""
    dense = [[Fraction(eq.get(c, 0)) for c in range(ncols)] for eq in equations]
    rows, pivots = exact_rref(dense)
    ints = [_primitive_row(row) for row in rows]
    pivset = set(pivots)
    basis = []
    for f in (c for c in range(ncols) if c not in pivset):
        used = [(row, p) for row, p in zip(ints, pivots) if row[f]]
        L = math.lcm(*(row[p] for row, p in used))
        x = [0] * ncols
        x[f] = L
        for row, p in used:
            x[p] = -row[f] * (L // row[p])
        basis.append(x)
    return basis


def exact_nullspace_sparse(equations, ncols):
    """The nullspace of exact sparse rows {col: coeff}, dense in Fractions:
    one vector per free column f of ``exact_rref``, with x[f] = 1."""
    dense = [[Fraction(eq.get(c, 0)) for c in range(ncols)] for eq in equations]
    return _nullspace_from_rref(*exact_rref(dense), ncols, Fraction(0), Fraction(1))


def canonical_nullspace(equations, ncols):
    """linalg._int_canonical_nullspace in Fractions: the dense rref of the
    integer kernel vectors."""
    return exact_rref([[Fraction(v) for v in x] for x in int_nullspace(equations, ncols)])[0]


def metric_part(A, sign):
    """centroid._metric_part's basis: the equations G·M = sign·Mᵀ·G on the
    centroid coordinates built entry by entry in the scalars' own arithmetic,
    and the result rows as the product of the canonical coordinates with the
    n²-vectors of the centroid basis."""
    n, G, tol = A.dim, A.gram, A.tol
    basis = A.algebra._centroid_basis
    eqs = {}
    for k, B in enumerate(basis):
        for t, u in ((t, u) for t in range(n) for u in range(n) if B[t][u]):
            b = B[t][u]
            for r in range(u + 1):
                eq = eqs.setdefault((r, u), {})
                eq[k] = eq.get(k, 0) + G[r][t] * b
            for s in range(u, n):
                eq = eqs.setdefault((u, s), {})
                eq[k] = eq.get(k, 0) - sign * b * G[t][s]
    eqs = [{k: v for k, v in eq.items() if not linalg.is_zero(v, tol)} for eq in eqs.values()]
    eqs = [eq for eq in eqs if eq]
    if tol:
        coords = float_canonical_rows(float_nullspace_sparse(eqs, len(basis), tol), tol)
    else:
        coords = canonical_nullspace(eqs, len(basis))
    rows = mat_mul(coords, tuple(linalg.vectorize(B) for B in basis))
    return tuple(linalg.unvectorize(r, n) for r in rows)


def generic_element(S, rng):
    """_random_generic_element of an exact S as an n×n matrix: seeded
    coefficients from [−B, B] ∖ {0}, B = max(GENERIC_COEFF_BOUND, k²), then
    Fraction scalings and sums of the n×n basis from a zero matrix."""
    bound = max(GENERIC_COEFF_BOUND, S.dim ** 2)
    coeffs = []
    for _ in range(S.dim):
        c = 0
        while c == 0:
            c = rng.randint(-bound, bound)
        coeffs.append(c)
    a = linalg.zeros(S.ambient.dim, S.ambient.dim)
    for c, B in zip(coeffs, S.basis):
        a = linalg.mat_add(a, linalg.mat_scale(Fraction(c), B))
    return a


def eigenprojections(a, eigenvalues):
    """The exact Lagrange products (a − μ·I)/(λ − μ), each started from I."""
    I = linalg.identity(len(a))
    projections = []
    for lam in eigenvalues:
        P = I
        for mu in eigenvalues:
            if mu != lam:
                P = mat_mul(P, linalg.mat_scale(1 / (lam - mu), linalg.mat_sub(a, linalg.mat_scale(mu, I))))
        projections.append(P)
    return projections
