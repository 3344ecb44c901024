"""Dense and sparse linear algebra over exact rationals or float64.

All matrices are tuples of row tuples.  Exact computations use
``fractions.Fraction`` entries and ``tol == 0``; the numeric backend uses
floats and a strictly positive tolerance.  Exact operands may hold ints,
read as the Fractions they equal: every nonzero exact result of
``mat_mul``, the eliminations and the certificate residuals is a Fraction,
and a zero residual is the int 0, as ``max_abs`` gives it.  The entrywise
helpers (``mat_add``, ``mat_scale``, ``mat_vec``, ``dot``) are plain
arithmetic and keep their operands' types.  Dimensions here are tiny
(algebras of dim <= 12, operator spaces of dim <= 144).  Exact work is
integer elimination over common denominators, not Fraction arithmetic:
``mat_mul`` clears each row of A and each column of B to integers and
forms one Fraction per product entry.  Every exact elimination runs on one
engine that never leaves sparse integer rows: it eliminates them forward
incrementally (``_int_echelon``, the sparsest rows first) and
back-substitutes over the pivot-row dicts alone (``_int_reduce``), so the
work follows the nonzero entries and not the columns.  ``rref`` at tol 0,
and so ``nullspace``, ``solve`` and ``canonical_rows``, reduces its rows
this way and divides each by its pivot at the end; ``rank`` counts the
pivots of the forward pass.  The exact centroid systems go through
``_int_nullspace``, which returns integer kernel vectors, and
``_int_canonical_nullspace`` reduces those once more to the canonical
basis over one common denominator.  Every certificate residual
max|Σ c·X·Y| is one primitive, ``residual``: an integer matrix identity
with one Fraction per residual when its operands are exact, the float
formula otherwise.  The leading principal minors are Bareiss's integer
elimination.  At tol 0 a float entry raises TypeError rather than have its
binary value reduced exactly.

Float elimination (``rref`` with tol > 0, and so ``nullspace``, ``solve``,
``canonical_rows`` and ``rank``, and ``nullspace_sparse``, which takes float
systems only) is ``_float_rref``: Gauss-Jordan with partial pivoting over
sparse row dicts {col: float}, with a column -> rows index, so its work
follows the nonzero entries.  ``nullspace_sparse`` hands it its rows as
they are and reads its kernel off the sparse result; ``rref`` turns dense
rows into dicts and the result back into dense rows.  It is bit-identical to
the dense loop over Python floats: each entry gets the same IEEE-754
divisions, products and differences in the same order, the pivot is the
same row, found by each row's current position, and rows within tol at the
pivot column are left untouched as the loop leaves them.  No numpy is
involved: numpy finds the eigenvalues of the float k×k matrix L_a of a
generic symmetric-centroid element (``centroid._numeric_eigenvalues``) and
nothing else, so exact work, and float work that draws no eigenvalues,
never loads it.  Float ``mat_mul`` follows the nonzeros: on all-float
operands each entry is one Python ``sum`` over the products of A's nonzero
entries, in k order, which for finite entries is the dense ``sum(a * b for
a, b in zip(row, col))`` bit for bit (a ±0.0 term moves neither the sum nor
the compensation Python 3.12 adds to it) and which a numpy product would
not match.  Mixed exact and float operands stay dense.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InternalAssertionFailure

Vec = tuple
Mat = tuple


def is_zero(x, tol: float = 0.0) -> bool:
    if tol:
        return abs(x) <= tol
    return x == 0


def mat(rows) -> Mat:
    return tuple(tuple(r) for r in rows)


def _zero_one(tol: float):
    return (0.0, 1.0) if tol else (Fraction(0), Fraction(1))


def zeros(n: int, m: int, tol: float = 0.0) -> Mat:
    return ((_zero_one(tol)[0],) * m,) * n


def identity(n: int, tol: float = 0.0) -> Mat:
    z, one = _zero_one(tol)
    return tuple(tuple(one if i == j else z for j in range(n)) for i in range(n))


def basis_vec(n: int, i: int, tol: float = 0.0) -> Vec:
    z, one = _zero_one(tol)
    return tuple(one if j == i else z for j in range(n))


def transpose(A: Mat) -> Mat:
    return tuple(zip(*A)) if A else ()


def _is_exact(rows) -> bool:
    return all(type(x) is Fraction or type(x) is int for row in rows for x in row)


def _cleared(row):
    """Integers R and the common denominator d with row = R / d."""
    pairs = [x.as_integer_ratio() for x in row]
    d = math.lcm(*(q for _, q in pairs))
    return [p * (d // q) for p, q in pairs], d


def _cleared_matrix(M):
    """Integer rows R and one common denominator d with M = R / d."""
    ints, d = _cleared([x for row in M for x in row])
    m = len(M[0]) if M else 0
    return [ints[i * m:(i + 1) * m] for i in range(len(M))], d


def _sparse_rows(M):
    """The rows of M as lists of their nonzero (column, entry) pairs."""
    return [[(t, x) for t, x in enumerate(row) if x] for row in M]


def _add_int_product(D, X, Y):
    """D += X·Y for integer rows D and X, Y given by ``_sparse_rows``: one
    product per pair of nonzero entries that meet.  A Y without rows (the
    empty matrix () of k × 0) adds nothing."""
    if Y:
        for Dr, row in zip(D, X):
            for k, x in row:
                for c, y in Y[k]:
                    Dr[c] += x * y
    return D


def _int_product(X, Y, m: int):
    """X·Y for integer rows X and Y, Y with m columns."""
    return _add_int_product([[0] * m for _ in X], _sparse_rows(X), _sparse_rows(Y))


def _is_float(rows) -> bool:
    return all(type(x) is float for row in rows for x in row)


def mat_mul(A: Mat, B: Mat) -> Mat:
    Bt = transpose(B)
    if _is_float(A) and _is_float(Bt):  # one sum per entry over A's nonzero entries, in k order
        rows = ([(k, a) for k, a in enumerate(row) if a] for row in A)
        return tuple(tuple(sum([a * col[k] for k, a in row], 0.0) for col in Bt) for row in rows)
    if not (_is_exact(A) and _is_exact(Bt)):
        return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in Bt) for row in A)
    rows, da = zip(*map(_cleared, A)) if A else ((), ())
    cols, db = zip(*map(_cleared, Bt)) if Bt else ((), ())
    return tuple(
        tuple(Fraction(s, da[i] * db[j]) for j, s in enumerate(row))
        for i, row in enumerate(_int_product(rows, zip(*cols), len(cols)))
    )


def mat_vec(A: Mat, v: Vec) -> Vec:
    return tuple(sum(a * x for a, x in zip(row, v)) for row in A)


def mat_add(A: Mat, B: Mat) -> Mat:
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_sub(A: Mat, B: Mat) -> Mat:
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_scale(c, A: Mat) -> Mat:
    return tuple(tuple(c * a for a in row) for row in A)


def dot(u: Vec, v: Vec):
    return sum(a * b for a, b in zip(u, v))


def bilinear(G: Mat, u: Vec, v: Vec):
    """u^T G v."""
    return dot(mat_vec(G, v), u)


def max_abs(A: Mat) -> float:
    """The largest |entry|, the first in row-major order; the int 0 if A is
    zero, and NaN if an entry is NaN, which ``max`` never picks after a number."""
    m = 0
    for row in A:
        m = max((m, *map(abs, row)))
    return math.nan if any(x != x for row in A for x in row) else m


def _int_max_abs(R, den: int):
    """max_abs of the matrix R / den, for integer R: a Fraction, or the int 0
    when R is zero, as max_abs gives it."""
    m = max((max(max(row, default=0), -min(row, default=0)) for row in R), default=0)
    return Fraction(m, den) if m else 0


def residual(terms):
    """max_abs(Σ c·X·Y) over the terms (c, X, Y) for c·X·Y and (c, X) for c·X.

    When every coefficient and every distinct operand is exact, it is an
    integer matrix identity: each distinct operand is cleared to integers
    over one common denominator once, and the terms, integer matrices over
    a few products of denominators, are brought to their lcm; one Fraction
    is formed, for the largest entry, and a zero residual is the int 0.
    Otherwise it is the float formula, a ``mat_mul`` per product.  Either
    way a term is scaled unless c == 1, and the terms are added in order.
    """
    operands = {id(M): M for _, *ops in terms for M in ops}
    exact = _is_exact([[c for c, *_ in terms]]) and all(map(_is_exact, operands.values()))
    if exact:
        cleared = {key: _cleared_matrix(M) for key, M in operands.items()}
        parts = []  # (p, d, R) for the term p·R / d, R an integer matrix
        for c, *ops in terms:
            (R, d), *rest = (cleared[id(M)] for M in ops)
            for Y, e in rest:
                R, d = _int_product(R, Y, len(Y[0]) if Y else 0), d * e
            p, q = c.as_integer_ratio()
            parts.append((p, q * d, R))
        den = math.lcm(*(d for _, d, _ in parts))
        terms = [(p * (den // d), R) for p, d, R in parts]
    total = None
    for c, *ops in terms:
        M = mat_mul(*ops) if len(ops) == 2 else ops[0]
        M = M if c == 1 else mat_scale(c, M)
        total = M if total is None else mat_add(total, M)
    return _int_max_abs(total, den) if exact else max_abs(total)


def rref(rows, tol: float = 0.0):
    """Reduced row echelon form.  Returns (rref_rows, pivot_cols).

    Zero rows are dropped.  The rows are turned into sparse dicts.  With
    tol > 0 they are float64 and ``_float_rref`` reduces them.  With tol == 0
    they must be exact (Fractions and ints): they are reduced as sparse
    integer rows by ``_int_echelon`` and ``_int_reduce``, the engine of the
    exact nullspace solves, and come out as Fractions.  A float among them
    raises TypeError, since exact elimination of its binary value would be a
    silent approximation.
    """
    ncols = len(rows[0]) if rows else 0
    sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
    if tol:
        rows, pivots = _float_rref(sparse, ncols, tol)
        dense = [[0.0] * ncols for _ in rows]
        for out, row in zip(dense, rows):
            for col, x in row.items():
                out[col] = x
        return [tuple(row) for row in dense], pivots
    _require_exact(rows, "rref")
    ints, d = _int_canonical(sparse, ncols)
    return _fraction_rows(ints, d, ncols), [min(row) for row in ints]


def _require_exact(rows, name):
    if not _is_exact(rows):  # exact work on a float's binary value would approximate it silently
        raise TypeError(f"{name} at tol 0 takes exact rows (Fractions and ints); use tol > 0 for floats")


def _float_rref(rows, ncols: int, tol: float):
    """Gauss-Jordan elimination with partial pivoting of the float rows
    {col: value} with ncols columns, at tol > 0.  Returns (rref_rows,
    pivot_cols) like ``rref``, the rows as dicts of their entries above tol.

    The rows stay sparse dicts, with a column -> rows index and each row's
    current position, so the work follows the nonzero entries.  Per column
    the pivot is the first row, in current order at or below the current
    one, whose entry is largest in magnitude, and the column is skipped
    unless it exceeds tol; the pivot row is swapped into place and divided
    by the pivot, and f·(pivot row) is subtracted, over the pivot row's
    nonzeros, from every other row whose entry f exceeds tol in magnitude,
    the rest being left untouched.  An entry that this makes 0.0 is dropped,
    and so, at the end, is every entry within tol: the dense loop snaps them
    to 0.0.  For finite entries each entry goes through the same IEEE-754
    divisions, products and differences, in the same order, as in the dense
    loop over Python floats, so the result is the same bit for bit:
    a − f·(±0.0) is a, and a zero's sign moves no later nonzero entry.
    """
    rows = [dict(row) for row in rows]  # copies; an explicit ±0.0 is never a pivot and moves no entry
    order = list(range(len(rows)))  # order[position] = row, pos[row] = position
    pos = list(order)
    where = [set() for _ in range(ncols)]  # the rows with an entry in each column
    for i, row in enumerate(rows):
        for c in row:
            where[c].add(i)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        hits = [(-a, pos[i], i) for i in where[c] if pos[i] >= r and (a := abs(rows[i][c])) > tol]
        if not hits:
            continue
        _, p, i = min(hits)
        j = order[r]
        order[r], order[p], pos[i], pos[j] = i, j, r, p
        piv = rows[i][c]
        prow = rows[i] = {col: x / piv for col, x in rows[i].items()}
        for k in [k for k in where[c] if k != i and abs(rows[k][c]) > tol]:
            row = rows[k]
            f = row[c]
            for col, b in prow.items():
                if col in row:
                    x = row[col] - f * b
                    if x:
                        row[col] = x
                    else:
                        del row[col]
                        where[col].discard(k)
                else:
                    x = 0.0 - f * b  # as from an entry ±0.0
                    if x:
                        row[col] = x
                        where[col].add(k)
        pivots.append(c)
    return [{col: x for col, x in rows[i].items() if not abs(x) <= tol} for i in order[:len(pivots)]], pivots


def rank(A: Mat, tol: float = 0.0) -> int:
    if tol:
        return len(rref(A, tol)[0])
    _require_exact(A, "rank")
    return len(_int_echelon(({c: x for c, x in enumerate(row) if x} for row in A), len(A[0]) if A else 0))


def canonical_rows(vectors, ncols: int, tol: float = 0.0):
    """Canonical reduced-echelon basis of the span of the given vectors."""
    # not redundant: rows within tol still move in _float_rref's row swaps and so pick between tied pivots
    vs = [v for v in vectors if (max(map(abs, v), default=0) > tol if tol else any(v))]
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


def solve(A: Mat, b: Vec, tol: float = 0.0):
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


def leading_principal_minors(A: Mat, tol: float = 0.0):
    """det(A[:k, :k]) for k = 1, 2, ...; a zero pivot (within tol) ends the
    list with a zero minor: past it the elimination has no pivot.  Exact A
    goes through Bareiss's fraction-free elimination (Math. Comp. 22, 1968)
    of its rows cleared to integers R_i / d_i, whose k-th pivot is
    det(R[:k, :k]); each minor is one Fraction of it over d_1⋯d_k.  With
    tol > 0 they are the running products of the pivots of one Gaussian
    elimination without row exchanges (Sylvester), stable while positive.
    """
    if not tol:
        _require_exact(A, "leading_principal_minors")
        m, minors, den, prev = [_cleared(row) for row in A], [], 1, 1
        for c, (prow, d) in enumerate(m):
            piv, den = prow[c], den * d
            minors.append(Fraction(piv, den))
            if not piv:
                break
            for row, _ in m[c + 1:]:
                row[c + 1:] = [(a * piv - row[c] * b) // prev for a, b in zip(row[c + 1:], prow[c + 1:])]
            prev = piv
        return minors
    m = [list(r) for r in A]
    minors, d = [], 1
    for c, prow in enumerate(m):
        piv = prow[c]
        if is_zero(piv, tol):
            return minors + [_zero_one(tol)[0]]
        d = d * piv
        minors.append(d)
        for row in m[c + 1:]:
            f = row[c] / piv
            if f:
                row[c:] = [a - f * b for a, b in zip(row[c:], prow[c:])]
    return minors


# ---------------------------------------------------------------------------
# Sparse integer elimination for the big centroid-style systems.
# ---------------------------------------------------------------------------

def _to_int_row(row: dict) -> dict:
    """The row {col: coeff} of ints or Fractions as coprime integers, with
    its zero entries dropped.  Int rows are not cleared."""
    vals = list(row.values())
    if not all(type(v) is int for v in vals):
        vals, _ = _cleared(vals)
    return _primitive({c: v for c, v in zip(row, vals) if v})


def nullspace_sparse(equations, ncols: int, tol: float):
    """Nullspace basis of the float system given as sparse rows {col: coeff},
    at tol > 0, one vector per free column f, as ``_nullspace_from_rref``
    gives it: ``_float_rref`` reduces the rows as they are, never densified,
    and −row[f] is read off the nonzero entries of its sparse rows.  Exact
    systems go through ``_int_nullspace``."""
    rows, pivots = _float_rref(equations, ncols, tol)
    zero = [0.0] * ncols
    for p in pivots:
        zero[p] = -0.0  # −row[f] where the pivot row p is 0.0 at f
    pivset = set(pivots)
    basis = {f: zero.copy() for f in range(ncols) if f not in pivset}
    for f, x in basis.items():
        x[f] = 1.0
    for row, p in zip(rows, pivots):
        for col, v in row.items():
            if col in basis:
                basis[col][p] = -v
    return [tuple(x) for x in basis.values()]


def _canonical_nullspace(equations, ncols: int, tol: float):
    """Canonical reduced-echelon basis of the nullspace of float sparse rows
    {col: coeff}, at tol > 0: ``canonical_rows`` of the kernel vectors,
    without its filter, which each keeps for its 1.0.  Exact systems go
    through ``_int_canonical_nullspace``."""
    return rref(nullspace_sparse(equations, ncols, tol), tol)[0]


def _int_canonical_nullspace(equations, ncols: int):
    """(rows, d): the canonical reduced-echelon basis of the nullspace of
    exact sparse rows {col: coeff}, as ``_int_canonical`` gives it for the
    integer vectors of ``_int_nullspace``."""
    vectors = ({c: v for c, v in enumerate(x) if v} for x in _int_nullspace(equations, ncols))
    return _int_canonical(vectors, ncols)


def _int_canonical(rows, ncols: int):
    """(rows, d): the reduced-echelon basis of the span of the exact sparse
    rows {col: coeff}, as sparse integer rows {col: v} in pivot order over
    one common denominator d, each row's pivot column its first."""
    pivot_rows = _int_reduce(_int_echelon(rows, ncols))
    d = math.lcm(*(row[c] for c, row in pivot_rows.items()))
    return [{col: v * (d // row[c]) for col, v in row.items()} for c, row in sorted(pivot_rows.items())], d


def _fraction_rows(rows, d: int, ncols: int):
    """The sparse integer rows {col: v} over the denominator d as dense
    Fraction rows of length ncols."""
    zero = Fraction(0)
    out = []
    for row in rows:
        dense = [zero] * ncols
        for col, v in row.items():
            dense[col] = Fraction(v, d)
        out.append(tuple(dense))
    return out


def _int_echelon(rows, ncols: int):
    """Sparse fraction-free forward elimination: {leading col: row}, every
    row a coprime integer dict whose leading column no other row has.  The
    rows {col: coeff} hold ints or Fractions; empty rows are skipped.

    The sparsest rows go first, and a row that is sparser than the pivot row
    it meets takes its place, so the pivot rows stay sparse; once every
    column has a pivot the remaining rows are in their span.
    """
    pivot_rows = {}
    for row in sorted(map(_to_int_row, filter(None, rows)), key=len):
        while row:
            c = min(row)
            p = pivot_rows.get(c)
            if p is None:
                pivot_rows[c] = row
                break
            if len(row) < len(p):
                pivot_rows[c], row, p = row, p, row
            row = _primitive(_cancel(row, p, c))
        if len(pivot_rows) == ncols:
            break
    return pivot_rows


def _int_reduce(pivot_rows):
    """Back-substitute the echelon rows of ``_int_echelon`` in place, from
    the last pivot up: each row is cleared at the other pivot columns with
    the rows below it, already reduced, and divided by its content.  Every
    row ends up coprime and a multiple of its reduced-echelon row."""
    for c in sorted(pivot_rows, reverse=True):
        row = pivot_rows[c]
        for p in [col for col in row if col != c and col in pivot_rows]:
            row = _cancel(row, pivot_rows[p], p)  # that row is zero at every other pivot
        pivot_rows[c] = _primitive(row)
    return pivot_rows


def _cancel(row, p, c):
    """a·row − b·p for the integer dicts row and p, with a and b their
    entries at column c over their gcd, so that column c cancels; zero
    entries are dropped."""
    g = math.gcd(p[c], row[c])
    a, b = p[c] // g, row[c] // g
    new = {col: a * v for col, v in row.items()}
    for col, v in p.items():
        new[col] = new.get(col, 0) - b * v
    return {col: v for col, v in new.items() if v}


def _primitive(row):
    """The integer dict row divided by the gcd of its entries."""
    g = math.gcd(*row.values())
    return {col: v // g for col, v in row.items()} if g > 1 else row


def _int_nullspace(equations, ncols: int):
    """Integer nullspace basis of exact sparse rows {col: coeff}: one vector
    per free column f, a positive multiple of the vector with x[f] = 1.

    The rows are scaled to coprime integers and eliminated sparsely, forward
    (``_int_echelon``) and back (``_int_reduce``), so the work follows the
    nonzero entries and not the ncols columns.
    """
    rows = _int_reduce(_int_echelon(equations, ncols))
    used = {}  # free col f -> the pivots p whose reduced row has an entry at f
    for p, row in rows.items():
        for col in row:
            if col != p:
                used.setdefault(col, []).append(p)
    basis = []  # x[f] = L and x[p] = -row[f]·L / row[p], one vector per free column f
    for f in (c for c in range(ncols) if c not in rows):
        ps = used.get(f, ())
        L = math.lcm(*(rows[p][p] for p in ps))
        x = [0] * ncols
        x[f] = L
        for p in ps:
            x[p] = -rows[p][f] * (L // rows[p][p])
        basis.append(x)
    return basis


# ---------------------------------------------------------------------------
# Operator vectorization and minimal polynomials.
# ---------------------------------------------------------------------------

def vectorize(M: Mat) -> Vec:
    return tuple(x for row in M for x in row)


def unvectorize(v: Vec, n: int) -> Mat:
    return tuple(tuple(v[i * n + j] for j in range(n)) for i in range(n))


def minimal_polynomial(M: Mat):
    """Monic minimal polynomial of the exact M as coefficients [c0, c1, ..., 1]."""
    n = len(M)
    P = identity(n)
    powers = [P]
    for _ in range(n + 1):
        P = mat_mul(P, M)
        target = vectorize(P)
        A = transpose(mat([vectorize(Q) for Q in powers]))
        coords = solve(A, target)
        if coords is not None:
            return [-x for x in coords] + [Fraction(1)]
        powers.append(P)
    raise InternalAssertionFailure("minimal polynomial search exceeded dimension bound")


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
