"""Output checks made apart from metriclie.

Nothing here imports metriclie or the test oracle.  An algebra is given as
plain data: its dimension, its structure constants as a dict
``{(i, j): [(k, c), ...]}`` over 0-based ``i < j``, and its Gram matrix.
Exact answers are checked with integer matrices (a Fraction matrix scaled
by a common denominator); float answers with numpy and a relative
tolerance.  Dimensions of centroid spaces come from a numpy SVD rank with a
required gap between the zero and non-zero singular values.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from inputs import H3C_BRACKETS, H3H3_BRACKETS, H3H3_FACTORS, identity, mult_by_i, scale_mat

FLOAT_TOL = 1e-7  # relative residual allowed on float answers
RANK_ZERO = 1e-9  # singular values below this share of the largest are zero
RANK_GAP = 1e-5  # ... and none may lie between RANK_ZERO and this share


class CheckFailed(Exception):
    """An output of metriclie disagrees with the independent computation."""


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


class Mat:
    """A square matrix: an integer array over a common denominator (exact),
    or a float array with denominator 1."""

    __slots__ = ("a", "d", "exact")

    def __init__(self, a, d, exact):
        self.a, self.d, self.exact = a, d, exact

    @classmethod
    def of(cls, rows, exact):
        if not exact:
            return cls(np.array([[float(x) for x in r] for r in rows]), 1, False)
        fr = [[Fraction(x) for x in r] for r in rows]
        d = 1
        for r in fr:
            for x in r:
                d = d * x.denominator // math.gcd(d, x.denominator)
        a = np.array([[int(x * d) for x in r] for r in fr], dtype=object)
        return cls(a, d, True)

    @classmethod
    def eye(cls, n, exact, value=1):
        a = (value * np.eye(n, dtype=int)).astype(object) if exact else value * np.eye(n)
        return cls(a, 1, exact)

    def __matmul__(self, o):
        return Mat(self.a @ o.a, self.d * o.d, self.exact)

    def __add__(self, o):
        return Mat(self.a * o.d + o.a * self.d, self.d * o.d, self.exact)

    def __sub__(self, o):
        return Mat(self.a * o.d - o.a * self.d, self.d * o.d, self.exact)

    def __neg__(self):
        return Mat(-self.a, self.d, self.exact)

    def half(self):
        return Mat(self.a, self.d * 2, self.exact)

    @property
    def T(self):
        return Mat(self.a.T.copy(), self.d, self.exact)

    def maxabs(self):
        return float(max(abs(x) for x in self.a.flat)) / float(self.d) if self.a.size else 0.0

    def is_zero(self, scale=1.0):
        """Exactly zero, or for floats below FLOAT_TOL times ``scale``."""
        if self.exact:
            return not any(x for x in self.a.flat)
        return self.maxabs() <= FLOAT_TOL * max(scale, 1e-300)

    def equals(self, o, scale=1.0):
        return (self - o).is_zero(scale)

    def to_float(self):
        return np.array(self.a, dtype=float) / float(self.d)


class Algebra:
    """Structure constants and Gram matrix of the input, as the checks see it."""

    def __init__(self, dim, brackets, gram, exact=True):
        self.n = dim
        self.exact = exact
        ad = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), terms in brackets.items():
            for k, c in terms:
                ad[i][k][j] += Fraction(c)  # ad(X_i) X_j = [X_i, X_j]
                ad[j][k][i] -= Fraction(c)
        self.ad = [Mat.of(m, exact) for m in ad]
        self.ad_scale = max((m.maxabs() for m in self.ad), default=1.0) or 1.0
        self.G = Mat.of(gram, exact)
        require(self.G.equals(self.G.T, self.G.maxabs()), "Gram matrix is not symmetric")
        self.I = Mat.eye(dim, exact)

    def as_float(self):
        out = Algebra.__new__(Algebra)
        out.n, out.exact = self.n, False
        out.ad = [Mat(m.to_float(), 1, False) for m in self.ad]
        out.ad_scale = self.ad_scale
        out.G = Mat(self.G.to_float(), 1, False)
        out.I = Mat.eye(self.n, False)
        return out

    def operator(self, rows):
        return rows if isinstance(rows, Mat) else Mat.of(rows, self.exact)

    def commutes_with_ad(self, M):
        """M[X_i, X_j] = [M X_i, X_j] on all basis pairs, i.e. M ad(X_j) = ad(X_j) M."""
        scale = M.maxabs() * self.ad_scale
        return all((M @ a).equals(a @ M, scale) for a in self.ad)


def check_positive_definite(gram):
    """Exact Gram matrix: symmetric, all pivots of its LDL^T positive."""
    m = [[Fraction(x) for x in r] for r in gram]
    n = len(m)
    require(all(m[i][j] == m[j][i] for i in range(n) for j in range(n)), "Gram not symmetric")
    for c in range(n):
        require(m[c][c] > 0, f"Gram not positive definite at pivot {c + 1}")
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]


# ---------------------------------------------------------------------------
# Centroid dimensions by SVD rank.
# ---------------------------------------------------------------------------

def _nullity(blocks, ncols):
    A = np.vstack(blocks)
    s = np.linalg.svd(A, compute_uv=False)
    top = s[0] if s.size else 0.0
    if top == 0.0:
        return ncols
    zero = s <= RANK_ZERO * top
    require(not np.any((s > RANK_ZERO * top) & (s < RANK_GAP * top)),
            "rank is ambiguous: no gap between zero and non-zero singular values")
    return int(zero.sum()) + ncols - s.size


def centroid_dim(alg, sign, P=None):
    """Dimension of {F : F commutes with every ad(X_j), G F = sign F^T G},
    restricted to F = P F P when a projection P is given.

    Unknowns are the entries of F in row-major order; vec(A F B) is
    (A kron B^T) vec(F).  The ad and Gram blocks are scaled to entries of
    at most 1, so the rank does not depend on the scale of the input.
    """
    n = alg.n
    I = np.eye(n)
    G = alg.G.to_float() / alg.G.maxabs()
    blocks = []
    for a in alg.ad:
        ad = a.to_float() / alg.ad_scale
        blocks.append(np.kron(I, ad.T) - np.kron(ad, I))
    T = np.zeros((n * n, n * n))
    for r in range(n):
        for c in range(n):
            T[r * n + c, c * n + r] = 1.0
    GF = np.kron(G, I)
    blocks.append(GF - sign * (T @ GF))
    if P is not None:
        Q = I - P.to_float()
        blocks.append(np.kron(Q, I))
        blocks.append(np.kron(I, Q.T))
    return _nullity(blocks, n * n)


# ---------------------------------------------------------------------------
# Decompositions and complex structures.
# ---------------------------------------------------------------------------

def check_projections(alg, projections):
    """Orthogonal projections onto the irreducible factors of ``alg``."""
    Ps = [alg.operator(P) for P in projections]
    require(Ps, "no factors")
    gscale = alg.G.maxabs()
    total = Mat.eye(alg.n, alg.exact, 0)
    for idx, P in enumerate(Ps):
        pscale = max(P.maxabs(), 1.0)
        require((P @ P).equals(P, pscale * pscale), f"factor {idx + 1}: P^2 != P")
        require((alg.G @ P).equals(P.T @ alg.G, gscale * pscale),
                f"factor {idx + 1}: P is not G-symmetric")
        require(alg.commutes_with_ad(P), f"factor {idx + 1}: P does not commute with ad")
        for jdx, Q in enumerate(Ps):
            if jdx != idx:
                require((P @ Q).is_zero(pscale * max(Q.maxabs(), 1.0)),
                        f"factors {idx + 1} and {jdx + 1}: projections do not annihilate")
        total = total + P
    require(total.equals(alg.I), "factor projections do not sum to the identity")
    for idx, P in enumerate(Ps):
        require(centroid_dim(alg, 1, P) == 1,
                f"factor {idx + 1} is reducible: symmetric centroid dimension != 1")
    return Ps


def check_structures(alg, structures):
    """Verify a returned set of orthogonal bi-invariant complex structures.

    Each J must satisfy J^2 = -I, bi-invariance and G J + J^T G = 0; the J's
    must be pairwise distinct; their number is 0 or 2^k.  When it is 2^k the
    factor projections are recovered as (I + J0 J)/2 for the J that differ
    from J0 on one factor, and checked as a decomposition in which every
    factor carries exactly one J up to sign (skew centroid dimension 1).
    When it is 0, the skew centroid of the whole algebra must be zero.
    Returns k, or None for an empty set.
    """
    Js = [alg.operator(J) for J in structures]
    count = len(Js)
    if count == 0:
        require(centroid_dim(alg, -1) == 0,
                "no structures returned, but the skew centroid is non-zero")
        return None
    gscale = alg.G.maxabs()
    for idx, J in enumerate(Js):
        jscale = max(J.maxabs(), 1.0)
        require((J @ J).equals(-alg.I, jscale * jscale), f"J{idx + 1}: J^2 != -I")
        require(alg.commutes_with_ad(J), f"J{idx + 1}: J[X,Y] != [JX,Y]")
        require((alg.G @ J + J.T @ alg.G).is_zero(gscale * jscale),
                f"J{idx + 1}: G J + J^T G != 0")
        for jdx in range(idx):
            require(not J.equals(Js[jdx], jscale), f"J{idx + 1} repeats J{jdx + 1}")
        require(any(K.equals(-J, jscale) for K in Js), f"-J{idx + 1} is missing")
    k = count.bit_length() - 1
    require(count == 2 ** k, f"{count} structures is not a power of two")
    J0 = Js[0]
    sums = [(alg.I + J0 @ J).half() for J in Js[1:]]  # sum of the factors where J != J0
    atoms = []
    for S in sums:
        smaller = any(
            not T.equals(S, 1.0) and not T.is_zero() and (S @ T).equals(T, 1.0)
            for T in sums
        )
        if not smaller:
            atoms.append(S)
    require(len(atoms) == k, f"{count} structures, but {len(atoms)} factors carry one")
    atoms = check_projections(alg, atoms)
    for idx, P in enumerate(atoms):
        require(centroid_dim(alg, -1, P) == 1,
                f"factor {idx + 1} has skew centroid dimension != 1")
    return k


def same_set(alg, got, want):
    """The two lists of operators are equal as sets."""
    G = [alg.operator(x) for x in got]
    W = [alg.operator(x) for x in want]
    scale = max([m.maxabs() for m in W] + [1.0])
    return len(G) == len(W) and all(any(g.equals(w, scale) for g in G) for w in W)


def contains(alg, got, want):
    W = alg.operator(want)
    scale = max(W.maxabs(), 1.0)
    return any(alg.operator(g).equals(W, scale) for g in got)


# ---------------------------------------------------------------------------
# Self-test: every checker must reject deliberately wrong answers.
# ---------------------------------------------------------------------------

def _rejects(fn, *args):
    try:
        fn(*args)
    except CheckFailed:
        return True
    return False


def self_test():
    """Run the checkers on known right and wrong answers; raise on a miss."""
    for exact in (True, False):
        h3c = Algebra(6, H3C_BRACKETS, identity(6))
        h3h3 = Algebra(6, H3H3_BRACKETS, identity(6))
        if not exact:
            h3c, h3h3 = h3c.as_float(), h3h3.as_float()
        J = mult_by_i(6)
        good_js = [J, scale_mat(-1, J)]
        blocks = H3H3_FACTORS
        require(check_structures(h3c, good_js) == 1, "self-test: h3c structures rejected")
        require(check_structures(h3h3, []) is None, "self-test: h3+h3 empty set rejected")
        check_projections(h3h3, blocks)
        check_projections(h3c, [identity(6)])
        flipped = [list(r) for r in J]
        flipped[1][0] = -flipped[1][0]
        wrong = {
            "J with a flipped entry": (check_structures, h3c, [flipped, scale_mat(-1, J)]),
            "one extra J": (check_structures, h3c, good_js + [flipped]),
            "a repeated J": (check_structures, h3c, [J, J]),
            "a missing J": (check_structures, h3c, [J]),
            "no J where two exist": (check_structures, h3c, []),
            "one factor dropped": (check_projections, h3h3, blocks[:1]),
            "a reducible factor": (check_projections, h3h3, [identity(6)]),
        }
        for what, (fn, *args) in wrong.items():
            require(_rejects(fn, *args), f"self-test: {what} was accepted (exact={exact})")
