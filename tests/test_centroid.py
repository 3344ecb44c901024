import inspect
import math
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from metriclie import linalg
from metriclie.centroid import (
    _numeric_eigenvalues,
    _rational_roots,
    centroid,
    centroid_residual,
    decompose,
    is_irreducible,
    is_orthogonal_projection,
    skew_centroid,
    symmetric_centroid,
)
from metriclie.complexstruct import enumerate_complex_structures
from metriclie.core import (
    LieAlgebra,
    Metric,
    Subspace,
    bracket,
    direct_sum,
    has_abelian_factor,
    make_algebra,
    restrict,
    to_numeric,
)
from metriclie.errors import AbelianFactorPresent, InternalAssertionFailure, NotASubalgebra
from metriclie.examples import example_keys, get_example
from metriclie.lab import BlockSpec, _hermitize, make_metric_with_factor_count, random_gram

import fraction_reference as ref
from bruteforce import centroid_space
from test_core import _in_basis

NONABELIAN = ["h3", "h3c", "ex48", "h3h3", "h3h3-paper-metric", "sl2c-real"]


def _spans(space, M):
    """Whether M lies in the operator space, its basis taken as n²-vectors."""
    vectors = Subspace.from_vectors(space.ambient.dim ** 2, [linalg.vectorize(B) for B in space.basis])
    return vectors.contains(linalg.vectorize(M))


@pytest.mark.parametrize("key,cdim,sdim,kdim", [
    ("h3", 3, 1, 0),
    ("h3c", 10, 1, 1),
    ("ex48", 10, 1, 1),
    ("h3h3", 10, 2, 0),
    ("h3h3-paper-metric", 10, 1, 0),
    ("sl2c-real", 2, 1, 1),
])
def test_centroid_dimensions(key, cdim, sdim, kdim):
    A = get_example(key)
    assert centroid(A).dim == cdim
    assert symmetric_centroid(A).dim == sdim
    assert skew_centroid(A).dim == kdim


@pytest.mark.parametrize("key", NONABELIAN)
def test_centroid_contains_identity_and_satisfies_defining_relation(key):
    A = get_example(key)
    C = centroid(A)
    assert _spans(C, linalg.identity(A.dim))
    for M in C.basis:
        assert centroid_residual(A, M) == 0


def test_skew_centroid_of_h3c_contains_multiplication_by_i():
    A = get_example("h3c")
    assert _spans(skew_centroid(A), A.j_marker)


@pytest.mark.parametrize("key", NONABELIAN)
def test_symmetric_centroid_elements_commute(key):
    A = get_example(key)
    S = symmetric_centroid(A)
    for M in S.basis:
        for N in S.basis:
            assert linalg.mat_mul(M, N) == linalg.mat_mul(N, M)


def test_truncation_is_not_an_orthogonal_projection_on_h3():
    A = get_example("h3")
    P = linalg.mat([[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(0)]])
    cert = is_orthogonal_projection(A, P)
    assert cert.idempotent_residual == 0
    assert cert.symmetry_residual == 0
    assert cert.bracket_residual != 0  # kills [X1,X2] = X3
    assert not cert.passed


def test_block_projection_splits_h3h3():
    A = get_example("h3h3")
    P = linalg.mat([[F(1) if i == j and i in (0, 2, 4) else F(0) for j in range(6)]
                    for i in range(6)])
    cert = is_orthogonal_projection(A, P)
    assert cert.passed and cert.residuals() == {"idempotent": 0, "bracket": 0, "symmetry": 0}


@pytest.mark.parametrize("key,k,dims", [
    ("h3", 1, [3]),
    ("h3c", 1, [6]),
    ("ex48", 1, [6]),
    ("h3h3", 2, [3, 3]),
    ("h3h3-paper-metric", 1, [6]),
    ("sl2c-real", 1, [6]),
])
def test_decompose_bundled(key, k, dims):
    dec = decompose(get_example(key))
    assert dec.backend == "exact"
    assert dec.k == k
    assert [f.carrier.dim for f in dec.factors] == dims


def test_decompose_h3h3_carriers_are_the_summands():
    dec = decompose(get_example("h3h3"))
    def e(i):
        return linalg.basis_vec(6, i)

    # canonical order sorts the X2,Y2,Z2 summand first
    assert dec.factors[0].carrier.basis == (e(1), e(3), e(5))
    assert dec.factors[1].carrier.basis == (e(0), e(2), e(4))


def test_decompose_two_copies_of_h3c():
    A = direct_sum(get_example("h3c"), get_example("h3c"))
    dec = decompose(A)
    assert dec.k == 2
    assert [f.carrier.dim for f in dec.factors] == [6, 6]


def test_decompose_seed_independent():
    A = get_example("h3h3")
    base = decompose(A, seed=0)
    for seed in range(1, 10):
        dec = decompose(A, seed=seed)
        assert dec.carriers() == base.carriers()
        assert [f.projection for f in dec.factors] == [f.projection for f in base.factors]


def test_decompose_refuses_abelian():
    with pytest.raises(AbelianFactorPresent):
        decompose(get_example("abelian2n"))
    with pytest.raises(AbelianFactorPresent):
        decompose(direct_sum(get_example("h3"), get_example("abelian2n")))


@pytest.mark.parametrize("key", NONABELIAN)
def test_decompose_certificates_and_completeness(key):
    A = get_example(key)
    dec = decompose(A)
    n = A.dim
    total = linalg.zeros(n, n)
    for f in dec.factors:
        assert f.certificate["projection"] == {"idempotent": 0, "bracket": 0, "symmetry": 0}
        assert f.certificate["symmetric_centroid_dim"] == 1
        total = linalg.mat_add(total, f.projection)
    assert total == linalg.identity(n)


@pytest.mark.parametrize("key", NONABELIAN)
def test_factor_induced_equals_restriction(key):
    A = get_example(key)
    for f in decompose(A).factors:
        B = restrict(A, f.carrier)
        assert B.algebra.structure == f.induced.algebra.structure
        assert B.gram == f.induced.gram


def test_carriers_pairwise_orthogonal():
    A = get_example("h3h3")
    dec = decompose(A)
    G = A.gram
    for u in dec.factors[0].carrier.basis:
        for v in dec.factors[1].carrier.basis:
            assert linalg.bilinear(G, u, v) == 0


def test_is_irreducible():
    assert not is_irreducible(get_example("h3h3"))
    assert is_irreducible(get_example("h3h3-paper-metric"))
    assert is_irreducible(get_example("h3c"))
    with pytest.raises(AbelianFactorPresent):
        is_irreducible(get_example("abelian2n"))


def test_random_metric_keeps_decomposition_verified():
    A = get_example("h3h3")
    for seed in range(3):
        B = A.with_metric(random_gram(6, seed))
        dec = decompose(B)
        assert dec.k in (1, 2)
        total = linalg.zeros(6, 6)
        for f in dec.factors:
            total = linalg.mat_add(total, f.projection)
        assert total == linalg.identity(6)


def test_decompose_numeric_backend():
    A = to_numeric(get_example("h3h3"))
    dec = decompose(A)
    assert dec.backend == "numeric"
    assert dec.k == 2
    assert all(isinstance(x, float) for f in dec.factors for v in f.carrier.basis for x in v)


def test_rational_roots():
    # x^2 - 3x + 2
    assert sorted(_rational_roots([F(2), F(-3), F(1)])) == [F(1), F(2)]


def test_rational_roots_rejects_irrational():
    from metriclie.centroid import _NeedNumeric

    with pytest.raises(_NeedNumeric):
        _rational_roots([F(-2), F(0), F(1)])  # x^2 - 2


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _sympy_rational_roots(coeffs):
    """The oracle: sorted roots if every irreducible factor over Q is linear,
    else None.  It factors with Poly.factor_list: sympy.roots can raise
    ValueError inside factorint on large coefficients."""
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], x, domain="QQ")
    _, factors = poly.factor_list()
    if any(f.degree() != 1 for f, _ in factors):
        return None
    roots = [-f.nth(0) / f.nth(1) for f, _ in factors]
    return sorted(F(int(r.p), int(r.q)) for r in roots)


def _roots_or_none(coeffs):
    from metriclie.centroid import _NeedNumeric

    try:
        return _rational_roots(coeffs)
    except _NeedNumeric:
        return None


BIG = 2**80


def _ratio(pair):
    return F(*pair)


@st.composite
def root_polynomials(draw):
    """(coefficients, roots): a scaled product of distinct (q·x − p), times an
    irreducible quadratic when roots is None.  Degree 1 to 6."""
    size = draw(st.sampled_from([9, 10**6, BIG]))
    quadratic = draw(st.booleans())
    nroots = draw(st.integers(0 if quadratic else 1, 4 if quadratic else 6))
    if draw(st.booleans()):  # a cluster closer together than float resolution
        base = F(draw(st.integers(-size, size)), draw(st.integers(1, size)))
        pairs = [(base + F(k, 10**25)).as_integer_ratio() for k in range(nroots)]
    else:
        pairs = draw(st.lists(st.tuples(st.integers(-size, size), st.integers(1, size)),
                              min_size=nroots, max_size=nroots, unique_by=_ratio))
    poly = [1]
    for p, q in pairs:
        poly = _poly_mul(poly, [-p, q])
    if quadratic:
        a = draw(st.integers(1, size))
        b, c = draw(st.integers(-size, size)), draw(st.integers(-size, size))
        disc = b * b - 4 * a * c
        assume(disc < 0 or math.isqrt(disc) ** 2 != disc)
        poly = _poly_mul(poly, [c, b, a])
    scale = F(draw(st.integers(1, size)) * draw(st.sampled_from([1, -1])), draw(st.integers(1, size)))
    roots = None if quadratic else sorted(F(p, q) for p, q in pairs)
    return [scale * c for c in poly], roots


@settings(max_examples=150, deadline=None)
@given(root_polynomials())
@example(([F(1161849105), F(BIG), F(1161849105)], None))  # sympy.roots raises ValueError on it
def test_rational_roots_match_sympy(case):
    coeffs, roots = case
    got = _roots_or_none(coeffs)
    assert got == roots  # never refuses an all-rational polynomial
    assert got == _sympy_rational_roots(coeffs)


@pytest.mark.parametrize("roots", [
    [F(10**20), F(10**20 + 1)],
    [F(1), F(1) + F(1, 2**60), F(1) - F(1, 2**60)],
    [F(10**20, 3), F(10**20 + 1, 3), F(-BIG + 1, BIG)],
])
def test_rational_roots_closer_than_float_resolution(roots):
    poly = [1]
    for r in roots:
        poly = _poly_mul(poly, [-r.numerator, r.denominator])
    assert _rational_roots([F(c) for c in poly]) == sorted(roots)


def test_rational_roots_refuses_a_repeated_root():
    with pytest.raises(ValueError):
        _rational_roots([F(1), F(-2), F(1)])  # (x - 1)^2


def test_numeric_eigenvalue_clustering():
    M = [[1.0, 0.0, 0.0], [0.0, 1.0 + 1e-12, 0.0], [0.0, 0.0, 2.0]]
    vals = _numeric_eigenvalues(M, 1e-9)
    assert len(vals) == 2
    assert abs(vals[0] - 1.0) < 1e-9 and abs(vals[1] - 2.0) < 1e-9


def test_every_bundled_example_validates(bundled):
    from metriclie.core import check_jacobi

    assert sorted(bundled) == sorted(example_keys())
    for A in bundled.values():
        assert check_jacobi(A).passed
        A.metric.validate(A.tol)


def test_centroid_submodule_is_the_module():
    import metriclie.centroid as m

    assert inspect.ismodule(m)
    assert callable(m.centroid)


RESIDUAL_ALGEBRAS = {key: get_example(key) for key in example_keys()}
RESIDUAL_ALGEBRAS["h3c+h3c"] = direct_sum(get_example("h3c"), get_example("h3c"))


def _bracket_residual(A, M):
    """max over i, j of |M[X_i,X_j] - [MX_i,X_j]|, entrywise, from core.bracket."""
    n = A.dim
    e = [linalg.basis_vec(n, i, A.tol) for i in range(n)]
    worst = 0
    for i in range(n):
        for j in range(n):
            lhs = linalg.mat_vec(M, bracket(A, e[i], e[j]))
            rhs = bracket(A, linalg.mat_vec(M, e[i]), e[j])
            worst = max([worst] + [abs(x - y) for x, y in zip(lhs, rhs)])
    return worst


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(RESIDUAL_ALGEBRAS)), st.data())
def test_centroid_residual_value(key, data):
    A = RESIDUAL_ALGEBRAS[key]
    n = A.dim
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    M = tuple(tuple(data.draw(st.lists(small, min_size=n, max_size=n))) for _ in range(n))
    assert centroid_residual(A, M) == _bracket_residual(A, M)
    B = to_numeric(A)
    Mf = linalg.to_float_mat(M)
    got, want = centroid_residual(B, Mf), _bracket_residual(B, Mf)
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("key", sorted(RESIDUAL_ALGEBRAS))
@pytest.mark.parametrize("numeric", [False, True], ids=["exact", "float"])
def test_bracket_basis_matches_bracket(key, numeric):
    A = RESIDUAL_ALGEBRAS[key]
    if numeric:
        A = to_numeric(A)
    n = A.dim
    e = [linalg.basis_vec(n, i, A.tol) for i in range(n)]
    for i in range(n):
        for j in range(n):
            assert A.algebra.bracket_basis(i, j) == bracket(A, e[i], e[j])


def test_numeric_eigenvalues_reject_complex_eigenvalues():
    # a rotation has eigenvalues +-i; its real parts alone would read [0.0]
    with pytest.raises(InternalAssertionFailure):
        _numeric_eigenvalues([[0.0, -1.0], [1.0, 0.0]], 1e-9)


FACTOR_COUNT_ALGEBRAS = {key: get_example(key) for key in NONABELIAN}
FACTOR_COUNT_ALGEBRAS["h3c+h3c"] = direct_sum(get_example("h3c"), get_example("h3c"))
FACTOR_COUNT_ALGEBRAS["h3^3"] = direct_sum(direct_sum(get_example("h3"), get_example("h3")),
                                           get_example("h3"))


@pytest.mark.parametrize("metric_seed", [None, 1, 2], ids=["standard", "random1", "random2"])
@pytest.mark.parametrize("key", sorted(FACTOR_COUNT_ALGEBRAS))
def test_factor_count_is_symmetric_centroid_dim(key, metric_seed):
    """The symmetric centroid is spanned by the factor projections, so its
    dimension is the number of irreducible factors."""
    A = FACTOR_COUNT_ALGEBRAS[key]
    if metric_seed is not None:
        A = A.with_metric(random_gram(A.dim, metric_seed))
    assert decompose(A).k == symmetric_centroid(A).dim


@pytest.mark.parametrize("key", sorted(FACTOR_COUNT_ALGEBRAS))
def test_metric_parts_match_the_full_defining_equations(key):
    """The symmetric and skew centroids, solved as small systems on the
    centroid basis, equal the reduced-echelon solution of the full n²-unknown
    equations, built from core.bracket and the Gram and solved with sympy."""
    A = FACTOR_COUNT_ALGEBRAS[key]
    base = centroid(A).basis
    assert [linalg.vectorize(B) for B in base] == centroid_space(A)
    for metric_seed in (None, 1, 2):
        B = A if metric_seed is None else A.with_metric(random_gram(A.dim, metric_seed))
        assert centroid(B).basis == base
        Bn = to_numeric(B)
        for part, sign in ((symmetric_centroid, 1), (skew_centroid, -1)):
            expected = centroid_space(B, sign)
            assert [linalg.vectorize(M) for M in part(B).basis] == expected
            got = [linalg.vectorize(M) for M in part(Bn).basis]
            assert len(got) == len(expected)
            for g, x in zip(got, expected):
                assert max(abs(a - float(b)) for a, b in zip(g, x)) <= Bn.tol


def _metric_part_by_entries(A, sign):
    """Reference for centroid._metric_part: the same equations on the centroid
    coordinates, but every solution is expanded to its n² matrix entries and
    the canonical basis is reduced there."""
    n, G, tol = A.dim, A.gram, A.tol
    basis = centroid(A).basis
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
    flat = [linalg.vectorize(B) for B in basis]
    eqs = [eq for eq in eqs if eq]
    # exact: the dense Fraction reference, not the sparse integer engine under test
    kernel = linalg.nullspace_sparse(eqs, len(basis), tol) if tol else ref.exact_nullspace_sparse(eqs, len(basis))
    vectors = [tuple(sum(x * v[i] for x, v in zip(xs, flat)) for i in range(n * n)) for xs in kernel]
    rows = linalg.canonical_rows(vectors, n * n, tol)
    return tuple(linalg.unvectorize(r, n) for r in rows)


def _triangular(n):
    return linalg.mat([[F(int(i <= j) * (1 + (i * j) % 3)) for j in range(n)] for i in range(n)])


def _dense_basis(key):
    """A bundled example in the basis of the columns of a triangular matrix:
    there the solutions of the small systems are not already echelon."""
    A = get_example(key)
    return _in_basis(A, _triangular(A.dim))


CANONICAL_ALGEBRAS = dict(FACTOR_COUNT_ALGEBRAS,
                          **{key + "'": _dense_basis(key) for key in ("h3c", "ex48", "h3h3")})


@pytest.mark.parametrize("metric_seed", [None, 1, 2], ids=["standard", "random1", "random2"])
@pytest.mark.parametrize("key", sorted(CANONICAL_ALGEBRAS))
def test_metric_parts_canonicalised_in_centroid_coordinates(key, metric_seed):
    """rref(X·B) = rref(X)·B for the echelon centroid basis B: reducing the
    solutions in the d centroid coordinates gives the basis that reducing
    their n² entries gives, exactly, and within tol on the float backend."""
    A = CANONICAL_ALGEBRAS[key]
    if metric_seed is not None:
        A = A.with_metric(random_gram(A.dim, metric_seed))
    An = to_numeric(A)
    for part, sign in ((symmetric_centroid, 1), (skew_centroid, -1)):
        assert part(A).basis == _metric_part_by_entries(A, sign)
        got, expected = part(An).basis, _metric_part_by_entries(An, sign)
        assert len(got) == len(expected)
        for M, N in zip(got, expected):
            assert ref.mat_max_diff(M, N) <= An.tol


def test_commutant_is_solved_once_per_lie_algebra(monkeypatch):
    A = get_example("h3c")
    n = A.dim
    cols = []
    solve = linalg._int_nullspace  # the exact kernel of the centroid solves

    def counting(equations, ncols):
        cols.append(ncols)
        return solve(equations, ncols)

    monkeypatch.setattr(linalg, "_int_nullspace", counting)
    for metric in (A.metric, random_gram(n, 1), random_gram(n, 2)):
        B = A.with_metric(metric)
        symmetric_centroid(B)
        skew_centroid(B)
    assert cols.count(n * n) == 1


@pytest.mark.parametrize("numeric", [False, True], ids=["exact", "float"])
def test_irreducible_factor_shares_the_ambient_centroid(monkeypatch, numeric):
    """For k = 1 the carrier is the standard basis, so the induced algebra
    takes over the ambient centroid: decomposing and enumerating solve the
    n²-unknown commutant once.  An exact decomposition never forms the
    Fraction view of the centroid basis."""
    h3c = get_example("h3c")
    A = direct_sum(h3c, h3c).with_metric(random_gram(12, 1))
    if numeric:
        A = to_numeric(A)
    n = A.dim
    cols = []
    name = "_canonical_nullspace" if numeric else "_int_nullspace"
    solve = getattr(linalg, name)

    def counting(equations, ncols, *tol):
        cols.append(ncols)
        return solve(equations, ncols, *tol)

    monkeypatch.setattr(linalg, name, counting)
    dec = decompose(A)
    assert dec.k == 1
    induced = dec.factors[0].induced.algebra
    if numeric:
        assert induced._centroid_basis is A.algebra._centroid_basis
    else:
        assert "_centroid_basis" not in A.algebra.__dict__
    assert induced._int_centroid_entries is A.algebra._int_centroid_entries
    assert induced.structure == A.algebra.structure
    enumerate_complex_structures(A)
    assert cols.count(n * n) == 1


def _lab_sum(keys, l, seed):
    """The direct sum of the bundled blocks with a lab metric of l factors."""
    blocks = tuple(get_example(key) for key in keys)
    A = blocks[0]
    for b in blocks[1:]:
        A = direct_sum(A, b)
    return A.with_metric(make_metric_with_factor_count(BlockSpec(blocks, seed), l))


def _hermitian_block(seed):
    """h3c ⊕ h3c with a J-hermitian random Gram on each summand: k = 2."""
    h3c = get_example("h3c")
    a, b = (h3c.with_metric(Metric(_hermitize(random_gram(6, seed + i).gram, h3c.j_marker))) for i in (0, 1))
    return direct_sum(a, b)


COMPRESSION_CASES = {
    **{key: (lambda key=key: get_example(key)) for key in NONABELIAN},
    **{f"h3^3-l{l}-seed{seed}": (lambda l=l, seed=seed: _lab_sum(["h3"] * 3, l, seed))
       for l in (2, 3) for seed in range(4)},
    **{f"h3+h3c+h3-l{l}": (lambda l=l: _lab_sum(["h3", "h3c", "h3"], l, 0)) for l in (2, 3)},
    "h3c+h3c-random": lambda: direct_sum(get_example("h3c"), get_example("h3c")).with_metric(random_gram(12, 1)),
    "h3c+h3c-hermitian-block": lambda: _hermitian_block(3),
    # carriers that are not coordinate subspaces, so R is not Cᵀ
    "h3h3'": lambda: _dense_basis("h3h3"),
    "h3c+h3c-hermitian-block'": lambda: _in_basis(_hermitian_block(3), _triangular(12)),
}


@pytest.mark.parametrize("case", sorted(COMPRESSION_CASES))
def test_factor_centroid_is_the_compressed_ambient_centroid(case):
    """Each exact factor's integer centroid entries, compressed from the
    ambient ones as R·B·C, are those of its own commutant solve."""
    dec = decompose(COMPRESSION_CASES[case]())
    assert dec.backend == "exact"
    for f in dec.factors:
        fresh = LieAlgebra(f.induced.dim, f.induced.algebra.structure)
        assert repr(f.induced.algebra.__dict__["_int_centroid_entries"]) == repr(fresh._int_centroid_entries)


@pytest.mark.parametrize("key", ["h3h3", "h3h3-lab"])
def test_exact_decompose_solves_one_commutant(monkeypatch, key):
    """A k-factor exact decomposition solves the n²-unknown commutant once
    and no factor's s²-unknown one.  On h3 ⊕ h3 no other system has n² or
    s² unknowns: the centre has n = 6, the centroid 10 and a factor's 3."""
    A = get_example("h3h3") if key == "h3h3" else _lab_sum(["h3", "h3"], 2, 0)
    cols = []
    solve = linalg._int_nullspace

    def counting(equations, ncols):
        cols.append(ncols)
        return solve(equations, ncols)

    monkeypatch.setattr(linalg, "_int_nullspace", counting)
    dec = decompose(A)
    assert dec.k >= 2
    assert cols.count(A.dim ** 2) == 1
    assert not {f.carrier.dim ** 2 for f in dec.factors} & set(cols)


@pytest.mark.parametrize("numeric", [False, True], ids=["exact", "float"])
def test_irreducible_algebra_solves_its_symmetric_centroid_once(monkeypatch, numeric):
    """For k = 1 the one factor is the algebra itself (C = I, Cᵀ·G·C = G):
    its symmetric centroid is the one just solved, and is not solved again."""
    from metriclie import centroid as centroid_module

    A = direct_sum(get_example("h3c"), get_example("h3c")).with_metric(random_gram(12, 1))
    if numeric:
        A = to_numeric(A)
    signs = []
    metric_part = centroid_module._metric_part
    monkeypatch.setattr(centroid_module, "_metric_part", lambda B, sign: signs.append(sign) or metric_part(B, sign))
    dec = decompose(A)
    assert dec.k == 1 and dec.factors[0].certificate["symmetric_centroid_dim"] == 1
    assert signs == [1]


def _entries_typed(matrices):
    return [[(type(x), x) for row in M for x in row] for M in matrices]


@st.composite
def metric_part_input(draw):
    """An algebra with its brackets scaled by a Fraction (up to 70-bit
    numerator and denominator), bundled, a sum, or in a dense basis, and a
    standard, random or J-hermitian Gram matrix."""
    key = draw(st.sampled_from(sorted(CANONICAL_ALGEBRAS)))
    A = CANONICAL_ALGEBRAS[key]
    bits = draw(st.sampled_from([3, 70]))
    s = F(draw(st.integers(1, 2 ** bits)), draw(st.integers(1, 2 ** bits))) * draw(st.sampled_from([1, -1]))
    G = A.gram
    kind = draw(st.sampled_from(["standard", "random", "hermitian"]))
    if kind != "standard":
        G = random_gram(A.dim, draw(st.integers(0, 10 ** 6))).gram
    if kind == "hermitian" and A.j_marker is not None:
        J = A.j_marker
        G = linalg.mat_scale(F(1, 2), linalg.mat_add(G, linalg.mat_mul(linalg.transpose(J),
                                                                       linalg.mat_mul(G, J))))
    brackets = {(i, j): [(k, c * s) for k, c in terms] for (i, j), terms in A.algebra.structure}
    return A, make_algebra(A.dim, brackets, G, A.name, check=False)


@settings(max_examples=40, deadline=None)
@given(metric_part_input())
def test_metric_parts_equal_the_fraction_reference(inputs):
    """The integer metric-part solve gives the bases of the Fraction code it
    replaced, with Fraction entries, and the float path is unchanged bit for
    bit.  The centroid of the scaled bracket is the centroid of the bracket."""
    base, A = inputs
    assert _entries_typed(centroid(A).basis) == _entries_typed(centroid(base).basis)
    assert all(type(x) is F for B in centroid(A).basis for row in B for x in row)
    An = to_numeric(A)
    for part, sign in ((symmetric_centroid, 1), (skew_centroid, -1)):
        assert _entries_typed(part(A).basis) == _entries_typed(ref.metric_part(A, sign))
        assert repr(part(An).basis) == repr(ref.metric_part(An, sign))


FLOAT_LIFT_ALGEBRAS = {key: get_example(key) for key in NONABELIAN}
FLOAT_LIFT_ALGEBRAS["h3c+h3c-random"] = direct_sum(get_example("h3c"), get_example("h3c")).with_metric(
    random_gram(12, 5))
FLOAT_LIFT_ALGEBRAS["h3c+h3c'-random"] = _in_basis(  # a dense basis: an entry sums up to 30 basis elements
    FLOAT_LIFT_ALGEBRAS["h3c+h3c-random"], _triangular(12))


@pytest.mark.parametrize("key", sorted(FLOAT_LIFT_ALGEBRAS))
def test_float_metric_parts_equal_the_dense_lift(key):
    """On the float backend Σ x_k·B_k is summed over the cached nonzero
    entries of the centroid basis.  It equals the dense product of the
    canonical coordinates with the n²-vectors of the basis, in the
    reference's own sums, bit for bit: every entry a float of the same hex."""
    A = to_numeric(FLOAT_LIFT_ALGEBRAS[key])
    for part, sign in ((symmetric_centroid, 1), (skew_centroid, -1)):
        got, want = part(A).basis, ref.metric_part(A, sign)
        assert [[(type(x), x.hex()) for row in M for x in row] for M in got] == \
            [[(type(x), x.hex()) for row in M for x in row] for M in want]
    entries = [[(t, u, b) for t, row in enumerate(B) for u, b in enumerate(row) if b]
               for B in A.algebra._centroid_basis]
    assert A.algebra.__dict__["_float_centroid_entries"] == tuple(map(tuple, entries))


def test_a_float_projection_on_an_exact_algebra_is_checked_on_its_float_copy():
    """A float P on an exact algebra is judged on to_numeric(A), at its tol,
    as a float J is: the matrix of 1/5's on abelian R⁵ is an orthogonal
    projection up to rounding.  An exact P stays exact."""
    A = make_algebra(5, {})
    P = ((0.2,) * 5,) * 5
    cert = is_orthogonal_projection(A, P)
    assert cert.passed and 0 < cert.idempotent_residual <= to_numeric(A).tol
    assert cert == is_orthogonal_projection(to_numeric(A), P)
    cert = is_orthogonal_projection(A, ((F(1, 5),) * 5,) * 5)
    assert cert.passed and cert.residuals() == {"idempotent": 0, "bracket": 0, "symmetry": 0}


SPLIT_CASES = dict(FACTOR_COUNT_ALGEBRAS)
SPLIT_CASES["h3c^3"] = direct_sum(FACTOR_COUNT_ALGEBRAS["h3c+h3c"], get_example("h3c"))


@pytest.mark.parametrize("numeric", [False, True], ids=["exact", "float"])
@pytest.mark.parametrize("key", ["h3h3", "h3^3", "h3c+h3c", "h3c^3"])
def test_generic_element_and_its_split_equal_the_fraction_reference(key, numeric, monkeypatch):
    """The projections lifted from the k coordinates of S equal the
    reference's n×n Lagrange products of the same draw, Σ c_k·S_k in
    Fractions: exact ones in values and types, float ones within tol.  On
    both backends the draw, the eigenvalues (the minimal polynomial, or the
    float eigenvalues) and the split see only k×k matrices, and the float
    backend computes no minimal polynomial."""
    import random

    from metriclie import centroid as centroid_module
    from metriclie.centroid import _factor_projections

    A = SPLIT_CASES[key]
    S = symmetric_centroid(A)
    assert S.dim >= 2
    a = ref.generic_element(S, random.Random(7))
    mp = linalg.minimal_polynomial(a)
    assert len(mp) - 1 == S.dim  # the first draw separates, so one draw suffices below
    want = ref.eigenprojections(a, _rational_roots(mp))
    sizes = []
    for mod, name in ((centroid_module, "_random_generic_element"), (linalg, "minimal_polynomial"),
                      (centroid_module, "_numeric_eigenvalues"), (centroid_module, "_eigenprojections")):
        def record(M, *args, fn=getattr(mod, name), name=name):
            out = fn(M, *args)
            sizes.append((name, len(out) if name == "_random_generic_element" else len(M)))
            return out
        monkeypatch.setattr(mod, name, record)
    B = to_numeric(A) if numeric else A
    got = _factor_projections(B, 7, 1)
    eigen = "_numeric_eigenvalues" if numeric else "minimal_polynomial"
    assert sizes == [("_random_generic_element", S.dim), (eigen, S.dim), ("_eigenprojections", S.dim)]
    if not numeric:
        assert repr(got) == repr(want)
        return
    for P, Q in zip(got, want, strict=True):
        assert all(type(x) is float for row in P for x in row)
        assert linalg.max_abs(linalg.mat_sub(P, Q)) <= B.tol


FLOAT_SPLIT_CASES = dict(SPLIT_CASES)
FLOAT_SPLIT_CASES["h3h3'"] = _in_basis(get_example("h3h3"), _triangular(6))


@pytest.mark.parametrize("metric_seed", [None, 1, 2], ids=["standard", "random1", "random2"])
@pytest.mark.parametrize("key", sorted(FLOAT_SPLIT_CASES))
def test_float_decompose_agrees_with_the_exact_one(key, metric_seed):
    """decompose(to_numeric(A)) finds the k of the exact decompose(A), and
    each float factor projection lies within tol of its exact counterpart,
    in the same (dim, carrier basis) order."""
    A = FLOAT_SPLIT_CASES[key]
    if metric_seed is not None:
        A = A.with_metric(random_gram(A.dim, metric_seed))
    exact, num = decompose(A), decompose(to_numeric(A))
    assert (exact.backend, num.backend) == ("exact", "numeric")
    assert num.k == exact.k
    for f, e in zip(num.factors, exact.factors):
        assert f.carrier.dim == e.carrier.dim
        assert linalg.max_abs(linalg.mat_sub(f.projection, e.projection)) <= num.algebra.tol


def test_a_float_carrier_that_restrict_refuses_is_an_internal_failure():
    """The carrier of a certified centroid idempotent is an ideal, so when
    restrict refuses it the fault is the library's: on h3c ⊕ h3c in a dense
    rational basis the float split certifies a projection within the
    absolute tol whose image, ranked at that tol, is not closed under the
    bracket (ROADMAP item 5).  decompose names the factor and raises
    InternalAssertionFailure (exit 4), not NotASubalgebra (exit 1)."""
    from test_core import _dense_rational

    h3c = get_example("h3c")
    A = to_numeric(_in_basis(direct_sum(h3c, h3c), _dense_rational(12, 2)))
    with pytest.raises(InternalAssertionFailure, match=r"carrier of factor 1 \(dim 6\) is not a subalgebra") as exc:
        decompose(A)
    assert isinstance(exc.value.__cause__, NotASubalgebra)


@pytest.mark.parametrize("summand, copies", [("h3", 8), ("r2", 15)])
def test_many_factor_sums_decompose_at_every_seed(summand, copies):
    """With coefficients drawn from [−k², k²], h3⁸ (k = 8) and r2^15
    (r2: [X1, X2] = X2; k = 15) split at seeds 0–4; from [−7, 7] a draw of
    15 coefficients must repeat one, and 8 repeat one with probability 0.92.
    The projections are the same bytes at every seed."""
    B = get_example("h3") if summand == "h3" else make_algebra(2, {(0, 1): [(1, 1)]}, name="r2")
    A = B
    for _ in range(copies - 1):
        A = direct_sum(A, B)
    decs = [decompose(A, seed=seed) for seed in range(5)]
    assert [dec.k for dec in decs] == [copies] * 5
    got = [repr([f.projection for f in dec.factors]) for dec in decs]
    assert got == [got[0]] * 5


@pytest.mark.parametrize("numeric", [False, True], ids=["exact", "float"])
@pytest.mark.parametrize("key", sorted(FACTOR_COUNT_ALGEBRAS))
def test_projection_is_carrier_times_its_pivot_rows(key, numeric):
    """P = C·R, where C holds the echelon carrier basis as columns and R is
    the rows of P at the pivot columns; complex_structures relies on it."""
    A = FACTOR_COUNT_ALGEBRAS[key]
    if numeric:
        A = to_numeric(A)
    for f in decompose(A).factors:
        pivots = [next(c for c, x in enumerate(b) if x == 1) for b in f.carrier.basis]
        for i, b in enumerate(f.carrier.basis):
            assert all(linalg.is_zero(x, A.tol) for x in b[:pivots[i]])
            assert [b[p] for p in pivots] == [int(i == j) for j in range(len(pivots))]
        R = tuple(f.projection[p] for p in pivots)
        CR = linalg.mat_mul(f.carrier.matrix_columns(), R)
        assert ref.mat_max_diff(CR, f.projection) <= A.tol


def test_pivot_rows_read_a_float_pivot_that_drifted_from_one():
    """A carrier row's pivot is its first nonzero entry, so a float pivot of
    1 + 1e-12 still picks its row of P."""
    from metriclie.centroid import _pivot_rows

    carrier = Subspace(3, ((1 + 1e-12, 0.0, 0.5), (0.0, 0.0, 1.0)), 1e-9)
    P = ((1.0, 2.0, 3.0), (4.0, 5.0, 6.0), (7.0, 8.0, 9.0))
    assert _pivot_rows(P, carrier) == (P[0], P[2])


def _h3_over_sqrt2():
    """h3 over Q(sqrt 2) as a 6-dim rational algebra, basis X1, r X1, X2, r X2,
    X3, r X3 with r = sqrt 2, and the trace form of Q(sqrt 2) as its Gram.
    Multiplication by r lies in its symmetric centroid and has eigenvalues
    +-sqrt 2, so no exact split exists."""
    brackets = {
        (0, 2): [(4, F(1))],  # [X1, X2] = X3
        (0, 3): [(5, F(1))],  # [X1, r X2] = r X3
        (1, 2): [(5, F(1))],  # [r X1, X2] = r X3
        (1, 3): [(4, F(2))],  # [r X1, r X2] = 2 X3
    }
    gram = [[F(0)] * 6 for _ in range(6)]
    for i in range(6):
        gram[i][i] = F(2) if i % 2 == 0 else F(4)
    return make_algebra(6, brackets, gram, "h3(Q(sqrt2))")


def test_decompose_falls_back_to_numeric_on_irrational_eigenvalues():
    A = _h3_over_sqrt2()
    assert A.backend == "exact"
    base = decompose(A, seed=0)
    tol = base.algebra.tol
    assert base.backend == "numeric" and tol > 0
    assert base.k == 2
    assert [f.carrier.dim for f in base.factors] == [3, 3]
    for f in base.factors:
        assert all(r <= tol for r in f.certificate["projection"].values())
        assert f.certificate["symmetric_centroid_dim"] == 1
    assert enumerate_complex_structures(A) == []
    for seed in range(1, 5):
        dec = decompose(A, seed=seed)
        assert dec.backend == "numeric" and dec.k == 2
        for f, g in zip(dec.factors, base.factors):
            # float carriers differ in low bits across seeds
            assert ref.mat_max_diff(f.carrier.basis, g.carrier.basis) <= tol


def _scaled(A, s):
    brackets = {(i, j): [(k, c * s) for k, c in terms] for (i, j), terms in A.algebra.structure}
    gram = linalg.mat_scale(s, A.gram)
    return make_algebra(A.dim, brackets, gram, A.name)


@pytest.mark.parametrize("scale", [
    F(10**10),
    pytest.param(F(1, 10**10), marks=pytest.mark.xfail(
        strict=True, raises=AbelianFactorPresent,
        reason="ROADMAP item 5: absolute float tolerances refuse h3c scaled by 1e-10")),
])
def test_numeric_decompose_of_scaled_h3c(scale):
    """Scaling brackets and Gram changes neither the factors nor the J set."""
    A = to_numeric(_scaled(get_example("h3c"), scale))
    dec = decompose(A)
    assert dec.k == 1
    assert dec.factors[0].projection == linalg.identity(6, A.tol)
    assert len(enumerate_complex_structures(A)) == 2
