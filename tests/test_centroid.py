import inspect
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
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
    split_by_projection,
    symmetric_centroid,
)
from metriclie.complexstruct import enumerate_complex_structures
from metriclie.core import (
    bracket,
    direct_sum,
    has_abelian_factor,
    make_algebra,
    restrict,
    to_numeric,
)
from metriclie.errors import AbelianFactorPresent, InternalAssertionFailure, NotAProjection
from metriclie.examples import example_keys, get_example
from metriclie.lab import random_gram

from bruteforce import centroid_space

NONABELIAN = ["h3", "h3c", "ex48", "h3h3", "h3h3-paper-metric", "sl2c-real"]


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
    assert C.contains(linalg.identity(A.dim))
    for M in C.basis:
        assert centroid_residual(A, M) == 0


def test_skew_centroid_of_h3c_contains_multiplication_by_i():
    A = get_example("h3c")
    assert skew_centroid(A).contains(A.j_marker)


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
    with pytest.raises(NotAProjection):
        split_by_projection(A, P)


def test_block_projection_splits_h3h3():
    A = get_example("h3h3")
    P = linalg.mat([[F(1) if i == j and i in (0, 2, 4) else F(0) for j in range(6)]
                    for i in range(6)])
    cert = is_orthogonal_projection(A, P)
    assert cert.passed and cert.residuals() == {"idempotent": 0, "bracket": 0, "symmetry": 0}
    f1, f2 = split_by_projection(A, P)
    assert f1.carrier.dim == 3 and f2.carrier.dim == 3
    assert f1.induced.algebra.bracket_basis(0, 1) == (F(0), F(0), F(1))


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


def test_commutant_is_solved_once_per_lie_algebra(monkeypatch):
    A = get_example("h3c")
    n = A.dim
    cols = []
    solve = linalg.nullspace_sparse

    def counting(equations, ncols, tol=0.0):
        cols.append(ncols)
        return solve(equations, ncols, tol)

    monkeypatch.setattr(linalg, "nullspace_sparse", counting)
    for metric in (A.metric, random_gram(n, 1), random_gram(n, 2)):
        B = A.with_metric(metric)
        symmetric_centroid(B)
        skew_centroid(B)
    assert cols.count(n * n) == 1


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
        assert linalg.mat_max_diff(CR, f.projection) <= A.tol


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
            assert linalg.mat_max_diff(f.carrier.basis, g.carrier.basis) <= tol


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
