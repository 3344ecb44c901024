import math
from fractions import Fraction as F

import pytest

from metriclie import linalg
from metriclie.centroid import decompose
from metriclie.complexstruct import (
    commute_check,
    complexify,
    enumerate_complex_structures,
    eigensplit,
    extend_operator,
    hermitian_form,
    hermitian_form_complexified,
    jlambda,
    verify_complex_structure,
    verify_doubling_isometry,
)
from metriclie.core import (
    Metric,
    MetricLieAlgebra,
    bracket,
    check_jacobi,
    direct_sum,
    make_algebra,
    to_numeric,
)
from metriclie.errors import (
    AbelianFactorPresent,
    InvalidComplexStructure,
    IrrationalNormalizer,
)
from metriclie.examples import ex48_j1, ex48_j2, get_example

from bruteforce import oracle_complex_structures, same_sets
from fraction_reference import basis_vec, mat_max_diff, to_float_mat


def perturbed_h3c():
    """h3c with <E5,E6> = 1/2; admits no orthogonal bi-invariant J."""
    A = get_example("h3c")
    G = [list(r) for r in A.gram]
    G[4][5] = G[5][4] = F(1, 2)
    return A.with_metric(Metric(linalg.mat(G)))


def test_verify_standard_structure_on_h3c():
    A = get_example("h3c")
    cert = verify_complex_structure(A, A.j_marker)
    assert cert.passed
    assert cert.residuals() == {"square": 0, "bracket": 0, "skew": 0}


def test_verify_rejects_wrong_shape():
    from metriclie.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        verify_complex_structure(get_example("h3c"), linalg.identity(3))


def test_ex48_pair_certificates():
    A = get_example("ex48")
    c1 = verify_complex_structure(A, ex48_j1())
    assert c1.passed
    c2 = verify_complex_structure(A, ex48_j2())
    assert c2.square_residual == 0
    assert c2.bracket_residual == 0
    assert c2.skew_residual == 1  # not an isometry of the identity Gram
    assert not c2.passed


def test_ex48_structures_do_not_commute():
    A = get_example("ex48")
    J1, J2 = ex48_j1(), ex48_j2()
    report = commute_check(A, J1, J2)
    assert not report
    assert report.commutator_image_in_center
    e1 = basis_vec(6, 0)
    a = linalg.mat_vec(J1, linalg.mat_vec(J2, e1))
    b = linalg.mat_vec(J2, linalg.mat_vec(J1, e1))
    assert a == tuple(F(x) for x in (-1, 0, 0, 0, -1, 0))  # J1 J2 X1 = -X1 - X5
    assert b == tuple(F(x) for x in (-1, 0, 0, 0, 1, 0))   # J2 J1 X1 = -X1 + X5


def test_hermitian_form_values_on_h3c():
    A = get_example("h3c")
    J = A.j_marker
    e1, e2 = basis_vec(6, 0), basis_vec(6, 1)
    h11 = hermitian_form(A, J, e1, e1)
    assert (h11.re, h11.im) == (F(1, 2), F(0))
    h12 = hermitian_form(A, J, e1, e2)
    assert (h12.re, h12.im) == (F(0), F(-1, 2))


def test_hermitian_form_identities():
    A = get_example("h3c")
    J = A.j_marker
    u = tuple(F(x) for x in (1, 2, 0, -1, 3, 0))
    v = tuple(F(x) for x in (0, 1, 1, 0, -2, 5))
    h = hermitian_form(A, J, u, v)
    assert 2 * h.re == linalg.bilinear(A.gram, u, v)
    # complex linearity: h(Ju, v) = i * h(u, v)
    hj = hermitian_form(A, J, linalg.mat_vec(J, u), v)
    assert (hj.re, hj.im) == (-h.im, h.re)
    # conjugate symmetry
    hvu = hermitian_form(A, J, v, u)
    assert (hvu.re, hvu.im) == (h.re, -h.im)


def test_hermitian_form_rejects_invalid_operator():
    A = get_example("h3c")
    e1 = basis_vec(6, 0)
    with pytest.raises(InvalidComplexStructure):
        hermitian_form(A, linalg.identity(6), e1, e1)


def test_complexify_structure():
    A = get_example("h3")
    AC = complexify(A)
    B = AC.real_form
    assert B.dim == 6
    assert check_jacobi(B).passed
    I6 = linalg.identity(6)
    assert linalg.mat_mul(AC.i_op, AC.i_op) == linalg.mat_scale(-1, I6)
    assert linalg.mat_mul(AC.sigma_op, AC.sigma_op) == I6
    # conjugation is anti-linear: sigma i = -i sigma
    assert linalg.mat_mul(AC.sigma_op, AC.i_op) == linalg.mat_scale(
        -1, linalg.mat_mul(AC.i_op, AC.sigma_op))
    # i_op is bi-invariant for the doubled bracket
    assert verify_complex_structure(B, AC.i_op).passed


def test_complexified_hermitian_form():
    A = get_example("h3")
    AC = complexify(A)
    for i in range(3):
        u = basis_vec(6, i)
        for j in range(3):
            v = basis_vec(6, j)
            h = hermitian_form_complexified(AC, u, v)
            assert (h.re, h.im) == (A.gram[i][j], F(0))
    u = tuple(F(x) for x in (1, 0, 2, 0, 1, 0))
    v = tuple(F(x) for x in (0, 1, 0, 3, 0, -1))
    h = hermitian_form_complexified(AC, u, v)
    hc = hermitian_form_complexified(AC, v, u)
    assert (hc.re, hc.im) == (h.re, -h.im)
    hi = hermitian_form_complexified(AC, linalg.mat_vec(AC.i_op, u), v)
    assert (hi.re, hi.im) == (-h.im, h.re)


def test_extend_operator_commutes_with_i_and_sigma():
    A = get_example("h3c")
    AC = complexify(A)
    f = extend_operator(AC, A.j_marker)
    assert linalg.mat_mul(f, AC.i_op) == linalg.mat_mul(AC.i_op, f)
    assert linalg.mat_mul(f, AC.sigma_op) == linalg.mat_mul(AC.sigma_op, f)


def test_eigensplit_h3c():
    A = get_example("h3c")
    J = A.j_marker
    g1, gm1 = eigensplit(A, J)
    assert g1.dim == 6 and gm1.dim == 6
    AC = complexify(A)
    Jc = extend_operator(AC, J)
    for v in g1.basis:
        # J^C acts as multiplication by i on the +i eigenspace
        assert linalg.mat_vec(Jc, v) == linalg.mat_vec(AC.i_op, v)
        # conjugation swaps the eigenspaces
        assert gm1.contains(linalg.mat_vec(AC.sigma_op, v))
    for u in g1.basis:
        for v in gm1.basis:
            h = hermitian_form_complexified(AC, u, v)
            assert (h.re, h.im) == (0, 0)
            # the two eigenspaces bracket to zero: they are complementary ideals
            assert bracket(AC.real_form, u, v) == (F(0),) * 12
    for u in g1.basis:
        for v in g1.basis:
            assert g1.contains(bracket(AC.real_form, u, v))


def test_doubling_isometry_h3c():
    A = get_example("h3c")
    cert = verify_doubling_isometry(A, A.j_marker)
    assert cert.passed
    assert cert.rank == 12
    assert cert.residuals() == {"bracket": 0, "intertwine": 0, "isometry": 0}


def test_doubling_isometry_ex48():
    cert = verify_doubling_isometry(get_example("ex48"), ex48_j1())
    assert cert.passed


def test_complexification_doubles_factor_count():
    A = get_example("h3c")
    assert decompose(A).k == 1
    assert decompose(complexify(A).real_form).k == 2


@pytest.mark.parametrize("lam", [F(0), F(3, 4), F(-3, 4), F(5, 12)])
def test_jlambda_exact(lam):
    J = jlambda(lam)
    n = 4
    assert linalg.mat_mul(J, J) == linalg.mat_scale(-1, linalg.identity(n))
    assert linalg.mat_add(J, linalg.transpose(J)) == linalg.zeros(n, n)


def test_jlambda_zero_is_the_plain_rotation():
    assert jlambda(F(0)) == linalg.mat(
        [[F(0), F(1), F(0), F(0)],
         [F(-1), F(0), F(0), F(0)],
         [F(0), F(0), F(0), F(1)],
         [F(0), F(0), F(-1), F(0)]])


def test_jlambda_irrational_normalizer():
    with pytest.raises(IrrationalNormalizer):
        jlambda(F(1))
    J = jlambda(1, tol=1e-9)
    sq = linalg.mat_mul(J, J)
    assert mat_max_diff(sq, linalg.mat_scale(-1.0, linalg.identity(4, tol=1e-9))) < 1e-12


@pytest.mark.parametrize("lam", [0, F(3, 4), 0.75], ids=["int", "fraction", "float"])
def test_jlambda_scalars_follow_tol(lam):
    """Fractions at tol 0 and floats at tol > 0, whatever the type of lam."""
    for tol, kind in ((0.0, F), (1e-9, float)):
        if tol or not isinstance(lam, float):
            J = jlambda(lam, tol)
            assert {type(x) for row in J for x in row} == {kind}
            assert J == jlambda(F(lam), tol)


@pytest.mark.parametrize("lam", [0.1, 0.75])
def test_jlambda_refuses_a_float_at_tol_zero(lam):
    """At tol 0 a float λ raises TypeError, as the exact records refuse it,
    rather than have its binary value read exactly: 0.1 would name a λ² + 1
    with 34-digit terms, and 0.75 would pass as 3/4.  At tol > 0 it is taken."""
    with pytest.raises(TypeError):
        jlambda(lam)
    assert {type(x) for row in jlambda(lam, 1e-9) for x in row} == {float}


def test_distinct_jlambda_values_differ():
    assert jlambda(F(0)) != jlambda(F(3, 4))


def test_enumerate_h3c():
    A = get_example("h3c")
    out = enumerate_complex_structures(A)
    assert len(out) == 2
    assert {s.signs for s in out} == {(1,), (-1,)}
    assert {s.J for s in out} == {A.j_marker, linalg.mat_scale(-1, A.j_marker)}
    for s in out:
        assert s.backend == "exact"
        assert s.certificate.passed


def test_enumerate_perturbed_h3c_is_empty():
    assert enumerate_complex_structures(perturbed_h3c()) == []


def test_enumerate_two_copies_of_h3c():
    A = direct_sum(get_example("h3c"), get_example("h3c"))
    out = enumerate_complex_structures(A)
    assert len(out) == 4
    Js = {s.J for s in out}
    assert len(Js) == 4
    for s in out:
        assert linalg.mat_scale(-1, s.J) in Js
        for t in out:
            assert linalg.mat_mul(s.J, t.J) == linalg.mat_mul(t.J, s.J)


@pytest.mark.parametrize("key,count", [
    ("h3", 0), ("h3h3", 0), ("h3h3-paper-metric", 0),
    ("h3c", 2), ("ex48", 2), ("sl2c-real", 2),
])
def test_enumeration_counts(key, count):
    assert len(enumerate_complex_structures(get_example(key))) == count


def test_enumerate_refuses_abelian():
    with pytest.raises(AbelianFactorPresent):
        enumerate_complex_structures(get_example("abelian2n"))


def test_factor_carriers_are_j_invariant():
    A = direct_sum(get_example("h3c"), get_example("h3c"))
    dec = decompose(A)
    for s in enumerate_complex_structures(A):
        for f in dec.factors:
            imgs = [linalg.mat_vec(s.J, v) for v in f.carrier.basis]
            from metriclie.core import Subspace

            assert Subspace.from_vectors(A.dim, imgs) == f.carrier


@pytest.mark.parametrize("key", ["h3", "h3c", "ex48", "h3h3", "h3h3-paper-metric",
                                 "sl2c-real"])
def test_oracle_equivalence_bundled(key):
    A = get_example(key)
    enumerated = [s.J for s in enumerate_complex_structures(A)]
    assert same_sets(enumerated, oracle_complex_structures(A))


def test_oracle_equivalence_perturbed_metric():
    A = perturbed_h3c()
    assert oracle_complex_structures(A) == []
    assert same_sets([], oracle_complex_structures(A))


def test_enumerate_numeric_backend_matches_exact():
    A = get_example("h3c")
    exact = {s.J for s in enumerate_complex_structures(A)}
    numeric = enumerate_complex_structures(to_numeric(A))
    assert len(numeric) == 2
    for s in numeric:
        assert s.backend == "numeric"
        best = min(
            linalg.max_abs(linalg.mat_sub(s.J, to_float_mat(E))) for E in exact
        )
        assert best < 1e-9


def _h3_over_sqrt_minus2():
    """h3 over Q(s), s² = −2, as a 6-dim rational algebra with basis
    X1, s X1, X2, s X2, X3, s X3 and Gram diag(1, 2, 1, 2, 1, 2).
    K = multiplication by s is skew with K² = −2, so J = ±K/√2 is irrational."""
    brackets = {
        (0, 2): [(4, F(1))],   # [X1, X2] = X3
        (0, 3): [(5, F(1))],   # [X1, s X2] = s X3
        (1, 2): [(5, F(1))],   # [s X1, X2] = s X3
        (1, 3): [(4, F(-2))],  # [s X1, s X2] = -2 X3
    }
    gram = [[F(0)] * 6 for _ in range(6)]
    K = [[F(0)] * 6 for _ in range(6)]
    for a in (0, 2, 4):
        gram[a][a], gram[a + 1][a + 1] = F(1), F(2)
        K[a + 1][a], K[a][a + 1] = F(1), F(-2)  # K X = s X, K (s X) = -2 X
    return make_algebra(6, brackets, gram, "h3(Q(sqrt-2))"), linalg.mat(K)


def test_enumerate_falls_back_to_float_j_on_irrational_normalizer():
    A, K = _h3_over_sqrt_minus2()
    dec = decompose(A)
    assert dec.backend == "exact" and dec.k == 1
    structures = enumerate_complex_structures(A)
    assert [s.signs for s in structures] == [(1,), (-1,)]
    assert all(s.backend == "numeric" and s.certificate.passed for s in structures)
    J = linalg.mat_scale(1 / math.sqrt(2), to_float_mat(K))
    expected = [linalg.mat_scale(-1, J), J]  # the first nonzero entry, -2/√2 in K/√2, is made positive
    for s, E in zip(structures, expected):
        assert mat_max_diff(s.J, E) <= 1e-12


def test_a_float_gram_on_an_exact_algebra_is_refused():
    """Exact positive definiteness takes no floats, so a float Gram on an
    exact algebra raises TypeError instead of being solved exactly from the
    floats' binary values: through with_metric, make_algebra, and
    make_irreducible_metric averaging with the float J of an irrational
    normalizer."""
    from metriclie.lab import BlockSpec, make_irreducible_metric

    A, K = _h3_over_sqrt_minus2()
    G = linalg.mat_add(A.gram, linalg.mat_scale(0.1, linalg.identity(6)))
    J = linalg.mat_scale(1 / math.sqrt(2), to_float_mat(K))
    calls = (
        lambda: A.with_metric(Metric(G)),
        lambda: make_algebra(6, {ij: list(terms) for ij, terms in A.algebra.structure}, G),
        lambda: make_irreducible_metric(BlockSpec((A,), 0), hermitian_for=J),
    )
    for call in calls:
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("scale", [1.0, 0.1])
def test_a_float_gram_on_an_exact_algebra_is_refused_by_the_metric_parts(scale):
    """A MetricLieAlgebra built directly does not validate its Gram, but it
    refuses a float one at tol 0 when it is built (TypeError), so the metric
    parts of the centroid never see it and never solve exactly from the
    floats' binary values."""
    h3c = get_example("h3c")
    with pytest.raises(TypeError):
        MetricLieAlgebra(h3c.algebra, Metric(linalg.mat_scale(scale, to_float_mat(h3c.gram))))


def test_float_j_on_an_exact_algebra_is_taken_on_the_float_backend():
    """The float J of an irrational normalizer gives eigensplit, the doubling
    check and commute_check on the exact algebra the same results as on
    to_numeric of it; exact eliminations never see the floats."""
    A, K = _h3_over_sqrt_minus2()
    N = to_numeric(A)
    Js = [s.J for s in enumerate_complex_structures(A)]
    other = tuple(tuple(float(i + 1) if i == j else 0.0 for j in range(6)) for i in range(6))
    for J in Js:
        split = eigensplit(A, J)
        assert split == eigensplit(N, J) and [S.dim for S in split] == [6, 6]
        cert = verify_doubling_isometry(A, J)
        assert cert == verify_doubling_isometry(N, J) and cert.passed
        for J2 in (*Js, other):
            assert commute_check(A, J, J2) == commute_check(N, J, J2)


def test_sl2c_real_structures_are_plus_minus_i():
    A = get_example("sl2c-real")
    out = enumerate_complex_structures(A)
    assert {s.J for s in out} == {A.j_marker, linalg.mat_scale(-1, A.j_marker)}


@pytest.mark.parametrize("with_h3c", [False, True], ids=["h3(Q(sqrt-2))", "h3c+h3(Q(sqrt-2))"])
def test_an_irrational_normalizer_is_certified_exactly(with_h3c):
    """An irrational √(−λ) keeps the factor's exact K with K² = λ·I: the
    2^k J's are rounded from the exact pieces and tagged numeric, every
    certificate residual is the int 0, and each J passes its own check."""
    A, _ = _h3_over_sqrt_minus2()
    if with_h3c:
        A = direct_sum(get_example("h3c"), A)
    structures = enumerate_complex_structures(A)
    assert len(structures) == (4 if with_h3c else 2)
    for s in structures:
        assert s.backend == "numeric" and all(type(x) is float for row in s.J for x in row)
        assert [(type(r), r) for r in s.certificate.residuals().values()] == [(int, 0)] * 3
        assert s.certificate.passed and verify_complex_structure(A, s.J).passed
