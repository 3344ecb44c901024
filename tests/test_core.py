import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclie import linalg
from metriclie.core import (
    Metric,
    Subspace,
    bracket,
    center,
    check_jacobi,
    derived_subalgebra,
    direct_sum,
    format_scalar,
    has_abelian_factor,
    make_algebra,
    parse_scalar,
    restrict,
    to_numeric,
)
from metriclie.docio import dumps, parse_document, render_document
from metriclie.errors import (
    JacobiViolation,
    MetricNotPositiveDefinite,
    NotASubalgebra,
    ParseError,
)
from metriclie.examples import get_example


def so3():
    # [X1,X2] = X3, [X2,X3] = X1, [X1,X3] = -X2
    return make_algebra(3, {
        (0, 1): [(2, F(1))],
        (1, 2): [(0, F(1))],
        (0, 2): [(1, F(-1))],
    }, name="so3")


def test_parse_scalar_exact():
    assert parse_scalar("3/4") == F(3, 4)
    assert parse_scalar(2) == F(2)
    assert parse_scalar("-5") == F(-5)


def test_parse_scalar_numeric():
    assert parse_scalar("3/4", backend="numeric") == 0.75
    assert isinstance(parse_scalar(1, backend="numeric"), float)


def test_parse_scalar_bad():
    with pytest.raises(ParseError):
        parse_scalar("x")
    with pytest.raises(ParseError):
        parse_scalar("1/0")


def test_parse_scalar_exact_refuses_floats():
    with pytest.raises(ParseError):
        parse_scalar(0.5)


def test_decimal_literals_parse_exactly():
    A = parse_document('{"dim": 1, "gram": [[0.1234567890123]]}')
    assert A.gram == ((F("0.1234567890123"),),)
    assert A.gram[0][0] == F(1234567890123, 10**13)
    B = parse_document('{"dim": 1, "gram": [[0.1234567890123]]}', backend="numeric", tol=1e-9)
    assert B.gram == ((0.1234567890123,),)


def test_format_scalar_roundtrip():
    for s in ("3/4", "-2", "0"):
        assert format_scalar(parse_scalar(s)) == s


def test_bracket_table_h3():
    A = get_example("h3")
    assert A.algebra.bracket_basis(0, 1) == (F(0), F(0), F(1))
    assert A.algebra.bracket_basis(1, 0) == (F(0), F(0), F(-1))
    assert A.algebra.bracket_basis(0, 0) == (F(0), F(0), F(0))


def test_jacobi_passes_on_rotation_algebra():
    report = check_jacobi(so3())
    assert report.passed
    assert report.max_residual == 0


def test_jacobi_violation_detected():
    # perturb [X1,X2] = X3 to X3 + X1: the Jacobi sum gains an X2 term
    bad = {
        (0, 1): [(2, F(1)), (0, F(1))],
        (1, 2): [(0, F(1))],
        (0, 2): [(1, F(-1))],
    }
    with pytest.raises(JacobiViolation):
        make_algebra(3, bad)
    report = check_jacobi(make_algebra(3, bad, check=False))
    assert not report.passed
    assert report.worst_triple == (1, 2, 3)
    assert report.max_residual == 1


def test_metric_not_positive_definite():
    with pytest.raises(MetricNotPositiveDefinite):
        make_algebra(2, {}, gram=[[F(1), F(2)], [F(2), F(1)]])
    with pytest.raises(MetricNotPositiveDefinite):
        Metric(linalg.mat([[F(1), F(1)], [F(0), F(1)]])).validate()


def test_diagonal_bracket_rejected():
    with pytest.raises(ParseError):
        make_algebra(3, {(1, 1): [(0, F(1))]})


def test_center_and_derived_h3():
    A = get_example("h3")
    Z = center(A)
    D = derived_subalgebra(A)
    assert Z.basis == ((F(0), F(0), F(1)),)
    assert Z == D
    assert not has_abelian_factor(A)


def test_abelian_factor_detection():
    assert has_abelian_factor(get_example("abelian2n"))
    assert has_abelian_factor(direct_sum(get_example("h3"), get_example("abelian2n")))
    assert not has_abelian_factor(get_example("h3h3"))


def test_direct_sum_matches_bundled_h3h3():
    # same algebra up to basis order: X1,X2,X3,X1',X2',X3' vs X1,X2,Y1,Y2,Z1,Z2
    A = direct_sum(get_example("h3"), get_example("h3"))
    assert A.dim == 6
    assert A.algebra.bracket_basis(0, 1) == tuple(F(x) for x in (0, 0, 1, 0, 0, 0))
    assert A.algebra.bracket_basis(3, 4) == tuple(F(x) for x in (0, 0, 0, 0, 0, 1))
    assert A.gram == linalg.identity(6)


def test_restrict_summand():
    A = get_example("h3h3")
    S = Subspace.from_vectors(6, [
        linalg.basis_vec(6, 0), linalg.basis_vec(6, 2), linalg.basis_vec(6, 4),
    ])
    B = restrict(A, S)
    assert B.dim == 3
    assert B.algebra.bracket_basis(0, 1) == (F(0), F(0), F(1))
    assert B.gram == linalg.identity(3)


def test_restrict_non_subalgebra():
    A = get_example("h3")
    S = Subspace.from_vectors(3, [linalg.basis_vec(3, 0), linalg.basis_vec(3, 1)])
    with pytest.raises(NotASubalgebra):
        restrict(A, S)


def test_subspace_membership_and_intersection():
    S = Subspace.from_vectors(3, [(F(1), F(1), F(0)), (F(0), F(0), F(1))])
    assert S.contains((F(2), F(2), F(5)))
    assert not S.contains((F(1), F(0), F(0)))
    T = Subspace.from_vectors(3, [(F(1), F(1), F(0)), (F(1), F(0), F(0))])
    I = S.intersect(T)
    assert I.dim == 1
    assert I.contains((F(1), F(1), F(0)))


def test_to_numeric():
    A = to_numeric(get_example("h3"))
    assert A.backend == "numeric"
    assert A.tol == 1e-9
    assert A.algebra.bracket_basis(0, 1) == (0.0, 0.0, 1.0)
    assert check_jacobi(A).passed


@pytest.mark.parametrize("key", ["h3", "h3c", "ex48", "h3h3", "h3h3-paper-metric",
                                 "sl2c-real", "abelian2n"])
def test_document_roundtrip(key):
    A = get_example(key)
    doc = render_document(A)
    B = parse_document(json.loads(dumps(doc)))
    assert B == A


@pytest.mark.parametrize("doc,msg", [
    ({"dim": 2, "brackets": [{"i": 1, "j": 1, "terms": []}]}, "diagonal"),
    ({"dim": 2, "brackets": [{"i": 2, "j": 1, "terms": []}]}, "1 <= i < j"),
    ({"dim": 2, "brackets": [{"i": 1, "j": 3, "terms": []}]}, "1 <= i < j"),
    ({"brackets": []}, "missing field 'dim'"),
    ({"dim": 2, "gram": [[1, 0]]}, "n x n"),
    ({"dim": 2, "field": "padic"}, "unknown field"),
    ({"dim": 2, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]}]},
     "out of range"),
], ids=["diag", "order", "range", "nodim", "gram", "field", "term"])
def test_parse_document_errors(doc, msg):
    with pytest.raises(ParseError, match=msg):
        parse_document(doc)


def test_parse_document_bad_json():
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_document("{not json")


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
vec3 = st.tuples(small, small, small)


@settings(max_examples=60, deadline=None)
@given(vec3, vec3, vec3, small)
def test_bracket_bilinear_antisymmetric(u, v, w, c):
    A = so3()
    assert bracket(A, u, v) == tuple(-x for x in bracket(A, v, u))
    lhs = bracket(A, linalg.vec_add(linalg.vec_scale(c, u), w), v)
    rhs = linalg.vec_add(linalg.vec_scale(c, bracket(A, u, v)), bracket(A, w, v))
    assert lhs == rhs


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_abelian_factor_is_metric_independent(seed):
    from metriclie.lab import random_gram

    for key in ("h3", "abelian2n"):
        A = get_example(key)
        B = A.with_metric(random_gram(A.dim, seed))
        assert has_abelian_factor(A) == has_abelian_factor(B)


@pytest.mark.parametrize("backend,tol", [
    ("numeric", 0.0), ("numeric", -1e-9), ("exact", 1e-9),
], ids=["numeric-zero", "numeric-negative", "exact-positive"])
def test_make_algebra_rejects_backend_contradicting_tol(backend, tol):
    with pytest.raises(ParseError, match="backend needs"):
        make_algebra(3, {(0, 1): [(2, 1)]}, backend=backend, tol=tol)


def test_to_numeric_rejects_nonpositive_tol():
    for A in (get_example("h3"), to_numeric(get_example("h3"))):
        for tol in (0.0, -1.0):
            with pytest.raises(ParseError, match="positive tol"):
                to_numeric(A, tol)


def test_backend_is_derived_from_tol():
    from dataclasses import fields

    from metriclie.core import LieAlgebra

    assert "backend" not in {f.name for f in fields(LieAlgebra)}
    assert get_example("h3").algebra.backend == "exact"
    assert to_numeric(get_example("h3"), 1e-6).algebra.backend == "numeric"
