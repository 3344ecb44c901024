from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclie import linalg


def frac(n, d=1):
    return F(n, d)


def test_rref_identity():
    rows, pivots = linalg.rref(linalg.identity(3))
    assert rows == list(linalg.identity(3))
    assert pivots == [0, 1, 2]


def test_rref_canonical_is_unique():
    a = [(F(2), F(4)), (F(1), F(2))]
    b = [(F(3), F(6))]
    assert linalg.canonical_rows(a, 2) == linalg.canonical_rows(b, 2)


def test_nullspace_simple():
    A = linalg.mat([[F(1), F(1), F(0)]])
    ns = linalg.nullspace(A)
    assert len(ns) == 2
    for v in ns:
        assert linalg.dot(A[0], v) == 0


def test_solve_inconsistent():
    A = linalg.mat([[F(1), F(0)], [F(1), F(0)]])
    assert linalg.solve(A, (F(1), F(2))) is None


def test_det_and_minors():
    A = linalg.mat([[F(2), F(1)], [F(1), F(3)]])
    assert linalg.det(A) == F(5)
    assert linalg.leading_principal_minors(A) == [F(2), F(5)]


def test_minimal_polynomial_projection():
    # P^2 = P has minimal polynomial x^2 - x
    P = linalg.mat([[F(1), F(0)], [F(0), F(0)]])
    assert linalg.minimal_polynomial(P) == [F(0), F(-1), F(1)]


def test_minimal_polynomial_scalar():
    M = linalg.mat_scale(F(3), linalg.identity(4))
    assert linalg.minimal_polynomial(M) == [F(-3), F(1)]


@pytest.mark.parametrize("x,expected", [
    (F(25, 16), F(5, 4)),
    (F(0), F(0)),
    (F(2), None),
    (F(-1), None),
])
def test_frac_sqrt(x, expected):
    assert linalg.frac_sqrt(x) == expected


small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(small_fracs, min_size=4, max_size=4), min_size=1, max_size=6))
def test_nullspace_vectors_annihilate(rows):
    A = linalg.mat(rows)
    for v in linalg.nullspace(A):
        assert all(linalg.dot(row, v) == 0 for row in A)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(small_fracs, min_size=4, max_size=4), min_size=1, max_size=8))
def test_sparse_and_dense_nullspace_agree(rows):
    A = linalg.mat(rows)
    sparse_eqs = [
        {c: v for c, v in enumerate(row) if v} for row in A
    ]
    dense = linalg.canonical_rows(linalg.nullspace(A), 4)
    sparse = linalg.canonical_rows(linalg.nullspace_sparse(sparse_eqs, 4), 4)
    assert dense == sparse


def test_minimal_polynomial_annihilates():
    M = linalg.mat([[F(1), F(2), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(2)]])
    coeffs = linalg.minimal_polynomial(M)
    value = linalg.zeros(3, 3)  # Horner: value = value·M + c, top coefficient first
    for c in reversed(coeffs):
        value = linalg.mat_add(linalg.mat_mul(value, M), linalg.mat_scale(c, linalg.identity(3)))
    assert linalg.max_abs(value) == 0
