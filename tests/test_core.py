import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclie import linalg
from metriclie.core import (
    DEFAULT_TOL,
    LieAlgebra,
    Metric,
    MetricLieAlgebra,
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
    assert parse_scalar("3/4", tol=1e-9) == 0.75
    assert isinstance(parse_scalar(1, tol=1e-9), float)


def test_parse_scalar_bad():
    with pytest.raises(ParseError):
        parse_scalar("x")
    with pytest.raises(ParseError):
        parse_scalar("1/0")


def test_parse_scalar_exact_refuses_floats():
    with pytest.raises(ParseError):
        parse_scalar(0.5)


def test_make_algebra_exact_refuses_float_structure_constants():
    """A float constant at tol 0 is refused when the algebra is built, not
    later by an exact elimination."""
    with pytest.raises(ParseError):
        make_algebra(3, {(0, 1): [(2, 0.5)]})
    with pytest.raises(ParseError):
        make_algebra(3, {(0, 1): [(2, 0.5)]}, check=False)
    assert make_algebra(3, {(0, 1): [(2, 0.5)]}, tol=1e-9).algebra.structure == (((0, 1), ((2, 0.5),)),)


def test_decimal_literals_parse_exactly():
    A = parse_document('{"dim": 1, "gram": [[0.1234567890123]]}')
    assert A.gram == ((F("0.1234567890123"),),)
    assert A.gram[0][0] == F(1234567890123, 10**13)
    B = parse_document('{"dim": 1, "field": "numeric", "gram": [[0.1234567890123]]}', tol=1e-9)
    assert B.gram == ((0.1234567890123,),)


def test_format_scalar_roundtrip():
    for s in ("3/4", "-2", "0"):
        assert format_scalar(parse_scalar(s)) == s


def test_an_algebra_built_from_ints_stores_and_renders_fractions():
    """Exact int input, constants, Gram and J marker alike, is stored as
    Fractions, so its rational document prints "1" and "2", not "1.0", and
    parses back to the same algebra; a LieAlgebra built directly stores its
    constants so too, and refuses a float when it is built.  The float
    backend keeps floats."""
    brackets, gram = {(0, 1): [(2, 1)]}, ((2, 0, 0), (0, 1, 0), (0, 0, 1))
    J = ((0, -1, 0), (1, 0, 0), (0, 0, 1))
    A = make_algebra(3, brackets, gram, j_marker=J)
    assert A.algebra.structure == (((0, 1), ((2, F(1)),)),)
    for M in (A.gram, A.j_marker):
        assert all(type(x) is F for row in M for x in row)
    assert all(type(x) is F for row in A.with_metric(Metric(gram)).gram for x in row)
    assert all(type(x) is F for row in MetricLieAlgebra(A.algebra, Metric(gram)).gram for x in row)
    doc = render_document(A)
    assert doc["field"] == "rational"
    assert doc["brackets"] == [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]}]
    direct = MetricLieAlgebra(LieAlgebra(3, (((0, 1), ((2, 1),)),)), Metric(linalg.identity(3)))
    assert [type(c) for _, terms in direct.algebra.structure for _, c in terms] == [F]
    assert render_document(direct)["brackets"] == doc["brackets"]
    with pytest.raises(TypeError):
        LieAlgebra(3, (((0, 1), ((2, 0.5),)),))
    assert doc["gram"] == [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    assert doc["j"] == [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "1"]]
    B = parse_document(dumps(doc))
    assert B.algebra.structure == A.algebra.structure
    assert [[(type(x), x) for x in row] for row in B.gram] == [[(type(x), x) for x in row] for row in A.gram]
    assert B.j_marker == A.j_marker
    N = render_document(make_algebra(3, brackets, gram, tol=1e-9, j_marker=J))
    assert N["field"] == "numeric"
    assert N["brackets"][0]["terms"] == [{"k": 3, "c": "1.0"}]
    assert N["gram"][0] == ["2.0", "0.0", "0.0"] and N["j"][0] == ["0.0", "-1.0", "0.0"]


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


JACOBI_CONSTANTS = {
    "int": st.integers(-3, 3),
    "small": st.fractions(min_value=-3, max_value=3, max_denominator=4),
    "70-bit": st.builds(F, st.integers(-(2 ** 70), 2 ** 70), st.integers(1, 2 ** 70)),
}


@st.composite
def bracket_tables(draw):
    """(n, brackets) on n = 3..8 basis vectors, in a random order of the basis.
    Half are Lie algebras by construction: two-step nilpotent (the first m
    vectors bracket into the span of the others, which is central) or
    R ⋉ R^(n-1) (X1 acts on an abelian ideal by a matrix).  The other half are
    drawn freely, and almost all of them violate Jacobi."""
    n = draw(st.integers(3, 8))
    const = JACOBI_CONSTANTS[draw(st.sampled_from(sorted(JACOBI_CONSTANTS)))]
    perm = draw(st.permutations(range(n)))
    brackets = {}

    def put(a, b, k):
        a, b, k, c = perm[a], perm[b], perm[k], draw(const)
        if a > b:
            a, b, c = b, a, -c
        brackets.setdefault((a, b), []).append((k, c))

    shape = draw(st.sampled_from(["free", "free", "two-step", "semidirect"]))
    if shape == "two-step":
        m = draw(st.integers(2, n - 1))
        for a in range(m):
            for b in range(a + 1, m):
                for k in draw(st.lists(st.integers(m, n - 1), unique=True, max_size=2)):
                    put(a, b, k)
    elif shape == "semidirect":
        for a in range(1, n):
            for k in draw(st.lists(st.integers(1, n - 1), unique=True, max_size=3)):
                put(0, a, k)
    else:
        for a in range(n):
            for b in range(a + 1, n):
                for k in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=2)):
                    put(a, b, k)
    return n, brackets


def _assert_jacobi_matches_the_reference(A):
    """The same residual (value and type), triple and verdict as the dense
    reference, on A and on to_numeric(A), where the floats agree bit for bit;
    a violation raises JacobiViolation with that triple and residual."""
    import fraction_reference as ref

    for B in (A, to_numeric(A)):
        got = check_jacobi(B)
        assert repr(got) == repr(ref.check_jacobi(B))
    got = check_jacobi(A)
    if not got.passed:
        with pytest.raises(JacobiViolation) as exc:
            make_algebra(A.dim, {ij: list(terms) for ij, terms in A.algebra.structure})
        assert (exc.value.triple, repr(exc.value.residual)) == (got.worst_triple, repr(got.max_residual))


@settings(max_examples=150, deadline=None)
@given(bracket_tables())
def test_check_jacobi_equals_the_dense_reference(table):
    n, brackets = table
    _assert_jacobi_matches_the_reference(make_algebra(n, brackets, check=False))


def _jacobi_cases():
    from metriclie.examples import example_keys

    h3, h3c = get_example("h3"), get_example("h3c")
    cases = {key: get_example(key) for key in example_keys()}
    cases["h3c+h3c"] = direct_sum(h3c, h3c)
    cases["h3c^3+h3"] = direct_sum(direct_sum(direct_sum(h3c, h3c), h3c), h3)
    return cases


@pytest.mark.parametrize("key", sorted(_jacobi_cases()))
def test_check_jacobi_on_examples_equals_the_dense_reference(key):
    A = _jacobi_cases()[key]
    assert check_jacobi(A).passed
    _assert_jacobi_matches_the_reference(A)


def test_metric_not_positive_definite():
    with pytest.raises(MetricNotPositiveDefinite):
        make_algebra(2, {}, gram=[[F(1), F(2)], [F(2), F(1)]])
    with pytest.raises(MetricNotPositiveDefinite):
        Metric(linalg.mat([[F(1), F(1)], [F(0), F(1)]])).validate()


def test_symmetry_is_exact_at_tol_zero_and_within_tol_on_floats():
    eps = F(1, 10**30)
    with pytest.raises(MetricNotPositiveDefinite) as exc:
        Metric(linalg.mat([[F(2), F(1) + eps], [F(1), F(2)]])).validate()
    assert exc.value.minor_index == -1
    Metric(linalg.mat([[F(2), 1], [F(1), F(2)]])).validate()  # an int equals its Fraction
    Metric(linalg.mat([[2.0, 1.0 + 1e-12], [1.0, 2.0]])).validate(1e-9)


@pytest.mark.parametrize("gram,exact_index,float_index", [
    ([[1e-5, 0.0], [0.0, 1e-5]], None, 2),  # pivots above tol, minor 1e-10 within it
    ([[1e12, 0.0], [0.0, 1e-10]], None, 2),  # a pivot within tol
    ([[1.0, 2.0], [2.0, 1.0]], 2, 2),
    ([[0.0, 1.0], [1.0, 0.0]], 1, 1),
    ([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]], 2, 2),
    ([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]], None, None),
    ([[1e-10]], None, 1),
    # minor 2.5e-9 > tol, though a row exchange would meet a pivot within tol
    ([[2.0, 3.0], [3.0, 4.5 + 1.25e-9]], None, None),
], ids=["small-minor", "small-pivot", "indefinite", "zero-corner", "singular", "pd",
        "tiny", "exchange-pivot"])
def test_validate_tests_each_leading_minor_against_tol(gram, exact_index, float_index):
    """MetricNotPositiveDefinite names the first k with minor_k <= tol (0 on
    the exact backend)."""
    for tol, index in ((0.0, exact_index), (1e-9, float_index)):
        G = linalg.mat(gram) if tol else linalg.mat([[F(x) for x in row] for row in gram])
        if index is None:
            Metric(G).validate(tol)
            continue
        with pytest.raises(MetricNotPositiveDefinite) as exc:
            Metric(G).validate(tol)
        assert exc.value.minor_index == index


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


def test_subspace_membership():
    S = Subspace.from_vectors(3, [(F(1), F(1), F(0)), (F(0), F(0), F(1))])
    assert S.contains((F(2), F(2), F(5)))
    assert not S.contains((F(1), F(0), F(0)))


def _restrict_per_pair(A, S):
    """Reference for restrict: one solve per pair of carrier vectors and one
    bilinear form per Gram entry."""
    basis, s = S.basis, S.dim
    C = S.matrix_columns()
    brackets = {}
    for p in range(s):
        for q in range(p + 1, s):
            coords = linalg.solve(C, bracket(A, basis[p], basis[q]), A.tol)
            if coords is None:
                raise NotASubalgebra((p + 1, q + 1))
            terms = [(k, c) for k, c in enumerate(coords) if not linalg.is_zero(c, A.tol)]
            if terms:
                brackets[(p, q)] = terms
    gram = [[linalg.bilinear(A.gram, basis[p], basis[q]) for q in range(s)] for p in range(s)]
    return make_algebra(s, brackets, gram, tol=A.tol, check=False)


def _in_basis(A, T):
    """A written in the basis f_i = column i of the invertible matrix T, so
    that its carriers are not coordinate subspaces and its brackets are dense."""
    n = A.dim
    f = linalg.transpose(T)
    brackets = {(i, j): list(enumerate(linalg.solve(T, bracket(A, f[i], f[j]))))
                for i in range(n) for j in range(i + 1, n)}
    gram = linalg.mat_mul(linalg.mat_mul(linalg.transpose(T), A.gram), T)
    return make_algebra(n, brackets, gram, name=A.name + "'")


def _restrict_cases():
    from metriclie.centroid import decompose
    from metriclie.lab import BlockSpec, make_metric_with_factor_count, random_gram

    ex48, h3h3 = get_example("ex48"), get_example("h3h3")
    T = linalg.mat([[F(int(i <= j) * (1 + (i * j) % 3)) for j in range(6)] for i in range(6)])
    for A in (get_example("h3c"), h3h3, direct_sum(ex48, ex48), _in_basis(h3h3, T)):
        for metric in ("standard", 1, 2):
            B = A if metric == "standard" else A.with_metric(random_gram(A.dim, metric))
            for C in (B, to_numeric(B)):
                carriers = [f.carrier for f in decompose(C).factors]
                yield pytest.param(C, carriers, id=f"{A.name}-{metric}-{C.backend}")
    h3 = get_example("h3")
    B = direct_sum(direct_sum(h3, h3), h3)  # a lab metric with l = 2: carriers of dims 3 and 6
    B = B.with_metric(make_metric_with_factor_count(BlockSpec((h3, h3, h3), 0), 2))
    for C in (B, to_numeric(B)):
        carriers = [f.carrier for f in decompose(C).factors]
        assert sorted(S.dim for S in carriers) == [3, 6]
        yield pytest.param(C, carriers, id=f"h3^3-lab2-{C.backend}")


@pytest.mark.parametrize("A, carriers", list(_restrict_cases()))
def test_restrict_equals_per_pair_solves(A, carriers):
    """One elimination for all pairs gives the reference's structure and Gram
    bit for bit, on both backends; so does the refusal of a subspace that is
    not a subalgebra."""
    n = A.dim
    spans = [Subspace.from_vectors(n, [linalg.basis_vec(n, j, A.tol) for j in (i, i + 1, i + 2)], A.tol)
             for i in range(n - 2)]
    for S in carriers + spans:
        try:
            ref = _restrict_per_pair(A, S)
        except NotASubalgebra as exc:
            with pytest.raises(NotASubalgebra) as got:
                restrict(A, S)
            assert got.value.witness == exc.witness
            continue
        B = restrict(A, S)
        assert B.algebra.structure == ref.algebra.structure
        assert [[(type(x), x) for x in row] for row in B.gram] == \
            [[(type(x), x) for x in row] for row in ref.gram]


def test_restrict_to_a_full_rank_non_standard_basis_reduces():
    """Only the standard basis skips the reduction: a full-rank carrier in
    another basis, the rows of the triangular T, gives the per-pair
    reference on both backends and takes over no cache of the ambient
    algebra."""
    A = get_example("h3h3")
    T = _triangular(6)
    for C, basis in ((A, T), (to_numeric(A), linalg.to_float_mat(T))):
        C.algebra._centroid_basis  # filled, so a wrongly taken shortcut would share it
        S = Subspace(6, basis, C.tol)
        B, ref = restrict(C, S), _restrict_per_pair(C, S)
        assert B.algebra.structure == ref.algebra.structure
        assert [[(type(x), x) for x in row] for row in B.gram] == \
            [[(type(x), x) for x in row] for row in ref.gram]
        assert B.algebra.structure != C.algebra.structure
        assert "_centroid_basis" not in B.algebra.__dict__


def test_restrict_to_the_standard_basis_merges_like_the_reduction():
    """On the standard basis, constants with one target merge in term order
    and come out in ascending k, as the reduction gives them.  The ambient
    caches are shared, except when a merged float constant is dropped as
    within tol: then the ambient ad matrices keep it and the induced ones
    do not."""
    exact = make_algebra(4, {(0, 1): [(3, 1), (2, F(1, 2)), (2, F(1, 2))]}, check=False)
    numeric = make_algebra(4, {(0, 1): [(2, 1.0), (3, 1.0), (2, -1.0 + 1e-12)]}, tol=1e-9, check=False)
    for A, shared in ((exact, True), (numeric, False)):
        A.algebra._centroid_basis
        S = Subspace(4, linalg.identity(4, A.tol), A.tol)
        B = restrict(A, S)
        assert _typed_structure(B) == _typed_structure(_restrict_per_pair(A, S))
        assert ("_centroid_basis" in B.algebra.__dict__) is shared
    assert _typed_structure(restrict(exact, Subspace(4, linalg.identity(4)))) == \
        [((0, 1), [(2, F, 1), (3, F, 1)])]


def _typed_structure(A):
    return [(pair, [(k, type(c), c) for k, c in terms]) for pair, terms in A.algebra.structure]


def _triangular(n):
    """An invertible upper triangular n x n matrix with entries in 1..3."""
    return linalg.mat([[F(int(i <= j) * (1 + (i * j) % 3)) for j in range(n)] for i in range(n)])


def _dense_rational(n, seed):
    """An invertible n x n matrix of entries p/q, |p| <= 2 and 1 <= q <= 3,
    drawn row by row from random.Random(seed): in its basis every bracket
    of a direct sum has all n constants nonzero."""
    import random

    rng = random.Random(seed)
    T = linalg.mat([[F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
    assert linalg.rank(T) == n
    return T


def _center_cases():
    from metriclie.examples import example_keys

    h3 = get_example("h3")
    cases = {key: get_example(key) for key in example_keys()}
    cases["so3"] = so3()
    cases["h3c+h3c"] = direct_sum(get_example("h3c"), get_example("h3c"))
    cases["h3^3"] = direct_sum(direct_sum(h3, h3), h3)
    cases["h3+abelian2n"] = direct_sum(h3, get_example("abelian2n"))
    cases["ex48+ex48"] = direct_sum(get_example("ex48"), get_example("ex48"))
    for key in ("h3h3", "h3+abelian2n"):
        cases[key + "'"] = _in_basis(cases[key], _triangular(cases[key].dim))
    return cases


@pytest.mark.parametrize("key", sorted(_center_cases()))
def test_center_equals_the_stacked_ad_solve(key):
    """The sparse integer centre is the dense nullspace of the stacked ad
    matrices, entry for entry and type for type; the float centre still is
    that nullspace, bit for bit."""
    import fraction_reference as ref

    A = _center_cases()[key]
    got, expected = center(A), ref.center(A)
    assert got == expected
    assert [[(type(x), x) for x in row] for row in got.basis] == \
        [[(type(x), x) for x in row] for row in expected.basis]
    An = to_numeric(A)
    assert repr(center(An)) == repr(ref.center(An))


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
    lhs = bracket(A, tuple(c * a + b for a, b in zip(u, w)), v)
    rhs = tuple(c * a + b for a, b in zip(bracket(A, u, v), bracket(A, w, v)))
    assert lhs == rhs


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_abelian_factor_is_metric_independent(seed):
    from metriclie.lab import random_gram

    for key in ("h3", "abelian2n"):
        A = get_example(key)
        B = A.with_metric(random_gram(A.dim, seed))
        assert has_abelian_factor(A) == has_abelian_factor(B)


def test_make_algebra_rejects_a_negative_tol():
    with pytest.raises(ParseError, match="tol must be"):
        make_algebra(3, {(0, 1): [(2, 1)]}, tol=-1e-9)


def test_to_numeric_rejects_nonpositive_tol():
    for A in (get_example("h3"), to_numeric(get_example("h3"))):
        for tol in (0.0, -1.0):
            with pytest.raises(ParseError, match="positive tol"):
                to_numeric(A, tol)


def test_backend_is_derived_from_tol():
    from metriclie.core import LieAlgebra

    assert "backend" not in LieAlgebra._fields
    assert get_example("h3").algebra.backend == "exact"
    assert to_numeric(get_example("h3"), 1e-6).algebra.backend == "numeric"


def test_an_exact_record_refuses_a_float_when_it_is_built():
    """At tol 0 a float structure constant, Gram entry or j_marker entry
    raises TypeError when the LieAlgebra or MetricLieAlgebra is built, so no
    exact solve can take its binary value; ints are stored as Fractions."""
    with pytest.raises(TypeError):  # once solved as the exact 0.1.as_integer_ratio()
        LieAlgebra(3, (((0, 1), ((2, 0.1),)),))
    with pytest.raises(TypeError):
        LieAlgebra(4, (((0, 1), ((2, F(1)),)), ((0, 2), ((3, 1), (1, 0.5)))))
    h3 = get_example("h3")
    one_float = ((F(1), F(0), F(0)), (F(0), 2.0, F(0)), (F(0), F(0), F(1)))
    for G in (linalg.to_float_mat(h3.gram), one_float):
        with pytest.raises(TypeError):
            MetricLieAlgebra(h3.algebra, Metric(G))
    with pytest.raises(TypeError):
        MetricLieAlgebra(h3.algebra, h3.metric, j_marker=one_float)
    A = MetricLieAlgebra(h3.algebra, Metric(((1, 0, 0), (0, 2, 0), (0, 0, 1))), j_marker=linalg.identity(3))
    assert all(type(x) is F for M in (A.gram, A.j_marker) for row in M for x in row)


def test_a_float_record_stores_floats():
    """At tol > 0 every constant, Gram entry and j_marker entry is stored as
    a float, whatever its input type."""
    B = LieAlgebra(3, (((0, 1), ((2, F(1, 3)),)),), tol=1e-9)
    assert B.structure == (((0, 1), ((2, 1 / 3),)),) and type(B.structure[0][1][0][1]) is float
    A = MetricLieAlgebra(B, Metric(((1, 0, 0), (0, F(1, 2), 0), (0, 0, 1.0))), j_marker=linalg.identity(3))
    assert all(type(x) is float for M in (A.gram, A.j_marker) for row in M for x in row)
    assert A.gram[1][1] == 0.5


def _types(A):
    scalars = [c for _, terms in A.algebra.structure for _, c in terms]
    scalars += [x for M in (A.gram, A.j_marker) for row in M for x in row]
    return {type(x) for x in scalars}


@pytest.mark.parametrize("value", [3, F(3, 4), "3/4", "-2", "0.5"],
                         ids=["int", "fraction", "ratio", "int-string", "decimal"])
def test_tol_alone_picks_the_scalars(value):
    """parse_scalar, make_algebra, parse_document and jlambda give Fractions
    at tol 0 and floats at tol > 0, whatever the input type; at tol 0 a float
    is refused."""
    assert type(parse_scalar(value)) is F and parse_scalar(value) == F(value)
    assert type(parse_scalar(value, 1e-9)) is float and parse_scalar(value, 1e-9) == float(F(value))
    c = parse_scalar(value) if isinstance(value, str) else value
    for tol, kind in ((0.0, F), (1e-9, float)):
        A = make_algebra(3, {(0, 1): [(2, c)]}, [[c * c, 0, 0], [0, 1, 0], [0, 0, 1]], tol=tol,
                         j_marker=[[0, c, 0], [-c, 0, 0], [0, 0, 1]])
        assert _types(A) == {kind} and A.tol == tol
    doc = {"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": value}]}],
           "j": [[0, value, 0], [0, 0, 0], [0, 0, 0]]}
    assert _types(parse_document(doc)) == {F}
    for tol in (None, 1e-9):
        assert _types(parse_document({**doc, "field": "numeric"}, tol)) == {float}
    with pytest.raises(ParseError):
        parse_scalar(0.5)
    with pytest.raises(ParseError):
        make_algebra(3, {(0, 1): [(2, 0.5)]})
    assert type(parse_scalar(0.5, 1e-9)) is float


def test_a_numeric_document_reads_back_its_own_tol():
    """A numeric document is parsed at the tol it was rendered with, unless
    a tol is given; without one it takes DEFAULT_TOL, and anything but a
    positive number is a ParseError."""
    N = to_numeric(get_example("h3c"), 1e-6)
    text = dumps(render_document(N))
    assert parse_document(text) == N and parse_document(text).tol == 1e-6
    assert parse_document(text, tol=1e-9).tol == 1e-9
    doc = render_document(N)
    del doc["tol"]
    assert parse_document(doc).tol == DEFAULT_TOL
    for bad in (0, -1e-6, "1e-6", None, True, float("inf"), float("nan")):
        with pytest.raises(ParseError):
            parse_document({**doc, "tol": bad})
    for bad in (0.0, -1e-9):
        with pytest.raises(ParseError):
            parse_document(text, tol=bad)
    assert parse_document(render_document(get_example("h3c")), tol=1e-9).tol == 0.0
