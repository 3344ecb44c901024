"""Exact certificates as integer matrix identities, against the Fraction code
they replaced (``fraction_reference``).

The operators are random, so the residuals are mostly nonzero and their
values are really compared.  Entries are small Fractions, Fractions with
large denominators, ints mixed into Fractions, or ints only.  An exact
residual must come out with the value of the reference and as a Fraction,
or as the int 0 when it is zero; the reference is given exact operands as
Fractions, since its plain arithmetic would keep ints int.  Float operands
must take the float formulas, bit for bit.
"""

import functools
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from metriclie import complexstruct, linalg
from metriclie.centroid import centroid_residual, decompose, is_orthogonal_projection
from metriclie.complexstruct import (
    ComplexStructureCertificate,
    _int_signed_sums,
    _signed_sums,
    enumerate_complex_structures,
    verify_complex_structure,
    verify_doubling_isometry,
)
from metriclie.core import (
    Metric,
    MetricLieAlgebra,
    Subspace,
    direct_sum,
    make_algebra,
    restrict,
    to_numeric,
)
from metriclie.errors import InternalAssertionFailure
from metriclie.examples import ex48_j1, ex48_j2, example_keys, get_example
from metriclie.lab import BlockSpec, make_irreducible_metric, random_gram


def _typed(x):
    """A residual or a matrix with its types, so that 2, F(2) and 2.0 differ."""
    if isinstance(x, tuple):
        return tuple(_typed(y) for y in x)
    return type(x), x


ENTRIES = {
    "small": st.fractions(min_value=-4, max_value=4, max_denominator=6),
    "huge": st.builds(F, st.integers(-(2 ** 70), 2 ** 70), st.integers(1, 2 ** 70)),
    "int": st.integers(-5, 5),
}
ENTRIES["mixed"] = ENTRIES["small"] | ENTRIES["int"]
KINDS = sorted(ENTRIES)


@st.composite
def operator(draw, n, kind=None):
    """An n x n matrix of one entry kind; a fifth of the draws zero a row."""
    kind = kind or draw(st.sampled_from(KINDS))
    rows = []
    for _ in range(n):
        row = tuple(draw(ENTRIES[kind]) for _ in range(n))
        rows.append(tuple(x * 0 for x in row) if draw(st.integers(0, 4)) == 0 else row)
    return tuple(rows)


def _with_constants(A, how):
    """A with its structure constants as they are, scaled by 3/7 (proper
    Fractions) or turned into ints where integral."""
    def c(x):
        return x * F(3, 7) if how == "scaled" else (int(x) if how == "int" else x)
    brackets = {(i, j): [(k, c(x)) for k, x in terms] for (i, j), terms in A.algebra.structure}
    return make_algebra(A.dim, brackets, A.gram, A.name, check=False)


SMALL = [key for key in example_keys() if get_example(key).dim <= 6]


@st.composite
def algebra_with_gram(draw):
    """A bundled algebra with its constants as drawn, and an arbitrary Gram
    (the residual formulas need no positive definiteness)."""
    A = _with_constants(get_example(draw(st.sampled_from(SMALL))),
                        draw(st.sampled_from(["plain", "scaled", "int"])))
    G = draw(operator(A.dim))
    return MetricLieAlgebra(A.algebra, Metric(G), A.name)


def _float_copy(M, data):
    """M with every entry, or one entry, turned into a float."""
    if data.draw(st.booleans()):
        return linalg.to_float_mat(M)
    i, j = data.draw(st.integers(0, len(M) - 1)), data.draw(st.integers(0, len(M) - 1))
    return tuple(tuple(float(x) if (r, c) == (i, j) else x for c, x in enumerate(row))
                 for r, row in enumerate(M))


@settings(max_examples=150, deadline=None)
@given(algebra_with_gram(), st.data())
def test_centroid_residual_equals_the_fraction_reference(A, data):
    M = data.draw(operator(A.dim))
    assert _typed(centroid_residual(A, M)) == _typed(ref.centroid_residual(A, ref.fractions(M)))
    Mf = _float_copy(M, data)
    got = centroid_residual(A, Mf)
    assert _typed(got) == _typed(ref.centroid_residual(A, Mf))
    An = to_numeric(A)
    assert _typed(centroid_residual(An, M)) == _typed(ref.centroid_residual(An, M))


@settings(max_examples=150, deadline=None)
@given(algebra_with_gram(), st.data())
def test_projection_certificate_equals_the_fraction_reference(A, data):
    P = data.draw(operator(A.dim))
    cert = is_orthogonal_projection(A, P)
    want = ref.projection_residuals(A, ref.fractions(P))
    got = (cert.idempotent_residual, cert.bracket_residual, cert.symmetry_residual)
    assert _typed(got) == _typed(want)
    assert cert.passed == all(r == 0 for r in want)
    Pf = _float_copy(P, data)
    cert = is_orthogonal_projection(A, Pf)
    got = (cert.idempotent_residual, cert.bracket_residual, cert.symmetry_residual)
    assert _typed(got) == _typed(ref.projection_residuals(A, Pf))


@settings(max_examples=150, deadline=None)
@given(algebra_with_gram(), st.data())
def test_complex_structure_certificate_equals_the_fraction_reference(A, data):
    J = data.draw(operator(A.dim))
    cert = verify_complex_structure(A, J)
    want = ref.complex_structure_residuals(A, ref.fractions(J))
    assert _typed((cert.square_residual, cert.bracket_residual, cert.skew_residual)) == _typed(want)
    Jf = _float_copy(J, data)
    cert = verify_complex_structure(A, Jf)  # a float J is checked on the float copy of A
    got = (cert.square_residual, cert.bracket_residual, cert.skew_residual)
    assert _typed(got) == _typed(ref.complex_structure_residuals(to_numeric(A), Jf))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 3), st.data())
def test_sum_and_square_checks_equal_the_fraction_reference(n, k, data):
    """decompose's Σ P = I and the scalar-square check on a factor's K, on
    exact operands, on floats with the float I of the numeric backend, and
    on exact operands with float entries against the exact I."""
    I = linalg.identity(n)
    Ps = [data.draw(operator(n)) for _ in range(k)]
    if data.draw(st.booleans()):  # make them sum to I
        Ps.append(linalg.mat_sub(I, functools.reduce(linalg.mat_add, Ps)))
    K = data.draw(operator(n))
    kind = data.draw(st.sampled_from(["exact", "float", "mixed"]))
    tol = 1e-9 if kind == "float" else 0.0
    if kind == "float":
        Ps, K = [linalg.to_float_mat(P) for P in Ps], linalg.to_float_mat(K)
    elif kind == "mixed":
        Ps, K = [_float_copy(P, data) for P in Ps], _float_copy(K, data)
    as_ref = ref.fractions if kind == "exact" else (lambda M: M)
    I = linalg.identity(n, tol)
    got = linalg.residual([(1, P) for P in Ps] + [(-1, I)])
    assert _typed(got) == _typed(ref.projections_sum_residual([as_ref(P) for P in Ps], n, tol))
    lam, want = ref.square_scalar(as_ref(K), tol)
    assert _typed(linalg.mat_mul(K[:1], K)[0][0]) == _typed(lam)
    assert _typed(linalg.residual([(1, K, K), (-lam, I)])) == _typed(want)


FLOAT_ENTRIES = {"float": st.floats(-4, 4), "float-mixed": st.floats(-4, 4) | ENTRIES["small"]}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.data())
def test_exact_residual_of_random_terms(n, m, data):
    """max|Σ c·X·Y| over products of rectangular operands of mixed kinds.
    With a float among the operands or coefficients it is the plain formula
    in the entries' own arithmetic, terms added in order, bit for bit."""
    def matrix(rows, cols):
        kind = data.draw(st.sampled_from(KINDS + sorted(FLOAT_ENTRIES)))
        entries = FLOAT_ENTRIES[kind] if kind in FLOAT_ENTRIES else ENTRIES[kind]
        M = tuple(tuple(data.draw(entries) for _ in range(cols)) for _ in range(rows))
        return M, (M if kind in FLOAT_ENTRIES else ref.fractions(M))

    terms, total = [], None
    for _ in range(data.draw(st.integers(1, 3))):
        c = data.draw(st.sampled_from([1, -1, 2, F(-3, 5), F(4), -0.5]))
        if data.draw(st.booleans()):
            k = data.draw(st.integers(1, 4))  # a k x 0 matrix is (), whatever k is
            (X, Xr), (Y, Yr) = matrix(n, k), matrix(k, m)
            terms.append((c, X, Y))
            value = ref.mat_mul(Xr, Yr)
        else:
            X, value = matrix(n, m)
            terms.append((c, X))
        value = linalg.mat_scale(c, value)
        total = value if total is None else linalg.mat_add(total, value)
    assert _typed(linalg.residual(terms)) == _typed(linalg.max_abs(total))


@pytest.mark.parametrize("terms, want", [
    ([(F(-3, 5), ((3,),)), (1, ((3,),))], F(6, 5)),
    ([(1, ((3,),)), (F(-3, 5), ((3,),))], F(6, 5)),
    ([(F(4), ((1, 2),), ((3,), (4,))), (-1, ((11,),))], F(33)),
    ([(2, ((1, 2),), ((3,), (4,))), (-1, ((F(11),),))], F(11)),
    ([(2, ((1, 2),), ((3,), (4,))), (-1, ((11,),))], F(11)),
    ([(1, ((1, 2),), ((3,), (4,))), (-1, ((11,),))], 0),
], ids=["fraction-then-int", "int-then-fraction", "integral-fraction-coefficient", "fraction-entry",
        "ints-only", "ints-only-zero"])
def test_exact_residual_types_each_term(terms, want):
    """A nonzero residual is a Fraction, however many of its terms are ints,
    and a zero one is the int 0."""
    total = None
    for c, *ops in terms:
        ops = [ref.fractions(X) for X in ops]
        value = linalg.mat_scale(c, ref.mat_mul(*ops) if len(ops) == 2 else ops[0])
        total = value if total is None else linalg.mat_add(total, value)
    assert _typed(linalg.residual(terms)) == _typed(linalg.max_abs(total)) == _typed(want)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6), st.integers(0, 3), st.data())
def test_signed_sums_equal_the_fraction_reference(n, k, data):
    """Exact pieces are summed as integer matrices over one common
    denominator; float pieces as floats, bit for bit."""
    kind = data.draw(st.sampled_from(KINDS))
    pieces = [data.draw(operator(n, kind)) for _ in range(k)]
    ints, den = linalg._cleared([x for P in pieces for row in P for x in row])
    Z = [[ints[(i * n + r) * n:(i * n + r + 1) * n] for r in range(n)] for i in range(k)]
    want = ref.signed_sums([ref.fractions(P) for P in pieces], n)
    assert [_typed(J) for _, J in _int_signed_sums(Z, den, n)] == [_typed(J) for _, J in want]
    assert [s for s, _ in _int_signed_sums(Z, den, n)] == [s for s, _ in want]
    floats = [linalg.to_float_mat(P) for P in pieces]
    assert [_typed(J) for _, J in _signed_sums(floats, n, 1e-9)] == \
        [_typed(J) for _, J in ref.signed_sums(floats, n, 1e-9)]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 4), st.data())
def test_restrict_gram_equals_the_fraction_reference(n, s, data):
    """Any subspace of an abelian algebra is a subalgebra, so restrict takes
    arbitrary carrier rows; its Gram is Cᵀ·(G·C) through mat_mul."""
    G = data.draw(operator(n))
    basis = tuple(tuple(data.draw(ENTRIES[data.draw(st.sampled_from(KINDS))]) for _ in range(n))
                  for _ in range(s))
    A = MetricLieAlgebra(make_algebra(n, {}, check=False).algebra, Metric(G))
    S = Subspace(n, basis)
    assert _typed(restrict(A, S).gram) == _typed(ref.restrict_gram(ref.fractions(G), ref.fractions(basis)))
    Gf = linalg.to_float_mat(G)
    with pytest.raises(TypeError):  # an exact algebra refuses a float Gram when it is built
        MetricLieAlgebra(A.algebra, Metric(Gf))
    An = MetricLieAlgebra(to_numeric(A).algebra, Metric(Gf))
    fb = tuple(tuple(float(x) for x in b) for b in basis)
    got = restrict(An, Subspace(n, fb, An.tol)).gram
    assert _typed(got) == _typed(ref.restrict_gram(Gf, fb))


def _bundled_structures():
    """Every bundled example with a J: its marker, those of ex48's two
    structures that are orthogonal for its metric, and every enumerated
    structure."""
    for key in example_keys():
        A = get_example(key)
        Js = [A.j_marker] if A.j_marker is not None else []
        if key == "ex48":
            Js += [ex48_j1(), ex48_j2()]
        if key != "abelian2n":
            Js += [s.J for s in enumerate_complex_structures(A)]
        for i, J in enumerate(J for J in Js if verify_complex_structure(A, J).passed):
            yield pytest.param(A, J, id=f"{key}-{i}")


@pytest.mark.parametrize("A, J", list(_bundled_structures()))
def test_doubling_residuals_equal_the_per_pair_loops(A, J):
    cert = verify_doubling_isometry(A, J)
    got = (cert.bracket_residual, cert.intertwine_residual, cert.isometry_residual, cert.rank)
    assert _typed(got) == _typed(ref.doubling_residuals(A, J))
    assert cert.passed
    An, Jf = to_numeric(A), linalg.to_float_mat(J)
    cert = verify_doubling_isometry(An, Jf)
    assert cert.passed and cert.rank == 2 * A.dim
    # floats sum in another order than the loops: equal within tol
    got = cert.residuals().values()
    assert all(abs(a - b) <= An.tol for a, b in zip(got, ref.doubling_residuals(An, Jf)))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(example_keys()), st.sampled_from([None, 1, 2]), st.sampled_from(["small", "mixed"]),
       st.data())
def test_doubling_residuals_of_an_arbitrary_operator(key, metric_seed, kind, data):
    """With the complex-structure check passed over, any operator gives the
    identities' residuals, mostly nonzero: they equal the per-pair loops, on
    every bundled algebra with its own metric or a random_gram one."""
    A = get_example(key)
    if metric_seed is not None:
        A = A.with_metric(random_gram(A.dim, metric_seed))
    J = data.draw(operator(A.dim, kind))
    passing = ComplexStructureCertificate(0, 0, 0, True)
    with mock.patch.object(complexstruct, "verify_complex_structure", return_value=passing):
        cert = verify_doubling_isometry(A, J)
    got = (cert.bracket_residual, cert.intertwine_residual, cert.isometry_residual, cert.rank)
    assert _typed(got) == _typed(ref.doubling_residuals(A, ref.fractions(J)))


@pytest.mark.parametrize("metric_seed", [1, 2])
def test_doubling_isometry_residual_catches_a_non_isometric_j(metric_seed):
    """h3c's J is a bi-invariant complex structure but no isometry of a
    random Gram matrix.  With the complex-structure check passed over, the
    bracket and intertwining identities still hold, and the isometry
    residual alone refuses the map."""
    A = get_example("h3c").with_metric(random_gram(6, metric_seed))
    J = A.j_marker
    plain = verify_complex_structure(A, J)
    assert plain.square_residual == plain.bracket_residual == 0 and plain.skew_residual > 0
    passing = ComplexStructureCertificate(0, 0, 0, True)
    with mock.patch.object(complexstruct, "verify_complex_structure", return_value=passing):
        cert = verify_doubling_isometry(A, J)
    assert cert.bracket_residual == cert.intertwine_residual == 0
    assert cert.isometry_residual > 0 and cert.rank == 12 and not cert.passed
    got = (cert.bracket_residual, cert.intertwine_residual, cert.isometry_residual, cert.rank)
    assert _typed(got) == _typed(ref.doubling_residuals(A, J))


@pytest.mark.parametrize("where", [None, (0, 0), (2, 1)])
def test_a_nan_operator_fails_its_certificates(where):
    """A NaN entry, everywhere or in one place of I, makes the residuals NaN
    (``max`` alone would never pick it after a number, and report 0), so a
    NaN P is no orthogonal projection and a NaN J no complex structure."""
    nan = float("nan")
    A = to_numeric(get_example("h3"))
    if where is None:
        M = ((nan,) * 3,) * 3
    else:
        M = tuple(tuple(nan if (i, j) == where else float(i == j) for j in range(3)) for i in range(3))
    for cert in (is_orthogonal_projection(A, M), verify_complex_structure(A, M)):
        assert not cert.passed
        assert any(r != r for r in cert.residuals().values())


def test_doubling_isometry_builds_no_doubled_algebra():
    """The doubling identities are checked on n × n blocks, so a passing
    certificate on h3c ⊕ h3c needs neither g^C nor g ⊕ g: complexify is not
    called, and no algebra of dim 24 is built by any route."""
    h3c = get_example("h3c")
    A = direct_sum(h3c, h3c)
    J = enumerate_complex_structures(A)[0].J
    post_init = MetricLieAlgebra.__post_init__

    def refuse_doubles(self):
        assert self.dim < 2 * A.dim, "a 2n-dim algebra was built"
        post_init(self)

    with mock.patch.object(complexstruct, "complexify", side_effect=AssertionError("complexify called")), \
         mock.patch.object(MetricLieAlgebra, "__post_init__", refuse_doubles):
        cert = verify_doubling_isometry(A, J)
    assert cert.passed and cert.rank == 24
    assert cert.residuals() == {"bracket": 0, "intertwine": 0, "isometry": 0}


def _h3c_sum(seeds):
    """h3c ⊕ ... ⊕ h3c, one summand per seed: the standard metric for None,
    else a random_gram metric averaged to keep h3c's J an isometry."""
    h3c = get_example("h3c")
    summands = [h3c if s is None else h3c.with_metric(
        make_irreducible_metric(BlockSpec((h3c,), s), hermitian_for=h3c.j_marker)) for s in seeds]
    return functools.reduce(direct_sum, summands)


@pytest.mark.parametrize("seeds", [
    pytest.param((None, None), id="None"),
    pytest.param((3, None), id="3"),
    pytest.param((None,), id="h3c-standard"),
    pytest.param((5,), id="h3c-random"),
    pytest.param((None,) * 3, id="h3c^3-standard"),
    pytest.param((5, 6, 7), id="h3c^3-random"),
    pytest.param((None,) * 4, id="h3c^4-standard"),
    pytest.param((5, 6, 7, 8), id="h3c^4-random"),
])
def test_enumerated_structures_equal_the_fraction_assembly(seeds):
    """h3c^k with k = len(seeds) has 2^k J's, each the signed sum of k
    pieces.  The pieces are certified once, in integers; each J must still
    be the reference's per-J assembly, with its per-J certificate."""
    dec = decompose(_h3c_sum(seeds))
    out = complexstruct.complex_structures(dec)
    want = ref.complex_structures(dec)
    assert dec.k == len(seeds) and len(out) == len(want) == 2 ** len(seeds)
    for s, (signs, J, residuals) in zip(out, want):
        assert s.signs == signs and _typed(s.J) == _typed(J)
        got = (s.certificate.square_residual, s.certificate.bracket_residual, s.certificate.skew_residual)
        assert _typed(got) == _typed(residuals) == _typed((0, 0, 0)) and s.certificate.passed


@pytest.mark.parametrize("k", [1, 2, 3])
def test_exact_enumeration_verifies_no_j(k):
    """The exact path certifies the k pieces and calls verify_complex_structure
    for no J; after to_numeric each of the 2^k J's is verified."""
    A = _h3c_sum((None,) * k)
    for B, calls in ((A, 0), (to_numeric(A), 2 ** k)):
        with mock.patch.object(complexstruct, "verify_complex_structure",
                               wraps=complexstruct.verify_complex_structure) as verify:
            assert len(enumerate_complex_structures(B)) == 2 ** k
        assert verify.call_count == calls


def _mutated_pieces(mutate):
    """complex_structures of h3c ⊕ h3c with its integer pieces (Z, den)
    replaced by mutate(Z, den)."""
    dec = decompose(_h3c_sum((None, None)))
    real = complexstruct._int_pieces
    with mock.patch.object(complexstruct, "_int_pieces", lambda parts: mutate(*real(parts))):
        return complexstruct.complex_structures(dec)


def _conjugated(Z, T, T_inv):
    """T·Z·T⁻¹ for integer matrices."""
    return ref.mat_mul(ref.mat_mul(T, Z), T_inv)


def _bracket_breaking(Z, den):
    """Piece 0 with two basis vectors of its block swapped: an orthogonal
    conjugate, so its square, skewness and products with piece 1 stay, but
    it no longer commutes with ad: on h3c, [E1, E3] = E5 and [E3, E4] = 0."""
    b = [r for r in range(len(Z[0])) if any(Z[0][r])]
    Q = [[int(c == (b[2] if r == b[0] else b[0] if r == b[2] else r)) for c in range(len(Z[0]))]
         for r in range(len(Z[0]))]
    return [_conjugated(Z[0], Q, Q), Z[1]], den


def _skew_breaking(Z, den):
    """Piece 0 conjugated by T = I + N, N mapping E1 to the central E5 of its
    block: N is a centroid element with N² = 0 that does not commute with
    piece 0, so T·K·T⁻¹ stays bi-invariant with the same square and products
    with piece 1, but is no longer skew for the standard metric."""
    n, b = len(Z[0]), [r for r in range(len(Z[0])) if any(Z[0][r])]
    N = [[int((r, c) == (b[4], b[0])) for c in range(n)] for r in range(n)]
    T = [[int(r == c) + N[r][c] for c in range(n)] for r in range(n)]
    T_inv = [[int(r == c) - N[r][c] for c in range(n)] for r in range(n)]
    return [_conjugated(Z[0], T, T_inv), Z[1]], den


@pytest.mark.parametrize("mutate, message", [
    (lambda Z, den: ([[[2 * x for x in row] for row in Z[0]], Z[1]], den), "squares of the pieces"),
    # K0' = (3K0 + 5K1)/5, K1' = 4K0/5: K0'² + K1'² = −I, K0'K1' + K1'K0' = −(24/25)·P0
    (lambda Z, den: ([[[3 * x + 5 * y for x, y in zip(u, v)] for u, v in zip(Z[0], Z[1])],
                      [[4 * x for x in row] for row in Z[0]]], 5 * den), "pieces 0 and 1 do not anticommute"),
    (_bracket_breaking, r"piece 0 .* bracket [1-9].*, skew 0$"),
    (_skew_breaking, r"piece 0 .* bracket 0, skew [1-9]"),
], ids=["square", "anticommutator", "bracket", "skew"])
def test_piece_certificate_refuses_broken_pieces(mutate, message):
    """Each case breaks one condition of the piece certificate and keeps the
    others, so it is caught by that check alone."""
    with pytest.raises(InternalAssertionFailure, match=message):
        _mutated_pieces(mutate)
