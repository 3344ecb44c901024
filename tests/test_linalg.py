from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from fraction_reference import exact_rref
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
    assert linalg.leading_principal_minors(A)[-1] == F(5)
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
    sparse = linalg.canonical_rows(linalg._int_nullspace(sparse_eqs, 4), 4)
    assert dense == sparse


def _unit_nullspace(rows, ncols):
    """The integer kernel vectors of ``linalg._int_nullspace`` as Fractions,
    each divided by its entry at its free column, its last nonzero one."""
    return [tuple(F(v, next(v for v in reversed(x) if v)) for v in x)
            for x in linalg._int_nullspace(rows, ncols)]


def _canonical_nullspace(rows, ncols):
    """``linalg._int_canonical_nullspace`` as dense Fraction rows."""
    return linalg._fraction_rows(*linalg._int_canonical_nullspace(rows, ncols), ncols)


def test_minimal_polynomial_annihilates():
    M = linalg.mat([[F(1), F(2), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(2)]])
    coeffs = linalg.minimal_polynomial(M)
    value = linalg.zeros(3, 3)  # Horner: value = value·M + c, top coefficient first
    for c in reversed(coeffs):
        value = linalg.mat_add(linalg.mat_mul(value, M), linalg.mat_scale(c, linalg.identity(3)))
    assert linalg.max_abs(value) == 0


# ---------------------------------------------------------------------------
# The integer kernels against the Fraction code they replaced.
# ---------------------------------------------------------------------------

def _typed(M):
    """The entries of a matrix with their types, so that 2 and F(2) differ."""
    return [[(type(x), x) for x in row] for row in M]


@st.composite
def rationals(draw, bits):
    """A Fraction with numerator and denominator of up to ``bits`` bits; a
    third of the draws are zero."""
    if draw(st.integers(0, 2)) == 0:
        return F(0)
    return F(draw(st.integers(-(2 ** bits), 2 ** bits)), draw(st.integers(1, 2 ** bits)))


ENTRY_KINDS = {
    "small": rationals(4),
    "huge": rationals(80),
    "int": st.integers(-(2 ** 80), 2 ** 80) | st.just(0),
}


@st.composite
def exact_matrix(draw, nrows, ncols, kind):
    """An nrows x ncols matrix of one entry kind, with some rows zero."""
    rows = []
    for _ in range(nrows):
        row = tuple(draw(ENTRY_KINDS[kind]) for _ in range(ncols))
        rows.append(tuple(x * 0 for x in row) if draw(st.integers(0, 4)) == 0 else row)
    return tuple(rows)


@st.composite
def mat_mul_operands(draw):
    n, k, m = (draw(st.integers(0, 5)) for _ in range(3))
    kind = draw(st.sampled_from(sorted(ENTRY_KINDS)))
    A = draw(exact_matrix(n, k, kind))
    B = draw(exact_matrix(k, m, kind))
    if draw(st.booleans()):  # ints among the Fractions of A
        A = tuple(tuple(int(x) if x.denominator == 1 and draw(st.booleans()) else x for x in row)
                  for row in A)
    return A, B


@settings(max_examples=200, deadline=None)
@given(mat_mul_operands())
@example((((1, 2), (0, 0)), ((3, 0), (4, 0))))  # int operands give a product of Fractions
def test_mat_mul_equals_the_fraction_reference(operands):
    """Exact products are Fractions, ints among the operands included; the
    reference is given the operands as Fractions.  An empty inner dimension
    leaves B, and so the product's rows, empty: no sum of no terms is formed."""
    A, B = operands
    got = linalg.mat_mul(A, B)
    assert isinstance(got, tuple) and all(isinstance(row, tuple) for row in got)
    assert _typed(got) == _typed(ref.mat_mul(ref.fractions(A), ref.fractions(B)))
    assert all(type(x) is F for row in got for x in row)


@settings(max_examples=50, deadline=None)
@given(mat_mul_operands(), st.data())
def test_mat_mul_with_a_float_operand_takes_the_float_path(operands, data):
    A, B = operands
    if not A or not A[0]:
        A = ((F(1, 3),),)
        B = ((F(2, 7), F(0)),)
    i = data.draw(st.integers(0, len(A) - 1))
    j = data.draw(st.integers(0, len(A[0]) - 1))
    A = tuple(tuple(float(x) if (r, c) == (i, j) else x for c, x in enumerate(row))
              for r, row in enumerate(A))
    for X, Y in ((A, B), (linalg.transpose(B), linalg.transpose(A))):
        assert _typed(linalg.mat_mul(X, Y)) == _typed(ref.mat_mul(X, Y))


def _hexed(M):
    """The entries of a float matrix as (type, float.hex), so that 0.0 and
    −0.0, and 0.0 and 0, differ."""
    return [[(type(x), x.hex() if type(x) is float else x) for x in row] for row in M]


FLOAT_ENTRIES = (st.sampled_from([0.0, -0.0]) | st.sampled_from([0.0, -0.0])
                 | st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 0.1, 1e16, -1e16])
                 | st.floats(-1e3, 1e3))


@st.composite
def float_operands(draw):
    """All-float A (n × k) and B (k × m), about half of their entries ±0.0,
    with subnormals among the rest; a B whose second row is minus its first
    and an A whose second column is its first give products that cancel in
    pairs.  Empty and 1 × 0 shapes are among them."""
    n, k, m = draw(st.sampled_from([(0, 0, 0), (1, 0, 3), (0, 2, 2), (2, 1, 0)])
                   | st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)))
    A = [[draw(FLOAT_ENTRIES) for _ in range(k)] for _ in range(n)]
    B = [[draw(FLOAT_ENTRIES) for _ in range(m)] for _ in range(k)]
    if k >= 2 and draw(st.booleans()):
        B[1] = [-x for x in B[0]]
        for row in A:
            row[1] = row[0]
    return linalg.mat(A), linalg.mat(B)


@settings(max_examples=300, deadline=None)
@given(float_operands())
@example((((0.0, -0.0),), ((-0.0,), (-0.0,))))  # no nonzero product: 0.0, not 0 or −0.0
@example((((1.0, 1.0, 1e-300),), ((1e16,), (-1e16,), (1e-300,))))  # a cancelled pair, then an underflow
def test_float_mat_mul_equals_the_dense_sums(operands):
    """A product of float operands, summed over A's nonzero entries only,
    is the dense formula sum(a·b for a, b in zip(row, col)) entry for entry,
    bit for bit and a float, in both orders of the operands."""
    A, B = operands
    for X, Y in ((A, B), (linalg.transpose(B), linalg.transpose(A))):
        assert _hexed(linalg.mat_mul(X, Y)) == _hexed(ref.mat_mul(X, Y))


@settings(max_examples=200, deadline=None)
@given(float_operands())
def test_max_abs_is_the_first_largest_entry(operands):
    """max_abs is the largest |entry| met first in row-major order, and the
    int 0 for a zero matrix, as the loop over the entries gives it."""
    for M in operands:
        m = 0
        for row in M:
            for x in row:
                if abs(x) > m:
                    m = abs(x)
        assert _hexed([[linalg.max_abs(M)]]) == _hexed([[m]])


@pytest.mark.parametrize("M", [((float("nan"),),), ((1.0, float("nan")), (2.0, -3.0)),
                               ((F(1), 0), (float("nan"), F(-5))), ((0.0, 0.0), (0.0, float("nan")))])
def test_max_abs_of_a_nan_entry_is_nan(M):
    """A NaN entry anywhere makes max_abs NaN, so that no certificate reads it as zero."""
    m = linalg.max_abs(M)
    assert m != m and not linalg.is_zero(m, 1e-9) and not linalg.is_zero(m)


@st.composite
def rref_input(draw):
    n, m = draw(st.integers(0, 6)), draw(st.integers(1, 7))
    A = draw(exact_matrix(n, m, draw(st.sampled_from(sorted(ENTRY_KINDS)))))
    if draw(st.booleans()) and n:  # a combination of the rows above
        A += (tuple(sum(c * row[j] for c, row in enumerate(A, 1)) for j in range(m)),)
    return A


@settings(max_examples=200, deadline=None)
@given(rref_input())
def test_rref_equals_the_fraction_reference(A):
    """Exact rows reduce to the same Fractions and pivots as the reference.
    The reference divides with /, which turns int rows into floats, so it is
    given the rows as Fractions; rref itself returns Fractions for both."""
    got, pivots = linalg.rref(A)
    ref, ref_pivots = exact_rref(tuple(tuple(F(x) for x in row) for row in A))
    assert pivots == ref_pivots
    assert _typed(got) == _typed(ref)
    if A:  # _int_nullspace back-substitutes with the same integer core
        ncols = len(A[0])
        sparse = [{c: v for c, v in enumerate(row) if v} for row in A]
        expected = linalg._nullspace_from_rref(ref, ref_pivots, ncols)
        assert _typed(_unit_nullspace(sparse, ncols)) == _typed(expected)
        # one reduction of its integer vectors gives the canonical basis
        assert _typed(_canonical_nullspace(sparse, ncols)) == \
            _typed(linalg.canonical_rows(expected, ncols))


@settings(max_examples=50, deadline=None)
@given(rref_input(), st.data())
def test_float_rows_at_tol_zero_raise_type_error(A, data):
    """Exact elimination takes no floats: one nonzero float among exact
    entries, or all entries floats, makes rref, nullspace, solve,
    canonical_rows, rank and leading_principal_minors raise TypeError at
    tol == 0, and so does a float right-hand side of solve."""
    if not A:
        A = ((F(1, 3), F(0)),)
    i = data.draw(st.integers(0, len(A) - 1))
    j = data.draw(st.integers(0, len(A[0]) - 1))
    all_float = data.draw(st.booleans())
    exact_A = A
    A = tuple(tuple(float(x or 1) if (r, c) == (i, j) else float(x) if all_float else x
                    for c, x in enumerate(row)) for r, row in enumerate(A))
    zero_b = (F(0),) * len(A)
    calls = (
        lambda: linalg.rref(A),
        lambda: linalg.nullspace(A),
        lambda: linalg.solve(A, zero_b),
        lambda: linalg.solve(exact_A, (0.5,) * len(A)),
        lambda: linalg.canonical_rows(A, len(A[0])),
        lambda: linalg.rank(A),
        lambda: linalg.leading_principal_minors(A),
    )
    for call in calls:
        with pytest.raises(TypeError):
            call()


@settings(max_examples=200, deadline=None)
@given(rref_input())
def test_rank_is_the_number_of_reference_pivots(A):
    """Exact rank counts the pivots of the forward elimination alone."""
    assert linalg.rank(A) == len(exact_rref(tuple(tuple(F(x) for x in row) for row in A))[0])


@st.composite
def gram_input(draw):
    """A square matrix of one entry kind: Bᵀ·B (positive semidefinite, and
    singular when B has a zero row), Bᵀ·B + I (positive definite), or the
    symmetric matrix with the upper triangle of B (indefinite as a rule)."""
    n = draw(st.integers(0, 6))
    B = draw(exact_matrix(n, n, draw(st.sampled_from(sorted(ENTRY_KINDS)))))
    shape = draw(st.sampled_from(["BtB", "BtB+I", "symmetric"]))
    if shape == "symmetric":
        return tuple(tuple(B[min(i, j)][max(i, j)] for j in range(n)) for i in range(n))
    G = ref.mat_mul(linalg.transpose(B), B)
    if shape == "BtB+I":
        G = tuple(tuple(x + (i == j) for j, x in enumerate(row)) for i, row in enumerate(G))
    return G


@settings(max_examples=300, deadline=None)
@given(gram_input())
def test_leading_principal_minors_equal_the_fraction_reference(G):
    """Bareiss's integer elimination gives the minors of the Gaussian
    elimination in Fractions, value and type, up to and including the zero
    minor that ends the list at the first zero pivot."""
    assert repr(linalg.leading_principal_minors(G)) == repr(ref.leading_principal_minors(G))


# ---------------------------------------------------------------------------
# The sparse integer kernel against the dense back-substitution it replaced.
# ---------------------------------------------------------------------------

SPARSE_VALUES = {
    "int": st.integers(-9, 9),
    "fraction": st.fractions(min_value=-9, max_value=9, max_denominator=12),
    "huge": st.builds(F, st.integers(-(2 ** 70), 2 ** 70), st.integers(1, 2 ** 70)),
}
SPARSE_VALUES["mixed"] = SPARSE_VALUES["int"] | SPARSE_VALUES["fraction"] | SPARSE_VALUES["huge"]


@st.composite
def sparse_system(draw):
    """(rows, ncols): sparse rows {col: coeff} of ints, Fractions (up to
    70-bit denominators) or both, some with a single entry and some with
    zero coefficients only; "full-rank" adds a triangular block of rank
    ncols, "all-zero" has no nonzero coefficient at all."""
    ncols = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["sparse", "single", "full-rank", "all-zero"]))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        values = SPARSE_VALUES[draw(st.sampled_from(sorted(SPARSE_VALUES)))]
        size = 1 if shape == "single" else draw(st.integers(1, min(ncols, 4)))
        cols = draw(st.lists(st.integers(0, ncols - 1), min_size=size, max_size=size, unique=True))
        rows.append({c: 0 if shape == "all-zero" else draw(values) for c in cols})
    if shape == "full-rank":
        for c in range(ncols):
            later = draw(st.lists(st.integers(c + 1, ncols), max_size=2, unique=True))
            rows.append({c: draw(st.integers(1, 5)), **{d: draw(SPARSE_VALUES["mixed"])
                                                         for d in later if d < ncols}})
    return draw(st.permutations(rows)), ncols


@settings(max_examples=300, deadline=None)
@given(sparse_system())
def test_int_nullspace_equals_the_dense_back_substitution(system):
    """The same integer vectors as the dense Gauss-Jordan over all columns,
    ints throughout, and the same canonical basis in Fractions."""
    rows, ncols = system
    got = linalg._int_nullspace(rows, ncols)
    assert got == ref.int_nullspace(rows, ncols)
    assert all(type(x) is int for x in sum(got, []))
    for x in got:
        assert all(sum(v * x[c] for c, v in row.items()) == 0 for row in rows)
    canonical = _canonical_nullspace(rows, ncols)
    assert _typed(canonical) == _typed(ref.canonical_nullspace(rows, ncols))
    assert all(isinstance(row, tuple) for row in canonical)
    dense = tuple(tuple(F(row.get(c, 0)) for c in range(ncols)) for row in rows)
    expected = linalg._nullspace_from_rref(*exact_rref(dense), ncols)
    assert _typed(_unit_nullspace(rows, ncols)) == _typed(expected)


def test_int_nullspace_of_a_full_rank_system_is_empty():
    rows = [{0: 2, 3: F(1, 3)}, {1: F(-5, 7)}, {2: 1, 1: 4}, {3: 9}, {0: 1, 1: 1, 2: 1, 3: 1}]
    assert linalg._int_nullspace(rows, 4) == []
    assert linalg._int_canonical_nullspace(rows, 4) == ([], 1)


# ---------------------------------------------------------------------------
# The float elimination against the list loop over Python floats it replaced.
# ---------------------------------------------------------------------------

TOL = 1e-9
FLOAT_VALUES = (st.sampled_from([0.0, -0.0, TOL, -TOL, 1.0, -1.0, 2.0, -2.0, 0.5])
                | st.floats(-2 * TOL, 2 * TOL) | st.floats(-4, 4))


@st.composite
def float_system(draw):
    """(rows, ncols): float rows with entries at exactly ±tol, ±0.0, ties in
    magnitude (±1, ±2) and some all-zero columns; empty, one row, square,
    tall or wide."""
    k = draw(st.integers(1, 4))
    nrows, ncols = draw(st.sampled_from([(0, k), (1, k), (k, k), (3 * k, k), (k, 3 * k)]))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols // 2))
    zero = st.sampled_from([0.0, -0.0, TOL, -TOL / 2])
    rows = tuple(tuple(draw(zero if c in zero_cols else FLOAT_VALUES) for c in range(ncols))
                 for _ in range(nrows))
    return rows, ncols


def _float_kernel_matches(rows, ncols):
    """rref, nullspace, canonical_rows, solve (the last column as the right
    side) and nullspace_sparse give the reference's output, by repr."""
    assert repr(linalg.rref(rows, TOL)) == repr(ref.float_rref(rows, TOL))
    assert repr(linalg.nullspace(rows, TOL)) == repr(ref.float_nullspace(rows, TOL))
    assert repr(linalg.canonical_rows(rows, ncols, TOL)) == repr(ref.float_canonical_rows(rows, TOL))
    A, b = tuple(row[:-1] for row in rows), tuple(row[-1] for row in rows)
    assert repr(linalg.solve(A, b, TOL)) == repr(ref.float_solve(A, b, TOL))
    sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
    assert repr(linalg.nullspace_sparse(sparse, ncols, TOL)) == \
        repr(ref.float_nullspace_sparse(sparse, ncols, TOL))


@settings(max_examples=400, deadline=None)
@given(float_system())
def test_float_elimination_equals_the_list_loop(system):
    _float_kernel_matches(*system)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([(352, 144), (40, 200)]), st.integers(0, 2 ** 32), st.integers(2, 5))
@example((352, 144), 1, 3)
def test_float_elimination_equals_the_list_loop_on_commutant_sized_systems(shape, seed, per_row):
    """Tall 352 x 144 systems with a few nonzero entries per row, like the
    float commutant of a 12-dimensional algebra, and wide ones; their values
    hold ±1 and ±2 ties, entries at ±tol and dense floats.  The example is a
    system whose all-within-tol rows, if ``canonical_rows`` did not drop them
    first, would change a pivot choice in ``_float_rref`` and so the last bits
    of row 29."""
    import random

    rng = random.Random(seed)
    nrows, ncols = shape
    values = [1.0, -1.0, 2.0, -2.0, TOL, -TOL, -0.0]
    rows = []
    for _ in range(nrows):
        row = [0.0] * ncols
        for c in rng.sample(range(ncols), per_row):
            row[c] = rng.choice(values) if rng.random() < 0.7 else rng.uniform(-3, 3)
        rows.append(tuple(row))
    _float_kernel_matches(tuple(rows), ncols)


@st.composite
def sparse_float_system(draw):
    """(rows, ncols): sparse float rows {col: value} that hold explicit 0.0,
    -0.0 and ±tol entries among ties in magnitude and other floats; some
    rows have every entry within tol, and some none."""
    ncols = draw(st.integers(1, 8))
    small = st.sampled_from([0.0, -0.0, TOL, -TOL, TOL / 2]) | st.floats(-TOL, TOL)
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        cols = draw(st.lists(st.integers(0, ncols - 1), unique=True, max_size=ncols))
        values = small if draw(st.integers(0, 3)) == 0 else FLOAT_VALUES
        rows.append({c: draw(values) for c in cols})
    return rows, ncols


@settings(max_examples=400, deadline=None)
@given(sparse_float_system())
# a tie at column 2, between rows 1 and 0, goes to row 1, which stands first
# after the pivot of column 1 swapped row 0 from the top to the bottom
@example(([{0: TOL, 1: TOL, 2: 0.5}, {2: 0.5}, {1: 2.0}], 3))
def test_sparse_float_nullspace_equals_the_list_loop(system):
    """nullspace_sparse reduces the sparse rows as they are given, explicit
    zeros and entries within tol included, to the reference's output by repr."""
    rows, ncols = system
    assert repr(linalg.nullspace_sparse(rows, ncols, TOL)) == \
        repr(ref.float_nullspace_sparse(rows, ncols, TOL))
