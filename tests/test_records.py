"""The frozen records: every class built on ``core._Record`` refuses
assignment, compares and hashes as the tuple of its fields within its own
class, prints as ``Name(field=value, ...)``, and takes positional, keyword
and default arguments."""

from fractions import Fraction as F

import pytest

from metriclie import centroid, complexstruct, core, lab, linalg
from metriclie.core import JacobiReport, LieAlgebra, Metric, Subspace, make_algebra, restrict
from metriclie.examples import get_example


def _instances():
    """One instance of every record class, from real computations."""
    h3, h3c, h3h3 = get_example("h3"), get_example("h3c"), get_example("h3h3")
    dec = centroid.decompose(h3h3)
    J = complexstruct.enumerate_complex_structures(h3c)[0]
    e1, e2 = [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]
    scan = lab.metric_scan(h3c, 2)
    return {
        core.Subspace: core.center(h3),
        core.LieAlgebra: h3.algebra,
        core.Metric: h3.metric,
        core.MetricLieAlgebra: h3,
        core.JacobiReport: core.check_jacobi(h3),
        centroid.OperatorSubspace: centroid.centroid(h3),
        centroid.ProjectionCertificate: centroid.is_orthogonal_projection(h3h3, dec.factors[0].projection),
        centroid.Factor: dec.factors[0],
        centroid.Decomposition: dec,
        complexstruct.ComplexStructureCertificate: J.certificate,
        complexstruct.ComplexStructure: J,
        complexstruct.HermitianValue: complexstruct.hermitian_form(h3c, J.J, e1, e2),
        complexstruct.ComplexifiedAlgebra: complexstruct.complexify(h3),
        complexstruct.DoublingCertificate: complexstruct.verify_doubling_isometry(h3c, J.J),
        complexstruct.CommuteReport: complexstruct.commute_check(h3c, J.J, J.J),
        lab.BlockSpec: lab.BlockSpec((h3, h3), 1),
        lab.JCountReport: lab.jcount_experiment(lab.BlockSpec((h3c,), 0), 1),
        lab.ScanTrial: scan.trials[0],
        lab.ScanReport: scan,
    }


INSTANCES = _instances()


def _fields(r):
    return tuple(getattr(r, f) for f in type(r)._fields)


def test_every_record_class_is_covered():
    assert set(INSTANCES) == set(core._Record.__subclasses__())
    assert all(type(r) is cls for cls, r in INSTANCES.items())


@pytest.mark.parametrize("r", INSTANCES.values(), ids=lambda r: type(r).__name__)
def test_fields_refuse_assignment_and_deletion(r):
    before = _fields(r)
    for f in type(r)._fields + ("not_a_field",):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(r, f, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(r, f)
    assert _fields(r) == before


@pytest.mark.parametrize("r", INSTANCES.values(), ids=lambda r: type(r).__name__)
def test_equal_fields_give_equal_records_and_hashes(r):
    values = _fields(r)
    twin = type(r)(*values)
    assert twin == r and not twin != r and twin is not r
    assert repr(twin) == repr(r)
    try:
        h = hash(values)
    except TypeError:  # a dict field (a certificate, a histogram) makes the record unhashable too
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == hash(twin) == h


@pytest.mark.parametrize("r", INSTANCES.values(), ids=lambda r: type(r).__name__)
def test_a_record_equals_neither_a_tuple_nor_another_class(r):
    values = _fields(r)
    assert r != values and r.__eq__(values) is NotImplemented
    assert r != list(values)


def test_records_of_two_classes_with_the_same_values_differ():
    cert = centroid.ProjectionCertificate(0, 0, 0, True)
    other = complexstruct.ComplexStructureCertificate(0, 0, 0, True)
    assert cert != other and other != cert
    assert cert.__eq__(other) is NotImplemented
    assert cert == centroid.ProjectionCertificate(0, 0, 0, True)
    assert cert != centroid.ProjectionCertificate(0, 0, 1, True)


def test_repr_literals():
    assert repr(JacobiReport(max_residual=0, worst_triple=None, passed=True)) == \
        "JacobiReport(max_residual=0, worst_triple=None, passed=True)"
    assert repr(Metric(((F(1),),))) == "Metric(gram=((Fraction(1, 1),),))"
    assert repr(complexstruct.HermitianValue(F(1, 2), 0.5)) == "HermitianValue(re=Fraction(1, 2), im=0.5)"
    assert repr(lab.ScanReport((), 3, {})) == "ScanReport(trials=(), skipped=3, histogram={})"
    assert repr(LieAlgebra(2, ())) == "LieAlgebra(dim=2, structure=(), basis_labels=('X1', 'X2'), tol=0.0)"


def test_defaults_and_keywords():
    J = INSTANCES[complexstruct.ComplexStructure]
    s = complexstruct.ComplexStructure(J.J, J.certificate)
    assert s.backend == "exact" and s.signs == ()
    assert complexstruct.ComplexStructure(signs=(1,), certificate=J.certificate, J=J.J).signs == (1,)
    assert complexstruct.ComplexStructure(J.J, J.certificate, backend="numeric").backend == "numeric"
    assert Subspace(2, (), tol=1e-9) == Subspace(2, (), 1e-9) == Subspace(basis=(), ambient_dim=2, tol=1e-9)
    assert lab.BlockSpec(blocks=()).seed == 0
    assert Subspace._fields == ("ambient_dim", "basis", "tol") and Subspace._defaults == {"tol": 0.0}


@pytest.mark.parametrize("args, kwargs", [
    ((0, None), {}),
    ((0,), {"passed": True}),
    ((0, None, True, 1), {}),
    ((0, None, True), {"extra": 1}),
    ((0, None, True), {"passed": True}),
], ids=["missing", "missing-with-keyword", "too-many", "unknown", "given-twice"])
def test_a_missing_or_unknown_field_raises(args, kwargs):
    with pytest.raises(TypeError):
        JacobiReport(*args, **kwargs)


def test_post_init_sets_fields_through_object_setattr():
    A = make_algebra(3, {(0, 1): [(2, 1)]}, gram=[[2, 0, 0], [0, 1, 0], [0, 0, 1]], check=False)
    assert A.algebra.basis_labels == ("X1", "X2", "X3")
    assert type(A.algebra.structure[0][1][0][1]) is F
    assert all(type(x) is F for row in A.gram for x in row)


def test_cached_properties_fill_and_restrict_hands_them_over():
    """cached_property writes the instance ``__dict__``, which the records
    keep; the caches take no part in equality, hashing or repr, and
    ``restrict`` on the standard basis hands the filled ones over."""
    A = make_algebra(3, {(0, 1): [(2, 1)]})
    fresh = make_algebra(3, {(0, 1): [(2, 1)]})
    assert "_centroid_basis" not in A.algebra.__dict__
    basis = A.algebra._centroid_basis
    assert A.algebra.__dict__["_centroid_basis"] is basis
    assert A == fresh and hash(A.algebra) == hash(fresh.algebra) and repr(A) == repr(fresh)
    B = restrict(A, Subspace(3, linalg.identity(3)))
    assert B.algebra.__dict__["_centroid_basis"] is basis
    assert B.algebra._ad_matrices is A.algebra._ad_matrices
