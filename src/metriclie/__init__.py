"""Orthogonal decompositions and bi-invariant complex structures of metric
Lie algebras, with an exact rational arithmetic core."""

from .core import (
    EXACT,
    NUMERIC,
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
    has_abelian_factor,
    make_algebra,
    restrict,
    to_numeric,
)
from .centroid import (
    Decomposition,
    Factor,
    OperatorSubspace,
    decompose,
    is_irreducible,
    is_orthogonal_projection,
    skew_centroid,
    split_by_projection,
    symmetric_centroid,
)
from .complexstruct import (
    ComplexStructure,
    ComplexifiedAlgebra,
    HermitianValue,
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
from .lab import (
    BlockSpec,
    jcount_experiment,
    make_irreducible_metric,
    make_metric_with_factor_count,
    metric_scan,
    random_gram,
)
from .docio import parse_document, render_document
from .examples import example_description, example_keys, get_example
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
