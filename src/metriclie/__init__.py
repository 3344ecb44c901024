"""Orthogonal decompositions and bi-invariant complex structures of metric
Lie algebras, with an exact rational arithmetic core.

The public names load their submodule on first use (PEP 562), so
``import metriclie`` runs no computational code and a CLI command loads
only the submodules it calls.
"""

import sys as _sys

# public name -> the submodule that defines it; a submodule maps to itself
_EXPORTS = {
    **dict.fromkeys((
        "EXACT", "NUMERIC", "DEFAULT_TOL", "LieAlgebra", "Metric", "MetricLieAlgebra",
        "Subspace", "bracket", "center", "check_jacobi", "derived_subalgebra", "direct_sum",
        "has_abelian_factor", "make_algebra", "restrict", "to_numeric",
    ), "core"),
    **dict.fromkeys((
        "Decomposition", "Factor", "OperatorSubspace", "decompose", "is_irreducible",
        "is_orthogonal_projection", "skew_centroid", "split_by_projection",
        "symmetric_centroid",
    ), "centroid"),
    **dict.fromkeys((
        "ComplexStructure", "ComplexifiedAlgebra", "HermitianValue", "commute_check",
        "complexify", "enumerate_complex_structures", "eigensplit", "extend_operator",
        "hermitian_form", "hermitian_form_complexified", "jlambda",
        "verify_complex_structure", "verify_doubling_isometry",
    ), "complexstruct"),
    **dict.fromkeys((
        "BlockSpec", "jcount_experiment", "make_irreducible_metric",
        "make_metric_with_factor_count", "metric_scan", "random_gram",
    ), "lab"),
    **dict.fromkeys(("parse_document", "render_document"), "docio"),
    **dict.fromkeys(("example_description", "example_keys", "get_example"), "examples"),
    **{mod: mod for mod in (
        "centroid", "complexstruct", "core", "docio", "errors", "examples", "lab", "linalg")},
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    mod = _EXPORTS.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    qualname = f"{__name__}.{mod}"
    __import__(qualname)  # not importlib.import_module, which -X importtime does not list
    module = _sys.modules[qualname]
    value = module if name == mod else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
