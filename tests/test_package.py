"""The package's public surface: the names ``metriclie`` exports, loaded
from their submodules on first use."""

import importlib
import os
import subprocess
import sys
import types

import pytest

import metriclie

# submodule -> the public names it defines, as exported before the exports
# became lazy; each submodule is exported under its own name too
EXPORTS = {
    "core": ["DEFAULT_TOL", "EXACT", "LieAlgebra", "Metric", "MetricLieAlgebra", "NUMERIC",
             "Subspace", "bracket", "center", "check_jacobi", "derived_subalgebra",
             "direct_sum", "has_abelian_factor", "make_algebra", "restrict", "to_numeric"],
    "centroid": ["Decomposition", "Factor", "OperatorSubspace", "decompose", "is_irreducible",
                 "is_orthogonal_projection", "skew_centroid", "split_by_projection",
                 "symmetric_centroid"],
    "complexstruct": ["ComplexStructure", "ComplexifiedAlgebra", "HermitianValue",
                      "commute_check", "complexify", "eigensplit",
                      "enumerate_complex_structures", "extend_operator", "hermitian_form",
                      "hermitian_form_complexified", "jlambda", "verify_complex_structure",
                      "verify_doubling_isometry"],
    "lab": ["BlockSpec", "jcount_experiment", "make_irreducible_metric",
            "make_metric_with_factor_count", "metric_scan", "random_gram"],
    "docio": ["parse_document", "render_document"],
    "examples": ["example_description", "example_keys", "get_example"],
    "errors": [],
    "linalg": [],
}

ALL = ["BlockSpec", "ComplexStructure", "ComplexifiedAlgebra", "DEFAULT_TOL", "Decomposition",
       "EXACT", "Factor", "HermitianValue", "LieAlgebra", "Metric", "MetricLieAlgebra",
       "NUMERIC", "OperatorSubspace", "Subspace", "bracket", "center", "centroid",
       "check_jacobi", "commute_check", "complexify", "complexstruct", "core", "decompose",
       "derived_subalgebra", "direct_sum", "docio", "eigensplit",
       "enumerate_complex_structures", "errors", "example_description", "example_keys",
       "examples", "extend_operator", "get_example", "has_abelian_factor", "hermitian_form",
       "hermitian_form_complexified", "is_irreducible", "is_orthogonal_projection",
       "jcount_experiment", "jlambda", "lab", "linalg", "make_algebra",
       "make_irreducible_metric", "make_metric_with_factor_count", "metric_scan",
       "parse_document", "random_gram", "render_document", "restrict", "skew_centroid",
       "split_by_projection", "symmetric_centroid", "to_numeric", "verify_complex_structure",
       "verify_doubling_isometry"]


def test_all_is_the_57_names_it_always_was():
    assert len(ALL) == 57
    assert metriclie.__all__ == ALL
    assert sorted([*EXPORTS, *(n for names in EXPORTS.values() for n in names)]) == ALL


@pytest.mark.parametrize("mod", sorted(EXPORTS))
def test_each_name_is_its_submodules_object(mod):
    module = importlib.import_module(f"metriclie.{mod}")
    assert getattr(metriclie, mod) is module
    for name in EXPORTS[mod]:
        assert getattr(metriclie, name) is getattr(module, name), name
        assert vars(metriclie)[name] is getattr(module, name), name


def test_star_import_and_dir_cover_all():
    ns = {}
    exec("from metriclie import *", ns)
    assert sorted(n for n in ns if n != "__builtins__") == ALL
    assert set(ALL) <= set(dir(metriclie))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        metriclie.no_such_name


def test_centroid_is_the_submodule():
    """As the README says, ``metriclie.centroid`` is the submodule; the
    function of that name is ``metriclie.centroid.centroid``."""
    assert isinstance(metriclie.centroid, types.ModuleType)
    assert callable(metriclie.centroid.centroid)


def _fresh(code):
    src = os.path.dirname(os.path.dirname(metriclie.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code += "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'metriclie'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout.strip().splitlines()


def test_bare_import_loads_no_submodule():
    assert _fresh("import sys, metriclie") == ["['metriclie']"]


def test_first_use_loads_the_defining_submodule_and_caches_the_name():
    lines = _fresh("import sys, metriclie\n"
                   "print('decompose' in vars(metriclie), 'centroid' in vars(metriclie))\n"
                   "d = metriclie.decompose\n"
                   "print(vars(metriclie)['decompose'] is d is metriclie.centroid.decompose)")
    assert lines == ["False False", "True",
                     "['metriclie', 'metriclie.centroid', 'metriclie.core', "
                     "'metriclie.errors', 'metriclie.linalg']"]
