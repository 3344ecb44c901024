import json

import pytest

from metriclie.cli import main
from metriclie.docio import dumps, render_document
from metriclie.examples import example_keys, get_example


@pytest.fixture
def algfile(tmp_path):
    def write(key_or_doc, name="input.alg"):
        doc = (render_document(get_example(key_or_doc))
               if isinstance(key_or_doc, str) else key_or_doc)
        path = tmp_path / name
        path.write_text(dumps(doc) if isinstance(doc, dict) else doc)
        return str(path)

    return write


def test_examples_list(capsys):
    assert main(["examples", "list"]) == 0
    out = capsys.readouterr().out
    for key in example_keys():
        assert key in out


def test_examples_list_structured(capsys):
    assert main(["--format", "structured", "examples", "list"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert sorted(e["key"] for e in doc["examples"]) == example_keys()


def test_examples_show_ex48(capsys):
    assert main(["examples", "show", "ex48"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # [X1,X3] = X5, [X1,X4] = X6, [X2,X3] = X6, [X2,X4] = -X5
    table = {(e["i"], e["j"]): e["terms"] for e in doc["brackets"]}
    assert table[(1, 3)] == [{"k": 5, "c": "1"}]
    assert table[(1, 4)] == [{"k": 6, "c": "1"}]
    assert table[(2, 3)] == [{"k": 6, "c": "1"}]
    assert table[(2, 4)] == [{"k": 5, "c": "-1"}]


def test_examples_show_irreducible_metric_gram(capsys):
    assert main(["examples", "show", "h3h3-paper-metric"]) == 0
    doc = json.loads(capsys.readouterr().out)
    G = doc["gram"]
    assert [G[4][4], G[4][5], G[5][4], G[5][5]] == ["1", "1", "1", "2"]


def test_examples_show_unknown(capsys):
    assert main(["examples", "show", "nosuch"]) == 1


def test_check_ok(algfile, capsys):
    assert main(["check", algfile("h3")]) == 0
    assert "all axioms pass" in capsys.readouterr().out


def test_check_parse_failure(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 1
    assert "parse error" in capsys.readouterr().err


def test_numeric_backend_with_zero_tol_is_a_parse_error(algfile, capsys):
    assert main(["--backend", "numeric", "--tol", "0", "decompose", algfile("h3c")]) == 1
    assert "parse error" in capsys.readouterr().err


def test_check_jacobi_failure(algfile, capsys):
    doc = {
        "dim": 3,
        "brackets": [
            {"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}, {"k": 1, "c": "1"}]},
            {"i": 2, "j": 3, "terms": [{"k": 1, "c": "1"}]},
            {"i": 1, "j": 3, "terms": [{"k": 2, "c": "-1"}]},
        ],
    }
    assert main(["check", algfile(doc)]) == 2
    assert "jacobi" in capsys.readouterr().err


def test_check_metric_failure(algfile, capsys):
    doc = {"dim": 2, "brackets": [], "gram": [["1", "2"], ["2", "1"]]}
    assert main(["check", algfile(doc)]) == 2


def test_decompose_text(algfile, capsys):
    assert main(["decompose", algfile("h3h3")]) == 0
    assert "k = 2" in capsys.readouterr().out


def test_decompose_structured(algfile, capsys):
    assert main(["--format", "structured", "decompose", algfile("h3h3-paper-metric")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["decomposition"]["k"] == 1
    assert doc["decomposition"]["backend"] == "exact"
    assert doc["decomposition"]["flags"]["seed"] == 0
    assert len(doc["decomposition"]["factors"]) == 1
    assert doc["decomposition"]["factors"][0]["dim"] == 6


def test_decompose_abelian_refused(algfile, capsys):
    assert main(["decompose", algfile("abelian2n")]) == 3
    assert "not unique" in capsys.readouterr().err


def test_decompose_deterministic(algfile, capsys):
    path = algfile("h3h3")
    main(["--format", "structured", "decompose", path])
    first = capsys.readouterr().out
    main(["--format", "structured", "--seed", "5", "decompose", path])
    second = json.loads(capsys.readouterr().out)
    assert json.loads(first)["decomposition"]["factors"] == second["decomposition"]["factors"]


def test_jstructs_h3c(algfile, capsys):
    assert main(["--format", "structured", "jstructs", algfile("h3c")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["complex_structures"]["count"] == 2
    signs = [s["signs"] for s in doc["complex_structures"]["structures"]]
    assert signs == [[1], [-1]]


def test_jstructs_abelian_refused(algfile):
    assert main(["jstructs", algfile("abelian2n")]) == 3


def test_jstructs_numeric_backend(algfile, capsys):
    assert main(["--backend", "numeric", "--format", "structured",
                 "jstructs", algfile("h3c")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["complex_structures"]["count"] == 2
    assert all(s["backend"] == "numeric"
               for s in doc["complex_structures"]["structures"])


def test_lab_factor_count(capsys):
    assert main(["--format", "structured", "lab", "factor-count",
                 "--blocks", "h3,h3", "--l", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lab"] == "factor-count"
    assert len(doc["gram"]) == 6


def test_lab_jcount(capsys):
    assert main(["--format", "structured", "lab", "jcount",
                 "--blocks", "h3c,h3c", "--l", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 4 and doc["l"] == 2 and doc["k"] == 2


def test_lab_scan(capsys):
    assert main(["--format", "structured", "lab", "scan",
                 "--algebra", "h3c", "--trials", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trials"] == 3
    assert len(doc["table"]) + doc["skipped"] == 3
    for row in doc["table"]:
        assert row["j_count"] in (0, 2)


def test_exact_run_imports_neither_sympy_nor_numpy():
    """The CLI, an exact decomposition that finds roots (h3h3, k = 2), an
    exact enumeration on h3c+h3c and a lab metric with two factors on h3^3
    load no sympy and no numpy: neither sits on the exact path."""
    import os
    import subprocess
    import sys

    import metriclie

    code = ("import sys, metriclie.cli\n"
            "from metriclie import decompose, get_example\n"
            "assert decompose(get_example('h3h3')).k == 2\n"
            "from metriclie import (BlockSpec, direct_sum, enumerate_complex_structures,\n"
            "                       make_metric_with_factor_count)\n"
            "h3c, h3 = get_example('h3c'), get_example('h3')\n"
            "assert len(enumerate_complex_structures(direct_sum(h3c, h3c))) == 4\n"
            "make_metric_with_factor_count(BlockSpec((h3, h3, h3), seed=1), 2)\n"
            "print(sorted({'sympy', 'numpy'} & set(sys.modules)))\n")
    src = os.path.dirname(os.path.dirname(metriclie.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _digest_algebras():
    from metriclie.core import direct_sum

    algebras = {key: get_example(key) for key in example_keys()}
    algebras["h3c+h3c"] = direct_sum(get_example("h3c"), get_example("h3c"))
    algebras["h3^3"] = direct_sum(direct_sum(get_example("h3"), get_example("h3")),
                                  get_example("h3"))
    return algebras


# (algebra, random_gram seed or None for the standard metric, command) ->
# (exit code, first 16 hex digits of the sha256 of the structured stdout),
# taken before the exact centroid and metric-part solves moved to sparse
# integers; an exit code 3 is the abelian refusal, with nothing on stdout
EXACT_OUTPUT_DIGESTS = {
    ("abelian2n", None, "decompose"): (3, "e3b0c44298fc1c14"),
    ("abelian2n", None, "jstructs"): (3, "e3b0c44298fc1c14"),
    ("abelian2n", 1, "decompose"): (3, "e3b0c44298fc1c14"),
    ("abelian2n", 1, "jstructs"): (3, "e3b0c44298fc1c14"),
    ("abelian2n", 2, "decompose"): (3, "e3b0c44298fc1c14"),
    ("abelian2n", 2, "jstructs"): (3, "e3b0c44298fc1c14"),
    ("ex48", None, "decompose"): (0, "7de9ada30ccb7eac"),
    ("ex48", None, "jstructs"): (0, "289437a56d719969"),
    ("ex48", 1, "decompose"): (0, "085843caa1183767"),
    ("ex48", 1, "jstructs"): (0, "76faca5d9e04115f"),
    ("ex48", 2, "decompose"): (0, "1a9991bf3da5c7cb"),
    ("ex48", 2, "jstructs"): (0, "d9cfce12502f877d"),
    ("h3", None, "decompose"): (0, "c8adb29594728095"),
    ("h3", None, "jstructs"): (0, "d399a2d17de0ce6b"),
    ("h3", 1, "decompose"): (0, "f41644c7dc489d5b"),
    ("h3", 1, "jstructs"): (0, "04d5ee22dd430bcd"),
    ("h3", 2, "decompose"): (0, "b1cf451cd28c71ef"),
    ("h3", 2, "jstructs"): (0, "1fab5351c1ee3320"),
    ("h3c", None, "decompose"): (0, "1ecd3288c7636d1c"),
    ("h3c", None, "jstructs"): (0, "360b10f5523e809f"),
    ("h3c", 1, "decompose"): (0, "2d26b87151872222"),
    ("h3c", 1, "jstructs"): (0, "3cea8de615eba59c"),
    ("h3c", 2, "decompose"): (0, "0b6140fe5bda3311"),
    ("h3c", 2, "jstructs"): (0, "49ef0572d829d40a"),
    ("h3h3", None, "decompose"): (0, "a5437e17dc9b8d8b"),
    ("h3h3", None, "jstructs"): (0, "f94aedfd93485df9"),
    ("h3h3", 1, "decompose"): (0, "dd9cb5226ea3e0f2"),
    ("h3h3", 1, "jstructs"): (0, "c4fe1d02926af0a1"),
    ("h3h3", 2, "decompose"): (0, "5fce2057bf88f73a"),
    ("h3h3", 2, "jstructs"): (0, "68b1e2611d7d97f7"),
    ("h3h3-paper-metric", None, "decompose"): (0, "4b80187f7253e2d4"),
    ("h3h3-paper-metric", None, "jstructs"): (0, "b96ef868868ab0f6"),
    ("h3h3-paper-metric", 1, "decompose"): (0, "458ce4a60554387d"),
    ("h3h3-paper-metric", 1, "jstructs"): (0, "607c8df86109f271"),
    ("h3h3-paper-metric", 2, "decompose"): (0, "8adc3cc81d70ab50"),
    ("h3h3-paper-metric", 2, "jstructs"): (0, "ea6a4511b5422f52"),
    ("sl2c-real", None, "decompose"): (0, "59ae401a3dcf1161"),
    ("sl2c-real", None, "jstructs"): (0, "3d9276789b0825b6"),
    ("sl2c-real", 1, "decompose"): (0, "8a8be065971c0310"),
    ("sl2c-real", 1, "jstructs"): (0, "f3c90872ebd937a6"),
    ("sl2c-real", 2, "decompose"): (0, "687e5285ba902ef0"),
    ("sl2c-real", 2, "jstructs"): (0, "ed49da6e31457a37"),
    ("h3c+h3c", None, "decompose"): (0, "c866b8906a107a85"),
    ("h3c+h3c", None, "jstructs"): (0, "fa866fad69033141"),
    ("h3c+h3c", 1, "decompose"): (0, "ff8a67d1b901eb16"),
    ("h3c+h3c", 1, "jstructs"): (0, "2107e9d15805660c"),
    ("h3c+h3c", 2, "decompose"): (0, "700a7eee875fc41d"),
    ("h3c+h3c", 2, "jstructs"): (0, "b06ad9a7d8a930cb"),
    ("h3^3", None, "decompose"): (0, "0018694227ac38f1"),
    ("h3^3", None, "jstructs"): (0, "32af466d94d49263"),
    ("h3^3", 1, "decompose"): (0, "a3633f21fb6b72e5"),
    ("h3^3", 1, "jstructs"): (0, "371fed1c685fd2eb"),
    ("h3^3", 2, "decompose"): (0, "24990a4d1d8a47ab"),
    ("h3^3", 2, "jstructs"): (0, "42173e05bf8d9cca"),
}


@pytest.mark.parametrize("key, metric_seed, cmd", sorted(EXACT_OUTPUT_DIGESTS, key=str))
def test_exact_structured_output_is_byte_identical(key, metric_seed, cmd, algfile, capsys):
    """Exact structured output is pinned byte for byte by its digest, on
    every bundled example, h3c+h3c and h3^3, each with the standard metric
    and random_gram seeds 1 and 2.  The numeric backend is left out: its
    eigenvalues come from numpy, whose low bits may differ across BLAS
    builds."""
    import hashlib

    from metriclie.lab import random_gram

    A = _digest_algebras()[key]
    if metric_seed is not None:
        A = A.with_metric(random_gram(A.dim, metric_seed))
    code = main(["--format", "structured", cmd, algfile(render_document(A))])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    assert (code, digest) == EXACT_OUTPUT_DIGESTS[key, metric_seed, cmd]


DENSE_BASIS_KEYS = ("h3c", "ex48", "h3h3", "sl2c-real")


def _float_algebras():
    """The digest algebras, and bundled examples in the basis of the columns
    of a triangular matrix: their brackets are dense, so their float
    eliminations round."""
    from test_core import _in_basis, _triangular

    algebras = _digest_algebras()
    for key in DENSE_BASIS_KEYS:
        algebras[key + "'"] = _in_basis(algebras[key], _triangular(algebras[key].dim))
    return algebras


FLOAT_CASES = sorted(EXACT_OUTPUT_DIGESTS, key=str) + [
    (key + "'", metric_seed, cmd) for key in DENSE_BASIS_KEYS
    for metric_seed in (None, 1, 2) for cmd in ("decompose", "jstructs")]


@pytest.mark.parametrize("key, metric_seed, cmd", FLOAT_CASES)
def test_numeric_structured_output_equals_the_list_loop(key, metric_seed, cmd, algfile, capsys,
                                                        monkeypatch):
    """With --backend numeric, the structured stdout is the one that the
    float elimination gives as a loop over Python floats
    (``fraction_reference.float_rref``), on the algebras and metrics of the
    exact digests and on examples in a dense basis.  Both runs are in one
    process, so numpy's eigenvalues are the same in both, whatever the BLAS
    build."""
    import fraction_reference as ref
    from metriclie import linalg
    from metriclie.lab import random_gram

    A = _float_algebras()[key]
    if metric_seed is not None:
        A = A.with_metric(random_gram(A.dim, metric_seed))
    args = ["--backend", "numeric", "--format", "structured", cmd, algfile(render_document(A))]
    code = main(args)
    out = capsys.readouterr().out
    calls = []

    def list_loop(rows, tol):  # the rows of an array as Python floats
        calls.append(tol)
        return ref.float_rref([[float(x) for x in row] for row in rows], tol)

    monkeypatch.setattr(linalg, "_float_rref", list_loop)
    assert (main(args), capsys.readouterr().out) == (code, out)
    assert calls
