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
    """The CLI and an exact decomposition that finds roots (h3h3, k = 2) load
    no sympy and no numpy: neither sits on the exact path."""
    import os
    import subprocess
    import sys

    import metriclie

    code = ("import sys, metriclie.cli\n"
            "from metriclie import decompose, get_example\n"
            "assert decompose(get_example('h3h3')).k == 2\n"
            "print(sorted({'sympy', 'numpy'} & set(sys.modules)))\n")
    src = os.path.dirname(os.path.dirname(metriclie.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
