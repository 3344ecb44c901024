"""Input/output documents.

An algebra document is JSON with fields ``name``, ``dim``, ``field``
("rational" or "numeric"), ``brackets`` (entries ``{i, j, terms: [{k, c}]}``
with 1-based i < j and scalar strings like "1" or "3/4"; JSON numbers,
decimals included, are read exactly), an optional ``gram`` matrix (default
identity) and an optional ``j`` matrix marking a designated complex
structure.  Result documents mirror the schema and add result sections.
Exact scalars serialize as "p/q"; numeric ones as the shortest round-trip
decimal.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import linalg
from .core import (
    DEFAULT_TOL,
    EXACT,
    NUMERIC,
    MetricLieAlgebra,
    format_scalar,
    make_algebra,
    parse_scalar,
)
from .errors import ParseError

SCHEMA_VERSION = 1


def _require(cond, msg):
    if not cond:
        raise ParseError(msg)


def parse_document(doc, backend=None, tol=None) -> MetricLieAlgebra:
    """Parse a JSON string or already-decoded dict into an algebra."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc, parse_float=Fraction)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "document must be an object")
    _require("dim" in doc, "missing field 'dim'")
    dim = doc["dim"]
    _require(isinstance(dim, int) and dim >= 0, "'dim' must be a nonnegative integer")
    field = doc.get("field", "rational")
    _require(field in ("rational", "numeric"), f"unknown field {field!r}")
    if backend is None:
        backend = NUMERIC if field == "numeric" else EXACT
    name = doc.get("name", "")
    labels = tuple(doc.get("basis", ()))
    if labels:
        _require(len(labels) == dim, "'basis' length must equal dim")

    brackets = {}
    for entry in doc.get("brackets", []):
        _require(isinstance(entry, dict) and "i" in entry and "j" in entry,
                 "bracket entries need 'i' and 'j'")
        i, j = entry["i"], entry["j"]
        _require(isinstance(i, int) and isinstance(j, int),
                 "bracket indices must be integers")
        _require(i != j, f"diagonal bracket [{i},{i}] is forbidden")
        _require(1 <= i < j <= dim, f"bracket indices ({i},{j}) must satisfy 1 <= i < j <= dim")
        terms = []
        for t in entry.get("terms", []):
            _require(isinstance(t, dict) and "k" in t and "c" in t,
                     "bracket terms need 'k' and 'c'")
            _require(isinstance(t["k"], int) and 1 <= t["k"] <= dim,
                     f"term index {t.get('k')} out of range")
            terms.append((t["k"] - 1, parse_scalar(t["c"], backend)))
        _require((i - 1, j - 1) not in brackets, f"duplicate bracket entry ({i},{j})")
        brackets[(i - 1, j - 1)] = terms

    gram = None
    if doc.get("gram") is not None:
        raw = doc["gram"]
        _require(len(raw) == dim and all(len(r) == dim for r in raw),
                 "'gram' must be an n x n matrix")
        gram = [[parse_scalar(x, backend) for x in row] for row in raw]

    j_marker = None
    if doc.get("j") is not None:
        raw = doc["j"]
        _require(len(raw) == dim and all(len(r) == dim for r in raw),
                 "'j' must be an n x n matrix")
        j_marker = linalg.mat([[parse_scalar(x, backend) for x in row] for row in raw])

    return make_algebra(dim, brackets, gram, name, backend,
                        tol if backend == NUMERIC else None,
                        labels, j_marker=j_marker)


def matrix_doc(M):
    return [[format_scalar(x) for x in row] for row in M]


def render_document(A: MetricLieAlgebra) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "name": A.name,
        "dim": A.dim,
        "field": "numeric" if A.backend == NUMERIC else "rational",
        "basis": list(A.algebra.basis_labels),
        "brackets": [
            {"i": i + 1, "j": j + 1,
             "terms": [{"k": k + 1, "c": format_scalar(c)} for k, c in terms]}
            for (i, j), terms in A.algebra.structure
        ],
        "gram": matrix_doc(A.gram),
    }
    if A.j_marker is not None:
        doc["j"] = matrix_doc(A.j_marker)
    if A.backend == NUMERIC:
        doc["tol"] = A.tol
    return doc


def _fmt_residual(r):
    return format_scalar(r) if r else "0"


def decomposition_document(dec) -> dict:
    doc = render_document(dec.algebra)
    doc["decomposition"] = {
        "backend": dec.backend,
        "seed": dec.seed,
        "k": dec.k,
        "factors": [
            {
                "dim": f.carrier.dim,
                "carrier": [[format_scalar(x) for x in v] for v in f.carrier.basis],
                "projection": matrix_doc(f.projection),
                "induced": render_document(f.induced),
                "certificate": {
                    key: (_fmt_residual(v) if not isinstance(v, (dict, int)) else
                          ({k2: _fmt_residual(v2) for k2, v2 in v.items()}
                           if isinstance(v, dict) else v))
                    for key, v in f.certificate.items()
                },
            }
            for f in dec.factors
        ],
    }
    return doc


def enumeration_document(A: MetricLieAlgebra, structures) -> dict:
    doc = render_document(A)
    doc["complex_structures"] = {
        "count": len(structures),
        "structures": [
            {
                "matrix": matrix_doc(s.J),
                "signs": list(s.signs),
                "backend": s.backend,
                "certificate": {k: _fmt_residual(v) for k, v in s.certificate.residuals().items()},
            }
            for s in structures
        ],
    }
    return doc


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=False)
