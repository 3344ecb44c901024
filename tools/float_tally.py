"""Float tally: does the float backend agree with the exact answer on
dense rational and orthonormal bases?

h3c ⊕ h3c has k = 2 irreducible factors and 4 orthogonal bi-invariant
complex structures.  The tally writes it in two groups of 8 fixed bases,
for seeds 0-7, through the tests' ``_in_basis``:

- ``dense``: the columns of ``tests/test_core.py::_dense_rational(12, seed)``;
- ``orthonormal``: the columns of the rational orthogonal
  ``tests/test_core.py::_cayley_orthogonal(12, seed)``, in which the Gram
  stays I (cond 1).

It takes each to the float backend with ``to_numeric``; runs ``decompose``
and ``enumerate_complex_structures``; and counts each case as one of:

- ``agree``: k = 2 and 4 J's;
- ``refuse``: a documented ``MetricLieError``, named by its class (README
  lists the CLI exit code of each);
- ``undocumented``: any other exception;
- ``wrong``: no exception, but another k or J count.

It prints one JSON line, one entry per group, and exits 1 if any case is
``wrong`` or ``undocumented``: a refusal is allowed, a silently wrong float
answer is not.  Run from the repository root:

    PYTHONPATH=src python tools/float_tally.py
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))

from metriclie.centroid import decompose  # noqa: E402
from metriclie.complexstruct import enumerate_complex_structures  # noqa: E402
from metriclie.core import direct_sum, to_numeric  # noqa: E402
from metriclie.errors import MetricLieError  # noqa: E402
from metriclie.examples import get_example  # noqa: E402

from test_core import _cayley_orthogonal, _dense_rational, _in_basis  # noqa: E402

SEEDS = range(8)
EXPECTED = (2, 4)  # k and the number of J's of h3c ⊕ h3c


def tally_case(A):
    """One case's record: its outcome and, for an error, its class and text."""
    try:
        got = (decompose(A).k, len(enumerate_complex_structures(A)))
    except MetricLieError as exc:
        return {"outcome": "refuse", "error": type(exc).__name__, "message": str(exc)[:100]}
    except Exception as exc:  # noqa: BLE001 - an undocumented error is what is counted
        return {"outcome": "undocumented", "error": type(exc).__name__, "message": str(exc)[:100]}
    return {"outcome": "agree" if got == EXPECTED else "wrong", "k": got[0], "js": got[1]}


GROUPS = {
    "dense": ("dense p/q, |p| <= 2, 1 <= q <= 3", _dense_rational),
    "orthonormal": ("Cayley (I - S)(I + S)^-1, S skew, S[i][j] = p/q, |p| <= 2, 1 <= q <= 3", _cayley_orthogonal),
}


def main():
    h3c = get_example("h3c")
    h3c2 = direct_sum(h3c, h3c)
    groups, failed = {}, False
    for name, (bases, basis) in GROUPS.items():
        cases, start = [], time.perf_counter()
        for seed in SEEDS:
            A = to_numeric(_in_basis(h3c2, basis(12, seed)))
            cases.append({"seed": seed, **tally_case(A)})
        counts = {o: sum(c["outcome"] == o for c in cases) for o in ("agree", "refuse", "undocumented", "wrong")}
        groups[name] = {"bases": bases, **counts, "wall_s": round(time.perf_counter() - start, 2), "cases": cases}
        failed = failed or counts["wrong"] or counts["undocumented"]
    print(json.dumps({"tally": "float", "algebra": "h3c+h3c", **groups}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
