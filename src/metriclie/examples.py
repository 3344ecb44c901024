"""Bundled example algebras.

Keys: abelian2n, h3, h3c, ex48, h3h3, h3h3-paper-metric, sl2c-real.
Every entry is validated (Jacobi + metric) at construction time.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .core import MetricLieAlgebra, Metric, make_algebra
from .errors import UnknownExample

F = Fraction


def abelian2n(n: int = 2) -> MetricLieAlgebra:
    """Abelian R^{2n} with the standard inner product."""
    return make_algebra(2 * n, {}, name=f"abelian{2*n}")


def h3() -> MetricLieAlgebra:
    """Real Heisenberg algebra: [X1, X2] = X3."""
    return make_algebra(3, {(0, 1): [(2, F(1))]}, name="h3")


_H3C_BRACKETS = {
    (0, 2): [(4, F(1))],   # [E1, E3] = E5
    (0, 3): [(5, F(1))],   # [E1, E4] = E6
    (1, 2): [(5, F(1))],   # [E2, E3] = E6
    (1, 3): [(4, F(-1))],  # [E2, E4] = -E5
}


def _mult_by_i_6():
    # E1 -> E2, E2 -> -E1, E3 -> E4, E4 -> -E3, E5 -> E6, E6 -> -E5
    J = [[F(0)] * 6 for _ in range(6)]
    for a in (0, 2, 4):
        J[a + 1][a] = F(1)
        J[a][a + 1] = F(-1)
    return linalg.mat(J)


def h3c() -> MetricLieAlgebra:
    """Underlying real algebra of the complex Heisenberg algebra h3(C)."""
    return make_algebra(
        6, _H3C_BRACKETS, name="h3c",
        labels=("E1", "E2", "E3", "E4", "E5", "E6"),
        j_marker=_mult_by_i_6(),
    )


def ex48() -> MetricLieAlgebra:
    """The 6-dim nilpotent algebra carrying two non-commuting bi-invariant J's."""
    return make_algebra(
        6, dict(_H3C_BRACKETS), name="ex48",
        labels=("X1", "X2", "X3", "X4", "X5", "X6"),
        j_marker=_mult_by_i_6(),
    )


def ex48_j1():
    """J1 of the non-commuting pair: X1 -> X2, ..., X6 -> -X5."""
    return _mult_by_i_6()


def ex48_j2():
    """J2: like J1 but X1 -> X2 + X6 and X2 -> -X1 + X5."""
    J = [list(r) for r in _mult_by_i_6()]
    J[5][0] = F(1)  # J2(X1) gains +X6
    J[4][1] = F(1)  # J2(X2) gains +X5
    return linalg.mat(J)


_H3H3_BRACKETS = {
    (0, 2): [(4, F(1))],  # [X1, Y1] = Z1
    (1, 3): [(5, F(1))],  # [X2, Y2] = Z2
}

_H3H3_LABELS = ("X1", "X2", "Y1", "Y2", "Z1", "Z2")


def h3h3() -> MetricLieAlgebra:
    """h3 + h3 in the basis X1, X2, Y1, Y2, Z1, Z2 with the standard metric."""
    return make_algebra(6, dict(_H3H3_BRACKETS), name="h3h3", labels=_H3H3_LABELS)


def h3h3_paper_metric() -> MetricLieAlgebra:
    """h3 + h3 with the metric whose orthonormal basis is
    X1, X2, Y1, Y2, Z1, Z1 - Z2; the Z-block of the Gram is [[1,1],[1,2]]."""
    gram = [[F(1) if i == j else F(0) for j in range(6)] for i in range(6)]
    gram[4][5] = gram[5][4] = F(1)
    gram[5][5] = F(2)
    return make_algebra(6, dict(_H3H3_BRACKETS), gram, name="h3h3-paper-metric",
                        labels=_H3H3_LABELS)


def sl2c_real() -> MetricLieAlgebra:
    """Underlying real algebra of sl(2, C), built as the complexification of sl(2, R)."""
    from .complexstruct import complexify

    sl2 = make_algebra(
        3,
        {
            (0, 1): [(1, F(2))],   # [H, E] = 2E
            (0, 2): [(2, F(-2))],  # [H, F] = -2F
            (1, 2): [(0, F(1))],   # [E, F] = H
        },
        name="sl2r",
        labels=("H", "E", "F"),
    )
    AC = complexify(sl2)
    A = AC.real_form
    return MetricLieAlgebra(A.algebra, A.metric, "sl2c-real", AC.i_op)


_REGISTRY = {
    "abelian2n": (abelian2n, "abelian R^4 with the standard inner product"),
    "h3": (h3, "real Heisenberg algebra, [X1,X2] = X3"),
    "h3c": (h3c, "underlying real algebra of the complex Heisenberg algebra"),
    "ex48": (ex48, "6-dim nilpotent algebra with two non-commuting bi-invariant J's"),
    "h3h3": (h3h3, "h3 + h3 with the standard block metric"),
    "h3h3-paper-metric": (h3h3_paper_metric, "h3 + h3 with the metric making it irreducible"),
    "sl2c-real": (sl2c_real, "underlying real algebra of sl(2, C)"),
}


def example_keys():
    return sorted(_REGISTRY)


def example_description(key: str) -> str:
    if key not in _REGISTRY:
        raise UnknownExample(key)
    return _REGISTRY[key][1]


def get_example(key: str) -> MetricLieAlgebra:
    if key not in _REGISTRY:
        raise UnknownExample(key)
    return _REGISTRY[key][0]()
