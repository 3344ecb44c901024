"""Acceptance suite: one test per top-level criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print; every criterion also asserts, so a plain pytest run is authoritative.
"""

from fractions import Fraction as F

import pytest

from metriclie import linalg
from metriclie.centroid import decompose, symmetric_centroid
from metriclie.complexstruct import (
    commute_check,
    complexify,
    enumerate_complex_structures,
    eigensplit,
    hermitian_form_complexified,
    verify_complex_structure,
    verify_doubling_isometry,
)
from metriclie.core import Metric, Subspace, check_jacobi, direct_sum, has_abelian_factor
from metriclie.errors import AbelianFactorPresent
from metriclie.examples import example_keys, ex48_j1, ex48_j2, get_example
from metriclie.lab import BlockSpec, jcount_experiment, make_metric_with_factor_count, random_gram

from bruteforce import matches_within, oracle_complex_structures, same_sets
from fraction_reference import mat_max_diff

TOL = 1e-9


def report(number, title, ok):
    print(f"[acceptance {number}] {title}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({title}) failed"


def _random_metric_variants(A, count=5):
    yield A
    for seed in range(count):
        yield A.with_metric(random_gram(A.dim, seed))


def test_acceptance_1_decomposition_uniqueness():
    ok = True
    dec = decompose(get_example("h3h3-paper-metric"))
    ok &= dec.k == 1

    A = get_example("h3h3")
    base = decompose(A, seed=0)
    ok &= base.k == 2

    def e(i):
        return linalg.basis_vec(6, i)

    carriers = {f.carrier.basis for f in base.factors}
    ok &= carriers == {(e(0), e(2), e(4)), (e(1), e(3), e(5))}
    for seed in range(1, 10):
        other = decompose(A, seed=seed)
        ok &= other.carriers() == base.carriers()
        ok &= [f.projection for f in other.factors] == [f.projection for f in base.factors]
    report(1, "decomposition uniqueness and canonical seeds", ok)


def test_acceptance_2_enumeration_counts():
    A = get_example("h3c")
    out = enumerate_complex_structures(A)
    J = A.j_marker
    ok = {s.J for s in out} == {J, linalg.mat_scale(-1, J)}
    ok &= same_sets([s.J for s in out], oracle_complex_structures(A))

    G = [list(r) for r in A.gram]
    G[4][5] = G[5][4] = F(1, 2)
    perturbed = A.with_metric(Metric(linalg.mat(G)))
    ok &= enumerate_complex_structures(perturbed) == []

    double = direct_sum(get_example("h3c"), get_example("h3c"))
    out2 = enumerate_complex_structures(double)
    ok &= len(out2) == 4
    ok &= same_sets([s.J for s in out2], oracle_complex_structures(double))
    report(2, "enumeration counts 2 / 0 / 4 against the oracle", ok)


def test_acceptance_3_oracle_equivalence():
    ok = True
    for key in example_keys():
        base = get_example(key)
        for A in _random_metric_variants(base):
            if has_abelian_factor(A):
                continue  # enumeration refuses; the oracle space is unbounded
            structures = enumerate_complex_structures(A)
            tol = TOL if any(s.backend == "numeric" for s in structures) else 0.0
            ok &= same_sets([s.J for s in structures],
                            oracle_complex_structures(A), tol=tol)
    report(3, "oracle equivalence on all bundled algebras, 5 random metrics each", ok)


def test_acceptance_4_structural_identities():
    A = get_example("h3c")
    J = A.j_marker
    cert = verify_doubling_isometry(A, J)
    ok = cert.passed and all(r == 0 for r in cert.residuals().values())

    AC = complexify(A)
    g1, gm1 = eigensplit(A, J)
    ok &= g1.dim == 6 and gm1.dim == 6
    for u in g1.basis:
        ok &= gm1.contains(linalg.mat_vec(AC.sigma_op, u))
        for v in gm1.basis:
            h = hermitian_form_complexified(AC, u, v)
            ok &= (h.re, h.im) == (0, 0)

    ok &= decompose(AC.real_form).k == 2
    report(4, "doubling isometry, eigensplit, 2k complexified factors", ok)


def test_acceptance_5_non_commuting_example():
    A = get_example("ex48")
    J1, J2 = ex48_j1(), ex48_j2()
    c1 = verify_complex_structure(A, J1)
    c2 = verify_complex_structure(A, J2)
    ok = c1.square_residual == 0 and c1.bracket_residual == 0
    ok &= c2.square_residual == 0 and c2.bracket_residual == 0
    rep = commute_check(A, J1, J2)
    ok &= not rep.commute and rep.commutator_image_in_center

    for seed in range(100):
        B = A.with_metric(random_gram(6, seed))
        Js = [s.J for s in enumerate_complex_structures(B, seed=seed)]
        both = (matches_within(J1, Js, tol=TOL if Js and isinstance(Js[0][0][0], float) else 0.0)
                and matches_within(J2, Js, tol=TOL if Js and isinstance(Js[0][0][0], float) else 0.0))
        ok &= not both
    report(5, "non-commuting pair never jointly orthogonal over 100 metrics", ok)


def test_acceptance_6_metric_lab():
    ok = True
    runs = 0
    h3 = get_example("h3")
    for seed in range(32):
        spec = BlockSpec((h3, h3, h3), seed)
        for l in (1, 2, 3):
            metric = make_metric_with_factor_count(spec, l)
            glued = direct_sum(direct_sum(h3, h3), h3).with_metric(metric)
            ok &= decompose(glued, seed=seed).k == l
            runs += 1
    h3c = get_example("h3c")
    for seed in range(2):
        spec = BlockSpec((h3c, h3c), seed)
        for l in (1, 2):
            ok &= jcount_experiment(spec, l).count == 2**l
            runs += 1
    ok &= runs == 100
    report(6, "metric lab: 100 seeded construction runs, zero failures", ok)


def test_acceptance_7_property_suites():
    ok = True
    for key in example_keys():
        base = get_example(key)
        for A in _random_metric_variants(base):
            ok &= check_jacobi(A).passed
            if has_abelian_factor(A):
                with pytest.raises(AbelianFactorPresent):
                    decompose(A)
                continue
            S = symmetric_centroid(A)
            for M in S.basis:
                for N in S.basis:
                    ok &= linalg.mat_mul(M, N) == linalg.mat_mul(N, M)
            dec = decompose(A)
            n = A.dim
            numeric = dec.backend == "numeric"
            total = linalg.zeros(n, n, tol=dec.algebra.tol)
            for f in dec.factors:
                total = linalg.mat_add(total, f.projection)
            ok &= mat_max_diff(
                total, linalg.identity(n, tol=dec.algebra.tol)) <= (TOL if numeric else 0)
            G = dec.algebra.gram
            for i, fi in enumerate(dec.factors):
                for fj in dec.factors[i + 1:]:
                    for u in fi.carrier.basis:
                        for v in fj.carrier.basis:
                            ok &= linalg.is_zero(linalg.bilinear(G, u, v), TOL if numeric else 0)
            structures = enumerate_complex_structures(A)
            ok &= len(structures) in (0, 2 ** dec.k)
            tol = TOL if any(s.backend == "numeric" for s in structures) else 0.0
            Js = [s.J for s in structures]
            for s in structures:
                ok &= matches_within(linalg.mat_scale(-1, s.J), Js, tol=tol)
                for f in dec.factors:
                    imgs = [linalg.mat_vec(linalg.to_float_mat(s.J) if tol else s.J, v)
                            for v in f.carrier.basis]
                    img = Subspace.from_vectors(n, imgs, tol)
                    ok &= all(img.contains(v) for v in f.carrier.basis) and img.dim == f.carrier.dim
    report(7, "property suites on all bundled algebras and random metrics", ok)
