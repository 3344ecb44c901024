from fractions import Fraction as F

import pytest

from metriclie import core, lab, linalg
from metriclie.centroid import decompose, symmetric_centroid
from metriclie.core import direct_sum, has_abelian_factor
from metriclie.errors import (
    AbelianBlock,
    AbelianFactorPresent,
    GenericityFailure,
    InvalidL,
    NoComplexStructureOnBlock,
)
from metriclie.examples import get_example
from metriclie.lab import (
    BlockSpec,
    jcount_experiment,
    make_irreducible_metric,
    make_metric_with_factor_count,
    metric_scan,
    random_gram,
)


def test_random_gram_reproducible_and_positive_definite():
    G1 = random_gram(4, seed=7)
    G2 = random_gram(4, seed=7)
    assert G1 == G2
    assert random_gram(4, seed=8) != G1
    G1.validate()
    assert G1.gram == linalg.transpose(G1.gram)


def test_random_gram_entries_are_exact():
    G = random_gram(3, seed=0)
    assert all(isinstance(x, F) for row in G.gram for x in row)


def test_generic_metric_never_makes_the_centers_orthogonal():
    # on h3+h3 the sampled Gram never has Z1 perpendicular to Z2
    for seed in range(40):
        G = random_gram(6, seed).gram
        assert G[4][5] != 0


@pytest.mark.parametrize("seed", range(5))
def test_make_irreducible_metric_h3_h3(seed):
    spec = BlockSpec((get_example("h3"), get_example("h3")), seed)
    metric = make_irreducible_metric(spec)
    metric.validate()
    from metriclie.core import direct_sum

    glued = direct_sum(get_example("h3"), get_example("h3")).with_metric(metric)
    assert decompose(glued, seed=seed).k == 1


def test_make_irreducible_metric_single_block():
    spec = BlockSpec((get_example("h3"),), 0)
    metric = make_irreducible_metric(spec)
    glued = get_example("h3").with_metric(metric)
    assert decompose(glued).k == 1


def test_make_irreducible_metric_rejects_abelian_block():
    with pytest.raises(AbelianBlock):
        make_irreducible_metric(BlockSpec((get_example("abelian2n"),), 0))


@pytest.mark.parametrize("l", [1, 2, 3])
def test_factor_count_on_three_blocks(l):
    from metriclie.core import direct_sum

    h3 = get_example("h3")
    spec = BlockSpec((h3, h3, h3), seed=11)
    metric = make_metric_with_factor_count(spec, l)
    metric.validate()
    glued = direct_sum(direct_sum(h3, h3), h3).with_metric(metric)
    assert decompose(glued, seed=11).k == l


def test_factor_count_refuses_a_block_with_an_abelian_factor():
    from metriclie.core import direct_sum

    h3 = get_example("h3")
    spec = BlockSpec((direct_sum(h3, get_example("abelian2n")), h3), 0)
    with pytest.raises(AbelianFactorPresent):
        make_metric_with_factor_count(spec, 2)


def _factor_count_one_by_gluing(spec, hermitian_for=None):
    """make_metric_with_factor_count for l = 1 as it was: the tail metric on
    the blocks glued a second time, certified a second time."""
    tail = BlockSpec(spec.blocks, lab._derive_seed(spec.seed, "tail", 1))
    metric = make_irreducible_metric(tail, hermitian_for=hermitian_for)
    A = spec.blocks[0]
    for b in spec.blocks[1:]:
        A = direct_sum(A, b)
    if has_abelian_factor(A):
        raise AbelianFactorPresent("the direct sum has an abelian factor")
    if symmetric_centroid(A.with_metric(metric)).dim != 1:
        raise GenericityFailure("constructed metric is not irreducible")
    return metric


H3, H3C, ABELIAN = get_example("h3"), get_example("h3c"), get_example("abelian2n")


@pytest.mark.parametrize("blocks, seed, hermitian, digest", [
    ((H3, H3, H3), 0, False, "acabb59455bfc710"),
    ((H3C, H3C), 5, True, "3dd17203dd023b40"),
    ((H3,), 2, False, "0a6967cf541ff384"),
], ids=["h3^3", "h3c^2-hermitian", "h3"])
def test_factor_count_one_is_the_certified_tail_metric(blocks, seed, hermitian, digest):
    """l = 1 returns the tail metric without gluing again: the same Gram as
    before (digests of the gluing path), Fractions throughout."""
    spec = BlockSpec(blocks, seed)
    J = direct_sum(H3C, H3C).j_marker if hermitian else None
    metric = make_metric_with_factor_count(spec, 1, hermitian_for=J)
    assert metric == _factor_count_one_by_gluing(spec, J)
    assert lab._gram_hash(metric.gram) == digest
    assert all(type(x) is F for row in metric.gram for x in row)


@pytest.mark.parametrize("blocks, retries, error", [
    ((H3, ABELIAN), lab.MAX_METRIC_RETRIES, AbelianBlock),
    ((direct_sum(H3, ABELIAN), H3), lab.MAX_METRIC_RETRIES, AbelianBlock),
    ((H3, H3), 0, GenericityFailure),
], ids=["abelian-block", "abelian-factor", "no-draws"])
def test_factor_count_one_raises_as_before(monkeypatch, blocks, retries, error):
    monkeypatch.setattr(lab, "MAX_METRIC_RETRIES", retries)
    spec = BlockSpec(blocks, 0)
    with pytest.raises(error):
        _factor_count_one_by_gluing(spec)
    with pytest.raises(error):
        make_metric_with_factor_count(spec, 1)


def test_factor_count_invalid_l():
    spec = BlockSpec((get_example("h3"), get_example("h3")), 0)
    for l in (0, 3):
        with pytest.raises(InvalidL):
            make_metric_with_factor_count(spec, l)


@pytest.mark.parametrize("l,count", [(1, 2), (2, 4)])
def test_jcount_on_two_complex_heisenbergs(l, count):
    spec = BlockSpec((get_example("h3c"), get_example("h3c")), seed=3)
    report = jcount_experiment(spec, l)
    assert (report.l, report.k, report.count) == (l, 2, count)
    report.metric.validate()


def test_jcount_single_block():
    report = jcount_experiment(BlockSpec((get_example("h3c"),), 5), 1)
    assert report.count == 2


def test_jcount_needs_marked_blocks():
    with pytest.raises(NoComplexStructureOnBlock):
        jcount_experiment(BlockSpec((get_example("h3"),), 0), 1)


def test_metric_scan_h3c():
    A = get_example("h3c")
    report = metric_scan(A, trials=5, seed=0)
    assert report.skipped == 0
    assert len(report.trials) == 5
    for t in report.trials:
        assert t.j_count in (0, 2)  # indecomposable block: at most 2
        assert t.k >= 1
    assert sum(report.histogram.values()) == 5
    # determinism
    again = metric_scan(A, trials=5, seed=0)
    assert [t.gram_hash for t in again.trials] == [t.gram_hash for t in report.trials]


def test_metric_scan_decides_the_abelian_factor_once(monkeypatch):
    """has_abelian_factor reads the bracket alone: a scan asks it once per
    trial and once more per decompose, and decides it once."""
    calls = []
    center = core.center
    monkeypatch.setattr(core, "center", lambda A: calls.append(A) or center(A))
    report = metric_scan(get_example("h3c"), trials=10, seed=0)
    assert len(report.trials) == 10
    assert len(calls) == 1


def test_metric_scan_h3_never_finds_structures():
    report = metric_scan(get_example("h3"), trials=4, seed=1)
    assert all(t.j_count == 0 for t in report.trials)


def test_metric_scan_skips_abelian():
    report = metric_scan(get_example("abelian2n"), trials=3, seed=0)
    assert report.skipped == 3
    assert report.trials == ()


def test_factor_count_names_a_reducible_head_block():
    """Head blocks keep their own Gram: h3h3 with its standard metric has two
    factors, so in front it makes l = 2 unreachable, and the InvalidL names
    it and its count; at the tail it is glued irreducibly."""
    h3h3 = get_example("h3h3")
    with pytest.raises(InvalidL, match="head block 'h3h3' has 2 irreducible factors"):
        make_metric_with_factor_count(BlockSpec((h3h3, H3), 0), 2)
    metric = make_metric_with_factor_count(BlockSpec((H3, h3h3), 0), 2)
    assert decompose(direct_sum(H3, h3h3).with_metric(metric)).k == 2
