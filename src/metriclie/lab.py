"""Metric-variation lab: seeded random Gram matrices and constructions that
realize a prescribed number of irreducible factors or complex structures.

Generic metrics are produced by sampling B = I + R/10 with small random
integer R and taking G = B^T B, then verifying the wanted property and
resampling on failure (bounded retries).  Everything is deterministic in
the seed; per-trial seeds are derived from (seed, trial index).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .centroid import decompose, symmetric_centroid
from .complexstruct import complex_structures, enumerate_complex_structures, verify_complex_structure
from .core import Metric, MetricLieAlgebra, direct_sum, has_abelian_factor
from .errors import (
    AbelianBlock,
    AbelianFactorPresent,
    GenericityFailure,
    InvalidL,
    NoComplexStructureOnBlock,
)

EPSILON = Fraction(1, 10)
DEFAULT_SPREAD = 5
MAX_METRIC_RETRIES = 20


@dataclass(frozen=True)
class BlockSpec:
    """Blocks the user asserts to be indecomposable with nonzero derived part."""

    blocks: tuple
    seed: int = 0


def _derive_seed(seed: int, *parts) -> int:
    h = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(h[:8], "big")


def random_gram(n: int, seed: int, spread: int = DEFAULT_SPREAD) -> Metric:
    """G = B^T B with B = I + eps*R, R a random integer matrix; always SPD."""
    rng = random.Random(_derive_seed(seed, "gram", n, spread))
    while True:
        R = [[Fraction(rng.randint(-spread, spread)) for _ in range(n)] for _ in range(n)]
        B = linalg.mat_add(linalg.identity(n), linalg.mat_scale(EPSILON, R))
        if linalg.rank(B) == n:
            return Metric(linalg.mat_mul(linalg.transpose(B), B))


def _hermitize(G, J):
    """Average G with its J-pullback so J becomes skew w.r.t. the result."""
    Jt = linalg.transpose(J)
    return linalg.mat_scale(
        Fraction(1, 2),
        linalg.mat_add(G, linalg.mat_mul(Jt, linalg.mat_mul(G, J))),
    )


def _check_blocks(spec: BlockSpec):
    from .core import derived_subalgebra

    for b in spec.blocks:
        if derived_subalgebra(b).dim == 0:
            raise AbelianBlock(f"block {b.name!r} is abelian")


def _glued(spec: BlockSpec) -> MetricLieAlgebra:
    A = spec.blocks[0]
    for b in spec.blocks[1:]:
        A = direct_sum(A, b)
    return A


def make_irreducible_metric(spec: BlockSpec, hermitian_for=None) -> Metric:
    """A metric making the direct sum of the blocks irreducible.

    Sampled generically and verified by a one-dimensional symmetric
    centroid, the irreducibility criterion; when
    ``hermitian_for`` is an almost complex structure, the sampled Gram is
    averaged so that the structure stays an isometry.
    """
    _check_blocks(spec)
    A = _glued(spec)
    if has_abelian_factor(A):
        raise AbelianBlock("the direct sum has an abelian factor")
    n = A.dim
    for attempt in range(MAX_METRIC_RETRIES):
        G = random_gram(n, _derive_seed(spec.seed, "irr", attempt)).gram
        if hermitian_for is not None:
            G = _hermitize(G, hermitian_for)
        metric = Metric(G)
        metric.validate(A.tol)
        if symmetric_centroid(A.with_metric(metric)).dim == 1:
            return metric
    raise GenericityFailure(
        f"no irreducible metric found in {MAX_METRIC_RETRIES} samples"
    )


def make_metric_with_factor_count(spec: BlockSpec, l: int, hermitian_for=None) -> Metric:
    """A metric with exactly l irreducible factors: blocks 1..l-1 stay
    orthogonal, blocks l..k are glued irreducibly."""
    k = len(spec.blocks)
    if not 1 <= l <= k:
        raise InvalidL(f"l={l} must satisfy 1 <= l <= {k}")
    _check_blocks(spec)
    head = spec.blocks[: l - 1]
    tail = BlockSpec(spec.blocks[l - 1 :], _derive_seed(spec.seed, "tail", l))
    tail_j = None
    if hermitian_for is not None:
        offset = sum(b.dim for b in head)
        tail_dim = sum(b.dim for b in tail.blocks)
        tail_j = tuple(
            tuple(hermitian_for[offset + r][offset + c] for c in range(tail_dim))
            for r in range(tail_dim)
        )
    tail_metric = make_irreducible_metric(tail, hermitian_for=tail_j)
    if not head:  # the tail is the whole algebra, already certified irreducible
        return tail_metric
    blocks_g = [b.gram for b in head] + [tail_metric.gram]
    n = sum(len(g) for g in blocks_g)
    G = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for g in blocks_g:
        for i in range(len(g)):
            for j in range(len(g)):
                G[off + i][off + j] = g[i][j]
        off += len(g)
    metric = Metric(linalg.mat(G))
    A = _glued(spec)
    if has_abelian_factor(A):
        raise AbelianFactorPresent("the direct sum has an abelian factor")
    factors = symmetric_centroid(A.with_metric(metric)).dim
    if factors != l:
        raise GenericityFailure(f"constructed metric has {factors} factors, wanted {l}")
    return metric


@dataclass(frozen=True)
class JCountReport:
    l: int
    k: int
    count: int
    metric: Metric
    backend: str


def jcount_experiment(spec: BlockSpec, l: int) -> JCountReport:
    """Build an l-factor metric on blocks that carry complex structures and
    count the enumerated structures; the count must be 2^l."""
    for b in spec.blocks:
        if b.j_marker is None or not verify_complex_structure(b, b.j_marker).passed:
            raise NoComplexStructureOnBlock(
                f"block {b.name!r} has no verified complex structure"
            )
    A = _glued(spec)
    J = A.j_marker
    metric = make_metric_with_factor_count(spec, l, hermitian_for=J)
    algebra = A.with_metric(metric)
    structures = enumerate_complex_structures(algebra, seed=spec.seed)
    count = len(structures)
    if count != 2**l:
        raise GenericityFailure(f"enumerated {count} structures, expected {2**l}")
    backend = structures[0].backend if structures else algebra.backend
    return JCountReport(l, len(spec.blocks), count, metric, backend)


@dataclass(frozen=True)
class ScanTrial:
    index: int
    seed: int
    gram_hash: str
    k: int
    j_count: int
    backend: str


@dataclass(frozen=True)
class ScanReport:
    trials: tuple
    skipped: int
    histogram: dict = field(default_factory=dict)


def _gram_hash(G) -> str:
    payload = ";".join(",".join(str(x) for x in row) for row in G)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def metric_scan(A: MetricLieAlgebra, trials: int, seed: int = 0,
                spread: int = DEFAULT_SPREAD) -> ScanReport:
    """Sample random metrics and aggregate (k, J-count) pairs.  An abelian
    factor depends on the bracket alone, so it skips every trial."""
    if has_abelian_factor(A):
        return ScanReport((), max(trials, 0), {})
    out = []
    for t in range(trials):
        tseed = _derive_seed(seed, "scan", t)
        metric = random_gram(A.dim, tseed, spread)
        dec = decompose(A.with_metric(metric), seed=tseed)
        structures = complex_structures(dec)
        backend = structures[0].backend if structures else dec.backend
        out.append(ScanTrial(t, tseed, _gram_hash(metric.gram), dec.k,
                             len(structures), backend))
    hist = {}
    for tr in out:
        hist[(tr.k, tr.j_count)] = hist.get((tr.k, tr.j_count), 0) + 1
    return ScanReport(tuple(out), 0, hist)
