"""Exception hierarchy for metriclie."""


class MetricLieError(Exception):
    """Base class for all metriclie errors."""


class ParseError(MetricLieError):
    """Malformed input document."""


class DimensionMismatch(MetricLieError):
    pass


class JacobiViolation(MetricLieError):
    def __init__(self, triple, residual):
        self.triple = triple
        self.residual = residual
        super().__init__(
            f"Jacobi identity fails on basis triple {triple}, residual {residual}"
        )


class MetricNotPositiveDefinite(MetricLieError):
    def __init__(self, minor_index):
        self.minor_index = minor_index
        super().__init__(
            f"Gram matrix is not positive definite: leading minor {minor_index} <= 0"
        )


class NotASubalgebra(MetricLieError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            f"subspace is not closed under the bracket, witness pair {witness}"
        )


class AbelianFactorPresent(MetricLieError):
    """The algebra has a non-zero abelian factor, so the orthogonal
    decomposition is not unique and the operation is refused."""


class GenericityFailure(MetricLieError):
    """Seeded random sampling failed to produce a generic element or metric
    within the retry budget."""


class InvalidComplexStructure(MetricLieError):
    pass


class InternalAssertionFailure(MetricLieError):
    """A structural fact that must hold by theory was violated.  This always
    indicates a bug or corrupted input and is never silently handled."""


class IrrationalNormalizer(MetricLieError):
    """Exact backend cannot represent a required square root."""


class AbelianBlock(MetricLieError):
    pass


class InvalidL(MetricLieError):
    pass


class NoComplexStructureOnBlock(MetricLieError):
    pass


class UnknownExample(MetricLieError):
    pass
