"""Exception hierarchy shared by all gmmodes modules."""


class GmModesError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(GmModesError):
    pass


class NonSPD(GmModesError):
    """A covariance matrix is not symmetric positive definite.

    Carries the index of the offending component when known.
    """

    def __init__(self, index=None, message=None):
        self.index = index
        if message is None:
            message = f"covariance {index} is not symmetric positive definite"
        super().__init__(message)


class NegativeWeight(GmModesError):
    pass


class WeightSumInvalid(GmModesError):
    pass


class NonFinite(GmModesError):
    pass


class SingularTransform(GmModesError):
    pass


class InvalidParameter(GmModesError, ValueError):
    """An option, argument or input document is malformed or out of range."""


class GenericityFailure(GmModesError):
    """Arrangement sampling exhausted its rejection budget.

    ``best_margin`` reports the largest genericity margin seen.
    """

    def __init__(self, best_margin, attempts):
        self.best_margin = best_margin
        self.attempts = attempts
        super().__init__(
            f"no arrangement with margin >= 0.05 in {attempts} attempts "
            f"(best margin {best_margin:.4g})"
        )


class MeanOnForeignHyperplane(GmModesError):
    pass


class InvalidDelta(GmModesError):
    pass


class DeltaNotFound(GmModesError):
    """The halving schedule found no delta reaching the target mode count.

    ``counts`` maps each tried delta to the measured mode count.
    """

    def __init__(self, counts, target):
        self.counts = counts
        self.target = target
        super().__init__(
            f"no delta reached {target} modes; per-delta counts: {counts}"
        )


class TooManyComponents(GmModesError):
    pass


class IllConditioned(GmModesError):
    pass


class TooFewSamples(GmModesError):
    pass


class UnknownScenario(GmModesError):
    pass


class UnsupportedDimension(GmModesError):
    pass
