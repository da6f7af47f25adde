"""Exception types shared across the package."""


class GeuError(Exception):
    """Base class for all errors raised by this package."""


class ZeroPolynomial(GeuError):
    """Root extraction requested for the zero polynomial."""


class ExactModeUnavailable(GeuError):
    """Exact factorization could not be completed; fall back to numeric mode."""


class FloatOverflow(GeuError):
    """An exact scalar is too large to convert to a complex float."""


class NotDivisible(GeuError):
    """Synthetic division left a nonzero remainder."""


class SingularSimilarity(GeuError):
    """The similarity matrix of a Jordan spec is not invertible."""


class SingularMatrix(GeuError):
    """A matrix required to be invertible is singular."""


class LocatorOutOfRange(GeuError):
    """A chain locator points outside its Jordan spec."""


class SpectrumCollision(GeuError):
    """A resolvent was evaluated at an eigenvalue."""


class DegenerateDenominator(GeuError):
    """A formula's denominator vanished; the closed form does not apply.

    Carries the offending denominator value in ``args[1]`` when known.
    """

    def __init__(self, message, value=None):
        super().__init__(message, value)
        self.value = value

    def __str__(self):
        return self.args[0]


class RankOutOfRange(GeuError):
    """A requested chain rank exceeds what the block sizes allow."""


class EigenvalueMismatch(GeuError):
    """A block was supplied whose eigenvalue violates the case's hypothesis."""


class IncompleteSpectrum(GeuError):
    """Jordan-structure recovery was given an incomplete eigenvalue list."""


class ZeroVector(GeuError):
    """A nonzero vector was required."""


class ParseError(GeuError):
    """An input file or argument could not be parsed.

    ``field`` names the offending location, e.g. ``source.rank``.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
