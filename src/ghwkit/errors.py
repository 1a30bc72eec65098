"""Exception types raised by the library."""


class GHWError(Exception):
    """Base class for all errors raised by this package."""


class NonPrime(GHWError):
    """Field characteristic is not a prime number."""


class FieldTooLarge(GHWError, ValueError):
    """Field order q exceeds the largest supported field."""


class ReducibleModulus(GHWError):
    """Supplied modulus polynomial is reducible over GF(p)."""


class WrongDegree(GHWError):
    """Modulus polynomial has the wrong shape (length, leading coefficient or
    coefficient range)."""


class DivisionByZero(GHWError):
    """Multiplicative inverse of the zero element requested."""


class DimensionMismatch(GHWError):
    """Matrix dimensions or fields are incompatible for the operation."""


class RankDeficient(GHWError):
    """Rows of a generator matrix do not form a basis."""


class ZeroDual(GHWError):
    """Dual of the full space requested; the zero code has no generator matrix."""


class NotCyclic(GHWError):
    """Operation requires a cyclic code."""


class CharacteristicDividesLength(GHWError):
    """BCH machinery requires gcd(n, p) = 1."""


class BadDimension(GHWError):
    """Requested code dimension is out of range for the constructor."""


class DegreeOutOfRange(GHWError):
    """Requested evaluation degree is out of the supported range."""


class BadArgs(GHWError):
    """Arguments violate the documented preconditions."""


class BadRank(GHWError):
    """Subcode dimension r is out of range."""


class NotNested(GHWError):
    """Second code is not a subcode of the first."""


class WorkLimitExceeded(GHWError):
    """A spectrum's predicted work, or a subspace stream, would exceed what can be run."""


class BadHierarchy(GHWError):
    """Sequence is not a valid weight hierarchy."""


class CodeFileSyntaxError(GHWError):
    """Malformed code file; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CodeFileFieldError(GHWError):
    """Code file declares an invalid finite field."""


class MismatchedResults(GHWError):
    """Benchmark found disagreeing values between two algorithms."""
