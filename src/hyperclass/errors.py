"""Exception types shared across the package.

Every violated mathematical hypothesis gets its own class so callers (and the
scan loop, which records failures as row data) can tell them apart.
"""


class HyperclassError(Exception):
    """Base class for all errors raised by this package."""


class NotMonicError(HyperclassError):
    """The defining polynomial is not monic."""


class NotSquarefreeError(HyperclassError):
    """The defining polynomial has a repeated factor."""


class BadDegreeError(HyperclassError):
    """The defining polynomial has even degree or degree below 3."""


class PointNotOnCurveError(HyperclassError):
    """The given affine point does not satisfy y^2 = f(x)."""


class InvalidDivisorError(HyperclassError):
    """A pair (a, b) violates the Mumford representation invariants."""


class NotPrimitiveError(HyperclassError):
    """A specialised coefficient triple has a nontrivial common divisor."""


class PositiveValueError(HyperclassError):
    """f(n) >= 0, so Z[sqrt(f(n))] is not an imaginary quadratic order."""


class DivisibilityError(HyperclassError):
    """A required exact divisibility (such as a | b^2 - e^2 D) fails."""


class NonInvertibleError(HyperclassError):
    """The ideal is not invertible in its order, so it has no Picard class."""


class DiscriminantMismatchError(HyperclassError):
    """Operands live in quadratic rings of different discriminants."""


class DegreeTooLargeError(HyperclassError):
    """A comparison polynomial must be nonconstant of degree below deg f."""


class FactorizationBoundError(HyperclassError):
    """Integer factorisation exceeded the configured work bound."""


class OrderBoundError(HyperclassError):
    """A class order exceeded the iteration cap of its computation."""


class ClassNumberBoundError(HyperclassError):
    """A discriminant lies past the memory reach of the class-number count."""


class InternalInconsistencyError(HyperclassError):
    """An invariant that should be unreachable was violated; please report."""


class ConfigError(HyperclassError):
    """A config file or CLI operand could not be parsed."""
