"""Exception types shared across the toolkit.

Every error raised by the public API derives from :class:`MckayError`, so
callers (and the CLI) can distinguish toolkit failures from programming
errors.  The leaf classes carry no extra state beyond the message.
"""


class MckayError(Exception):
    """Base class for all toolkit errors."""


class InvalidDescriptor(MckayError):
    """Group descriptor is outside the ADE classification (bad series/rank)."""


class InvalidArgument(MckayError):
    """An argument is missing or out of range (e.g. a negative degree)."""


class NonIntegralMultiplicity(MckayError):
    """A multiplicity computed mod p has a residue above its integer bound."""


class NonIntegralCoefficient(MckayError):
    """A Molien coefficient computed mod p has a residue above its bound."""


class MalformedFile(MckayError):
    """An input file cannot be read as UTF-8 text, lacks a required entry or
    holds a value of the wrong type."""


class InvariantViolation(MckayError):
    """An internal self-check failed (corrupted table or implementation bug)."""


class AlreadyFramed(MckayError):
    """Operation requires an unframed quiver."""


class AlreadyTripled(MckayError):
    """Operation requires a quiver without loops."""


class EmptyI(MckayError):
    """The corner vertex set must be nonempty."""


class VertexNotInCorner(MckayError):
    """Slice endpoint lies outside the corner set of a cornered algebra."""


class DegreeCapExceeded(MckayError):
    """Requested degree exceeds the configured cap."""


class UnsupportedSeries(MckayError):
    """The character oracle does not cover the requested algebra flavor."""


class BoundNotFound(MckayError):
    """No vanishing window found below the degree cap."""


class EndpointMismatch(MckayError):
    """Class multiplication with incompatible endpoints or degrees."""


class ShapeMismatch(MckayError):
    """A representation matrix has the wrong shape for its arrow."""


class UnsupportedTheta(MckayError):
    """Stability parameter is not of the corner shape handled by the fast path."""


class DimensionTooLarge(MckayError):
    """A size exceeds a documented limit: the brute-force enumeration's
    dimension or subspace count, a Molien bound at the prime, or the rank
    of a group to build."""


class BadPrime(MckayError):
    """The chosen number is not a prime, is too large to certify as one, or
    divides a denominator of the representation."""


class NotSemistable(MckayError):
    """Operation requires a semistable representation."""


class NotStable(MckayError):
    """Operation requires a stable representation."""


class NotStableForSource(MckayError):
    """Pushforward input is not stable for the source chamber."""


class RepresentativeDependence(MckayError):
    """Class action depends on the chosen path representative.

    Signals a relation violation in the input module.
    """


class TruncationNotReached(MckayError):
    """Degree cap hit before the extension stabilised."""


class NoTermination(MckayError):
    """Least-fixpoint iteration exceeded its certified bound."""


class NotEquivariant(MckayError):
    """ADHM data does not respect the weight grading."""


class MomentMapNonzero(MckayError):
    """ADHM data fails the moment-map equation."""


class NotAQuotient(MckayError):
    """No surjection from the truncated projective exists."""


class OracleMismatch(MckayError):
    """Two independent computations of the same quantity disagree."""


class RelationViolation(MckayError):
    """Representation does not satisfy the defining relations."""
