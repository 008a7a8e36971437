"""Exception types shared across the library."""


class RigidityLabError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(RigidityLabError, ValueError):
    """Matrix shapes are incompatible with the requested operation."""


class InvalidMonodromyError(RigidityLabError, ValueError):
    """A matrix that must be invertible is singular."""


class InvalidPairError(RigidityLabError, ValueError):
    """A pair of vector spaces violates its invertibility invariant."""


class PairPreconditionError(RigidityLabError, ValueError):
    """A pair operation was called outside its stated preconditions."""


class ValidationError(RigidityLabError, ValueError):
    """A monodromy tuple violates one of its structural constraints."""


class GenerationError(RigidityLabError, RuntimeError):
    """Randomized generation exhausted its rejection budget."""


class InternalError(RigidityLabError, RuntimeError):
    """A self-check on a computed result failed: a defect, not bad input."""


class NonRealizableError(RigidityLabError, ValueError):
    """The transform's local data cannot be realized by a minimal pair."""


class HypothesisViolationError(RigidityLabError, ValueError):
    """The preservation theorem was invoked on a reducible tuple."""


class CatalogError(RigidityLabError, ValueError):
    """A catalog entry is unknown or fails its stored expectations."""
