"""Exception types shared across the package."""


class GeodiscError(Exception):
    """Base class for all errors raised by geodisc."""


class DegenerateGradient(GeodiscError):
    """Gradient of the defining function vanishes where a normal is needed."""


class NoConvergence(GeodiscError):
    """An iterative solver ran out of iterations or stalled."""


class DomainViolation(GeodiscError):
    """A point lies outside the region where evaluation is defined."""


class NotReal(GeodiscError):
    """A boundary field expected to be real-valued is not."""


class ZeroOnCircle(GeodiscError):
    """A field passes too close to zero on the unit circle."""


class AmbiguousWinding(GeodiscError):
    """A sampled phase is too coarse or its total does not round decisively."""


class NotSymmetric(GeodiscError):
    """Matrix argument is not complex symmetric."""


class NotPositive(GeodiscError):
    """Matrix field is not positive definite on the circle."""


class ContractionFailure(GeodiscError):
    """The contraction margin of the linearized system is exhausted."""


class LeftDomain(GeodiscError):
    """An iterate left the region where the defining function is usable."""


class NonConstantPairing(GeodiscError):
    """f' . f_tilde deviates from a constant beyond tolerance."""


class InvalidConstraint(GeodiscError):
    """Degenerate solve request (w == z, v == 0, or malformed data)."""


class WindingNotOne(GeodiscError):
    """The counting integral for the left inverse is not 1."""


class NewtonFailure(GeodiscError):
    """Scalar Newton polish failed to reach tolerance."""


class StepUnderflow(GeodiscError):
    """The homotopy march's step shrank below its _MIN_STEP; carries the
    path up to the last accepted disc."""

    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path
