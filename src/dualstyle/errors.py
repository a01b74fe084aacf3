"""Exception types shared across the package."""


class DualStyleError(Exception):
    """Base class for all dualstyle errors."""


class EmptyLineError(DualStyleError):
    pass


class InvalidSpecError(DualStyleError):
    pass


class EmptySequenceError(DualStyleError):
    pass


class NonScalarLossError(DualStyleError):
    pass


class NaNDetectedError(DualStyleError):
    pass


class ShapeMismatchError(DualStyleError):
    pass


class LengthMismatchError(DualStyleError):
    pass


class MissingReferenceError(DualStyleError):
    pass


class StateMismatchError(DualStyleError):
    pass
