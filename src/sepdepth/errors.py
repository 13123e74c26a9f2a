"""Exception types shared across the package."""


class SepdepthError(Exception):
    """Base class for all package errors."""


class CapExceeded(SepdepthError):
    """A configured size cap was exceeded; carries the offending dimension,
    or with exact=False a lower bound on it, which the message omits."""

    def __init__(self, what, value, cap, exact=True):
        super().__init__(f"{what} = {value} exceeds cap {cap}" if exact
                         else f"{what} exceeds cap {cap}")
        self.what = what
        self.value = value
        self.cap = cap


class ElementNotInGroup(SepdepthError):
    pass


class NotASubgroup(SepdepthError):
    pass


class SplittingFailure(SepdepthError):
    """The class matrices did not split e_0 into one piece per class mod p:
    a minimal polynomial without distinct roots in GF(p), or pieces left
    when the class matrices ran out."""


class LiftInconsistency(SepdepthError):
    """Lifted multiplicities violate the exact dimension identity."""


class NotInT(SepdepthError):
    """Element of the tensor square fails H-centrality."""


class UnitMissing(SepdepthError):
    pass


class InvalidAlgebra(SepdepthError):
    """Structure constants or a matrix basis that define no algebra."""


class CheckFailed(SepdepthError):
    """An exact check of a computed result (radical, witness) failed."""


class InvalidArgument(SepdepthError, ValueError):
    """An argument outside a function's domain."""
