"""Exception hierarchy shared across the package."""


class LieclassError(Exception):
    """Base class for all package errors."""


class MismatchedSize(LieclassError):
    """Two objects that must share an ambient size do not."""


class BadParameter(LieclassError):
    """A constructor parameter is out of range (odd symplectic size etc)."""


class DimensionMismatch(LieclassError):
    """An operator does not act on the space it is applied to."""


class BadSampleCount(LieclassError):
    """Sample count must be >= 1."""


class NoMatrixModel(LieclassError):
    """The requested module has no matrix constructor (table-only entry)."""


class UnrecognizedShape(LieclassError):
    """A pair is not expressible in the spherical-table vocabulary."""


class UnsupportedShape(LieclassError):
    """A classification datum uses factor types outside sl/so/sp."""


class NotSemiDecreasing(LieclassError):
    """Monodromy is only defined for semi-decreasing tuples."""


class TupleTooShort(LieclassError):
    """The operation needs a longer tuple."""


class NotShaleWeil(LieclassError):
    """Expected a Shale-Weil tuple."""


class NotPositiveShaleWeil(LieclassError):
    """Expected a positive Shale-Weil tuple (or the derived highest weight
    failed dominance)."""


class ShapeMismatch(LieclassError):
    """Quiver representation maps do not match the dimension vector."""


class CapExceeded(LieclassError):
    """A rank known in advance to be at most a cap was found above it: the
    premise of the cap (a span closed under the bracket, say) is false."""


class TooLarge(LieclassError):
    """Input exceeds a hard search bound (a rank, size or coefficient cap)."""


class RelationViolation(LieclassError):
    """Group generators fail the defining relations."""
