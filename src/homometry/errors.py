"""Exception types shared across the package."""


class HomometryError(Exception):
    """Base class for all package errors; `witness` names the offending data."""

    def __init__(self, message="", witness=None):
        super().__init__(message)
        self.witness = witness


class InvariantError(HomometryError):
    """An exact re-check of a computed result failed: a bug, not bad input."""


class SingularMatrixError(HomometryError):
    pass


class NotASublatticeError(HomometryError):
    pass


class NotInLatticeError(HomometryError):
    pass


class DegenerateDifferencesError(HomometryError):
    """The difference set does not span the ambient space."""


class EmptySetError(HomometryError, ValueError):
    """A point set or hull input with no points."""


class NotDirectError(HomometryError):
    """A Minkowski sum required to be direct is not."""


class LowerDimensionalError(HomometryError):
    """An operation requiring a full-dimensional body got a flat one."""


class LowerDimensionalTileError(LowerDimensionalError):
    """Thin-direction sets of flat tiles are infinite."""


class NotLatticeConvexError(HomometryError):
    pass


class NotATilingError(HomometryError):
    pass


class UnsupportedDimensionError(HomometryError):
    pass


class InvalidSError(HomometryError):
    pass


class InvalidParametersError(HomometryError):
    pass


class InvalidBaseError(HomometryError):
    pass


class SchemaError(HomometryError):
    """Malformed JSON input; carries the offending path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
