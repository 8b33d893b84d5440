"""Exception types shared across the library."""


class LatsepError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(LatsepError):
    """Points or functionals with incompatible dimensions were combined."""


class UnsupportedDimensionError(LatsepError):
    """Operation restricted to low ambient dimension was called above it."""


class InvalidFlagError(LatsepError):
    """A separating flag is structurally invalid (e.g. a level is constant
    on the flat cut out by the previous levels)."""


class EmptyInteriorError(LatsepError):
    """A minimal triangle with no non-vertex lattice points was passed to
    the equal-sum triple construction."""


class InstanceFormatError(LatsepError):
    """An instance, flag or checkpoint file, or another input, failed to
    parse or validate."""
