"""Exception types shared across the library, and the one reader of
JSON input files, which turns every way such a file can be unreadable
into an ``InstanceFormatError``."""

import json


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


def read_json_object(path: str, where: str, missing_ok: bool = False) -> dict | None:
    """The JSON object stored at ``path``.  A file that cannot be read or
    decoded, or whose top level is not an object, raises
    InstanceFormatError with a message that starts with ``where``; with
    ``missing_ok``, a file that does not exist gives None instead."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        if missing_ok and isinstance(e, FileNotFoundError):
            return None
        raise InstanceFormatError(f"{where}: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise InstanceFormatError(f"{where}: line {e.lineno}, column {e.colno}: {e.msg}") from None
    except UnicodeDecodeError as e:
        raise InstanceFormatError(f"{where}: {e}") from None
    if not isinstance(data, dict):
        raise InstanceFormatError(f"{where}: top level must be an object")
    return data
