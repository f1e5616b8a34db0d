"""Exception types shared across the package, and the field rules of the config sections."""

import sys
from functools import lru_cache
from numbers import Integral, Real


class FingerspellError(Exception):
    """Base class for all package errors."""


class AllZeroImageError(FingerspellError):
    """Depth image contains no nonzero pixel (no hand present)."""


class DimensionMismatchError(FingerspellError):
    """Array shapes or vector lengths are incompatible."""


class LengthMismatchError(DimensionMismatchError):
    """Paired sequences have different lengths."""


class ContentLargerThanTargetError(FingerspellError):
    """Nonzero bounding box does not fit the requested canvas."""


class WrongInputSizeError(FingerspellError):
    """Operation requires a specific input resolution."""


class FormatError(FingerspellError):
    """Malformed file content (bad magic, header, or truncated data)."""


class MissingFileError(FingerspellError):
    """A file referenced by a manifest does not exist."""


class UnknownLetterError(FingerspellError):
    """Letter label outside the 24-letter static alphabet."""


class UnknownUserError(FingerspellError):
    """Requested user id not present in the dataset."""


class EmptyDataError(FingerspellError):
    """Operation requires at least one sample/row."""


class LabelOutOfRangeError(FingerspellError):
    """Class label outside the model's label set."""


class NumericError(FingerspellError):
    """Non-finite value (NaN/Inf) detected during computation."""


class ConfigError(FingerspellError, ValueError):
    """Invalid run configuration."""


@lru_cache(maxsize=64)
def _is_number_type(t: type, integral: bool) -> bool:
    # cached per type: an ABC isinstance check costs about a microsecond, and a config load makes ~200
    return issubclass(t, Integral if integral else Real) and not issubclass(t, bool)


def _finite(v) -> bool:
    # NaN, the infinities and integers beyond the float range all fail the comparison
    return _is_number_type(type(v), False) and abs(v) <= sys.float_info.max


FIELD_RULES = {
    "an integer >= 0": lambda v: _is_number_type(type(v), True) and v >= 0,
    "an integer >= 1": lambda v: _is_number_type(type(v), True) and v >= 1,
    "finite": _finite,
    "finite and >= 0": lambda v: _finite(v) and v >= 0,
    "finite and positive": lambda v: _finite(v) and v > 0,
    "in [0, 1)": lambda v: _finite(v) and 0 <= v < 1,
    "a string without NUL": lambda v: isinstance(v, str) and "\0" not in v,
}


def check_fields(obj, rule: str, *names: str) -> None:
    """Raise :class:`ConfigError` unless each named field of ``obj`` obeys ``rule`` (a key of
    :data:`FIELD_RULES`); a tuple field must obey it item by item."""
    test = FIELD_RULES[rule]
    for name in names:
        value = getattr(obj, name)
        if not all(map(test, value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"{type(obj).__name__}.{name} must be {rule}, got {value!r}")
