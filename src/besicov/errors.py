"""Exception hierarchy and the JSON form of results, shared by all modules."""

from dataclasses import fields
from fractions import Fraction


class Result:
    """A dataclass whose JSON form is its fields.

    A ``Fraction`` becomes its ``str``, a tuple or list a list, a dict's keys
    ``str``, and a nested result its own :meth:`as_dict`; other values stay.
    The CLI and the benchmark print with sorted keys, so key order is free.
    """

    def as_dict(self) -> dict:
        return {f.name: _json(getattr(self, f.name)) for f in fields(self)}


def _json(value):
    if isinstance(value, Result):
        return value.as_dict()
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_json(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json(v) for k, v in value.items()}
    return value


class BesicovError(Exception):
    """Base class for all library errors."""


class IndecisiveBracket(BesicovError):
    """A rational enclosure of alpha was too shallow to decide a comparison,
    even after escalating to the configured maximum depth."""


class InvariantBroken(BesicovError):
    """An identity or containment the library's own construction guarantees
    does not hold: a fault in the program, not in its input."""


class ValidationFailure(BesicovError):
    """A level profile violates one of its growth conditions.

    Carries the first failing certificate in ``args[0]``.
    """


class IndexOutOfRange(BesicovError):
    """Interval index j outside 0 <= j < A_n * q_{k_n}."""


class DepthExceedsProfile(BesicovError):
    """Requested sampling depth or level beyond the profile's n_max."""


class InvalidDigitPath(BesicovError):
    """A digit path whose consecutive intervals are not nested."""


class BelowFirstWindow(BesicovError):
    """|m| is below the first certified iterate window."""


class WindowBeyondProfile(BesicovError):
    """|m| falls past the last window the profile's levels can certify."""


class ErrorBudgetBlown(BesicovError):
    """Accumulated floating-point error bound exceeds the tolerance of the
    requested probe."""
