"""Exception hierarchy shared by all modules."""


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


class EnumerationCapExceeded(BesicovError):
    """A measured scan would enumerate more intervals than the configured cap."""


class ErrorBudgetBlown(BesicovError):
    """Accumulated floating-point error bound exceeds the tolerance of the
    requested probe."""
