"""Exception types and the argument checks shared across the package."""
from __future__ import annotations

import numbers
import operator
import sys

# Largest double; math.isfinite raises OverflowError for an int beyond it.
DOUBLE_MAX = sys.float_info.max

# Highest order of every double-precision evaluation, polygamma's included:
# above it the coefficients and order! (171! > 1.8e308) exceed double range.
MAX_EVAL_ORDER = 170
# Highest order of the exact tables: at 1000 the largest coefficient has 2567
# digits, below Python's 4300-digit limit on int-to-str conversion.
MAX_TABLE_ORDER = 1000


class PolylimError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PolylimError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class InvalidHarmonicError(DomainError):
    """Requested a harmonic coefficient whose parity cannot occur.

    The cosine expansion of the p-th cotangent derivative contains only
    multipliers j with p + j odd; asking for p + j even is a structural error,
    not merely a zero coefficient.
    """


class HarmonicRangeError(DomainError):
    """Requested a harmonic multiplier at or beyond the derivative order."""


class PoleError(DomainError):
    """Evaluation was requested too close to a pole of the function.

    ``location`` holds the offending pole (an integer for polygamma
    arguments, a real number for raw trigonometric evaluation).
    """

    def __init__(self, message: str, location: float | int | None = None):
        super().__init__(message)
        self.location = location


class TableCapacityError(DomainError):
    """An index exceeds the configured size of a precomputed table."""


class ProbeFailureError(PolylimError, RuntimeError):
    """A limit probe sample tripped a pole guard.

    ``z`` is the offending sample point.
    """

    def __init__(self, message: str, z: float | None = None):
        super().__init__(message)
        self.z = z


def shown(value, text=str) -> str:
    """text(value) for an error message, even with an int too long to convert."""
    try:
        return text(value)
    except ValueError:  # an int beyond sys.get_int_max_str_digits() digits
        if not isinstance(value, int):  # a Fraction or a tuple holding one
            return f"<{type(value).__name__} too long to print>"
        return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit integer>"


def as_index(value, name: str, minimum: int | None = None) -> int:
    """Coerce an integral argument (any type with ``__index__``) to int.

    Floats are rejected even when integral: parity logic downstream must
    never silently truncate.  ``bool`` is rejected too: ``True`` as an order
    or a multiplier is a caller's mistake, not the integer 1.  A value below
    ``minimum`` is rejected, named with its underscores read as spaces.
    """
    if isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    try:
        index = operator.index(value)
    except TypeError:
        raise DomainError(
            f"{name} must be an integer, got {shown(value, repr)}"
        ) from None
    if minimum is not None and index < minimum:
        raise DomainError(
            f"{name.replace('_', ' ')} must be >= {minimum}, got {shown(index)}"
        )
    return index


def as_order(value, name: str = "order", minimum: int = 0, exact: bool = False) -> int:
    """Coerce an order as by as_index and cap it at MAX_EVAL_ORDER.

    With ``exact`` the cap is MAX_TABLE_ORDER, the exact tables' bound:
    ``order 1001 exceeds exact arithmetic range (max 1000)``.
    """
    order = as_index(value, name, minimum)
    maximum = MAX_TABLE_ORDER if exact else MAX_EVAL_ORDER
    if order <= maximum:
        return order
    arithmetic = "exact arithmetic" if exact else "double precision"
    raise DomainError(f"{name.replace('_', ' ')} {shown(order)} exceeds "
                      f"{arithmetic} range (max {maximum})")


def out_of_range(subject: str) -> DomainError:
    """The error for a result beyond double range, named by ``subject``."""
    return DomainError(f"{subject} exceeds double precision range")


def as_tuple(value, name: str) -> tuple:
    """Return the items of an iterable argument as a tuple."""
    try:
        return tuple(value)
    except TypeError:
        raise DomainError(
            f"{name} must be a sequence, got {shown(value, repr)}"
        ) from None


def as_indices(value, name: str) -> tuple[int, ...]:
    """Coerce a sequence of integral values to a tuple of ints, as by as_index.

    An entry that is not an integer is named by its position, ``name[i]``.
    """
    return tuple(
        [as_index(v, f"{name}[{i}]") for i, v in enumerate(as_tuple(value, name))]
    )


def as_real(value, name: str):
    """Return a real argument (any ``numbers.Real``) unchanged.

    ``float``, the common case, is tested by type first: the isinstance test
    costs more than ten times as much.
    """
    if type(value) is float or isinstance(value, numbers.Real):
        return value
    raise DomainError(f"{name} must be a real number, got {shown(value, repr)}")


def as_finite(value, name: str):
    """Return a real argument within double range unchanged, as by as_real.

    nan, the infinities and an int or ``Fraction`` beyond double range are
    rejected: ``argument must be finite, got inf``.
    """
    if abs(as_real(value, name)) <= DOUBLE_MAX:
        return value
    raise DomainError(f"{name} must be finite, got {shown(value)}")
