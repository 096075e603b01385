"""Polygamma evaluation on the real line, excluding the non-positive integers.

Three evaluation regions:

* x >= 10: asymptotic expansion in 1/x with Bernoulli-number coefficients
  (DLMF 5.15.8).  The series' coefficients depend on the order alone, so a
  table of them is built once per order, order 0 included, and cached; each
  call only divides them by powers of x.
* 0.5 <= x < 10: upward recurrence until the argument reaches 10, then the
  asymptotic expansion ("shifted-asymptotic").
* x < 0.5: reflection through 1 - x, with the cotangent's derivative
  polynomial (``eval_cot_deriv_pi``) supplying the reflection term.

A slow, definitionally direct series oracle is included for validation; it
shares no code with the evaluation paths above.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from ._kernels import shifted_power_sum
from .cotderiv import _polynomial_row, eval_cot_deriv_pi
from .errors import (
    DOUBLE_MAX,
    DomainError,
    PoleError,
    TableCapacityError,
    as_finite,
    as_index,
    as_order,
    as_real,
    out_of_range,
    shown,
)

# Shift target for the recurrence region; arguments at or above this go
# straight to the asymptotic series.
SHIFT_TARGET = 10.0

# Arguments closer than this to a non-positive integer are rejected.
POLE_PROXIMITY = 1e-12

# Stop the asymptotic series at the first term below this relative size.
_SERIES_EPS = 1e-17

# B0 .. B60: the table behind `bernoulli` and the asymptotic series.
BERNOULLI_SIZE = 60

# Summands the series oracle adds before its Euler-Maclaurin remainder.
ORACLE_TERMS = 1000

METHOD_ASYMPTOTIC = "asymptotic"
METHOD_SHIFTED = "shifted-asymptotic"
METHOD_REFLECTION = "reflection"


class PolygammaResult(
    namedtuple("PolygammaResult", "order argument value method shift_count")
):
    """Value of the order-th polygamma at ``argument`` plus path diagnostics.

    ``method`` records which evaluation region handled the argument;
    ``shift_count`` is the number of recurrence steps applied (for the
    reflection path, the steps taken while evaluating at 1 - x).
    """

    __slots__ = ()


@lru_cache(maxsize=None)
def _bernoulli_numbers() -> tuple[Fraction, ...]:
    """B0 .. B_BERNOULLI_SIZE as exact rationals, B1 = -1/2.

    The tangent numbers T_k = tan^(2k-1)(0) = 1, 2, 16, ... come from the
    derivative-polynomial table behind ``eval_cot_deriv``: cot(pi/2 + h) =
    -tan h and cot(pi/2) = 0, so T_k = -cot^(2k-1)(pi/2) = -P_(2k-1)(0).
    Then B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)); the odd B past B1 vanish.
    """
    values = [Fraction(1), Fraction(-1, 2)]
    for k in range(1, BERNOULLI_SIZE // 2 + 1):
        tangent = -_polynomial_row(2 * k - 1)[0]
        values.append(Fraction((-1) ** (k - 1) * 2 * k * tangent, 4**k * (4**k - 1)))
        values.append(Fraction(0))
    return tuple(values[: BERNOULLI_SIZE + 1])


def bernoulli(index: int) -> Fraction:
    """Exact Bernoulli number B_index under the B1 = -1/2 convention."""
    index = as_index(index, "index", 0)
    if index > BERNOULLI_SIZE:
        raise TableCapacityError(
            f"index {shown(index)} exceeds the configured table size {BERNOULLI_SIZE}"
        )
    return _bernoulli_numbers()[index]


@lru_cache(maxsize=None)
def _series_coefficients(order: int) -> tuple[tuple[float, float], ...]:
    """(coefficient, divisor) pairs for j = 1..30: (-B_2j, 2j) at order 0.

    At order >= 1 the pair is (B_2j * c_j, 1.0).  c_j = (2j + order - 1)! /
    (2j)! is a running float product, starting from (order - 1)! * order *
    (order + 1) / 2 and multiplied by (2j + order)(2j + order + 1) /
    ((2j + 1)(2j + 2)) after each term.  Built once per order.
    """
    bern = [float(b) for b in _bernoulli_numbers()[2::2]]
    if order == 0:
        return tuple((-b, 2 * j) for j, b in enumerate(bern, 1))
    c = float(math.factorial(order - 1)) * order * (order + 1) / 2.0
    pairs = []
    for j, b in enumerate(bern, 1):
        pairs.append((b * c, 1.0))
        c *= (2 * j + order) * (2 * j + order + 1) / ((2 * j + 1) * (2 * j + 2))
    return tuple(pairs)


def _asymptotic(order: int, x: float) -> float:
    """Large-argument expansion; its one caller passes x >= SHIFT_TARGET.

    There the running sum is positive, so the stop rule needs no abs().
    """
    x2 = x * x
    if order == 0:
        acc = math.log(x) - 0.5 / x
        xp = x2
    else:
        lead = float(math.factorial(order - 1))
        acc = lead / x**order + lead * order / (2.0 * x ** (order + 1))
        xp = x ** (order + 2)
    prev = math.inf
    for coefficient, divisor in _series_coefficients(order):
        term = coefficient / (divisor * xp)
        size = term if term >= 0.0 else -term
        if size >= prev:
            break
        acc += term
        if size <= _SERIES_EPS * acc:
            break
        prev = size
        xp *= x2
    return -acc if order and not order % 2 else acc


def _positive(order: int, x: float) -> tuple[float, int]:
    """Evaluate for x > 0 via recurrence + asymptotics; returns (value, shifts)."""
    if x >= SHIFT_TARGET:
        return _asymptotic(order, x), 0
    shifts = math.ceil(SHIFT_TARGET - x)
    base = _asymptotic(order, x + shifts)
    correction = math.factorial(order) * math.fsum(
        (x + j) ** (-(order + 1)) for j in range(shifts)
    )
    # psi^(n)(x) = psi^(n)(x + m) - (-1)^n * n! * sum(...)
    value = base + correction if order % 2 else base - correction
    return value, shifts


def polygamma(order: int, x: float) -> PolygammaResult:
    """Evaluate the order-th polygamma at real x with path bookkeeping."""
    order = as_order(order)
    as_finite(x, "argument")
    try:
        if x >= 0.5:
            value, shifts = _positive(order, x)
            method = METHOD_ASYMPTOTIC if shifts == 0 else METHOD_SHIFTED
        else:
            nearest = round(x)
            if abs(x - nearest) < POLE_PROXIMITY:
                raise PoleError(
                    f"x={shown(x)} is within {POLE_PROXIMITY} of the pole at {nearest}",
                    location=nearest,
                )
            # psi^(n)(x) = (-1)^n psi^(n)(1 - x) - pi^(n+1) cot^(n)(pi x)
            reflected, shifts = _positive(order, 1.0 - x)
            cot_term = math.pi ** (order + 1) * eval_cot_deriv_pi(order, x)
            signed = -reflected if order % 2 else reflected
            value, method = signed - cot_term, METHOD_REFLECTION
    except OverflowError:
        # The powers of x in the asymptotic series leave double range for
        # large arguments (x**(order + 2) at polygamma(3, 1e300)).
        value = math.inf
    if not math.isfinite(value):
        raise out_of_range(f"polygamma of order {order} at x={shown(x)}")
    return PolygammaResult(order, x, value, method, shifts)


def polygamma_series_oracle(order: int, x: float) -> float:
    """Direct series evaluation of the order-th polygamma for x > 0, order >= 1.

    Partial sum of (-1)^(order+1) * order! * sum_k (x+k)^-(order+1) over
    ORACLE_TERMS summands, plus the Euler-Maclaurin remainder (DLMF 2.10.1)
    of the rest of the series: with a = x + ORACLE_TERMS and s = order + 1,

        a^-order/order + a^-s/2 + s a^-(s+1)/12 - s(s+1)(s+2) a^-(s+3)/720.

    The first omitted correction is smaller than the tail by about
    (s/a)^6 / 30240, so with ORACLE_TERMS = 1000 the result is accurate to a
    few ulp wherever the terms stay inside double range.  The Bernoulli
    coefficients 1/12 and 1/720 are written out so that no code is shared
    with the evaluation paths.  Intended as an independent check, not for
    production use.  At order 0 the series diverges.
    """
    order = as_order(order, minimum=1)
    if not 0 < as_real(x, "argument") <= DOUBLE_MAX:
        raise DomainError(f"argument must be positive and finite, got {shown(x)}")
    s = order + 1
    a = x + ORACLE_TERMS
    try:
        body = shifted_power_sum(x, s, ORACLE_TERMS)
        tail = (
            a**-order / order
            + a**-s / 2.0
            + s * a ** -(s + 1) / 12.0
            - s * (s + 1) * (s + 2) * a ** -(s + 3) / 720.0
        )
        total = math.factorial(order) * (body + tail)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise out_of_range(f"polygamma of order {order} at x={shown(x)}")
    return total if order % 2 else -total


def reflection_residual(order: int, z: float) -> float:
    """Relative defect of the reflection identity at z in (0, 1).

    Evaluates |psi^(n)(1-z) + (-1)^(n+1) psi^(n)(z)
               - (-1)^n pi^(n+1) cot^(n)(pi z)|
    relative to the largest term: divided by the largest magnitude among
    psi^(n)(1-z), psi^(n)(z) and pi^(n+1) cot^(n)(pi z).  Both polygamma
    values are computed through the positive-argument paths only, never
    through reflection, so a small residual genuinely verifies the identity.
    """
    order = as_order(order)
    if not (0.0 < as_real(z, "z") < 1.0):
        raise DomainError(f"z must lie strictly inside (0, 1), got {shown(z)}")
    try:
        left = _positive(order, 1.0 - z)[0]
        right = _positive(order, z)[0]
        cot_term = math.pi ** (order + 1) * eval_cot_deriv_pi(order, z)
        defect = left + right + cot_term if order % 2 else left - right - cot_term
        # A term beyond double range makes this inf / inf or inf / x.
        residual = abs(defect) / max(abs(left), abs(right), abs(cot_term))
    except OverflowError:
        residual = math.inf
    if not math.isfinite(residual):
        raise out_of_range(f"reflection residual of order {order} at z={shown(z)}")
    return residual
