"""Exact pole-ratio limits and numerical probes that verify them.

The gamma ratio Gamma(n*z)/Gamma(q*z) and the polygamma ratios
psi^(i)(n*z)/psi^(i)(q*z) approach exact rational values as z approaches a
non-positive integer -k.  Every limit is the quotient of two pole germs, the
leading Laurent terms of numerator and denominator.  ``LimitSpec.germs()``
returns the two germs; ``LimitSpec.target()`` evaluates the closed form of
their quotient, (-1)**((n-q)*k) * q*(q*k)! / (n*(n*k)!) with the factorials'
ratio as a falling factorial, or (q/n)**(i+1), in exact arithmetic.
Independently, each ratio is sampled on the fixed geometric grid
z = -k + EPS0 * 2**-j and extrapolated to eps = 0 with Neville's algorithm,
which is justified because the two poles have equal order: the ratio is
analytic in eps at 0.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .cotderiv import POLE_GUARD
from .errors import (
    DomainError,
    PoleError,
    ProbeFailureError,
    as_finite,
    as_index,
    as_order,
    as_tuple,
    out_of_range,
    shown,
)
from .polygamma import polygamma

FAMILY_GAMMA = "gamma-ratio"
FAMILY_POLYGAMMA = "polygamma-ratio"

# The probe grid z = -k + EPS0 * 2**-j, j = 0 .. LEVELS-1: its finest step,
# 3.9e-4, stays well above the double-precision cancellation near the pole.
EPS0 = 0.05
LEVELS = 8
# A probe converges when its extrapolation lies within this of the target.
TOLERANCE = 1e-5

# Caps on the work of an exact limit; LimitSpec's docstring says which is whose.
MAX_GAMMA_FACTORIAL_SIZE = 10**4
MAX_LIMIT_SCALE = 1000


class PoleGerm(namedtuple("PoleGerm", "coefficient pole_order")):
    """Leading Laurent term: f(s*z) ~ coefficient * eps**-pole_order, eps = z + k."""

    __slots__ = ()


def _gamma_germ(s: int, k: int, i: int) -> PoleGerm:
    # Gamma(-m + d) ~ (-1)**m / (m! * d) with m = s*k and d = s*eps.
    return PoleGerm(Fraction((-1) ** (s * k), s * math.factorial(s * k)), 1)


def _gamma_quotient(n: int, q: int, k: int, i: int) -> Fraction:
    # (-1)**(n*k) / (n * (n*k)!) over (-1)**(q*k) / (q * (q*k)!), with the
    # larger factorial over the smaller one as a falling factorial.
    sign = -1 if (n - q) * k % 2 else 1
    if n >= q:
        return Fraction(sign * q, n * math.perm(n * k, (n - q) * k))
    return Fraction(sign * q * math.perm(q * k, (q - n) * k), n)


def _polygamma_germ(s: int, k: int, i: int) -> PoleGerm:
    # psi^(i)(-m + d) ~ (-1)**(i+1) * i! / d**(i+1) with d = s*eps, at every m.
    return PoleGerm(Fraction((-1) ** (i + 1) * math.factorial(i), s ** (i + 1)), i + 1)


def _polygamma_quotient(n: int, q: int, k: int, i: int) -> Fraction:
    # The sign and i! cancel, leaving (1/n**(i+1)) / (1/q**(i+1)).
    return Fraction(q ** (i + 1), n ** (i + 1))


# Each family's germ and the closed form of its germ quotient, both as
# functions of (scale or scales, pole index, derivative order).
_GERMS = {FAMILY_GAMMA: _gamma_germ, FAMILY_POLYGAMMA: _polygamma_germ}
_QUOTIENTS = {FAMILY_GAMMA: _gamma_quotient, FAMILY_POLYGAMMA: _polygamma_quotient}


class LimitSpec(
    namedtuple(
        "LimitSpec",
        "family numerator_scale denominator_scale pole_index derivative_order",
    )
):
    """Which pole-ratio limit to take: family, scales, pole, derivative order.

    The gamma family takes derivative order 0 only and max(n, q) * k at most
    MAX_GAMMA_FACTORIAL_SIZE; the polygamma family takes derivative order at
    most errors.MAX_EVAL_ORDER and scales at most MAX_LIMIT_SCALE.
    ``pole_index`` does not change the polygamma family's exact value but
    selects where the probe samples.
    """

    __slots__ = ()

    def __new__(cls, family: str, numerator_scale: int, denominator_scale: int,
                pole_index: int = 0, derivative_order: int = 0):
        if not isinstance(family, str) or family not in _GERMS:
            raise DomainError(f"unknown limit family: {shown(family, repr)}")
        numerator_scale = as_index(numerator_scale, "numerator_scale")
        denominator_scale = as_index(denominator_scale, "denominator_scale")
        if numerator_scale < 1 or denominator_scale < 1:
            raise DomainError(
                f"scales must be >= 1, got n={shown(numerator_scale)}, "
                f"q={shown(denominator_scale)}"
            )
        pole_index = as_index(pole_index, "pole_index", 0)
        scale = (numerator_scale if numerator_scale > denominator_scale
                 else denominator_scale)  # max() costs a call on every spec
        if family == FAMILY_GAMMA:
            derivative_order = as_index(derivative_order, "derivative_order", 0)
            if derivative_order:
                raise DomainError(
                    f"the {family} family takes derivative order 0 only, "
                    f"got {shown(derivative_order)}"
                )
            too_large = scale * pole_index > MAX_GAMMA_FACTORIAL_SIZE
        else:
            derivative_order = as_order(derivative_order, "derivative_order")
            too_large = scale > MAX_LIMIT_SCALE
        spec = tuple.__new__(cls, (family, numerator_scale, denominator_scale,
                                   pole_index, derivative_order))
        if too_large:
            family, n, q, k, i = map(shown, spec)
            raise DomainError(f"{family} limit exceeds exact arithmetic range, "
                              f"got n={n}, q={q}, k={k}, i={i}")
        return spec

    @classmethod
    def _make(cls, iterable):  # _replace builds here; check as the constructor does
        return cls(*iterable)

    def germs(self) -> tuple[PoleGerm, PoleGerm]:
        """The numerator's and the denominator's germs at z = -pole_index."""
        germ, k, i = _GERMS[self.family], self.pole_index, self.derivative_order
        return germ(self.numerator_scale, k, i), germ(self.denominator_scale, k, i)

    def target(self) -> Fraction:
        """The exact limit: the quotient of the two germ coefficients.

        Computed from the quotient's closed form, so neither germ's
        factorial is built.
        """
        family, n, q, k, i = self
        return _QUOTIENTS[family](n, q, k, i)


def gamma_ratio_limit(
    numerator_scale: int, denominator_scale: int, pole_index: int
) -> Fraction:
    """Exact limit of Gamma(n*z)/Gamma(q*z) as z -> -pole_index.

    Equals (-1)**((n-q)*k) * (q/n) * (q*k)! / (n*k)!.
    """
    spec = LimitSpec(FAMILY_GAMMA, numerator_scale, denominator_scale, pole_index)
    return spec.target()


def polygamma_ratio_limit(
    derivative_order: int, numerator_scale: int, denominator_scale: int
) -> Fraction:
    """Exact limit of psi^(i)(n*z)/psi^(i)(q*z) at every pole: (q/n)**(i+1).

    The value is independent of which pole the limit is taken at; the probe
    machinery verifies that independence numerically.
    """
    spec = LimitSpec(FAMILY_POLYGAMMA, numerator_scale, denominator_scale, 0,
                     derivative_order)
    return spec.target()


class ProbeReport(
    namedtuple(
        "ProbeReport",
        "spec epsilons samples extrapolated target abs_error converged",
    )
):
    """Samples of a pole ratio on an epsilon grid plus the extrapolation."""

    __slots__ = ()


def neville_extrapolate(xs: tuple[float, ...], ys: tuple[float, ...]) -> float:
    """Value at 0 of the polynomial through (xs[j], ys[j])."""
    xs, ys = as_tuple(xs, "xs"), as_tuple(ys, "ys")
    if len(xs) != len(ys) or not xs:
        raise DomainError("need equally many abscissae and values, at least one")
    for value in (*xs, *ys):
        as_finite(value, "each abscissa and value")
    if len(set(xs)) != len(xs):
        raise DomainError(f"abscissae must be distinct, got {shown(xs)}")
    tab = list(ys)
    for m in range(1, len(xs)):
        for j in range(len(xs) - 1, m - 1, -1):
            tab[j] = (xs[j - m] * tab[j] - xs[j] * tab[j - 1]) / (xs[j - m] - xs[j])
    return tab[-1]


def _log_abs_gamma_at(scale: int, pole_index: int, eps: float) -> tuple[float, int]:
    """log|Gamma(scale * (-pole_index + eps))| and the sign of Gamma there.

    The argument is composed as an exact integer part -scale*pole_index plus
    the offset scale*eps, so the distance to the pole never suffers
    cancellation.  Negative arguments go through the reflection
    |Gamma(t)| = pi / (|sin(pi t)| * Gamma(1 - t)); the sign of Gamma on
    (-M, -M+1) is (-1)**M.
    """
    whole_pole = scale * pole_index
    delta = scale * eps
    carried = math.floor(delta)
    whole_pole -= int(carried)
    delta -= carried
    if whole_pole <= 0:
        arg = delta - whole_pole
        if arg <= 0.0:
            raise PoleError(f"gamma argument {arg} on a pole", location=0)
        return math.lgamma(arg), 1
    s = math.sin(math.pi * delta)
    if abs(s) < POLE_GUARD:
        raise PoleError(
            f"gamma argument within pole guard near {-whole_pole}",
            location=-whole_pole,
        )
    logabs = math.log(math.pi) - math.log(s) - math.lgamma(1.0 + whole_pole - delta)
    return logabs, (-1 if whole_pole % 2 else 1)


def _gamma_ratio_sample(spec: LimitSpec, eps: float) -> float:
    ln_num, s_num = _log_abs_gamma_at(spec.numerator_scale, spec.pole_index, eps)
    ln_den, s_den = _log_abs_gamma_at(spec.denominator_scale, spec.pole_index, eps)
    return s_num * s_den * math.exp(ln_num - ln_den)


def _polygamma_ratio_sample(spec: LimitSpec, eps: float) -> float:
    i = spec.derivative_order
    num_arg = spec.numerator_scale * eps - spec.numerator_scale * spec.pole_index
    den_arg = spec.denominator_scale * eps - spec.denominator_scale * spec.pole_index
    return polygamma(i, num_arg).value / polygamma(i, den_arg).value


def probe_limit(spec: LimitSpec) -> ProbeReport:
    """Sample the ratio at z = -k + EPS0 * 2**-j and extrapolate to the pole."""
    if not isinstance(spec, LimitSpec):
        raise DomainError(f"spec must be a LimitSpec, got {shown(spec, repr)}")
    sampler = (
        _gamma_ratio_sample if spec.family == FAMILY_GAMMA else _polygamma_ratio_sample
    )
    epsilons = tuple(EPS0 * 2.0**-j for j in range(LEVELS))
    samples = []
    for eps in epsilons:
        try:
            samples.append(sampler(spec, eps))
        except PoleError as exc:
            z = -spec.pole_index + eps
            raise ProbeFailureError(
                f"probe sample at z={z} tripped a pole guard: {exc}", z=z
            ) from exc
        except OverflowError:
            # A scale too large for a float, or a ratio beyond double range.
            raise out_of_range(f"probe sample at z={-spec.pole_index + eps}") from None
    extrapolated = neville_extrapolate(epsilons, tuple(samples))
    target = spec.target()
    abs_error = abs(extrapolated - float(target))
    return ProbeReport(
        spec=spec,
        epsilons=epsilons,
        samples=tuple(samples),
        extrapolated=extrapolated,
        target=target,
        abs_error=abs_error,
        converged=abs_error <= TOLERANCE,
    )
