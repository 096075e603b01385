"""Exact closed forms for derivatives of the cotangent function.

The p-th derivative of cot x is a finite cosine sum divided by a power of
sin x::

    cot^(p) x = (sum_j b[p,j] * cos(j*x)) / sin(x)**(p+1)

where j runs over 0, 2, ..., p-1 for odd p and 1, 3, ..., p-1 for even p,
and the b[p,j] are integers.  This module generates those integers exactly,
evaluates the closed form, and carries three independent routes to them:

* the tables behind ``expansion``, built by an O(p) integer recurrence per
  order that comes from differentiating the numerator over sin**(p+1);
* the paper's piecewise and unified formulas, ``coeff`` and
  ``coeff_unified``, which serve point requests and cross-checks.  The two
  are one Eulerian sum, b[p,q] = (-1)**p (2 - [q = 0]) <p, (p-q-1)/2>, with
  <m, k> = sum_{l<=k} (-1)**l C(m+1, l) (k+1-l)**m;
* a polynomial oracle: the same derivative written as an integer polynomial
  in t = cot x, obtained by repeatedly applying  P(t) -> P'(t) * (-1 - t**2),
  and rewritten exactly into the cosine basis.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache

from .errors import (
    MAX_EVAL_ORDER,  # kept as cotderiv.MAX_EVAL_ORDER for callers
    MAX_TABLE_ORDER,
    DomainError,
    HarmonicRangeError,
    InvalidHarmonicError,
    PoleError,
    as_finite,
    as_index,
    as_indices,
    as_order,
    as_real,
    out_of_range,
    shown,
)

# |sin x| below this is treated as sitting on a pole of cot and its
# derivatives; callers that need closer approaches use the probe machinery.
POLE_GUARD = 1e-12
MAX_ORACLE_ORDER = 100  # harmonics_from_polynomial: cubic work, 1.2 s at 100


class CotDerivExpansion(
    namedtuple("CotDerivExpansion", "order sin_exponent harmonics")
):
    """Closed form of cot^(order): cosine harmonics over sin**sin_exponent.

    Output data, built by ``expansion``; a record built by hand is not checked.
    """

    __slots__ = ()

    def coefficient_sum(self) -> int:
        return sum(b for _, b in self.harmonics)


class CotPolynomial(namedtuple("CotPolynomial", "coefficients")):
    """cot^(order) written as an integer polynomial in t = cot x.

    ``coefficients[i]`` multiplies t**i; the polynomial for the p-th
    derivative has degree p + 1.
    """

    __slots__ = ()

    def __new__(cls, coefficients: tuple[int, ...]):
        return super().__new__(cls, as_indices(coefficients, "coefficients"))

    @classmethod
    def _make(cls, iterable):  # _replace builds here; check as the constructor does
        return cls(*iterable)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, t: float) -> float:
        as_finite(t, "t")
        acc = 0.0
        try:
            for c in reversed(self.coefficients):
                acc = acc * t + c
        except OverflowError:  # a coefficient beyond double range
            acc = math.inf
        if not math.isfinite(acc):
            raise out_of_range(f"cot polynomial at t={shown(t)}")
        return acc


def _harmonic_index(order, multiplier, unified: bool = False) -> tuple[int, int]:
    """Validate an (order, multiplier) pair of the closed form; return ints."""
    p = as_index(order, "order", 1)
    q = as_index(multiplier, "multiplier", 1 if unified else 0)
    if (p + q) % 2 == 0:
        raise InvalidHarmonicError(
            f"no cos({shown(q)}x) harmonic in the order-{shown(p)} derivative: "
            "order and multiplier must have opposite parity"
        )
    if q >= p:
        raise HarmonicRangeError(
            f"multiplier {shown(q)} out of range for order {shown(p)} "
            "(need multiplier < order)"
        )
    if p > MAX_TABLE_ORDER:  # last, so that a huge p gets the messages above
        as_order(p, exact=True)  # raises the cap's DomainError
    return p, q


def _alternating_sum(n: int, a: int, power: int) -> int:
    """sum_{l < a} (-1)**l * C(n, l) * (a - l)**power, exactly.

    With n = power + 1 this is the Eulerian number <power, a - 1> (Graham,
    Knuth and Patashnik, Concrete Mathematics, section 6.2).  The bases
    j = a - l are walked upwards from 1, keeping every j**power: an even j
    is (j/2)**power shifted left by power bits, an odd multiple of 3 or 5
    other than 3 and 5 is the product of two powers already built, and only
    the other bases pay for pow.  The binomial is carried downwards from
    C(n, a - 1) by C(n, l) = C(n, l+1) * (l+1) // (n-l), which is exact
    because the product is C(n, l) * (n-l).  Each step subtracts the running
    total from its term, so term j ends with sign (-1)**(a-j).
    """
    powers = [0, 1]
    binom = math.comb(n, a - 1)
    total = binom
    for j in range(2, a + 1):
        ell = a - j
        binom = binom * (ell + 1) // (n - ell)
        if not j & 1:
            x = powers[j >> 1] << power
        elif not j % 3 and j > 3:
            x = powers[3] * powers[j // 3]
        elif not j % 5 and j > 5:
            x = powers[5] * powers[j // 5]
        else:
            x = j**power
        powers.append(x)
        total = binom * x - total
    return total


def _eulerian(p: int, q: int) -> int:
    """b[p, q] = (-1)**p * (2 - [q = 0]) * <p, (p - q - 1)/2>, for checked p, q."""
    return (-1) ** p * (2 if q else 1) * _alternating_sum(p + 1, (p - q + 1) // 2, p)


def coeff(order: int, multiplier: int) -> int:
    """Exact integer coefficient of cos(multiplier * x) in cot^(order).

    The paper's piecewise formula; its multiplier = 0 column, -2n <2n-2, n-2>
    at p = 2n - 1, is half the unified sum, as the Eulerian recurrence
    <m, k> = (k+1) <m-1, k> + (m-k) <m-1, k-1> at m = 2n-1, k = n-1 and the
    symmetry <2n-2, n-1> = <2n-2, n-2> give <2n-1, n-1> = 2n <2n-2, n-2> for
    n >= 2 (and b[1, 0] = -<1, 0> = -1).  Raises InvalidHarmonicError when
    order + multiplier is even and HarmonicRangeError when multiplier >= order.
    """
    return _eulerian(*_harmonic_index(order, multiplier))


def coeff_unified(order: int, multiplier: int) -> int:
    """The paper's unified formula, for 0 < multiplier < order.

    The same Eulerian sum as ``coeff``; at multiplier = 0 it would give twice
    the coefficient (-8 instead of -4 at order 3), so that column is excluded.
    """
    return _eulerian(*_harmonic_index(order, multiplier, unified=True))


# _ROWS[p][j] = b[p, j]; row p has length p + 2 and starts from
# cot x = cos x / sin x.  Extended on demand by _numerator_row.
_ROWS: list[list[int]] = [[0, 1]]


def _numerator_row(order: int) -> list[int]:
    """Coefficient row b[order, .], building the missing rows first.

    With N_p the numerator over sin**(p+1), differentiating gives
    N_{p+1} = N_p' sin x - (p+1) N_p cos x.  Rewriting each product as a sum
    of cosines, with cos(-x) folded into cos(x), turns that into

        b[p+1, |j-1|] += -((j+p+1) // 2) * b[p, j]
        b[p+1, j+1]   += ((j-p-1) // 2) * b[p, j]

    Row p holds only multipliers j with j + p odd, so both factors j ± (p+1)
    are even and halving them is exact.
    """
    while len(_ROWS) <= order:
        p = len(_ROWS) - 1
        row = _ROWS[p]
        nxt = [0] * (p + 3)
        for j in range(1 - p % 2, p + 2, 2):
            b = row[j]
            nxt[abs(j - 1)] -= (j + p + 1) // 2 * b
            nxt[j + 1] += (j - p - 1) // 2 * b
        _ROWS.append(nxt)
    return _ROWS[order]


@lru_cache(maxsize=None)
def expansion(order: int) -> CotDerivExpansion:
    """Full closed form of cot^(order) with all harmonics populated."""
    order = as_order(order, minimum=1, exact=True)
    row = _numerator_row(order)
    start = 0 if order % 2 else 1
    harmonics = tuple(zip(range(start, order, 2), row[start:order:2]))
    return CotDerivExpansion(order, order + 1, harmonics)


def _closed_form(order: int, s: float, scale: float, theta: float, label, arg) -> float:
    """cot^(order) at the angle scale * theta, whose sine is s.

    The loop adds in harmonic order on every Python: sum() over floats is
    compensated from 3.12 on.  Near a pole s**(order+1) underflows to 0 long
    before the pole guard trips, for orders above about 20.  A result that is
    not finite is a DomainError naming the point as ``label`` followed by ``arg``.
    """
    harmonics = expansion(order).harmonics if order else ((1, 1),)  # cos x / sin x
    num = 0.0
    try:
        for j, b in harmonics:
            num += b * math.cos(scale * (j * theta))
    except ValueError:  # j * theta beyond double range is inf, and cos(inf) raises
        num = math.nan
    denom = s ** (order + 1)
    value = num / denom if denom else math.inf
    if not math.isfinite(value):
        raise out_of_range(f"cot^({order}) at {label}{shown(arg)}")
    return value


def eval_cot_deriv(order: int, x: float) -> float:
    """Evaluate cot^(order) at x (radians) in double precision."""
    order = as_order(order)
    as_finite(x, "argument")
    s = math.sin(x)
    if abs(s) < POLE_GUARD:
        raise PoleError(f"x={shown(x)} is within the pole guard of a multiple of pi",
                        location=math.pi * round(x / math.pi))
    return _closed_form(order, s, 1.0, x, "x=", x)


def eval_cot_deriv_pi(order: int, z: float) -> float:
    """Evaluate cot^(order) at pi*z, reducing by the nearest integer first.

    Writing z = m + d with integer m and |d| <= 1/2 keeps sin(pi*z) fully
    accurate arbitrarily close to the poles (the subtraction z - m is exact),
    which direct evaluation at the rounded product pi*z cannot do.  Used by
    the polygamma reflection path and by ``reflection_residual``.
    """
    order = as_order(order)
    if not abs(as_real(z, "argument")) < 2.0**52:
        raise DomainError(f"argument out of reducible range: {shown(z)}")
    m = round(z)
    d = z - m
    s = math.sin(math.pi * d)
    if abs(s) < POLE_GUARD:
        raise PoleError(f"pi*{shown(z)} is within the pole guard of a pole", location=m)
    # Shifting by m multiplies cos(j*pi*z) by (-1)**(j*m) and
    # sin(pi*z)**(order+1) by (-1)**(m*(order+1)).  Every multiplier j has the
    # parity of order + 1, so the two signs cancel and only d enters.
    return _closed_form(order, s, math.pi, d, "pi*", z)


@lru_cache(maxsize=None)
def oracle_expansion(order: int) -> CotPolynomial:
    """cot^(order) as a polynomial in t = cot x, by exact differentiation.

    Base case is the identity polynomial t; each step applies
    P(t) -> P'(t) * (-1 - t**2), which is d/dx applied through t = cot x.
    """
    order = as_order(order, exact=True)
    cur = [0, 1]
    for _ in range(order):
        deriv = [(i + 1) * c for i, c in enumerate(cur[1:])]
        nxt = [0] * (len(deriv) + 2)
        for i, c in enumerate(deriv):
            nxt[i] -= c
            nxt[i + 2] -= c
        cur = nxt
    return CotPolynomial(cur)


def _fold_cos(d: dict[int, Fraction], j: int, val: Fraction) -> None:
    d[abs(j)] = d.get(abs(j), Fraction(0)) + val


def _fold_sin(d: dict[int, Fraction], j: int, val: Fraction) -> None:
    if j == 0:
        return
    if j < 0:
        j, val = -j, -val
    d[j] = d.get(j, Fraction(0)) + val


def _multiply_by_cos(cosd, sind):
    nc: dict[int, Fraction] = {}
    ns: dict[int, Fraction] = {}
    for j, v in cosd.items():
        _fold_cos(nc, j + 1, v / 2)
        _fold_cos(nc, j - 1, v / 2)
    for j, v in sind.items():
        _fold_sin(ns, j + 1, v / 2)
        _fold_sin(ns, j - 1, v / 2)
    return nc, ns


def _multiply_by_sin(cosd, sind):
    nc: dict[int, Fraction] = {}
    ns: dict[int, Fraction] = {}
    for j, v in cosd.items():
        _fold_sin(ns, j + 1, v / 2)
        _fold_sin(ns, j - 1, -v / 2)
    for j, v in sind.items():
        _fold_cos(nc, j - 1, v / 2)
        _fold_cos(nc, j + 1, -v / 2)
    return nc, ns


def _monomial_harmonics(cos_power: int, sin_power: int):
    """Expand cos(x)**cos_power * sin(x)**sin_power into harmonics, exactly."""
    cosd: dict[int, Fraction] = {0: Fraction(1)}
    sind: dict[int, Fraction] = {}
    for _ in range(cos_power):
        cosd, sind = _multiply_by_cos(cosd, sind)
    for _ in range(sin_power):
        cosd, sind = _multiply_by_sin(cosd, sind)
    return cosd, sind


def harmonics_from_polynomial(
    order: int, poly: CotPolynomial
) -> tuple[tuple[int, int], ...]:
    """Recover the cosine-harmonic coefficients from the polynomial oracle.

    Multiplies the polynomial-in-cot form through by sin**(order+1) and
    rewrites every cos**m * sin**s monomial in the cosine basis with exact
    rational arithmetic.  This route never touches the harmonic-coefficient
    formulas, so agreement with them is a genuine cross-check.
    """
    order = as_index(order, "order", 1)
    if order > MAX_ORACLE_ORDER:
        raise DomainError(f"order {shown(order)} exceeds the polynomial oracle's "
                          f"bound (max {MAX_ORACLE_ORDER})")
    if not isinstance(poly, CotPolynomial):
        raise DomainError(f"poly must be a CotPolynomial, got {shown(poly, repr)}")
    if poly.degree != order + 1:
        raise DomainError(
            f"polynomial degree {poly.degree} does not match order {shown(order)}"
        )
    total_cos: dict[int, Fraction] = {}
    total_sin: dict[int, Fraction] = {}
    for m, c in enumerate(poly.coefficients):
        if c == 0:
            continue
        cosd, sind = _monomial_harmonics(m, order + 1 - m)
        for j, v in cosd.items():
            total_cos[j] = total_cos.get(j, Fraction(0)) + c * v
        for j, v in sind.items():
            total_sin[j] = total_sin.get(j, Fraction(0)) + c * v
    if any(v != 0 for v in total_sin.values()):
        raise DomainError("polynomial form produced residual sine harmonics")
    expected = tuple(range(0 if order % 2 else 1, order, 2))
    for j, v in total_cos.items():
        if v != 0 and j not in expected:
            raise DomainError(f"unexpected cos({j}x) harmonic survived")
        if v.denominator != 1:
            raise DomainError(f"non-integer coefficient {v} at multiplier {j}")
    return tuple((j, int(total_cos.get(j, Fraction(0)))) for j in expected)


def expansions_up_to(max_order: int) -> Iterator[CotDerivExpansion]:
    """Iterate expansion(1) .. expansion(max_order), for table output.

    The order is checked at the call, before any table is built, so a caller
    that streams the tables fails before writing anything.
    """
    max_order = as_order(max_order, "max_order", 1, exact=True)
    return map(expansion, range(1, max_order + 1))
