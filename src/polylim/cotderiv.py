"""Exact closed forms for derivatives of the cotangent function.

The p-th derivative of cot x is a finite cosine sum divided by a power of
sin x::

    cot^(p) x = (sum_j b[p,j] * cos(j*x)) / sin(x)**(p+1)

where j runs over 0, 2, ..., p-1 for odd p and 1, 3, ..., p-1 for even p,
and the b[p,j] are integers.  This module generates those integers exactly
and carries three independent routes to them:

* one table behind ``expansion``, ``coeff`` and ``coeff_unified``, whose row
  p is the harmonics tuple ((j, b[p,j]), ...) that ``expansion(p)`` serves.
  Each row is built once per process from the one before, by an O(p)
  integer recurrence that comes from differentiating the numerator over
  sin**(p+1);
* the paper's piecewise and unified formulas, one Eulerian sum in
  ``_eulerian``, b[p,q] = (-1)**p (2 - [q = 0]) <p, (p-q-1)/2>, with
  <m, k> = sum_{l<=k} (-1)**l C(m+1, l) (k+1-l)**m, which verify and the
  tests hold against the tables;
* a polynomial oracle: the same derivative written as an integer polynomial
  P_p in t = cot x, and rewritten exactly into the cosine basis.  Its rows
  form one table per process, each built from the one before by
  P(t) -> P'(t) * (-1 - t**2).

Values come from that table of Hoffman's derivative polynomials (Amer. Math.
Monthly 102, 1995), whose coefficients in P_p all have the sign (-1)**p, so
Horner's rule cancels nothing.  The same table gives polygamma its tangent
numbers, T_k = -P_(2k-1)(0).  The cosine sums, which cancel near the zeros
of cos and at large |x|, serve the exact tables and verify's cross-check.
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
    """sum_{l < a} (-1)**l C(n, l) (a - l)**power: with n = power + 1, the
    Eulerian number <power, a - 1> (Concrete Mathematics, section 6.2)."""
    return sum((-1) ** l * math.comb(n, l) * (a - l) ** power for l in range(a))


def _eulerian(p: int, q: int) -> int:
    """b[p, q] = (-1)**p * (2 - [q = 0]) * <p, (p - q - 1)/2>, for checked p, q.

    The paper's piecewise and unified formulas in one sum.  The unified form
    alone would double the multiplier = 0 column (-8 instead of -4 at order
    3).  The piecewise form of that column, -2n <2n-2, n-2> at p = 2n - 1,
    is half the unified sum, as the Eulerian recurrence
    <m, k> = (k+1) <m-1, k> + (m-k) <m-1, k-1> at m = 2n-1, k = n-1 and the
    symmetry <2n-2, n-1> = <2n-2, n-2> give <2n-1, n-1> = 2n <2n-2, n-2> for
    n >= 2 (and b[1, 0] = -<1, 0> = -1).  Verify and the tests hold the
    tables against it; no production path calls it.
    """
    return (-1) ** p * (2 if q else 1) * _alternating_sum(p + 1, (p - q + 1) // 2, p)


def coeff(order: int, multiplier: int) -> int:
    """Exact integer coefficient of cos(multiplier * x) in cot^(order).

    Read from the same table as ``expansion``.  Raises InvalidHarmonicError
    when order + multiplier is even and HarmonicRangeError when
    multiplier >= order.
    """
    p, q = _harmonic_index(order, multiplier)
    return _numerator_row(p)[q // 2][1]


def coeff_unified(order: int, multiplier: int) -> int:
    """The paper's unified formula, for 0 < multiplier < order.

    The same table entry as ``coeff``; the formula at multiplier = 0 would
    give twice the coefficient, so that column is excluded.
    """
    p, q = _harmonic_index(order, multiplier, unified=True)
    return _numerator_row(p)[q // 2][1]


# _ROWS[p] = ((j, b[p, j]), ...), the harmonics that expansion(p) serves, so
# b[p, j] is _ROWS[p][j // 2][1].  Row 0 is cot x = cos x / sin x.
_ROWS: list[tuple[tuple[int, int], ...]] = [((1, 1),)]


def _numerator_row(order: int) -> tuple[tuple[int, int], ...]:
    """Harmonics tuple of row ``order``, building the missing rows first.

    With N_p the numerator over sin**(p+1), differentiating gives
    N_{p+1} = N_p' sin x - (p+1) N_p cos x.  Rewriting each product as a sum
    of cosines turns that into, for every m with m + p even,

        b[p+1, m] = (m - p - 2)/2 * b[p, m - 1] - (m + p + 2)/2 * b[p, m + 1]

    with both halvings exact; the loop's g and h are those halves.  m starts at
    -(p % 2), and cos(-x) = cos x folds m = -1 into m = 1.  The m = p + 2
    entry is zero, so row p + 1 stops below its order.
    """
    while True:
        try:
            return _ROWS[order]
        except IndexError:
            p = len(_ROWS) - 1
            b, k = [v for _, v in _ROWS[p]], p // 2 + 1
            nxt = [g * lo - h * hi for g, h, lo, hi in
                   zip(range(k - p - 2, 0), range(k, p + 3), [0, *b], [*b, 0])]
            if p % 2:
                nxt[1] += nxt[0]
            _ROWS.append(tuple(zip(range(p % 2, p + 1, 2), nxt[p % 2:])))


@lru_cache(maxsize=None)
def expansion(order: int) -> CotDerivExpansion:
    """Full closed form of cot^(order), its harmonics read from the table."""
    order = as_order(order, minimum=1, exact=True)
    return CotDerivExpansion(order, order + 1, _numerator_row(order))


# _POLYNOMIALS[n][i] multiplies t**i in P_n; row n has length n + 2 and
# starts from P_0 = t.  Extended on demand by _polynomial_row.
_POLYNOMIALS: list[tuple[int, ...]] = [(0, 1)]


def _polynomial_row(order: int) -> tuple[int, ...]:
    """P_order's coefficients, lowest power first, building missing rows first.

    d/dx through t = cot x is P(t) -> P'(t) * (-1 - t**2): the term c t**i of
    P_n adds -i c at t**(i-1) and at t**(i+1) of P_(n+1).  P_n has the parity
    of n + 1, so only every other i carries a term.
    """
    while len(_POLYNOMIALS) <= order:
        row = _POLYNOMIALS[-1]
        n = len(row) - 2
        nxt = [0] * (n + 3)
        for i in range(1 + n % 2, n + 2, 2):
            c = i * row[i]
            nxt[i - 1] -= c
            nxt[i + 1] -= c
        _POLYNOMIALS.append(tuple(nxt))
    return _POLYNOMIALS[order]


@lru_cache(maxsize=None)
def _scaled_row(order: int) -> tuple[float, ...]:
    """|coefficients| of P_order over order!, highest power first, zeros dropped;
    each int / int division rounds once.  The largest entry, at 170, is 8.3e16."""
    scale = math.factorial(order)
    return tuple(abs(c) / scale for c in _polynomial_row(order)[::-2])


def _derivative_polynomial(order: int, t: float, label, arg) -> float:
    """cot^(order) where the cotangent is t: P_order(t) by Horner's rule in t**2.

    P_order is odd in t for even orders and even for odd ones.  A result that
    is not finite is a DomainError naming the point as ``label`` then ``arg``.
    """
    u = t * t
    acc = 0.0
    for c in _scaled_row(order):
        acc = acc * u + c
    value = (-acc if order % 2 else acc * t) * float(math.factorial(order))
    if not math.isfinite(value):
        raise out_of_range(f"cot^({order}) at {label}{shown(arg)}")
    return value


def eval_cot_deriv(order: int, x: float) -> float:
    """Evaluate cot^(order) at x (radians); libm's tan reduces x exactly."""
    order = as_order(order)
    as_finite(x, "argument")
    if abs(math.sin(x)) < POLE_GUARD:
        raise PoleError(f"x={shown(x)} is within the pole guard of a multiple of pi",
                        location=math.pi * round(x / math.pi))
    return _derivative_polynomial(order, 1.0 / math.tan(x), "x=", x)


def eval_cot_deriv_pi(order: int, z: float) -> float:
    """Evaluate cot^(order) at pi*z, reducing by the nearest integer first.

    With z = m + d, integer m and |d| <= 1/2, cot(pi*z) = cot(pi*d) has the
    sign of d.  With a = |d| it is 1/tan(pi*a) up to a = 1/4 and
    tan(pi*(1/2 - a)) above, so every tan argument, exact up to its rounding
    by pi, lies in [0, pi/4], at the poles and the half-integers alike.  Used
    by the polygamma reflection path and by ``reflection_residual``.
    """
    order = as_order(order)
    if not abs(as_real(z, "argument")) < 2.0**52:
        raise DomainError(f"argument out of reducible range: {shown(z)}")
    m = round(z)
    d = z - m
    if abs(math.sin(math.pi * d)) < POLE_GUARD:
        raise PoleError(f"pi*{shown(z)} is within the pole guard of a pole", location=m)
    a = abs(d)
    t = 1.0 / math.tan(math.pi * a) if a <= 0.25 else math.tan(math.pi * (0.5 - a))
    return _derivative_polynomial(order, t if d > 0 else -t, "pi*", z)


def oracle_expansion(order: int) -> CotPolynomial:
    """cot^(order) as a polynomial in t = cot x: P_order, read from the table
    of rows.  The order is checked before any row is built."""
    return CotPolynomial(_polynomial_row(as_order(order, exact=True)))


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
