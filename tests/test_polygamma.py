import hashlib
import importlib
import math
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylim import (
    DomainError,
    PoleError,
    TableCapacityError,
    bernoulli,
    polygamma,
    polygamma_series_oracle,
    reflection_residual,
)
from polylim import cotderiv
from polylim.polygamma import (
    METHOD_ASYMPTOTIC,
    METHOD_REFLECTION,
    METHOD_SHIFTED,
)


def grid(lo, hi, count):
    return [lo + (hi - lo) * (i + 0.5) / count for i in range(count)]


def euler_gamma_reference(terms=100_000):
    """Euler-Mascheroni via harmonic sum with Euler-Maclaurin tail."""
    harmonic = math.fsum(1.0 / k for k in range(1, terms + 1))
    return harmonic - math.log(terms) - 0.5 / terms + 1.0 / (12.0 * terms**2)


def zeta3_reference(terms=100_000):
    """Apery's constant via direct sum plus integral and half-term tail."""
    body = math.fsum(k**-3 for k in range(1, terms + 1))
    return body + 0.5 / terms**2 + 0.5 / terms**3


class TestBernoulli:
    def test_known_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(3) == 0
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_odd_indices_vanish(self):
        for m in range(3, 60, 2):
            assert bernoulli(m) == 0

    def test_defining_recurrence(self):
        # The table comes from tangent numbers; solve the defining recurrence
        # sum_{j<=m} C(m+1, j) * B_j = 0 for B_m directly as the reference.
        reference = [Fraction(1)]
        for m in range(1, 61):
            acc = sum(comb(m + 1, j) * reference[j] for j in range(m))
            reference.append(-acc / (m + 1))
        assert [bernoulli(m) for m in range(61)] == reference

    def test_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for m in range(61):
            p, q = mpmath.bernfrac(m)
            assert bernoulli(m) == Fraction(int(p), int(q)), m

    def test_capacity(self):
        assert bernoulli(60) != 0
        with pytest.raises(TableCapacityError):
            bernoulli(61)
        with pytest.raises(DomainError):
            bernoulli(-1)


class TestSeriesOracle:
    def test_trigamma_at_one_is_pi_squared_over_six(self):
        value = polygamma_series_oracle(1, 1.0)
        assert value == pytest.approx(math.pi**2 / 6, abs=1e-12)

    def test_tetragamma_at_one_is_minus_two_zeta_three(self):
        value = polygamma_series_oracle(2, 1.0)
        assert value == pytest.approx(-2.0 * zeta3_reference(), abs=1e-12)

    def test_recurrence_step_at_two(self):
        at_one = polygamma_series_oracle(1, 1.0)
        at_two = polygamma_series_oracle(1, 2.0)
        assert at_two == pytest.approx(at_one - 1.0, abs=1e-12)

    def test_default_terms_match_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for n in range(1, 9):
                for x in (0.5, 1.0, 1.5, 2.0, 5.0, 10.0):
                    got = polygamma_series_oracle(n, x)
                    ref = mpmath.psi(n, x)
                    assert abs((got - ref) / ref) <= 1e-15, (n, x)

    def test_order_zero_unsupported(self):
        with pytest.raises(DomainError):
            polygamma_series_oracle(0, 1.0)

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(DomainError):
            polygamma_series_oracle(1, -1.0)


class TestPolygammaValues:
    def test_digamma_at_one_is_minus_euler_gamma(self):
        value = polygamma(0, 1.0).value
        assert value == pytest.approx(-euler_gamma_reference(), abs=1e-10)
        assert value == pytest.approx(-0.5772156649015329, abs=1e-10)

    def test_trigamma_at_one(self):
        assert polygamma(1, 1.0).value == pytest.approx(
            1.6449340668482264, rel=1e-12
        )

    def test_trigamma_at_half_is_pi_squared_over_two(self):
        assert polygamma(1, 0.5).value == pytest.approx(
            math.pi**2 / 2, rel=1e-12
        )

    def test_digamma_unit_step(self):
        step = polygamma(0, 2.0).value - polygamma(0, 1.0).value
        assert step == pytest.approx(1.0, abs=1e-12)

    def test_oracle_agreement_across_orders(self):
        for n in range(1, 9):
            for x in (0.5, 1.0, 1.5, 2.0, 5.0, 10.0):
                fast = polygamma(n, x).value
                slow = polygamma_series_oracle(n, x)
                assert abs(fast - slow) <= 1e-12 * abs(slow), (n, x)

    def test_recurrence_identity(self):
        for n in range(0, 9):
            sign_fact = math.factorial(n) * (-1 if n % 2 else 1)
            for x in grid(0.5, 20.0, 100):
                step = polygamma(n, x + 1.0).value - polygamma(n, x).value
                expected = sign_fact / x ** (n + 1)
                assert abs(step - expected) <= 1e-11 * abs(expected), (n, x)

    def test_sign_pattern(self):
        for n in range(1, 9):
            want = 1.0 if n % 2 else -1.0
            for x in grid(0.05, 20.0, 40):
                assert math.copysign(1.0, polygamma(n, x).value) == want, (n, x)

    def test_negative_axis_spot_value(self):
        # psi(-0.5) = 2 - gamma - 2 ln 2, from the recurrence and the
        # half-integer closed form.
        expected = 2.0 - euler_gamma_reference() - 2.0 * math.log(2.0)
        assert polygamma(0, -0.5).value == pytest.approx(expected, rel=1e-12)


# Worst relative error against mpmath at 50 digits on the positive path, over
# ACCURACY_ARGUMENTS: twice the measured worst per order, rounded up.  Above
# order 8 the fixed shift target leaves the series in 1/x short of
# convergence, and from order 133 up the coefficient table holds inf.  A
# scaled series with an order-dependent shift target tightens these budgets
# and empties OVERFLOWING_POINTS.
ACCURACY_ARGUMENTS = (0.5, 0.9, 1.0, 3.3, 9.99, 10.0, 10.5, 15.0, 25.0, 50.0,
                      100.0, 1000.0)
ACCURACY_BUDGETS = {
    0: 1.2e-15, 1: 3.1e-16, 2: 4.2e-16, 3: 3.5e-16, 4: 6.3e-16, 5: 3.7e-16,
    6: 4.7e-16, 7: 4.9e-16, 8: 6.2e-16, 12: 1.9e-14, 16: 7.5e-12,
    20: 1.1e-9, 30: 1.1e-5, 40: 3.4e-3, 60: 0.34, 100: 0.89, 140: 1.5,
    170: 0.89,
}
# x**(order + 2) overflows at these points, so they raise DomainError.  At
# (170, 0.5), (170, 0.9) and (170, 100) the values, about 1e-181, 4e-36 and
# 4e-206, are representable.
OVERFLOWING_POINTS = {(140, 1000.0), (170, 0.5), (170, 0.9), (170, 100.0),
                      (170, 1000.0)}


def test_positive_path_accuracy_budgets():
    mpmath = pytest.importorskip("mpmath")
    raised = set()
    with mpmath.workdps(50):
        for order, budget in ACCURACY_BUDGETS.items():
            for x in ACCURACY_ARGUMENTS:
                try:
                    value = polygamma(order, x).value
                except DomainError:
                    raised.add((order, x))
                    continue
                reference = mpmath.psi(order, x)
                error = abs((value - reference) / reference)
                assert error <= budget, (order, x, float(error))
    assert raised == OVERFLOWING_POINTS


# Worst relative error against mpmath at 50 digits on the reflection path, at
# and near -0.5, -2.5 and -7.5, where the paper's cosine sum for the cotangent
# term cancels: twice the measured worst per order, rounded up.  Above about order
# 16 the positive path at 1 - x sets the error (ACCURACY_BUDGETS), so the
# table stops there.
REFLECTION_ARGUMENTS = (-0.5, -2.5, -7.5) + tuple(
    -k - 0.5 + side * offset
    for k in (0, 2, 7)
    for side in (-1, 1)
    for offset in (1e-9, 1e-5, 1e-2)
)
REFLECTION_BUDGETS = {
    0: 1.7e-14, 1: 3.1e-16, 2: 5.4e-16, 3: 9.8e-16, 4: 7.4e-16, 5: 6.6e-16,
    6: 1.9e-15, 7: 9.7e-16, 8: 6.2e-15, 9: 1.2e-15, 10: 1.9e-15, 11: 1.4e-15,
    12: 1.8e-15, 13: 1.2e-15, 14: 1.5e-14, 15: 1.5e-15, 16: 2.1e-14,
}


def test_reflection_path_accuracy_budgets():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for order, budget in REFLECTION_BUDGETS.items():
            for x in REFLECTION_ARGUMENTS:
                result = polygamma(order, x)
                assert result.method == METHOD_REFLECTION, (order, x)
                reference = mpmath.psi(order, x)
                error = abs((result.value - reference) / reference)
                assert error <= budget, (order, x, float(error))


class TestPolygammaBookkeeping:
    def test_asymptotic_region(self):
        res = polygamma(2, 12.5)
        assert res.method == METHOD_ASYMPTOTIC
        assert res.shift_count == 0

    def test_shifted_region(self):
        res = polygamma(1, 0.5)
        assert res.method == METHOD_SHIFTED
        assert res.shift_count == 10
        res = polygamma(0, 9.75)
        assert res.method == METHOD_SHIFTED
        assert res.shift_count == 1

    def test_reflection_region(self):
        res = polygamma(3, 0.25)
        assert res.method == METHOD_REFLECTION
        res = polygamma(3, -7.6)
        assert res.method == METHOD_REFLECTION

    def test_reflection_iff_below_half(self):
        for n in (0, 2, 5):
            for x in grid(-5.3, 15.0, 60):
                if abs(x - round(x)) < 1e-6:
                    continue
                res = polygamma(n, x)
                assert (res.method == METHOD_REFLECTION) == (x < 0.5), (n, x)
                if res.method == METHOD_ASYMPTOTIC:
                    assert res.shift_count == 0


class TestPolygammaErrors:
    def test_poles_rejected_with_location(self):
        for bad, loc in ((0.0, 0), (-3.0, -3), (-7.0 + 4e-13, -7)):
            with pytest.raises(PoleError) as excinfo:
                polygamma(1, bad)
            assert excinfo.value.location == loc

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            polygamma(1, math.nan)
        with pytest.raises(DomainError):
            polygamma(1, math.inf)

    def test_bad_order_rejected(self):
        with pytest.raises(DomainError):
            polygamma(-1, 1.0)
        with pytest.raises(DomainError):
            polygamma(1.5, 1.0)
        with pytest.raises(DomainError):
            polygamma(171, 1.0)
        with pytest.raises(DomainError):
            polygamma(True, 1.0)

    @pytest.mark.parametrize(
        "order, x",
        [
            (60, -3 + 1e-11),  # sin(pi x)**61 underflows to 0
            (170, 0.5),  # 170! * 2**171 overflows
            (30, -3 + 1e-9),  # the reflection term overflows
        ],
    )
    def test_out_of_range_value_is_domain_error(self, order, x):
        with pytest.raises(DomainError):
            polygamma(order, x)

    @pytest.mark.parametrize(
        "order, x",
        [
            (3, 1e300),  # x**order overflows
            (170, 1e3),  # x**(order + 2) overflows
            (1, 1e200),
            (2, 1e200),
        ],
    )
    def test_overflowing_asymptotic_power_is_domain_error(self, order, x):
        with pytest.raises(DomainError, match="exceeds double precision range"):
            polygamma(order, x)


# Arguments for the float-path pins: every evaluation region, poles and
# near-poles, and arguments whose powers leave double range at high orders.
PIN_ARGUMENTS = (
    10.0, 12.5, 37.25, 1e3, 1e20, 1e100, 1e300,  # asymptotic
    0.5, 1.0, 2.5, 7.75, 9.999,  # shifted
    0.25, 1e-10, -0.5, -2.3, -7.5, -20.3, -1e6 - 0.5, -1e300,  # reflection
    -3 + 1e-9, -3 - 1e-11, -3 + 1e-13, 0.0,  # near and on poles
)

# sha256 of the lines pin_line(order, x) for orders 0..170 and PIN_ARGUMENTS.
# Any change to a float path moves it; a deliberate one records the new
# digest and says why.
PIN_DIGEST = "b0bfee9fe9c5b3e1b026a3156e1f87df0006bcbfae67ed2053bfff566e9927f2"


def pin_line(order, x):
    # Every exception is pinned, a leaked non-PolylimError one included.
    try:
        outcome = repr(polygamma(order, x).value)
    except Exception as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    return f"{order} {x!r} {outcome}\n"


class TestFloatPathPins:
    def test_grid_digest(self):
        digest = hashlib.sha256()
        for order in range(cotderiv.MAX_EVAL_ORDER + 1):
            for x in PIN_ARGUMENTS:
                digest.update(pin_line(order, x).encode())
        assert digest.hexdigest() == PIN_DIGEST

    @pytest.mark.parametrize(
        "order, x, line",
        [
            (0, 1.0, "0 1.0 -0.5772156649015332\n"),
            (1, 0.5, "1 0.5 4.934802200544679\n"),
            (3, 12.5, "3 12.5 0.0011534128049134054\n"),
            (2, 2.5, "2 2.5 -0.23620405164172742\n"),
            # mpmath 14.7259121609612915, 2 ulp away.
            (1, -2.3, "1 -2.3 14.725912160961288\n"),
            (40, 37.25, "40 37.25 -4.7600401419332735e-17\n"),
            # mpmath -0.0039327907263552862.
            (16, -7.5, "16 -7.5 -0.003932790726355326\n"),
            (
                170,
                1e3,
                "170 1000.0 DomainError: polygamma of order 170 at x=1000.0 "
                "exceeds double precision range\n",
            ),
            (
                0,
                -3 + 1e-13,
                "0 -2.9999999999999 PoleError: x=-2.9999999999999 is within "
                "1e-12 of the pole at -3\n",
            ),
        ],
    )
    def test_literal_values(self, order, x, line):
        assert pin_line(order, x) == line


# int and Fraction arguments, orders 0..20.  The series raises an exact x >= 10
# to its powers as int or Fraction and rounds each power once, at its
# division.  1001/100 and 10**40 are not doubles, so there these values
# differ from polygamma(order, float(x)) in the last bits, and the float pins
# above do not guard them.
EXACT_PIN_ARGUMENTS = (
    12, 37, 10**6, Fraction(25, 2), Fraction(7, 2), 3, Fraction(-7, 3),
    Fraction(1001, 100), 10**40,
)
EXACT_PIN_DIGEST = "5ca63427025811e251ada48d828b22190c01f619636b6975cee959b638927118"


def test_exact_argument_digest():
    digest = hashlib.sha256()
    for order in range(21):
        for x in EXACT_PIN_ARGUMENTS:
            digest.update(pin_line(order, x).encode())
    assert digest.hexdigest() == EXACT_PIN_DIGEST


class TestReflectionResidual:
    def test_symmetric_point_order_zero(self):
        assert reflection_residual(0, 0.5) < 1e-12

    def test_quarter_point_trigamma(self):
        assert reflection_residual(1, 0.25) <= 1e-9

    def test_example_higher_order(self):
        assert reflection_residual(3, 0.3) <= 1e-8

    def test_identity_over_grid(self):
        for n in range(0, 9):
            for z in grid(0.05, 0.95, 50):
                assert reflection_residual(n, z) <= 1e-13, (n, z)

    def test_domain(self):
        with pytest.raises(DomainError):
            reflection_residual(1, 0.0)
        with pytest.raises(DomainError):
            reflection_residual(1, 1.0)
        with pytest.raises(DomainError):
            reflection_residual(1, -0.3)


@pytest.mark.parametrize(
    "oracle, order, z",
    [
        (polygamma_series_oracle, 170, 0.5),  # the sum overflows to -inf
        (polygamma_series_oracle, 170, 1e-300),  # a power overflows
        (reflection_residual, 170, 0.5),  # inf - inf
        (reflection_residual, 170, 1e-300),
        (reflection_residual, 100, 0.999999),  # psi^(100)(1e-6)
        (reflection_residual, 1, 1e-320),
    ],
)
def test_oracle_out_of_range_is_domain_error(oracle, order, z):
    with pytest.raises(DomainError, match="exceeds double precision range"):
        oracle(order, z)


# An int beyond double range, and ints with more digits than int-to-str
# conversion allows, with the parameter ids that stand for them: pytest's
# default id converts an int to text, which fails for 10**5000.
HUGE_INTS = {10**400: "10**400", 10**5000: "10**5000", -(10**5000): "-10**5000"}


@pytest.mark.parametrize(
    "function, order, x",
    [
        (polygamma, 1, 10**400),
        (cotderiv.eval_cot_deriv, 1, 10**400),
        (cotderiv.eval_cot_deriv_pi, 1, 10**400),
        (polygamma_series_oracle, 1, 10**400),
        (polygamma, 10**5000, 1.0),
        (polygamma, -(10**5000), 1.0),
        (cotderiv.eval_cot_deriv, 10**5000, 1.0),
        (reflection_residual, 10**5000, 0.5),
        (polygamma, 1, 10**5000),
        (cotderiv.eval_cot_deriv_pi, 1, -(10**5000)),
        (polygamma_series_oracle, 1, 10**5000),
        (reflection_residual, 1, -(10**5000)),
    ],
    ids=HUGE_INTS.get,
)
def test_huge_int_is_domain_error(function, order, x):
    with pytest.raises(DomainError):
        function(order, x)


@pytest.mark.parametrize(
    "function, x, checks",
    [
        (polygamma, 2.3, 1),
        (polygamma, -2.3, 2),  # eval_cot_deriv_pi checks its own order
        (polygamma_series_oracle, 2.3, 1),
        (reflection_residual, 0.3, 2),  # likewise
    ],
)
def test_order_is_validated_once_per_public_call(monkeypatch, function, x, checks):
    function(3, x)  # builds the cached order-3 expansion first
    names = []
    for name in ("polylim.polygamma", "polylim.cotderiv"):
        # The package attribute polylim.polygamma is the function, not the module.
        module = importlib.import_module(name)
        monkeypatch.setattr(module, "as_order", _recording(module.as_order, names))
    function(3, x)
    assert names == ["order"] * checks


def _recording(as_order, names):
    def recorded(value, name="order", **bounds):
        names.append(name)
        return as_order(value, name, **bounds)

    return recorded


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=8),
    x=st.floats(min_value=0.5, max_value=20.0),
)
def test_property_recurrence(n, x):
    step = polygamma(n, x + 1.0).value - polygamma(n, x).value
    expected = math.factorial(n) * (-1 if n % 2 else 1) / x ** (n + 1)
    assert abs(step - expected) <= 1e-11 * abs(expected)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=8),
    z=st.floats(min_value=0.05, max_value=0.95),
)
def test_property_reflection_identity(n, z):
    assert reflection_residual(n, z) <= 1e-8
