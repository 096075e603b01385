import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylim import (
    CotPolynomial,
    DomainError,
    HarmonicRangeError,
    InvalidHarmonicError,
    PoleError,
    coeff,
    coeff_unified,
    eval_cot_deriv,
    eval_cot_deriv_pi,
    expansion,
    harmonics_from_polynomial,
    oracle_expansion,
)
from polylim import cotderiv, verify
from polylim.errors import DOUBLE_MAX


def grid(lo, hi, count):
    return [lo + (hi - lo) * (i + 0.5) / count for i in range(count)]


class TestCoeff:
    def test_base_case(self):
        assert coeff(1, 0) == -1

    def test_small_orders_match_symbolic_oracle(self):
        # cot'' = 2cos(x)/sin^3, cot''' = (-4 - 2cos(2x))/sin^4,
        # cot'''' = (22cos(x) + 2cos(3x))/sin^5; recovered below from the
        # polynomial-in-cot oracle without using the coefficient formulas.
        assert coeff(2, 1) == 2
        assert coeff(3, 0) == -4
        assert coeff(3, 2) == -2
        assert coeff(4, 1) == 22
        assert coeff(4, 3) == 2
        for p in (2, 3, 4):
            recovered = dict(harmonics_from_polynomial(p, oracle_expansion(p)))
            for j, b in expansion(p).harmonics:
                assert recovered[j] == b

    def test_parity_mismatch_rejected(self):
        with pytest.raises(InvalidHarmonicError):
            coeff(2, 2)
        with pytest.raises(InvalidHarmonicError):
            coeff(3, 1)
        with pytest.raises(InvalidHarmonicError):
            coeff(5, 3)

    def test_multiplier_out_of_range(self):
        with pytest.raises(HarmonicRangeError):
            coeff(2, 3)
        with pytest.raises(HarmonicRangeError):
            coeff(3, 4)

    def test_bad_order(self):
        with pytest.raises(DomainError):
            coeff(0, 1)
        with pytest.raises(DomainError):
            coeff(-2, 1)
        with pytest.raises(DomainError):
            coeff(2.0, 1)
        with pytest.raises(DomainError):
            coeff(True, 0)


class TestCoeffUnified:
    def test_matches_examples(self):
        assert coeff_unified(2, 1) == 2
        assert coeff_unified(3, 2) == -2
        assert coeff_unified(4, 3) == 2

    def test_agrees_with_piecewise_everywhere(self):
        for p in range(1, 31):
            for q in range(2 if p % 2 else 1, p, 2):
                assert coeff_unified(p, q) == cotderiv._eulerian(p, q), (p, q)

    def test_zero_multiplier_excluded(self):
        # The single formula does not extend to the constant harmonic: it
        # would give -8 where the constant column has -4.
        with pytest.raises(DomainError):
            coeff_unified(3, 0)

    def test_parity_and_range_errors(self):
        with pytest.raises(InvalidHarmonicError):
            coeff_unified(3, 1)
        with pytest.raises(HarmonicRangeError):
            coeff_unified(2, 3)


class TestExpansion:
    def test_order_one(self):
        e = expansion(1)
        assert e.sin_exponent == 2
        assert e.harmonics == ((0, -1),)

    def test_order_three(self):
        assert expansion(3).harmonics == ((0, -4), (2, -2))
        assert expansion(3).sin_exponent == 4

    def test_order_four(self):
        assert expansion(4).harmonics == ((1, 22), (3, 2))
        assert expansion(4).sin_exponent == 5

    def test_coefficient_sum_is_signed_factorial(self):
        for p in range(1, 221):
            expected = math.factorial(p) * (-1 if p % 2 else 1)
            assert expansion(p).coefficient_sum() == expected, p

    def test_harmonic_structure(self):
        for p in range(1, 31):
            e = expansion(p)
            multipliers = [j for j, _ in e.harmonics]
            assert multipliers == list(range(0 if p % 2 else 1, p, 2))
            assert len(multipliers) == (p + 1) // 2

    def test_recurrence_tables_match_piecewise_formula(self):
        for p in range(1, 61):
            start = 0 if p % 2 else 1
            assert expansion(p).harmonics == tuple(
                (j, cotderiv._eulerian(p, j)) for j in range(start, p, 2)
            ), p

    def test_point_requests_read_the_tables(self):
        # Every harmonic of every order the benchmark builds: the public
        # point requests, the table and the paper's formula agree.
        for p in range(1, 221):
            table = dict(expansion(p).harmonics)
            for q in range(1 - p % 2, p, 2):
                assert coeff(p, q) == table[q] == cotderiv._eulerian(p, q), (p, q)

    def test_request_order_does_not_change_tables(self, monkeypatch):
        # A request is (p,) for expansion(p) or (p, q) for coeff(p, q); coeff
        # builds the rows it reads, so point requests come first and between.
        def tables(requests):
            monkeypatch.setattr(cotderiv, "_ROWS", [[0, 1]])
            expansion.cache_clear()
            return {r: coeff(*r) if len(r) == 2 else expansion(*r) for r in requests}

        rng = random.Random(80)
        orders = [(p,) for p in range(1, 81)]
        points = [(p, rng.randrange(1 - p % 2, p, 2))
                  for p in rng.sample(range(1, 121), 12)]
        ascending = tables(orders + points)
        requests = points[:2] + rng.sample(orders, len(orders))
        for point in points[2:]:
            requests.insert(rng.randrange(3, len(requests)), point)
        assert tables(requests) == ascending

    def test_expansion_keeps_its_cache(self):
        # perfbench's tracer counts table builds through cache_info().misses.
        assert expansion.cache_info().maxsize is None

    @pytest.mark.parametrize("max_order", [2.5, True])
    def test_expansions_up_to_takes_an_integer_order(self, max_order):
        with pytest.raises(DomainError, match="max_order must be an integer"):
            cotderiv.expansions_up_to(max_order)

    def test_public_constructors_rebuild_every_table(self):
        # Each record oracle_expansion returns passes the constructor's
        # checks unchanged.
        for p in range(61):
            assert CotPolynomial(*oracle_expansion(p)) == oracle_expansion(p), p


def textbook_sum(n, a, m):
    return sum((-1) ** l * math.comb(n, l) * (a - l) ** m for l in range(a))


def eulerian_table(max_m):
    """<m, k> for m, k <= max_m, by <m, k> = (k+1) <m-1, k> + (m-k) <m-1, k-1>."""
    rows = [[1] + [0] * max_m]
    for m in range(1, max_m + 1):
        prev = rows[-1]
        rows.append(
            [(k + 1) * prev[k] + (m - k) * (prev[k - 1] if k else 0)
             for k in range(max_m + 1)]
        )
    return rows


class TestAlternatingSum:
    def test_matches_textbook_sum_and_eulerian_numbers(self):
        eulerian = eulerian_table(160)
        for m in range(161):
            for a in range(1, (m + 1) // 2 + 2):
                value = cotderiv._alternating_sum(m + 1, a, m)
                assert value == textbook_sum(m + 1, a, m) == eulerian[m][a - 1], (m, a)

    # Orders above the pinned ones.  At p = 400 the bases run up to 200: past
    # 9, 15, 25, 45 and 75, each one product of powers already built, and
    # past the prime squares 49, 121 and 169, which pay for pow.
    @pytest.mark.parametrize("p", [221, 241, 289, 361, 400])
    def test_point_formulas_match_textbook_sum(self, p):
        for q in range(1 - p % 2, p, 2):
            if q == 0:
                expected = -(p + 1) * textbook_sum(p, (p - 1) // 2, p - 1)
            else:
                expected = (-1) ** p * 2 * textbook_sum(p + 1, (p - q + 1) // 2, p)
            assert cotderiv._eulerian(p, q) == expected, q
            assert coeff(p, q) == expected, q


# sha256 digests of exact values, recorded before the point formulas and the
# recurrence were rewritten for speed; each value enters as hex() plus "\n".
COEFF_PIN_ORDERS = (*range(1, 121), 219, 220)
COEFF_PIN_DIGEST = "4aa17286fa0870db02b6bc7b18ddd04bb4ca17e2d5e65f39b1e195eaa57f0d3e"
EXPANSION_PIN_DIGEST = "2b967d72bd26e346ff842487bd737b0b009cc568e719a823016b9b2ecbea92b0"


def hex_digest(values):
    digest = hashlib.sha256()
    for value in values:
        digest.update(f"{hex(value)}\n".encode())
    return digest.hexdigest()


class TestExactnessPins:
    def test_point_formulas_digest(self):
        # Every b[p,j] with p <= 120 or p in {219, 220}: coeff, then
        # coeff_unified where the multiplier is nonzero.
        def values():
            for p in COEFF_PIN_ORDERS:
                for q in range(1 - p % 2, p, 2):
                    yield coeff(p, q)
                    if q:
                        yield coeff_unified(p, q)

        assert hex_digest(values()) == COEFF_PIN_DIGEST

    def test_recurrence_tables_digest(self):
        assert hex_digest(
            b for p in range(1, 221) for _, b in expansion(p).harmonics
        ) == EXPANSION_PIN_DIGEST


class TestEvalCotDeriv:
    def test_plain_cotangent(self):
        x = 1.1
        assert eval_cot_deriv(0, x) == pytest.approx(math.cos(x) / math.sin(x))

    def test_first_derivative_at_right_angle(self):
        assert eval_cot_deriv(1, math.pi / 2) == pytest.approx(-1.0, rel=1e-14)

    def test_second_derivative_at_right_angle(self):
        assert abs(eval_cot_deriv(2, math.pi / 2)) < 1e-12

    def test_third_derivative_at_quarter_turn(self):
        assert eval_cot_deriv(3, math.pi / 4) == pytest.approx(-16.0, rel=1e-12)

    def test_pole_guard(self):
        with pytest.raises(PoleError):
            eval_cot_deriv(1, math.pi)
        with pytest.raises(PoleError):
            eval_cot_deriv(0, 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            eval_cot_deriv(1, math.inf)
        with pytest.raises(DomainError):
            eval_cot_deriv(1, math.nan)

    def test_pi_scaled_variant_matches_plain(self):
        for p in range(0, 9):
            for z in grid(0.07, 0.93, 11):
                a = eval_cot_deriv_pi(p, z)
                b = eval_cot_deriv(p, math.pi * z)
                assert a == pytest.approx(b, rel=1e-10), (p, z)

    def test_pi_scaled_variant_periodicity(self):
        # Shifting by whole turns must not change the value at all: with a
        # dyadic offset d every m + d is exact, so the results must be equal.
        shifts = (-(2**40) - 1, -3, -2, -1, 1, 2, 5, 2**40)
        for p in range(cotderiv.MAX_EVAL_ORDER + 1):
            for k in (-511, -300, -7, 1, 93, 256, 511):
                d = k / 1024
                try:
                    base = eval_cot_deriv_pi(p, d)
                except DomainError:
                    continue
                for shift in shifts:
                    assert eval_cot_deriv_pi(p, shift + d) == base, (p, d, shift)

    def test_bool_order_rejected(self):
        with pytest.raises(DomainError):
            eval_cot_deriv(True, 1.0)
        with pytest.raises(DomainError):
            eval_cot_deriv_pi(True, 0.3)

    def test_underflowed_sine_power_is_domain_error(self):
        # cot^(40)(1e-11), about 40! * 1e451, is beyond double range although
        # |sin x| clears the pole guard.
        with pytest.raises(DomainError):
            eval_cot_deriv(40, 1e-11)

    def test_pi_scaled_underflowed_sine_power_is_domain_error(self):
        with pytest.raises(DomainError):
            eval_cot_deriv_pi(60, 1e-11)

    def test_argument_near_double_max(self):
        # libm's tan reduces 1e308 exactly; mpmath gives -122.525501480249266.
        assert eval_cot_deriv(3, 1e308) == -122.52550148024923

    def test_pi_scaled_even_orders_vanish_at_half_integers(self):
        for p in range(0, cotderiv.MAX_EVAL_ORDER + 1, 2):
            for k in (-(2**40), -8, -1, 0, 1, 7, 2**40):
                assert eval_cot_deriv_pi(p, k + 0.5) == 0.0, (p, k)

    def test_pi_scaled_pole_guard_carries_location(self):
        with pytest.raises(PoleError) as excinfo:
            eval_cot_deriv_pi(2, 3.0)
        assert excinfo.value.location == 3


# Arguments for the evaluator pins: values, poles, values beyond double range,
# large radians (1e15, 1e308) and both ends of the reducible range.
EVAL_PIN_X = (*grid(-6.3, 6.3, 63), 1e-11, 1e3, 1e15, 1e308)
EVAL_PIN_Z = (*grid(-2.5, 2.5, 47), 1e-13, 1e-11, 0.5, -7.5, 2.0**51 + 0.25, 2.0**52)

# sha256 of the lines eval_line(function, order, arg) for orders 0..40,
# recorded on Python 3.11; test_evaluator_accuracy_budgets below measures
# these values against mpmath.  Python 3.12 compensates builtin sum() over
# floats, so a sum() in the Horner loop would move them on 3.12 and 3.13.
EVAL_X_DIGEST = "1e20a65c07c2496aecfb03171da52d97dc393c416a63d51f00632cd7c9767b6a"
EVAL_Z_DIGEST = "6edff9029a410f90677b6bf098ae30adb37c90506c65cee31a17f88b00bb5e7f"


def eval_line(function, order, arg):
    try:
        outcome = repr(function(order, arg))
    except Exception as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    return f"{order} {arg!r} {outcome}\n"


class TestEvaluatorPins:
    @pytest.mark.parametrize(
        "function, args, expected",
        [
            (eval_cot_deriv, EVAL_PIN_X, EVAL_X_DIGEST),
            (eval_cot_deriv_pi, EVAL_PIN_Z, EVAL_Z_DIGEST),
        ],
        ids=["eval_cot_deriv", "eval_cot_deriv_pi"],
    )
    def test_grid_digest(self, function, args, expected):
        digest = hashlib.sha256()
        for order in range(41):
            for arg in args:
                digest.update(eval_line(function, order, arg).encode())
        assert digest.hexdigest() == expected


def cot_reference(mpmath, order, x):
    """cot^(order) at the mpf x, from the paper's cosine sum over the exact
    table, with enough digits to absorb its cancellation."""
    if order == 0:
        return mpmath.cot(x)
    harmonics = expansion(order).harmonics
    digits = len(str(sum(abs(b) for _, b in harmonics)))
    with mpmath.workdps(digits + 40):
        numerator = mpmath.fsum(b * mpmath.cos(j * x) for j, b in harmonics)
        return +(numerator / mpmath.sin(x) ** (order + 1))


# Worst relative error of the two evaluators against cot_reference, per
# argument set and order: twice the measured worst, rounded up.  Where the
# value leaves double range (order 170 near the poles) the evaluators raise
# DomainError, and only there.  At both large radians the order-170 value,
# about 1e325 and 7e362, is out of range, so those sets stop at order 100.
COT_ACCURACY_ARGUMENTS = {
    "radians": (eval_cot_deriv, tuple(grid(0.05, math.pi - 0.05, 40))),
    "radians 1e15 + 0.2": (eval_cot_deriv, (1e15 + 0.2,)),
    "radians 1e308": (eval_cot_deriv, (1e308,)),
    "pi near half-integers": (eval_cot_deriv_pi, tuple(
        k + 0.5 + side * offset
        for k in (-3, 0, 2)
        for side in (-1, 1)
        for offset in (1e-9, 1e-7, 1e-5, 1e-3, 1e-2, 0.1)
    )),
    "pi off half-integers": (eval_cot_deriv_pi, tuple(
        k + z for k in (-2, 0, 3) for z in grid(0.0, 1.0, 20)
    )),
}
COT_ACCURACY_BUDGETS = {
    "radians": {0: 2.9e-16, 1: 4e-16, 2: 5.8e-16, 4: 1.2e-15, 8: 2.1e-15,
                16: 3.4e-15, 40: 8.9e-15, 100: 2.2e-14, 170: 1.4e-14},
    "radians 1e15 + 0.2": {0: 2.2e-16, 1: 1.3e-16, 2: 3.7e-16, 4: 9.4e-16,
                           8: 8.1e-16, 16: 1.3e-15, 40: 2.4e-15, 100: 8.7e-15},
    "radians 1e308": {0: 2.1e-16, 1: 4.4e-16, 2: 5.6e-16, 4: 9e-16, 8: 1.6e-15,
                      16: 1.8e-15, 40: 5.7e-15, 100: 1.4e-14},
    "pi near half-integers": {0: 1.6e-16, 1: 2.2e-16, 2: 3.7e-16, 4: 6.6e-16,
                              8: 4.2e-16, 16: 5.7e-16, 40: 1.5e-15, 100: 3e-15,
                              170: 5.2e-15},
    "pi off half-integers": {0: 4.2e-16, 1: 9.3e-16, 2: 1.4e-15, 4: 2.3e-15,
                             8: 3.6e-15, 16: 7.7e-15, 40: 1.9e-14, 100: 4.8e-14,
                             170: 2.4e-14},
}


@pytest.mark.parametrize("case", COT_ACCURACY_BUDGETS)
def test_evaluator_accuracy_budgets(case):
    mpmath = pytest.importorskip("mpmath")
    function, arguments = COT_ACCURACY_ARGUMENTS[case]
    with mpmath.workdps(50):
        scale = mpmath.pi if function is eval_cot_deriv_pi else 1
        for order, budget in COT_ACCURACY_BUDGETS[case].items():
            for arg in arguments:
                reference = cot_reference(mpmath, order, scale * mpmath.mpf(arg))
                try:
                    value = function(order, arg)
                except DomainError:
                    assert abs(reference) > DOUBLE_MAX, (order, arg)
                    continue
                error = abs((value - reference) / reference)
                assert error <= budget, (order, arg, float(error))


class TestPolynomialOracle:
    def test_base_cases(self):
        assert oracle_expansion(0).coefficients == (0, 1)
        assert oracle_expansion(1).coefficients == (-1, 0, -1)
        assert oracle_expansion(2).coefficients == (0, 2, 0, 2)

    def test_degree_tracks_order(self):
        for p in range(0, 26):
            assert oracle_expansion(p).degree == p + 1

    def test_closed_form_agrees_with_polynomial(self):
        # eval_cot_deriv evaluates the derivative polynomial; the paper's
        # cosine sum over the exact table is the independent side.
        for p in range(1, 26):
            for x in grid(0.1, math.pi - 0.1, 50):
                value = eval_cot_deriv(p, x)
                closed = verify._cosine_sum(p, x)
                assert abs(value - closed) <= 1e-8 * (1.0 + abs(closed)), (p, x)

    def test_exact_extraction_matches_coeff(self):
        for p in range(1, 13):
            assert (
                harmonics_from_polynomial(p, oracle_expansion(p))
                == expansion(p).harmonics
            ), p

    def test_extraction_rejects_degree_mismatch(self):
        with pytest.raises(DomainError):
            harmonics_from_polynomial(3, oracle_expansion(5))

    # -10**5000 has more digits than int-to-str conversion allows, so the
    # ids stand for the orders.
    @pytest.mark.parametrize(
        "order, message",
        [
            (True, "order must be an integer, got True"),
            ("3", "order must be an integer, got '3'"),
            (-(10**5000), "order must be >= 1, got -<16610-bit integer>"),
        ],
        ids=["bool", "str", "huge"],
    )
    def test_extraction_takes_an_integer_order(self, order, message):
        with pytest.raises(DomainError) as excinfo:
            harmonics_from_polynomial(order, oracle_expansion(1))
        assert str(excinfo.value).endswith(message)


class TestDerivativeConsistency:
    def test_central_difference_matches_next_order(self):
        step = 1e-5
        for p in range(1, 9):
            for x in grid(0.2, math.pi - 0.2, 8):
                approx = (
                    eval_cot_deriv(p - 1, x + step) - eval_cot_deriv(p - 1, x - step)
                ) / (2 * step)
                exact = eval_cot_deriv(p, x)
                assert approx == pytest.approx(exact, rel=1e-4), (p, x)


@settings(max_examples=150, deadline=None)
@given(
    order=st.integers(min_value=1, max_value=20),
    x=st.floats(min_value=0.1, max_value=math.pi - 0.1),
)
def test_property_closed_form_equals_oracle(order, x):
    value = eval_cot_deriv(order, x)
    closed = verify._cosine_sum(order, x)
    assert abs(value - closed) <= 1e-8 * (1.0 + abs(closed))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_property_unified_matches_piecewise(data):
    p = data.draw(st.integers(min_value=2, max_value=40))
    q = data.draw(st.sampled_from(list(range(2 if p % 2 else 1, p, 2))))
    assert coeff_unified(p, q) == cotderiv._eulerian(p, q)
