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
from polylim import cotderiv


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
                assert coeff_unified(p, q) == coeff(p, q), (p, q)

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
                (j, coeff(p, j)) for j in range(start, p, 2)
            ), p

    def test_request_order_does_not_change_tables(self, monkeypatch):
        def tables(orders):
            monkeypatch.setattr(cotderiv, "_ROWS", [[0, 1]])
            expansion.cache_clear()
            return {p: expansion(p) for p in orders}

        ascending = tables(range(1, 81))
        orders = list(range(1, 81))
        random.Random(80).shuffle(orders)
        assert tables(orders) == ascending

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
                assert coeff_unified(p, q) == expected, q
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
        # sin(x)**41 underflows to 0 although |sin x| clears the pole guard.
        with pytest.raises(DomainError):
            eval_cot_deriv(40, 1e-11)

    def test_pi_scaled_underflowed_sine_power_is_domain_error(self):
        with pytest.raises(DomainError):
            eval_cot_deriv_pi(60, 1e-11)

    def test_pi_scaled_pole_guard_carries_location(self):
        with pytest.raises(PoleError) as excinfo:
            eval_cot_deriv_pi(2, 3.0)
        assert excinfo.value.location == 3


# Arguments for the evaluator pins: values, poles, powers of sin beyond double
# range, a multiple j*x beyond it, and both ends of the reducible range.
EVAL_PIN_X = (*grid(-6.3, 6.3, 63), 1e-11, 1e3, 1e15, 1e308)
EVAL_PIN_Z = (*grid(-2.5, 2.5, 47), 1e-13, 1e-11, 0.5, -7.5, 2.0**51 + 0.25, 2.0**52)

# sha256 of the lines eval_line(function, order, arg) for orders 0..40,
# recorded on Python 3.11 before the two evaluators shared one sum.  Python
# 3.12 compensates builtin sum() over floats, so a sum() in the evaluator
# moves EVAL_X_DIGEST on 3.12 and 3.13.
EVAL_X_DIGEST = "cd86a00a5a9a7c8fb248b37c4baccc8b913568606cb9913dc5b1878d8d089052"
EVAL_Z_DIGEST = "1213fced11c2f3290e2b847639dbde05e41099897a7aa79baa7bf75bd8d12500"


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


class TestPolynomialOracle:
    def test_base_cases(self):
        assert oracle_expansion(0).coefficients == (0, 1)
        assert oracle_expansion(1).coefficients == (-1, 0, -1)
        assert oracle_expansion(2).coefficients == (0, 2, 0, 2)

    def test_degree_tracks_order(self):
        for p in range(0, 26):
            assert oracle_expansion(p).degree == p + 1

    def test_closed_form_agrees_with_polynomial(self):
        for p in range(1, 26):
            poly = oracle_expansion(p)
            for x in grid(0.1, math.pi - 0.1, 50):
                closed = eval_cot_deriv(p, x)
                direct = poly.evaluate(math.cos(x) / math.sin(x))
                assert abs(closed - direct) <= 1e-8 * (1.0 + abs(direct)), (p, x)

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

    def test_evaluate_is_horner(self):
        poly = CotPolynomial(coefficients=(1, -2, 3))
        assert poly.evaluate(2.0) == pytest.approx(1 - 4 + 12)


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
    closed = eval_cot_deriv(order, x)
    direct = oracle_expansion(order).evaluate(math.cos(x) / math.sin(x))
    assert abs(closed - direct) <= 1e-8 * (1.0 + abs(direct))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_property_unified_matches_piecewise(data):
    p = data.draw(st.integers(min_value=2, max_value=40))
    q = data.draw(st.sampled_from(list(range(2 if p % 2 else 1, p, 2))))
    assert coeff_unified(p, q) == coeff(p, q)
