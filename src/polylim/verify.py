"""Invariant suites behind the ``verify`` subcommand.

Each suite re-derives the module's invariants from scratch at desk scale and
reports one pass/fail line per invariant.  Everything is deterministic:
sample grids are fixed, no randomness, no timestamps.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from math import comb

from . import cotderiv, limits
from .errors import DomainError
from .polygamma import (
    METHOD_ASYMPTOTIC,
    METHOD_REFLECTION,
    ORACLE_TERMS,
    bernoulli,
    polygamma,
    polygamma_series_oracle,
    reflection_residual,
)

SUITE_NAMES = ("coeffs", "reflection", "limits", "all")


class CheckResult(namedtuple("CheckResult", "name passed detail")):
    __slots__ = ()


def _grid(lo: float, hi: float, count: int) -> list[float]:
    """count points strictly inside (lo, hi), evenly spaced, half-offset."""
    width = hi - lo
    return [lo + width * (idx + 0.5) / count for idx in range(count)]


def _result(name: str, failures: list[str], ok_detail: str) -> CheckResult:
    if not failures:
        return CheckResult(name, True, ok_detail)
    detail = failures[0]
    if len(failures) > 1:
        detail += f" (+{len(failures) - 1} more)"
    return CheckResult(name, False, detail)


# ---------------------------------------------------------------------------
# coeffs suite


def _check_coefficient_sum() -> CheckResult:
    failures = []
    for p in range(1, 51):
        expected = -math.factorial(p) if p % 2 else math.factorial(p)
        got = cotderiv.expansion(p).coefficient_sum()
        if got != expected:
            failures.append(f"order {p}: sum {got} != {expected}")
    return _result("coefficient-sum-identity", failures, "orders 1..50 exact")


def _cosine_sum(order: int, x: float) -> float:
    """cot^(order) at x by the paper's cosine sum over the exact table."""
    terms = (b * math.cos(j * x) for j, b in cotderiv.expansion(order).harmonics)
    return math.fsum(terms) / math.sin(x) ** (order + 1)


def _check_oracle_equivalence() -> CheckResult:
    """eval_cot_deriv's derivative polynomial against the paper's cosine sum."""
    failures = []
    xs = _grid(0.1, math.pi - 0.1, 50)
    for p in range(1, 26):
        for x in xs:
            value = cotderiv.eval_cot_deriv(p, x)
            reference = _cosine_sum(p, x)
            if abs(value - reference) > 1e-8 * (1.0 + abs(reference)):
                failures.append(f"order {p}, x={x}: {value} vs {reference}")
    return _result("oracle-equivalence", failures, "orders 1..25 at 50 points")


def _check_unified_agreement() -> CheckResult:
    """The paper's Eulerian formula against the recurrence-built tables, read
    through ``expansion`` and, at nonzero multipliers, ``coeff_unified``."""
    failures = []
    harmonics = pairs = 0
    for p in range(1, 31):
        for q, b in cotderiv.expansion(p).harmonics:
            harmonics += 1
            piecewise = cotderiv._eulerian(p, q)
            if b != piecewise:
                failures.append(f"({p},{q}): table != piecewise")
            if q:
                pairs += 1
                if cotderiv.coeff_unified(p, q) != piecewise:
                    failures.append(f"({p},{q}): unified != piecewise")
    return _result(
        "unified-piecewise-agreement",
        failures,
        f"{harmonics} table harmonics and {pairs} unified pairs exact",
    )


def _check_finite_difference() -> CheckResult:
    failures = []
    step = 1e-5
    for p in range(1, 9):
        for x in _grid(0.2, math.pi - 0.2, 8):
            diff = (
                cotderiv.eval_cot_deriv(p - 1, x + step)
                - cotderiv.eval_cot_deriv(p - 1, x - step)
            ) / (2.0 * step)
            exact = cotderiv.eval_cot_deriv(p, x)
            if abs(diff - exact) > 1e-4 * abs(exact):
                failures.append(f"order {p}, x={x}: fd {diff} vs {exact}")
    return _result("finite-difference-consistency", failures, "orders 1..8")


def _check_parity() -> CheckResult:
    failures = []
    for p in range(1, 31):
        exp = cotderiv.expansion(p)
        want = 0 if p % 2 else 1
        if any(j % 2 != want for j, _ in exp.harmonics):
            failures.append(f"order {p}: multiplier parity broken")
        if len(exp.harmonics) != (p + 1) // 2:
            failures.append(f"order {p}: harmonic count {len(exp.harmonics)}")
    return _result("parity", failures, "orders 1..30")


def _check_exact_extraction() -> CheckResult:
    failures = []
    for p in range(1, 13):
        try:
            got = cotderiv.harmonics_from_polynomial(p, cotderiv.oracle_expansion(p))
        except DomainError as exc:  # a row whose cosine form is not integral
            failures.append(f"order {p}: {exc}")
            continue
        if got != cotderiv.expansion(p).harmonics:
            failures.append(f"order {p}: extraction mismatch")
    return _result("exact-harmonic-extraction", failures, "orders 1..12 exact")


def coeffs_suite() -> list[CheckResult]:
    return [
        _check_coefficient_sum(),
        _check_oracle_equivalence(),
        _check_unified_agreement(),
        _check_finite_difference(),
        _check_parity(),
        _check_exact_extraction(),
    ]


# ---------------------------------------------------------------------------
# reflection suite


def _check_bernoulli() -> CheckResult:
    failures = []
    if bernoulli(0) != 1:
        failures.append("B0 != 1")
    if bernoulli(1) != Fraction(-1, 2):
        failures.append("B1 != -1/2")
    for m in range(3, 60, 2):
        if bernoulli(m) != 0:
            failures.append(f"B{m} != 0")
    # The defining recurrence sum_{j<=m} C(m+1, j) * B_j = 0, summed exactly
    # over the integers B_j * L, L the lcm of the denominators; the table is
    # built from the constant terms of P_n, so this is an independent check.
    values = [bernoulli(j) for j in range(60)]
    scale = math.lcm(*(b.denominator for b in values))
    scaled = [b.numerator * (scale // b.denominator) for b in values]
    for m in range(1, 60):
        acc = sum(comb(m + 1, j) * scaled[j] for j in range(m + 1))
        if acc != 0:
            failures.append(f"recurrence defect at m={m}")
    return _result("bernoulli-recurrence", failures, "B0..B59 exact")


def _check_recurrence_identity() -> CheckResult:
    failures = []
    for n in range(0, 9):
        fact = math.factorial(n)
        # Below SHIFT_TARGET (10) both sides shift to one asymptotic argument,
        # and the series would cancel out of their difference.
        for x in _grid(10.0, 29.5, 100):
            step = (
                polygamma(n, x + 1.0).value
                - polygamma(n, x).value
            )
            # psi^(n)(x+1) - psi^(n)(x) = (-1)^n n! / x^(n+1)
            expected = fact / x ** (n + 1)
            if n % 2:
                expected = -expected
            if abs(step - expected) > 1e-11 * abs(expected):
                failures.append(f"n={n}, x={x}: {step} vs {expected}")
    return _result("recurrence-identity", failures, "orders 0..8 at 100 points")


def _check_series_oracle() -> CheckResult:
    failures = []
    for n in range(1, 9):
        for x in (0.5, 1.0, 1.5, 2.0, 5.0, 10.0):
            fast = polygamma(n, x).value
            slow = polygamma_series_oracle(n, x)
            if abs(fast - slow) > 1e-9 * abs(slow):
                failures.append(f"n={n}, x={x}: {fast} vs {slow}")
    return _result(
        "series-oracle-agreement", failures, f"orders 1..8, {ORACLE_TERMS} terms"
    )


def _check_reflection_identity() -> CheckResult:
    failures = []
    for n in range(0, 9):
        for z in _grid(0.05, 0.95, 50):
            residual = reflection_residual(n, z)
            if residual > 1e-8:
                failures.append(f"n={n}, z={z}: residual {residual}")
    return _result("reflection-identity", failures, "orders 0..8 at 50 points")


def _check_sign_pattern() -> CheckResult:
    failures = []
    for n in range(1, 9):
        want = 1 if n % 2 else -1
        for x in _grid(0.05, 20.0, 40):
            value = polygamma(n, x).value
            if math.copysign(1.0, value) != want:
                failures.append(f"n={n}, x={x}: sign of {value}")
    return _result("sign-pattern", failures, "orders 1..8 on x > 0")


def _check_path_bookkeeping() -> CheckResult:
    failures = []
    for n in (0, 1, 4):
        for x in _grid(-6.3, 25.0, 120):
            if abs(x - round(x)) < 1e-6:
                continue
            res = polygamma(n, x)
            reflected = res.method == METHOD_REFLECTION
            if reflected != (x < 0.5):
                failures.append(f"n={n}, x={x}: method {res.method}")
            if res.method == METHOD_ASYMPTOTIC and res.shift_count != 0:
                failures.append(f"n={n}, x={x}: shifts {res.shift_count}")
            if res.shift_count < 0:
                failures.append(f"n={n}, x={x}: negative shifts")
    return _result("path-bookkeeping", failures, "methods match regions")


def reflection_suite() -> list[CheckResult]:
    return [
        _check_bernoulli(),
        _check_recurrence_identity(),
        _check_series_oracle(),
        _check_reflection_identity(),
        _check_sign_pattern(),
        _check_path_bookkeeping(),
    ]


# ---------------------------------------------------------------------------
# limits suite


def _check_exact_reciprocity() -> CheckResult:
    failures = []
    for n in range(1, 7):
        for q in range(1, 7):
            for k in range(0, 7):
                prod = limits.gamma_ratio_limit(n, q, k) * limits.gamma_ratio_limit(
                    q, n, k
                )
                if prod != 1:
                    failures.append(f"gamma ({n},{q},{k}): product {prod}")
    return _result("exact-reciprocity", failures, "n,q,k <= 6")


def _check_polygamma_symmetry() -> CheckResult:
    failures = []
    for i in range(0, 6):
        for n in range(1, 7):
            for q in range(1, 7):
                prod = limits.polygamma_ratio_limit(
                    i, n, q
                ) * limits.polygamma_ratio_limit(i, q, n)
                if prod != 1:
                    failures.append(f"polygamma ({i},{n},{q}): product {prod}")
    return _result("polygamma-symmetry", failures, "i <= 5, n,q <= 6")


def _check_laurent_residues() -> CheckResult:
    failures = []
    for k in range(0, 21):
        germ, _ = limits.LimitSpec(limits.FAMILY_GAMMA, 1, 1, k).germs()
        value = germ.coefficient * math.factorial(k)
        if value != (-1) ** k:
            failures.append(f"k={k}: residue*k! = {value}")
    return _result("laurent-residue-unit", failures, "poles 0..20")


# The limits suite's probes, as the LimitSpec fields after the family:
# (n, q, k, i) for the polygamma theorem, (n, q, k) for the gamma family.
_THEOREM_CASES = tuple(
    (n, q, k, i)
    for i in range(0, 6)
    for n, q in ((2, 1), (3, 2), (1, 4))
    for k in range(0, 4)
)
_GAMMA_CASES = tuple(
    (n, q, k) for n, q in ((2, 1), (3, 1), (3, 2)) for k in range(0, 5)
)


def _probe_reports(family: str, cases) -> list[limits.ProbeReport]:
    return [limits.probe_limit(limits.LimitSpec(family, *case)) for case in cases]


def _check_probe_grid(name: str, reports: list[limits.ProbeReport]) -> CheckResult:
    failures = [
        f"{r.spec}: error {r.abs_error}"
        for r in reports
        if not r.converged
    ]
    return _result(name, failures, f"{len(reports)} probes converged")


def _check_pole_independence(reports: list[limits.ProbeReport]) -> CheckResult:
    """psi''(3z)/psi''(2z) extrapolates to one value at the poles k=0..3."""
    pole_zero = limits.LimitSpec(limits.FAMILY_POLYGAMMA, 3, 2, 0, 2)
    chosen = [r for r in reports if r.spec._replace(pole_index=0) == pole_zero]
    poles = [r.spec.pole_index for r in chosen]
    if poles != [0, 1, 2, 3]:
        failures = [f"probes at poles {poles}, expected k=0..3"]
    else:
        values = [r.extrapolated for r in chosen]
        spread = max(values) - min(values)
        failures = [] if spread <= 1e-5 else [f"extrapolations spread {spread}"]
    return _result("pole-independence", failures, "k=0..3 agree")


def _check_monotone_improvement(reports: list[limits.ProbeReport]) -> CheckResult:
    failures = []
    for r in reports:
        if not r.converged:
            continue
        raw = abs(r.samples[-1] - float(r.target))
        # Some ratios are flat to first order in eps, leaving the raw sample
        # already at the rounding floor; extrapolation cannot beat noise, so
        # grant it the double-precision amplification allowance.
        noise = 1e-11 * (1.0 + abs(float(r.target)))
        if r.abs_error > raw + noise:
            failures.append(f"{r.spec}: {r.abs_error} > raw {raw}")
    return _result("monotone-improvement", failures, "extrapolation beats last sample")


def limits_suite() -> list[CheckResult]:
    theorem_reports = _probe_reports(limits.FAMILY_POLYGAMMA, _THEOREM_CASES)
    gamma_reports = _probe_reports(limits.FAMILY_GAMMA, _GAMMA_CASES)
    return [
        _check_exact_reciprocity(),
        _check_polygamma_symmetry(),
        _check_laurent_residues(),
        _check_probe_grid("theorem-probe-grid", theorem_reports),
        _check_probe_grid("gamma-probe-grid", gamma_reports),
        _check_pole_independence(theorem_reports),
        _check_monotone_improvement(theorem_reports + gamma_reports),
    ]


def run_suite(name: str) -> list[CheckResult]:
    if name == "coeffs":
        return coeffs_suite()
    if name == "reflection":
        return reflection_suite()
    if name == "limits":
        return limits_suite()
    if name == "all":
        return coeffs_suite() + reflection_suite() + limits_suite()
    raise DomainError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
