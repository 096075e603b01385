"""Acceptance gate: every deliverable property at its stated tolerance.

Each test prints one PASS line on success; pytest reports the FAIL side.
Run with ``pytest tests/test_acceptance.py -v``.
"""
import math
import os
import subprocess
import sys
import time
from pathlib import Path

from polylim import (
    FAMILY_GAMMA,
    FAMILY_POLYGAMMA,
    LimitSpec,
    coeff_unified,
    cotderiv,
    eval_cot_deriv,
    expansion,
    gamma_ratio_limit,
    harmonics_from_polynomial,
    oracle_expansion,
    polygamma,
    polygamma_series_oracle,
    probe_limit,
    reflection_residual,
    verify,
)
from polylim.limits import EPS0, LEVELS, TOLERANCE
from polylim.polygamma import ORACLE_TERMS

SRC = str(Path(__file__).resolve().parent.parent / "src")

GOLDEN_COEFFS_ORDER1_JSON = """\
[
  {
    "order": 1,
    "sin_exponent": 2,
    "harmonics": [
      [
        0,
        "-1"
      ]
    ]
  }
]
"""


def grid(lo, hi, count):
    return [lo + (hi - lo) * (i + 0.5) / count for i in range(count)]


def euler_gamma_reference(terms=100_000):
    harmonic = math.fsum(1.0 / k for k in range(1, terms + 1))
    return harmonic - math.log(terms) - 0.5 / terms + 1.0 / (12.0 * terms**2)


def test_01_coefficient_oracle_equivalence():
    start = time.perf_counter()
    # The derivative polynomial behind eval_cot_deriv against the paper's
    # cosine sum over the exact table.
    for p in range(1, 26):
        for x in grid(0.1, math.pi - 0.1, 50):
            value = eval_cot_deriv(p, x)
            closed = verify._cosine_sum(p, x)
            assert abs(value - closed) <= 1e-8 * (1.0 + abs(closed)), (p, x)
    for p in range(1, 13):
        assert (
            harmonics_from_polynomial(p, oracle_expansion(p))
            == expansion(p).harmonics
        ), p
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(
        "PASS coefficient oracle equivalence: orders 1..25 numeric, "
        f"1..12 exact extraction ({elapsed:.2f}s)"
    )


def test_02_coefficient_sum_identity():
    start = time.perf_counter()
    for p in range(1, 51):
        expected = math.factorial(p) * (-1 if p % 2 else 1)
        assert expansion(p).coefficient_sum() == expected, p
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"PASS coefficient-sum identity: orders 1..50 exact ({elapsed:.3f}s)")


def test_03_unified_formula_equals_piecewise():
    checked = 0
    for p in range(1, 31):
        for q in range(2 if p % 2 else 1, p, 2):
            assert coeff_unified(p, q) == cotderiv._eulerian(p, q), (p, q)
            checked += 1
    print(f"PASS unified formula agreement: {checked} (order, multiplier) pairs")


def test_04_reflection_identity():
    for n in range(0, 9):
        for z in grid(0.05, 0.95, 50):
            residual = reflection_residual(n, z)
            assert residual <= 1e-8, (n, z, residual)
    print(
        "PASS reflection identity: orders 0..8 over 50 interior points, "
        "1e-8 relative to the largest term"
    )


def test_05_polygamma_accuracy():
    assert ORACLE_TERMS == 1000
    for n in range(1, 9):
        for x in (0.5, 1.0, 1.5, 2.0, 5.0, 10.0):
            fast = polygamma(n, x).value
            slow = polygamma_series_oracle(n, x)
            assert abs(fast - slow) <= 1e-12 * abs(slow), (n, x)
    digamma_at_one = polygamma(0, 1.0).value
    assert abs(digamma_at_one - (-0.5772156649015329)) <= 1e-10
    assert abs(digamma_at_one + euler_gamma_reference()) <= 1e-10
    print("PASS polygamma accuracy: series oracle 1e-12, digamma(1) 1e-10")


def test_06_polygamma_ratio_probe_grid():
    assert (EPS0, LEVELS, TOLERANCE) == (0.05, 8, 1e-5)
    start = time.perf_counter()
    count = 0
    for i in range(0, 6):
        for n, q in ((2, 1), (3, 2), (1, 4)):
            for k in range(0, 4):
                spec = LimitSpec(
                    family=FAMILY_POLYGAMMA,
                    numerator_scale=n,
                    denominator_scale=q,
                    pole_index=k,
                    derivative_order=i,
                )
                report = probe_limit(spec)
                assert report.converged, (i, n, q, k, report.abs_error)
                count += 1
    elapsed = time.perf_counter() - start
    assert count == 72
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(f"PASS polygamma-ratio probes: {count} probes within 1e-5 ({elapsed:.2f}s)")


def test_07_gamma_ratio_probe_grid():
    assert (EPS0, LEVELS, TOLERANCE) == (0.05, 8, 1e-5)
    for n, q in ((2, 1), (3, 1), (3, 2)):
        for k in range(0, 5):
            spec = LimitSpec(
                family=FAMILY_GAMMA,
                numerator_scale=n,
                denominator_scale=q,
                pole_index=k,
            )
            report = probe_limit(spec)
            target = gamma_ratio_limit(n, q, k)
            assert report.converged, (n, q, k, report.abs_error)
            assert abs(report.extrapolated - float(target)) <= 1e-5
            if target != 0:
                assert math.copysign(1.0, report.extrapolated) == (
                    1.0 if target > 0 else -1.0
                ), (n, q, k)
    print("PASS gamma-ratio probes: 15 probes match exact values and signs")


def test_08_pole_independence():
    values = []
    for k in range(0, 4):
        spec = LimitSpec(
            family=FAMILY_POLYGAMMA,
            numerator_scale=3,
            denominator_scale=2,
            pole_index=k,
            derivative_order=2,
        )
        values.append(probe_limit(spec).extrapolated)
    for a in values:
        for b in values:
            assert abs(a - b) <= 1e-5
    print("PASS pole independence: extrapolations at k=0..3 agree within 1e-5")


def run_cli(*args):
    # The child finds the package in the source tree, installed or not.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "polylim", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_09_cli_golden_and_verify_all():
    cases = [
        (
            ("limit", "--family", "polygamma", "--i", "1", "--n", "2", "--q",
             "1", "--k", "0"),
            "1/4\n",
        ),
        (("coeffs", "--order", "1", "--format", "json"), GOLDEN_COEFFS_ORDER1_JSON),
        (("limit", "--family", "gamma", "--n", "3", "--q", "3", "--k", "2"), "1\n"),
    ]
    for args, expected in cases:
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0, first.stderr
        assert first.stdout == expected, args
        assert first.stdout == second.stdout, args
    verify_run = run_cli("verify", "--suite", "all")
    assert verify_run.returncode == 0, verify_run.stdout + verify_run.stderr
    assert "FAIL" not in verify_run.stdout
    print("PASS command-line goldens byte-identical; full verify suite exits 0")
