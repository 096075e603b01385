"""References that share no code with polylim, and the failure rule.

* polygamma: mpmath.psi at 30 digits.
* cotangent derivatives: the reflection identity
  pi**(p+1) cot^(p)(pi z) = (-1)**p psi^(p)(1-z) - psi^(p)(z), also in mpmath.
* coefficient tables: the integer recurrence obtained by differentiating
  N_p / sin**(p+1) and folding the products back into cosine harmonics.
* exact limits: the closed forms, recomputed here.

An op succeeds when it returns a finite value within tolerance, or raises a
PolylimError while the reference cannot be represented in a double or the
input lies inside the documented pole guard.  Anything else is a failure.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction

import mpmath

from outcomes import digest_fraction, digest_ints, digest_table

DIGITS = 30
# Tolerances, each relative to the scale of the terms the result is built
# from, so that a value near a zero of the function is judged fairly.
RTOL_POLYGAMMA = 1e-9  # the package's pinned polygamma accuracy
RTOL_COT = 1e-6  # cancellation in the closed form grows with the order
RTOL_PROBE = 1e-5  # the probe tolerance, applied relative to the target
POLE_GUARD = 1e-12  # documented: polygamma POLE_PROXIMITY, cotderiv POLE_GUARD


def _psi(n: int, x) -> mpmath.mpf:
    with mpmath.workdps(DIGITS):
        return mpmath.psi(n, x)


def representable(value) -> bool:
    mag = abs(value)
    return mag == 0 or (sys.float_info.min <= mag <= sys.float_info.max)


def polygamma_ref(n: int, x: float):
    """(reference value, tolerance scale)."""
    with mpmath.workdps(DIGITS):
        ref = _psi(n, mpmath.mpf(x))
        scale = abs(ref)
        if x < 0.5:
            scale = max(scale, abs(_psi(n, 1 - mpmath.mpf(x))))
        elif n == 0 and x < 10.0:
            # digamma has a zero at 1.4616...; judge against the recurrence term.
            scale = max(scale, abs(_psi(0, mpmath.mpf(x) + 1)))
        return ref, scale


def cot_pi_ref(p: int, z):
    """cot^(p)(pi z) with z an mpf, and the larger reflection term."""
    with mpmath.workdps(DIGITS):
        a = _psi(p, 1 - z)
        b = _psi(p, z)
        norm = mpmath.pi ** (p + 1)
        sign = -1 if p % 2 else 1
        return (sign * a - b) / norm, max(abs(a), abs(b)) / norm


def cot_ref(p: int, x: float):
    with mpmath.workdps(DIGITS):
        return cot_pi_ref(p, mpmath.mpf(x) / mpmath.pi)


def probe_target(family: str, n: int, q: int, k: int, i: int) -> Fraction:
    if family == "gamma":
        sign = -1 if ((n - q) * k) % 2 else 1
        return Fraction(sign * q * math.factorial(q * k), n * math.factorial(n * k))
    return Fraction(q, n) ** (i + 1)


def cot_tables(max_order: int) -> list:
    """tables[p] = ((j, b[p, j]), ...) for p = 0 .. max_order."""
    cur = {1: 1}  # cot x = cos x / sin x
    tables = [((1, 1),)]
    for p in range(max_order):
        nxt = {}
        for j, b in cur.items():
            for jj, factor in ((abs(j - 1), -j - (p + 1)), (j + 1, j - (p + 1))):
                nxt[jj] = nxt.get(jj, 0) + b * factor
        if any(v % 2 for v in nxt.values()):
            raise AssertionError(f"odd numerator in the recurrence at order {p + 1}")
        cur = {j: v // 2 for j, v in nxt.items()}
        order = p + 1
        tables.append(tuple((j, cur.get(j, 0)) for j in range(0 if order % 2 else 1, order, 2)))
    return tables


def _in_guard(kind: str, args) -> bool:
    if kind == "polygamma":
        x = args[1]
        return x < 0.5 and abs(x - round(x)) < POLE_GUARD
    if kind == "eval_cot_deriv":
        return abs(math.sin(args[1])) < POLE_GUARD
    if kind == "eval_cot_deriv_pi":
        z = args[1]
        return abs(math.sin(math.pi * (z - round(z)))) < POLE_GUARD
    return False


def float_reference(kind: str, args):
    if kind == "polygamma":
        return polygamma_ref(args[0], args[1])
    if kind == "eval_cot_deriv":
        return cot_ref(args[0], args[1])
    if kind == "eval_cot_deriv_pi":
        with mpmath.workdps(DIGITS):
            return cot_pi_ref(args[0], mpmath.mpf(args[1]))
    if kind == "probe":
        return probe_target(*args), None
    raise ValueError(kind)


def judge(kind: str, args, summary, ref) -> tuple[bool, float, str]:
    """(ok, error margin = |error| / tolerance, reason) for one float op."""
    value, scale = ref
    shape = summary[0]
    if shape == "exc":
        _, name, is_polylim, message = summary
        if is_polylim and (not representable(value) or _in_guard(kind, args)):
            return True, 0.0, ""
        return False, math.inf, f"raised {name}: {message}"
    if shape == "bad":
        return False, math.inf, f"returned {summary[1]}"
    if kind == "probe":
        got = summary[1]
        if not math.isfinite(got):
            return False, math.inf, f"extrapolated {got}"
        err = abs(Fraction(got) - value)
        tol = Fraction(RTOL_PROBE) * abs(value)
        if tol == 0:
            return err == 0, 0.0 if err == 0 else math.inf, "zero target"
        margin = float(err / tol)
        return margin <= 1.0, margin, "" if margin <= 1.0 else f"extrapolated {got} vs {float(value)!r} (converged={summary[2]})"
    got = summary[1]
    if not math.isfinite(got):
        return False, math.inf, f"returned {got}"
    rtol = RTOL_POLYGAMMA if kind == "polygamma" else RTOL_COT
    with mpmath.workdps(DIGITS):
        tol = rtol * scale
        err = abs(mpmath.mpf(got) - value)
        margin = float(err / tol) if tol else (0.0 if err == 0 else math.inf)
    return margin <= 1.0, margin, "" if margin <= 1.0 else f"returned {got!r} vs {mpmath.nstr(value, 17)}"


def exact_reference(kind: str, args, tables) -> list:
    """The summary an exact op must produce (see outcomes.summarize)."""
    if kind in ("expansion", "oracle_route"):
        return ["table", digest_table(tables[args[0]]), True]
    if kind in ("coeff", "coeff_unified"):
        p, j = args
        return ["int", digest_ints((dict(tables[p])[j],))]
    if kind == "gamma_ratio_limit":
        n, q, k = args
        return ["frac", digest_fraction(probe_target("gamma", n, q, k, 0))]
    if kind == "polygamma_ratio_limit":
        i, n, q = args
        return ["frac", digest_fraction(probe_target("polygamma", n, q, 0, i))]
    raise ValueError(kind)
