"""Turning polylim results into small JSON-able summaries, on both sides of
the worker boundary.  Imports nothing heavy, so workers load it cheaply."""
from __future__ import annotations

import hashlib
import math


def digest_ints(values) -> str:
    """Digest of a sequence of integers; exact, and free of the str() limit
    on huge integers."""
    h = hashlib.sha256()
    for v in values:
        h.update(v.to_bytes(v.bit_length() // 8 + 1, "big", signed=True))
        h.update(b"|")
    return h.hexdigest()[:32]


def digest_table(harmonics) -> str:
    flat = []
    for j, b in harmonics:
        flat.extend((j, b))
    return digest_ints(flat)


def digest_fraction(value) -> str:
    return digest_ints((value.numerator, value.denominator))


def table_structure_ok(order: int, harmonics) -> bool:
    """Sum of coefficients is (-1)**order * order!, multipliers have the
    opposite parity to the order, and there are (order + 1) // 2 of them."""
    want_sum = -math.factorial(order) if order % 2 else math.factorial(order)
    return (
        sum(b for _, b in harmonics) == want_sum
        and all((j + order) % 2 == 1 for j, _ in harmonics)
        and len(harmonics) == (order + 1) // 2
    )


def summarize(kind: str, args, out, polylim_error) -> list:
    """One output as a JSON-able list whose first element names its shape."""
    if isinstance(out, BaseException):
        return ["exc", type(out).__name__, isinstance(out, polylim_error), str(out)[:200]]
    if kind == "polygamma":
        if type(out.value) is not float:
            return ["bad", type(out.value).__name__]
        return ["f", out.value, out.method]
    if kind in ("eval_cot_deriv", "eval_cot_deriv_pi"):
        if type(out) is not float:
            return ["bad", type(out).__name__]
        return ["f", out]
    if kind == "probe":
        return ["probe", float(out.extrapolated), bool(out.converged), len(out.samples)]
    if kind in ("expansion", "oracle_route"):
        harmonics = out.harmonics if kind == "expansion" else out
        order = args[0]
        ok = table_structure_ok(order, harmonics)
        if kind == "expansion":
            ok = ok and out.order == order and out.sin_exponent == order + 1
        return ["table", digest_table(harmonics), ok]
    if kind in ("coeff", "coeff_unified"):
        if type(out) is not int:
            return ["bad", type(out).__name__]
        return ["int", digest_ints((out,))]
    if kind in ("gamma_ratio_limit", "polygamma_ratio_limit"):
        return ["frac", digest_fraction(out)]
    raise ValueError(f"unknown op kind {kind!r}")
