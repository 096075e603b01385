"""The one long floating-point loop in the package.

The shifted power sum behind the polygamma series oracle is the only loop
that touches many floats.  It is plain Python over ``math.fsum``, which
rounds the sum of the computed terms once, so the result does not depend on
summation order.  The terms are generated lazily, so memory stays flat at any
term count.  Everything else in the package is exact big-integer arithmetic
or scalar special-function evaluation.
"""
from __future__ import annotations

import math


def shifted_power_sum(x: float, exponent: int, terms: int) -> float:
    """Sum of (x + k)**(-exponent) over k = 0 .. terms-1."""
    return math.fsum((x + k) ** -exponent for k in range(terms))
