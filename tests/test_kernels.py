import math

import pytest

from polylim import _kernels


def brute_sum(x, exponent, terms):
    return math.fsum((x + k) ** -exponent for k in range(terms))


def test_small_sums_match_fsum():
    for x, exponent, terms in ((1.0, 2, 10), (0.5, 3, 1000), (2.5, 9, 257)):
        got = _kernels.shifted_power_sum(x, exponent, terms)
        assert got == brute_sum(x, exponent, terms)


def test_zeta2_tail():
    # sum_{j=1}^{N} j^-2 = pi^2/6 - (1/N - 1/(2N^2) + 1/(6N^3) - ...); the
    # omitted Euler-Maclaurin terms are below 1e-25 at this N.
    terms = 10**5 + 17
    got = _kernels.shifted_power_sum(1.0, 2, terms)
    tail = 1.0 / terms - 0.5 / terms**2 + 1.0 / (6.0 * terms**3)
    assert got == pytest.approx(math.pi**2 / 6 - tail, abs=1e-15)


def test_zero_terms():
    assert _kernels.shifted_power_sum(1.0, 2, 0) == 0.0
