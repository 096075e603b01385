import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylim import (
    FAMILY_GAMMA,
    FAMILY_POLYGAMMA,
    DomainError,
    LimitSpec,
    PoleGerm,
    ProbeFailureError,
    gamma_ratio_limit,
    neville_extrapolate,
    polygamma_ratio_limit,
    probe_limit,
)
from polylim.cli import _probe_csv as probe_csv


def spec_for(family, n, q, k=0, i=0):
    return LimitSpec(
        family=family,
        numerator_scale=n,
        denominator_scale=q,
        pole_index=k,
        derivative_order=i,
    )


class TestGammaRatioLimit:
    def test_equal_scales_give_one(self):
        for k in range(5):
            assert gamma_ratio_limit(3, 3, k) == 1

    def test_basic_values(self):
        assert gamma_ratio_limit(2, 1, 0) == Fraction(1, 2)
        assert gamma_ratio_limit(2, 1, 1) == Fraction(-1, 4)

    def test_sign_alternation(self):
        # (-1)**((n-q)k): odd scale difference alternates with pole index.
        assert gamma_ratio_limit(2, 1, 2) > 0
        assert gamma_ratio_limit(2, 1, 3) < 0
        assert gamma_ratio_limit(3, 1, 1) > 0

    def test_reciprocity(self):
        for n in range(1, 7):
            for q in range(1, 7):
                for k in range(0, 7):
                    assert (
                        gamma_ratio_limit(n, q, k) * gamma_ratio_limit(q, n, k) == 1
                    ), (n, q, k)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_ratio_limit(0, 1, 0)
        with pytest.raises(DomainError):
            gamma_ratio_limit(1, 1, -1)


class TestPolygammaRatioLimit:
    def test_digamma_case(self):
        assert polygamma_ratio_limit(0, 3, 2) == Fraction(2, 3)

    def test_trigamma_case(self):
        assert polygamma_ratio_limit(1, 2, 1) == Fraction(1, 4)

    def test_equal_scales(self):
        for i in range(6):
            assert polygamma_ratio_limit(i, 4, 4) == 1

    def test_symmetry(self):
        for i in range(0, 6):
            for n in range(1, 7):
                for q in range(1, 7):
                    assert (
                        polygamma_ratio_limit(i, n, q)
                        * polygamma_ratio_limit(i, q, n)
                        == 1
                    )

    def test_lowest_terms(self):
        value = polygamma_ratio_limit(1, 4, 2)
        assert value == Fraction(1, 4)
        assert value.denominator == 4


def gamma_germ(scale, k):
    return LimitSpec(FAMILY_GAMMA, scale, 1, k).germs()[0]


def polygamma_germ(i, scale, k):
    return LimitSpec(FAMILY_POLYGAMMA, scale, 1, k, i).germs()[0]


class TestGammaLaurentLeading:
    # The germ of Gamma at scale 1 is its residue (-1)**k / k! at -k.
    def test_examples(self):
        assert gamma_germ(1, 0) == PoleGerm(1, 1)
        assert gamma_germ(1, 1) == PoleGerm(-1, 1)
        assert gamma_germ(1, 3) == PoleGerm(Fraction(-1, 6), 1)

    def test_unit_product_with_factorial(self):
        for k in range(0, 21):
            assert gamma_germ(1, k).coefficient * math.factorial(k) == (-1) ** k


class TestPoleGerms:
    def test_numerator_and_denominator(self):
        spec = LimitSpec(FAMILY_POLYGAMMA, 3, 2, pole_index=1,
                         derivative_order=2)
        assert spec.germs() == (PoleGerm(Fraction(-2, 27), 3),
                                PoleGerm(Fraction(-1, 4), 3))
        assert spec.target() == Fraction(8, 27)

    def test_each_germ_is_the_leading_term(self):
        # |eps**p * f(s*(-k + eps)) / coefficient - 1| is O(eps).
        mpmath = pytest.importorskip("mpmath")
        eps = mpmath.mpf("1e-12")
        worst = 0
        with mpmath.workdps(40):
            for s in range(1, 7):
                for k in range(4):
                    z = s * (eps - k)
                    pairs = [(gamma_germ(s, k), mpmath.gamma(z))]
                    pairs += [(polygamma_germ(i, s, k), mpmath.psi(i, z))
                              for i in range(6)]
                    for germ, value in pairs:
                        c = germ.coefficient
                        leading = eps**germ.pole_order * value
                        gap = abs(leading * c.denominator / c.numerator - 1)
                        worst = max(worst, gap)
        assert worst <= 1e-9


# sha256 digests of exact limits, recorded before target() took the closed
# form of the germ quotient; each value enters as hex(numerator)/hex(denominator).
GAMMA_PIN_DIGEST = "903b576efb1070f6d83748d9fc73097afbdd951be073f77fd5802eee2122fea4"
POLYGAMMA_PIN_DIGEST = "f86cd57e0cfc00d82e6bbbf3b6ece20295c492fe256636dc5db5c287442c1491"


def fraction_digest(values):
    digest = hashlib.sha256()
    for value in values:
        digest.update(f"{hex(value.numerator)}/{hex(value.denominator)}\n".encode())
    return digest.hexdigest()


class TestExactnessPins:
    def test_gamma_grid_digest(self):
        assert fraction_digest(
            gamma_ratio_limit(n, q, k)
            for n in range(1, 7) for q in range(1, 7) for k in range(0, 301, 7)
        ) == GAMMA_PIN_DIGEST

    def test_polygamma_grid_digest(self):
        assert fraction_digest(
            polygamma_ratio_limit(i, n, q)
            for i in range(40) for n in range(1, 13) for q in range(1, 13)
        ) == POLYGAMMA_PIN_DIGEST

    @pytest.mark.parametrize("family, cases", [
        (FAMILY_GAMMA, [(n, q, k, 0) for n in range(1, 7) for q in range(1, 7)
                        for k in (0, 1, 2, 5, 13, 40, 150)]),
        (FAMILY_POLYGAMMA, [(n, q, k, i) for n in range(1, 9) for q in range(1, 9)
                            for k in (0, 3) for i in (0, 1, 2, 7, 30)]),
    ])
    def test_target_is_the_germ_quotient(self, family, cases):
        for case in cases:
            spec = LimitSpec(family, *case)
            num, den = spec.germs()
            assert num.pole_order == den.pole_order
            assert spec.target() == num.coefficient / den.coefficient, spec


class TestNeville:
    def test_constant(self):
        xs = (1.0, 0.5, 0.25)
        assert neville_extrapolate(xs, (7.0, 7.0, 7.0)) == 7.0

    def test_exact_polynomial_recovery(self):
        # Samples of 3 - 2 eps + 5 eps^2 must extrapolate to exactly 3.
        xs = tuple(0.1 * 2.0**-j for j in range(4))
        ys = tuple(3.0 - 2.0 * x + 5.0 * x * x for x in xs)
        assert neville_extrapolate(xs, ys) == pytest.approx(3.0, abs=1e-13)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DomainError):
            neville_extrapolate((1.0, 0.5), (1.0,))

    def test_rejects_repeated_abscissae(self):
        with pytest.raises(DomainError, match="distinct"):
            neville_extrapolate((0.1, 0.1), (1.0, 2.0))
        with pytest.raises(DomainError, match="distinct"):
            neville_extrapolate((0.0, 0.5, -0.0), (1.0, 2.0, 3.0))

    @pytest.mark.parametrize(
        "xs, ys",
        [
            ((0.1, 0.2), (math.nan, 2.0)),
            ((0.1, 0.2), (1.0, math.inf)),
            ((0.1, math.nan), (1.0, 2.0)),
            ((-math.inf, 0.2), (1.0, 2.0)),
        ],
    )
    def test_rejects_non_finite_input(self, xs, ys):
        with pytest.raises(DomainError, match="finite"):
            neville_extrapolate(xs, ys)


class TestProbeLimit:
    def test_polygamma_example(self):
        report = probe_limit(spec_for(FAMILY_POLYGAMMA, 2, 1, k=0, i=1))
        assert report.converged
        assert report.extrapolated == pytest.approx(0.25, abs=1e-6)
        assert report.target == Fraction(1, 4)

    def test_gamma_example(self):
        report = probe_limit(spec_for(FAMILY_GAMMA, 2, 1, k=1))
        assert report.converged
        assert report.extrapolated == pytest.approx(-0.25, abs=1e-5)

    def test_trivial_ratio_is_exactly_one_at_every_level(self):
        report = probe_limit(spec_for(FAMILY_POLYGAMMA, 1, 1, k=2, i=0))
        assert all(s == 1.0 for s in report.samples)
        assert report.extrapolated == 1.0
        assert report.abs_error == 0.0

    def test_epsilons_strictly_decreasing(self):
        report = probe_limit(spec_for(FAMILY_POLYGAMMA, 3, 2, k=1, i=2))
        assert all(a > b for a, b in zip(report.epsilons, report.epsilons[1:]))
        assert len(report.samples) == len(report.epsilons) == 8

    def test_extrapolation_beats_last_sample(self):
        for k in (0, 2):
            for i in (0, 3):
                report = probe_limit(spec_for(FAMILY_POLYGAMMA, 2, 1, k=k, i=i))
                raw = abs(report.samples[-1] - float(report.target))
                noise = 1e-11 * (1.0 + abs(float(report.target)))
                assert report.abs_error <= raw + noise

    def test_pole_independence_of_extrapolation(self):
        values = [
            probe_limit(spec_for(FAMILY_POLYGAMMA, 3, 2, k=k, i=2)).extrapolated
            for k in range(4)
        ]
        assert max(values) - min(values) <= 1e-5

    def test_probe_failure_identifies_sample(self):
        # Scale 20 at the first step, 0.05, lands on the gamma pole at -59.
        spec = spec_for(FAMILY_GAMMA, 20, 1, k=3)
        with pytest.raises(ProbeFailureError) as excinfo:
            probe_limit(spec)
        assert excinfo.value.z == -2.95

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            spec_for("nonsense", 1, 1)
        with pytest.raises(DomainError):
            spec_for(FAMILY_GAMMA, 0, 1)
        with pytest.raises(DomainError):
            spec_for(FAMILY_GAMMA, 1, 1, k=-1)
        with pytest.raises(DomainError):
            spec_for(FAMILY_POLYGAMMA, 1, 1, i=-1)
        with pytest.raises(DomainError):
            LimitSpec(FAMILY_GAMMA, 2, -1)
        with pytest.raises(DomainError):
            LimitSpec(FAMILY_GAMMA, 2.5, 1)
        with pytest.raises(DomainError):
            LimitSpec(FAMILY_GAMMA, True, 1)
        with pytest.raises(DomainError):
            LimitSpec(FAMILY_GAMMA, 2, 1, pole_index=1.0)
        with pytest.raises(DomainError):
            LimitSpec(FAMILY_POLYGAMMA, 2, 1, derivative_order=1.5)
        with pytest.raises(DomainError, match="gamma-ratio family.* got 3"):
            spec_for(FAMILY_GAMMA, 2, 1, k=1, i=3)

    @pytest.mark.parametrize("args, message", [
        ((FAMILY_GAMMA, 0, 1, 1), "scales must be >= 1, got n=0, q=1"),
        ((FAMILY_GAMMA, 2, -3), "scales must be >= 1, got n=2, q=-3"),
        ((FAMILY_GAMMA, 2, 1, -1), "pole index must be >= 0, got -1"),
        ((FAMILY_POLYGAMMA, 2, 1, 0, -1), "derivative order must be >= 0, got -1"),
        ((FAMILY_POLYGAMMA, 2, 1, -10**5000),
         "pole index must be >= 0, got -<16610-bit integer>"),
    ], ids=["n", "q", "k", "i", "huge-k"])
    def test_spec_errors_name_the_values(self, args, message):
        with pytest.raises(DomainError) as excinfo:
            LimitSpec(*args)
        assert str(excinfo.value) == message

    def test_spec_is_an_immutable_record(self):
        spec = LimitSpec(FAMILY_GAMMA, 3, 2)
        assert spec == spec_for(FAMILY_GAMMA, 3, 2, k=0, i=0)
        assert hash(spec) == hash(spec_for(FAMILY_GAMMA, 3, 2))
        assert repr(spec) == (
            "LimitSpec(family='gamma-ratio', numerator_scale=3, "
            "denominator_scale=2, pole_index=0, derivative_order=0)"
        )
        with pytest.raises(AttributeError):
            spec.pole_index = 1


class TestSerialization:
    def test_report_csv_shape(self):
        # The CSV layout is owned by the CLI; render a probe through it.
        report = probe_limit(spec_for(FAMILY_GAMMA, 2, 1, k=0))
        lines = probe_csv(report).splitlines()
        assert lines[0] == "family,i,n,q,k,eps,sample"
        assert len(lines) == 1 + 8 + 2
        assert lines[9].startswith("family,i,n,q,k,extrapolated")
        sample_fields = lines[1].split(",")
        assert sample_fields[0] == "gamma-ratio"
        assert len(sample_fields) == 7
        summary = lines[-1].split(",")
        assert summary[-1] in ("true", "false")
        assert summary[6] == "1"
        assert summary[7] == "2"


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    q=st.integers(min_value=1, max_value=8),
    k=st.integers(min_value=0, max_value=6),
)
def test_property_gamma_reciprocity(n, q, k):
    assert gamma_ratio_limit(n, q, k) * gamma_ratio_limit(q, n, k) == 1


@settings(max_examples=80, deadline=None)
@given(
    i=st.integers(min_value=0, max_value=8),
    n=st.integers(min_value=1, max_value=9),
    q=st.integers(min_value=1, max_value=9),
)
def test_property_polygamma_ratio_power(i, n, q):
    value = polygamma_ratio_limit(i, n, q)
    assert value == Fraction(q, n) ** (i + 1)
    assert math.gcd(value.numerator, value.denominator) == 1
