"""The argument contract shared by every public entry point.

Integer arguments pass through ``errors.as_index``, sequences of them
through ``errors.as_indices`` and real ones through ``errors.as_real``, or
``errors.as_finite`` where they must lie in double range.  A
wrong type, a value below its bound or an int too long to print raises
``DomainError`` (or a subclass of it), never ``TypeError`` or ``ValueError``.
An order or a size above its cap is rejected before any work starts.  The
totality property at the end draws arguments of every kind for every public
callable.
"""
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polylim
from polylim import (
    FAMILY_GAMMA,
    FAMILY_POLYGAMMA,
    CotDerivExpansion,
    CotPolynomial,
    DomainError,
    LimitSpec,
    PoleGerm,
    PolygammaResult,
    PolylimError,
    ProbeReport,
    bernoulli,
    coeff,
    coeff_unified,
    eval_cot_deriv,
    eval_cot_deriv_pi,
    expansion,
    gamma_ratio_limit,
    harmonics_from_polynomial,
    neville_extrapolate,
    oracle_expansion,
    polygamma,
    polygamma_ratio_limit,
    polygamma_series_oracle,
    probe_limit,
    reflection_residual,
)
from polylim import cotderiv, verify

# The public names, listed so that a change to the surface is deliberate.
PUBLIC_NAMES = [
    "CotDerivExpansion",
    "CotPolynomial",
    "DomainError",
    "FAMILY_GAMMA",
    "FAMILY_POLYGAMMA",
    "HarmonicRangeError",
    "InvalidHarmonicError",
    "LimitSpec",
    "PoleError",
    "PoleGerm",
    "PolygammaResult",
    "PolylimError",
    "ProbeFailureError",
    "ProbeReport",
    "TableCapacityError",
    "bernoulli",
    "coeff",
    "coeff_unified",
    "eval_cot_deriv",
    "eval_cot_deriv_pi",
    "expansion",
    "gamma_ratio_limit",
    "harmonics_from_polynomial",
    "neville_extrapolate",
    "oracle_expansion",
    "polygamma",
    "polygamma_ratio_limit",
    "polygamma_series_oracle",
    "probe_limit",
    "reflection_residual",
]


def test_public_names_are_pinned():
    assert sorted(polylim.__all__) == PUBLIC_NAMES
    assert all(hasattr(polylim, name) for name in PUBLIC_NAMES)


# More digits than int-to-str conversion allows, so a message that formats
# it with a plain f-string raises ValueError.
H = 10**5000
HUGE = "<16610-bit integer>"

# Calls whose error message echoes an int too long to convert to text.
HUGE_INT_CALLS = {
    "expansion(-H)": lambda: expansion(-H),
    "coeff(-H, 1)": lambda: coeff(-H, 1),
    "coeff(3, -H)": lambda: coeff(3, -H),
    "coeff(3, H)": lambda: coeff(3, H),
    "coeff(H, 0)": lambda: coeff(H, 0),
    "coeff_unified(-H, 1)": lambda: coeff_unified(-H, 1),
    "coeff_unified(3, -H)": lambda: coeff_unified(3, -H),
    "coeff_unified(H, 2)": lambda: coeff_unified(H, 2),
    "oracle_expansion(-H)": lambda: oracle_expansion(-H),
    "expansions_up_to(-H)": lambda: cotderiv.expansions_up_to(-H),
    "bernoulli(-H)": lambda: bernoulli(-H),
    "bernoulli(H)": lambda: bernoulli(H),
}


@pytest.mark.parametrize("call", HUGE_INT_CALLS.values(), ids=HUGE_INT_CALLS)
def test_huge_int_is_domain_error(call):
    with pytest.raises(DomainError) as excinfo:
        call()
    assert HUGE in str(excinfo.value)


# Every integer argument of a public entry point, as a call that passes the
# value under test there and valid values everywhere else.
INTEGER_ARGUMENTS = {
    "expansion": expansion,
    "coeff.order": lambda v: coeff(v, 0),
    "coeff.multiplier": lambda v: coeff(3, v),
    "coeff_unified.order": lambda v: coeff_unified(v, 2),
    "coeff_unified.multiplier": lambda v: coeff_unified(3, v),
    "oracle_expansion": oracle_expansion,
    "harmonics_from_polynomial": lambda v: harmonics_from_polynomial(
        v, oracle_expansion(3)
    ),
    "expansions_up_to": cotderiv.expansions_up_to,
    "eval_cot_deriv": lambda v: eval_cot_deriv(v, 1.0),
    "eval_cot_deriv_pi": lambda v: eval_cot_deriv_pi(v, 0.25),
    "polygamma": lambda v: polygamma(v, 2.5),
    "polygamma_series_oracle": lambda v: polygamma_series_oracle(v, 2.5),
    "reflection_residual": lambda v: reflection_residual(v, 0.25),
    "bernoulli": bernoulli,
    "LimitSpec.numerator_scale": lambda v: LimitSpec(FAMILY_POLYGAMMA, v, 1),
    "LimitSpec.denominator_scale": lambda v: LimitSpec(FAMILY_POLYGAMMA, 2, v),
    "LimitSpec.pole_index": lambda v: LimitSpec(FAMILY_POLYGAMMA, 2, 1, v),
    "LimitSpec.derivative_order": lambda v: LimitSpec(FAMILY_POLYGAMMA, 2, 1, 0, v),
    "gamma_ratio_limit.n": lambda v: gamma_ratio_limit(v, 1, 1),
    "gamma_ratio_limit.q": lambda v: gamma_ratio_limit(2, v, 1),
    "gamma_ratio_limit.k": lambda v: gamma_ratio_limit(2, 1, v),
    "polygamma_ratio_limit.i": lambda v: polygamma_ratio_limit(v, 2, 1),
    "polygamma_ratio_limit.n": lambda v: polygamma_ratio_limit(1, v, 1),
    "polygamma_ratio_limit.q": lambda v: polygamma_ratio_limit(1, 2, v),
}


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "must be an integer, got True"),
        (2.5, "must be an integer, got 2.5"),
        ("3", "must be an integer, got '3'"),
        (-H, f"-{HUGE}"),
        (Fraction(H, 3), "must be an integer, got <Fraction too long to print>"),
    ],
    ids=["bool", "float", "str", "-H", "H/3"],
)
@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
def test_integer_argument_is_total(name, value, message):
    with pytest.raises(DomainError) as excinfo:
        INTEGER_ARGUMENTS[name](value)
    assert message in str(excinfo.value)


# One message of each shape from the bounds: a range below and above, and
# the parity of a harmonic.
BOUND_MESSAGES = [
    (lambda: expansion(0), "order must be >= 1, got 0"),
    (lambda: coeff(3, -1), "multiplier must be >= 0, got -1"),
    (lambda: coeff_unified(3, 0), "multiplier must be >= 1, got 0"),
    (lambda: oracle_expansion(-1), "order must be >= 0, got -1"),
    (lambda: cotderiv.expansions_up_to(0), "max order must be >= 1, got 0"),
    (lambda: polygamma(-1, 1.0), "order must be >= 0, got -1"),
    (lambda: bernoulli(-2), "index must be >= 0, got -2"),
    (lambda: LimitSpec(FAMILY_POLYGAMMA, 2, 1, -1), "pole index must be >= 0"),
    (lambda: coeff(H, 0), f"no cos(0x) harmonic in the order-{HUGE} derivative"),
    (lambda: coeff(3, H), f"multiplier {HUGE} out of range for order 3"),
    (lambda: bernoulli(H), f"index {HUGE} exceeds the configured table size"),
]


@pytest.mark.parametrize(
    "call, message", BOUND_MESSAGES, ids=[message for _, message in BOUND_MESSAGES]
)
def test_bound_messages(call, message):
    with pytest.raises(DomainError) as excinfo:
        call()
    assert str(excinfo.value).startswith(message)


# Records and arguments that are neither one integer nor one real number.
STRUCTURED_ARGUMENTS = [
    (
        lambda: CotPolynomial(("a",)),
        "coefficients[0] must be an integer, got 'a'",
    ),
    (lambda: LimitSpec(["gamma"], 1, 1), "unknown limit family: ['gamma']"),
    (
        lambda: harmonics_from_polynomial(3, "x"),
        "poly must be a CotPolynomial, got 'x'",
    ),
    (lambda: neville_extrapolate((1.0,), 1.0), "ys must be a sequence, got 1.0"),
    (lambda: probe_limit(171), "spec must be a LimitSpec, got 171"),
    # _replace builds through _make, which checks as the constructor does.
    # The message repeats the first case's, so this case has its own id.
    pytest.param(
        lambda: CotPolynomial((1, 2))._replace(coefficients=("a",)),
        "coefficients[0] must be an integer, got 'a'",
        id="CotPolynomial._replace(coefficients=('a',))",
    ),
]


@pytest.mark.parametrize(
    "call, message",
    STRUCTURED_ARGUMENTS,
    ids=[case[-1] for case in STRUCTURED_ARGUMENTS],  # a message or a param's id
)
def test_structured_argument_is_domain_error(call, message):
    with pytest.raises(DomainError) as excinfo:
        call()
    assert str(excinfo.value).startswith(message)


OUTPUT_RECORDS = (CotDerivExpansion, PolygammaResult, PoleGerm, ProbeReport)


def test_only_input_records_check_their_fields():
    # LimitSpec and CotPolynomial are what public calls take as input, so
    # they check their fields; the records the library only returns are plain
    # data and keep the namedtuple's own constructor.
    with pytest.raises(DomainError):
        LimitSpec(FAMILY_POLYGAMMA, 0, 1)
    with pytest.raises(DomainError):
        CotPolynomial((0.5,))
    for record in (*OUTPUT_RECORDS, verify.CheckResult):
        assert "__new__" not in vars(record), record.__name__


# A non-finite argument, results beyond double range, and orders and sizes
# beyond the caps on exact work.
G = 10**400
RANGE_LIMITS = {
    # cot^(170)(1e308) is about 6.9e362; at order 3 the value, -122.5, is
    # representable and pinned in test_cotderiv.
    "eval_cot_deriv(170, 1e308)": (
        lambda: eval_cot_deriv(170, 1e308),
        "cot^(170) at x=1e+308 exceeds double precision range",
    ),
    "coeff(G, 1)": (
        lambda: coeff(G, 1),
        f"order {G} exceeds exact arithmetic range (max 1000)",
    ),
    "coeff_unified(G, 1)": (
        lambda: coeff_unified(G, 1),
        f"order {G} exceeds exact arithmetic range (max 1000)",
    ),
    "coeff(1001, 2)": (
        lambda: coeff(1001, 2),
        "order 1001 exceeds exact arithmetic range (max 1000)",
    ),
    "expansion(10**6)": (
        lambda: expansion(10**6),
        "order 1000000 exceeds exact arithmetic range (max 1000)",
    ),
    "expansions_up_to(1001)": (
        lambda: cotderiv.expansions_up_to(1001),
        "max order 1001 exceeds exact arithmetic range (max 1000)",
    ),
    "oracle_expansion(10**400)": (
        lambda: oracle_expansion(G),
        f"order {G} exceeds exact arithmetic range (max 1000)",
    ),
    # The oracle's Fraction work grows as the cube of the order: without its
    # own bound this call returns after about 1.3 s, and order 1000 would take
    # about 15 minutes.
    "harmonics_from_polynomial(101, oracle_expansion(101))": (
        lambda: harmonics_from_polynomial(101, oracle_expansion(101)),
        "order 101 exceeds the polynomial oracle's bound (max 100)",
    ),
    "gamma_ratio_limit(2, 1, G)": (
        lambda: gamma_ratio_limit(2, 1, G),
        f"gamma-ratio limit exceeds exact arithmetic range, got n=2, q=1, k={G}, i=0",
    ),
    "LimitSpec(gamma, 2, 1, G).germs()": (
        lambda: LimitSpec(FAMILY_GAMMA, 2, 1, G).germs(),
        f"gamma-ratio limit exceeds exact arithmetic range, got n=2, q=1, k={G}, i=0",
    ),
    "LimitSpec._replace(pole_index=G)": (
        lambda: LimitSpec(FAMILY_GAMMA, 2, 1, 1)._replace(pole_index=G).target(),
        f"gamma-ratio limit exceeds exact arithmetic range, got n=2, q=1, k={G}, i=0",
    ),
    "probe_limit(LimitSpec(gamma, 2, 1, 10**6))": (
        lambda: probe_limit(LimitSpec(FAMILY_GAMMA, 2, 1, 10**6)),
        "gamma-ratio limit exceeds exact arithmetic range, "
        "got n=2, q=1, k=1000000, i=0",
    ),
    "polygamma_ratio_limit(2, 1001, 1)": (
        lambda: polygamma_ratio_limit(2, 1001, 1),
        "polygamma-ratio limit exceeds exact arithmetic range, "
        "got n=1001, q=1, k=0, i=2",
    ),
    # The cap that polygamma and the CLI's --i have; without it (q/n)**(G+1)
    # would start a power that does not finish.
    "polygamma_ratio_limit(171, 2, 1)": (
        lambda: polygamma_ratio_limit(171, 2, 1),
        "derivative order 171 exceeds double precision range (max 170)",
    ),
    "polygamma_ratio_limit(G, 2, 1)": (
        lambda: polygamma_ratio_limit(G, 2, 1),
        f"derivative order {G} exceeds double precision range (max 170)",
    ),
}


@pytest.mark.parametrize("call, message", RANGE_LIMITS.values(), ids=RANGE_LIMITS)
def test_range_limit_is_domain_error(call, message):
    with pytest.raises(DomainError) as excinfo:
        call()
    assert str(excinfo.value) == message


# Every real argument of a public entry point, as in INTEGER_ARGUMENTS.
REAL_ARGUMENTS = {
    "polygamma": lambda v: polygamma(3, v),
    "eval_cot_deriv": lambda v: eval_cot_deriv(3, v),
    "eval_cot_deriv_pi": lambda v: eval_cot_deriv_pi(3, v),
    "polygamma_series_oracle": lambda v: polygamma_series_oracle(3, v),
    "reflection_residual": lambda v: reflection_residual(3, v),
    "neville_extrapolate.xs": lambda v: neville_extrapolate((v, 0.1), (1.0, 2.0)),
    "neville_extrapolate.ys": lambda v: neville_extrapolate((0.2, 0.1), (1.0, v)),
}


@pytest.mark.parametrize(
    "value",
    ["0.5", None, 0.5j, Decimal("0.5")],
    ids=["str", "None", "complex", "Decimal"],
)
@pytest.mark.parametrize("name", REAL_ARGUMENTS)
def test_non_real_argument_is_domain_error(name, value):
    with pytest.raises(DomainError, match=r"must be a real number, got "):
        REAL_ARGUMENTS[name](value)


@pytest.mark.parametrize("value", [0.25, Fraction(1, 4)], ids=repr)
@pytest.mark.parametrize("name", REAL_ARGUMENTS)
def test_real_argument_types_are_accepted(name, value):
    REAL_ARGUMENTS[name](value)


@pytest.mark.parametrize("value", [H, -H, Fraction(H, 3)], ids=["H", "-H", "H/3"])
@pytest.mark.parametrize("name", REAL_ARGUMENTS)
def test_huge_real_argument_is_domain_error(name, value):
    with pytest.raises(DomainError):
        REAL_ARGUMENTS[name](value)


# Fractions at or next to a pole whose denominator is too long to print: the
# pole and range errors echo them through errors.shown as well.
NEAR_POLE_FRACTIONS = {
    "polygamma": lambda: polygamma(3, Fraction(1, H)),
    "eval_cot_deriv": lambda: eval_cot_deriv(3, Fraction(1, H)),
    "eval_cot_deriv_pi": lambda: eval_cot_deriv_pi(3, Fraction(1, H)),
    "polygamma_series_oracle": lambda: polygamma_series_oracle(3, Fraction(1, H)),
    "reflection_residual": lambda: reflection_residual(3, Fraction(1, H)),
    "neville_extrapolate": lambda: neville_extrapolate(
        (Fraction(1, H), Fraction(1, H)), (1.0, 2.0)
    ),
}


@pytest.mark.parametrize("call", NEAR_POLE_FRACTIONS.values(), ids=NEAR_POLE_FRACTIONS)
def test_fraction_too_long_to_print_is_shown_by_type(call):
    with pytest.raises(DomainError, match=r"<(Fraction|tuple) too long to print>"):
        call()


# The totality property: whatever each argument is, every public callable, and
# every method and probe that takes an input record, returns finite floats,
# ints, Fractions or records of them, or raises a PolylimError.  Arguments are
# drawn from values of every kind: ints up to 10**400 and the caps' edges,
# bools, non-finite and subnormal floats, Fractions, str, None, tuples, the
# family names and one input record of each type.
DRAWN_VALUES = (
    -1, 0, 1, 2, 3, 8, 100, 101, 170, 171, 1001, G, -G,
    True, False,
    0.25, -2.5, 1e308, math.nan, math.inf, -math.inf, 5e-324,
    Fraction(1, 3), Fraction(-5, 2), Fraction(G, 3),
    "3", None, (), (1, 2), (0.5, 0.25), (1.0, math.nan),
    FAMILY_GAMMA, FAMILY_POLYGAMMA,
    CotPolynomial((0, 2, 0, 2)), LimitSpec(FAMILY_POLYGAMMA, 2, 1),
)
TOTAL_CALLS = {
    name: function
    for name in polylim.__all__
    if callable(function := getattr(polylim, name))
    and not (isinstance(function, type) and issubclass(function, Exception))
    and function not in OUTPUT_RECORDS
}
TOTAL_CALLS.update({
    "LimitSpec.target": lambda *spec: LimitSpec(*spec).target(),
    "LimitSpec.germs": lambda *spec: LimitSpec(*spec).germs(),
    "probe_limit(spec)": lambda *spec: probe_limit(LimitSpec(*spec)),
})
# Arguments with which each call returns a value.  Each example keeps or
# replaces every one of them, then sweeps one of them over all DRAWN_VALUES,
# so that every value drawn for one argument also reaches the code behind the
# other arguments' checks.
PASSING_ARGUMENTS = {
    "CotPolynomial": ((1, 2),),
    "LimitSpec": (FAMILY_POLYGAMMA, 3, 2, 1, 2),
    "bernoulli": (4,),
    "coeff": (5, 2),
    "coeff_unified": (5, 2),
    "eval_cot_deriv": (3, 0.3),
    "eval_cot_deriv_pi": (3, 0.3),
    "expansion": (3,),
    "gamma_ratio_limit": (2, 1, 1),
    "harmonics_from_polynomial": (2, CotPolynomial((0, 2, 0, 2))),
    "neville_extrapolate": ((0.5, 0.25), (1.0, 2.0)),
    "oracle_expansion": (3,),
    "polygamma": (1, -2.5),
    "polygamma_ratio_limit": (1, 2, 1),
    "polygamma_series_oracle": (1, 2.5),
    "probe_limit": (LimitSpec(FAMILY_POLYGAMMA, 2, 1),),
    "reflection_residual": (1, 0.25),
    "LimitSpec.target": (FAMILY_GAMMA, 3, 2, 2, 0),
    "LimitSpec.germs": (FAMILY_POLYGAMMA, 2, 3, 1, 1),
    "probe_limit(spec)": (FAMILY_GAMMA, 2, 1, 1, 0),
}


def assert_total(value):
    if isinstance(value, tuple):  # a record, or a table of harmonics
        for field in value:
            assert_total(field)
    elif isinstance(value, float):
        assert math.isfinite(value)
    else:  # records also hold a family or a method name
        assert isinstance(value, (int, Fraction, str)), type(value)


@pytest.mark.parametrize("name", TOTAL_CALLS)
@settings(max_examples=15, derandomize=True, deadline=None)
@given(data=st.data())
def test_public_calls_are_total(name, data):
    args = [
        data.draw(st.one_of(st.just(passing), st.sampled_from(DRAWN_VALUES)))
        for passing in PASSING_ARGUMENTS[name]
    ]
    swept = data.draw(st.integers(0, len(args) - 1), label="swept argument")
    for value in DRAWN_VALUES:
        args[swept] = value
        try:
            assert_total(TOTAL_CALLS[name](*args))
        except PolylimError:
            pass
        except Exception as exc:  # a leak, or a result that is not total
            raise AssertionError(f"{name}{tuple(args)!r}") from exc
