"""Cotangent-derivative closed forms, polygamma evaluation, and exact
pole-ratio limits with numerical probes."""
from .cotderiv import (
    CotDerivExpansion,
    CotPolynomial,
    coeff,
    coeff_unified,
    eval_cot_deriv,
    eval_cot_deriv_pi,
    expansion,
    harmonics_from_polynomial,
    oracle_expansion,
)
from .errors import (
    DomainError,
    HarmonicRangeError,
    InvalidHarmonicError,
    PoleError,
    PolylimError,
    ProbeFailureError,
    TableCapacityError,
)
from .limits import (
    FAMILY_GAMMA,
    FAMILY_POLYGAMMA,
    LimitSpec,
    PoleGerm,
    ProbeReport,
    gamma_ratio_limit,
    neville_extrapolate,
    polygamma_ratio_limit,
    probe_limit,
)
from .polygamma import (
    PolygammaResult,
    bernoulli,
    polygamma,
    polygamma_series_oracle,
    reflection_residual,
)

__version__ = "0.1.0"

__all__ = [
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
