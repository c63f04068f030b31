"""Two-term eigenvalue counting for the Dirichlet Laplacian on the unit disk.

The eigenvalue count N(mu) below mu^2 is assembled from certified Bessel
zeros, matched exactly by a shifted-lattice count over a cusped plane
domain, compared against the two-term prediction mu^2/4 - mu/2, and probed
asymptotically: the remainder stays O(mu^(2/3)), the bound the cusp
geometry makes sharp.
"""

from .asymptotics import (
    DEFAULT_TAUS,
    NU_MAX,
    DecayResult,
    FitResult,
    OscIntegralSpec,
    amplitude_cutoff,
    beta_series,
    fit_envelope,
    linear_segment_integral,
    oscillatory_decay,
    scan_remainder,
)
from .errors import DomainError, QuadratureError, RefinementError
from .geometry import CuspDomain, area_D, g_profile, in_domain, involution, scale_function
from .lattice import (
    MollifyConfig,
    SandwichResult,
    brute_force_count,
    chi0,
    chi_weight,
    column_count,
    count_lattice,
    rho,
    sandwich_check,
)
from .special import (
    AIRY_RANGE,
    DEFAULT_ACCURACY,
    AiryZero,
    EvalAccuracy,
    airy_ai,
    airy_zero,
    bessel_j,
    bessel_quadrature_oracle,
)
from .spectral import (
    CountSample,
    compare_counts,
    count_disk,
    count_sample,
    disk_counts_many,
    weyl_two_term,
)
from .verify import CheckResult, run_suite
from .zeros import (
    MU_MAX,
    S_MAX,
    BesselZero,
    initial_guess,
    psi,
    refine_zero,
    zero_array,
    zeros_up_to,
)

__version__ = "0.1.0"

__all__ = [
    "AIRY_RANGE",
    "DEFAULT_ACCURACY",
    "DEFAULT_TAUS",
    "MU_MAX",
    "NU_MAX",
    "S_MAX",
    "AiryZero",
    "BesselZero",
    "CheckResult",
    "CountSample",
    "CuspDomain",
    "DecayResult",
    "DomainError",
    "EvalAccuracy",
    "FitResult",
    "MollifyConfig",
    "OscIntegralSpec",
    "QuadratureError",
    "RefinementError",
    "SandwichResult",
    "airy_ai",
    "airy_zero",
    "amplitude_cutoff",
    "area_D",
    "bessel_j",
    "bessel_quadrature_oracle",
    "beta_series",
    "brute_force_count",
    "chi0",
    "chi_weight",
    "column_count",
    "compare_counts",
    "count_disk",
    "count_lattice",
    "count_sample",
    "disk_counts_many",
    "fit_envelope",
    "g_profile",
    "in_domain",
    "initial_guess",
    "involution",
    "linear_segment_integral",
    "oscillatory_decay",
    "psi",
    "refine_zero",
    "rho",
    "run_suite",
    "sandwich_check",
    "scale_function",
    "scan_remainder",
    "weyl_two_term",
    "zero_array",
    "zeros_up_to",
]
