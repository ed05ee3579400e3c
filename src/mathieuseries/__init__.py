"""Generalized Mathieu series: rigorous evaluation, summation formulas with
explicit remainder bounds, sharp two-sided constants, and verification suites.
"""

from .errors import (
    CrossValidationError,
    MathieuSeriesError,
    OrderOverflowError,
    ParameterError,
    RegimeError,
    ToleranceError,
)
from .mathieu import (
    EvalResult,
    MathieuParams,
    SmoothnessProfile,
    asym_S,
    asym_S_alt,
    cross_validate,
    eval_auto,
    eval_S,
    eval_S_alt,
    g_eval,
    g_jet,
    g_smoothness,
    g_total_variation,
    phi_u,
    poisson_S,
    poisson_S_alt,
    s_mu,
    tail_integral,
)
from .emsum import (
    AsymptoticSeries,
    EMResult,
    ExpFunction,
    GaussPowerFunction,
    SmoothFunction,
    boole_asym_coeffs,
    boole_finite_identity,
    boole_sum,
    em_asym_coeffs,
    em_finite_identity,
    em_sum,
)
from .polyfun import (
    MAX_ORDER,
    SplineKind,
    bernoulli_number,
    bernoulli_poly,
    bernoulli_spline,
    beta_fn,
    euler_poly,
    euler_spline,
    poly_sup,
    spline_eval,
    spline_sup,
)
from .sharp import (
    ExpKernel,
    PowerKernel,
    SharpConstants,
    SharpFramework,
    compute_mM,
    convex_series,
    f_infinity,
    f_profile,
    m_infinity,
    M_infinity,
    psi_uy,
)

__version__ = "0.1.0"
