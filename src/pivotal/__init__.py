"""Pivotality-based derivative formulas for Bernoulli and Poisson systems,
with two-route numerical verification of the identities they imply."""

from .rng import RngStream, mix64
from .quadrature import QuadratureError, adaptive_simpson, gauss_legendre, power_singular_integral
from .summaries import ks_two_sample
from .point_process import (
    CountFunctional,
    DeclarationError,
    IntensityMeasure,
    PointConfiguration,
    Statistic,
    ball_region,
    box_region,
    count_event,
    count_statistic,
    difference,
    hit_indicator,
    iterated_difference,
    sample_binomial,
    sample_poisson,
    total_mass,
    void_indicator,
)
from .bernoulli import (
    BooleanEvent,
    event_polynomial,
    identity_report_binomial,
    identity_report_negbin,
    pivotal_counts,
    russo_derivative,
)
from .identities import (
    LatticeDistribution,
    cpois_cdf_ode_residual,
    cpois_pmf_direct,
    cpois_pmf_panjer,
    cpois_pmf_polyrec,
    erlang_cdf,
    poisson_tail,
    poisson_tail_integral,
)
from .perturbation import (
    derivative_location_estimator,
    derivative_point_estimator,
    expectation_mc,
    higher_derivative_estimator,
    perturbation_series,
)
from .stable import (
    RadialEnvelope,
    SpectralMeasure,
    StableParams,
    alphadens1_residual,
    dimone_residual,
    levy_integral,
    radvec_residual,
    sample_stable_exact,
    sample_stable_many,
)
from .geometry import (
    Box,
    ConvexBody,
    ConvexPolygon,
    Disk,
    Segment,
    boundary_integral,
    crofton_binomial_check,
    crofton_poisson_check,
    parallel_mass,
    steiner_derivative_check,
)

__version__ = "0.1.0"
