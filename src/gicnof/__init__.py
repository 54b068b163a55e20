"""Rate regions and constant-gap analysis for the two-user Gaussian
interference channel with noisy channel-output feedback."""

from .achievability import (
    achievable_region,
    b_basic,
    rho_domain_sup,
)
from .channel import (
    ChannelCoefficients,
    ChannelParameters,
    ParameterEstimate,
    SignalBlock,
    SimulationConfig,
    SymmetricPoint,
    coefficients_from_params,
    estimate_parameters,
    params_from_coefficients,
    simulate_block,
    symmetric_params,
)
from .converse import (
    EventPair,
    KappaValues,
    b_conv,
    classify_events,
    converse_region,
    kappa,
)
from .errors import DegenerateChannelError
from .gap import (
    GapReport,
    GapSurface,
    analytic_deltas,
    analytic_gap_bound,
    exact_gap,
    sweep_symmetric,
)
from .geometry import (
    GridSpec,
    LinearBound,
    RateRegionPolytope,
    Region,
    contains,
    convex_hull,
    deflation_gap,
    envelope_union,
    polytope_vertices,
)

__all__ = [
    "ChannelCoefficients",
    "ChannelParameters",
    "DegenerateChannelError",
    "EventPair",
    "GapReport",
    "GapSurface",
    "GridSpec",
    "KappaValues",
    "LinearBound",
    "ParameterEstimate",
    "RateRegionPolytope",
    "Region",
    "SignalBlock",
    "SimulationConfig",
    "SymmetricPoint",
    "achievable_region",
    "analytic_deltas",
    "analytic_gap_bound",
    "b_basic",
    "b_conv",
    "classify_events",
    "coefficients_from_params",
    "contains",
    "converse_region",
    "convex_hull",
    "deflation_gap",
    "envelope_union",
    "estimate_parameters",
    "exact_gap",
    "kappa",
    "params_from_coefficients",
    "polytope_vertices",
    "rho_domain_sup",
    "simulate_block",
    "sweep_symmetric",
    "symmetric_params",
]

__version__ = "0.1.0"
