"""Dividend valuation for a two-company proportional-reinsurance process.

Two controls are covered: continuous payout at a linear barrier
(reflection; analytic series) and impulse payouts to a fixed reset point
(closed form / tilted quadrature), both cross-checked by an exact-event
Monte Carlo engine.
"""

from .barrier import (
    AnalyticDomainError,
    BarrierValuation,
    StencilError,
    boundary_residual,
    pide_residual,
    v1_barrier,
    v1_values,
)
from .gammas import GammaSequences, build_sequences, sequences_for, sequences_to_csv
from .impulse import (
    ImpulseMethod,
    ImpulseSpec,
    ImpulseValuation,
    ballot_crossing_density,
    erlang_mixture_density,
    impulse_v1_high,
    impulse_v1_low,
    tilted_ruin_probability,
    v_q,
    value_impulse,
)
from .model import (
    BarrierSpec,
    ClaimDistribution,
    ExponentialClaims,
    ModelParams,
    NonConvergenceError,
    ParameterError,
    Region,
    Reserves,
    SampledClaims,
    UnsupportedDistributionError,
    check_barrier,
    classify_point,
)
from .optimize import RefineResult, SweepResult, refine_barrier, sweep_barrier, sweep_to_csv
from .scale import ScaleParams, TiltedModel, laplace_exponent, phi_inverse, scale_params
from .simulate import (
    DividendEstimate,
    SimConfig,
    estimate_barrier_moments,
    estimate_impulse_moments,
    simulate_impulse_path,
    simulate_refracted_path,
    trace_refracted_path,
)

__version__ = "0.1.0"
