"""Mechanical and optical quadrature squeezing in a driven cavity with an
intracavity parametric amplifier.

The package models the linearized fluctuation dynamics of a red-detuned,
resolved-sideband optomechanical cavity whose field is additionally
squeezed by a degenerate parametric amplifier, and computes stationary
quadrature variances three independent ways (spectral integral, Lyapunov
solve, stochastic trajectories), plus the homodyne spectrum of the output
field that would detect the squeezing.
"""
from .errors import (
    AboveThreshold,
    ConfigError,
    DivergingTrajectory,
    DomainError,
    FeedbackUnstable,
    ModelError,
    NonConvergence,
    NonPositiveVariance,
    QuadratureFailure,
    SingularDenominator,
    SingularSolve,
    UnstableSystem,
    ZeroCoupling,
)
from .params import (
    RwaReport,
    SteadyState,
    SystemParams,
    load_config,
    optimal_theta,
    params_from_mapping,
    parse_angle,
    rwa_flags,
    solve_steady_state,
    thermal_occupation,
)
from .stability import (
    DriftModel,
    StabilityReport,
    build_drift,
    eigen_stable,
    routh_hurwitz,
)
from .quadrature import integrate_line
from .lyapunov import Covariance, steady_covariance
from .mech_spectra import (
    SpectrumSample,
    TransferSet,
    VariancePair,
    quadrature_variances,
    spectrum,
    squeezing_db,
    transfer_at,
)
from .adiabatic import (
    AdiabaticInputs,
    adiabatic_cavity_fluctuation,
    adiabatic_variance_p,
    adiabatic_variance_p_approx,
    feedback_variance_p,
)
from .output_detection import (
    OutputCoeffs,
    SqueezingBand,
    detection_map,
    find_band,
    output_coeffs,
    spectrum_zout,
)
from .cavity_pa import CavityCoeffs, cavity_coeffs, cavity_spectra, cavity_variances
from .sde_oracle import SimConfig, SimEstimate, simulate, suggest_config

__version__ = "0.1.0"

# The sampler has one numpy core on every platform. The constant stays
# because perfbench/run.py records it among its machine facts, and its
# --compare refuses records whose backends differ.
BACKEND = "python"

__all__ = [
    "AboveThreshold",
    "AdiabaticInputs",
    "BACKEND",
    "CavityCoeffs",
    "ConfigError",
    "Covariance",
    "DivergingTrajectory",
    "DomainError",
    "DriftModel",
    "FeedbackUnstable",
    "ModelError",
    "NonConvergence",
    "NonPositiveVariance",
    "OutputCoeffs",
    "QuadratureFailure",
    "RwaReport",
    "SimConfig",
    "SimEstimate",
    "SingularDenominator",
    "SingularSolve",
    "SpectrumSample",
    "SqueezingBand",
    "StabilityReport",
    "SteadyState",
    "SystemParams",
    "TransferSet",
    "UnstableSystem",
    "VariancePair",
    "ZeroCoupling",
    "adiabatic_cavity_fluctuation",
    "adiabatic_variance_p",
    "adiabatic_variance_p_approx",
    "build_drift",
    "cavity_coeffs",
    "cavity_spectra",
    "cavity_variances",
    "detection_map",
    "eigen_stable",
    "feedback_variance_p",
    "find_band",
    "integrate_line",
    "load_config",
    "optimal_theta",
    "output_coeffs",
    "params_from_mapping",
    "parse_angle",
    "quadrature_variances",
    "routh_hurwitz",
    "rwa_flags",
    "simulate",
    "solve_steady_state",
    "spectrum",
    "spectrum_zout",
    "squeezing_db",
    "steady_covariance",
    "suggest_config",
    "thermal_occupation",
    "transfer_at",
    "__version__",
]
