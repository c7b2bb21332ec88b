"""Spectral mixing parameters of finite ergodic Markov chains.

Exact oracles for the pseudo-spectral and dilated pseudo-spectral gaps of a
known transition matrix, and single-trajectory estimators of those gaps with
fully empirical confidence intervals.
"""

from .chain import (
    StochasticMatrix,
    Trajectory,
    build_L,
    is_irreducible,
    is_reversible,
    matrix_power,
    mixing_time,
    reversible_dilation,
    simulate,
    stationary_distribution,
    time_reversal,
)
from .confidence import ConfidenceReport, confidence_interval
from .errors import (
    MixgapError,
    NoConvergenceError,
    NonconvergentGapError,
    NotMixedByCapError,
    NoTriggerError,
    NoUsableKError,
    ReducibleChainError,
    TrajectoryTooShortError,
    UnvisitedStateError,
)
from .estimators import (
    EstimateReport,
    gamma_dps_hat,
    gamma_ps_additive,
    gamma_ps_adaptive_multiplicative,
    gamma_ps_amplified,
    gamma_ps_prefix_hat,
    pi_star_hat,
)
from .oracle import (
    SpectralReport,
    absolute_spectral_gap,
    full_spectral_report,
    gamma_dagger,
    gamma_ddagger,
    spectral_gaps,
    verify_lemma_properties,
)
from .tallies import SkippedTallies, SmoothedEstimates, smoothed_estimates, tally, unsmoothed_L_hat

__version__ = "0.1.0"

__all__ = [
    "ConfidenceReport",
    "EstimateReport",
    "MixgapError",
    "NoConvergenceError",
    "NonconvergentGapError",
    "NotMixedByCapError",
    "NoTriggerError",
    "NoUsableKError",
    "ReducibleChainError",
    "SkippedTallies",
    "SmoothedEstimates",
    "SpectralReport",
    "StochasticMatrix",
    "Trajectory",
    "TrajectoryTooShortError",
    "UnvisitedStateError",
    "absolute_spectral_gap",
    "build_L",
    "confidence_interval",
    "full_spectral_report",
    "gamma_dagger",
    "gamma_ddagger",
    "gamma_dps_hat",
    "gamma_ps_additive",
    "gamma_ps_adaptive_multiplicative",
    "gamma_ps_amplified",
    "gamma_ps_prefix_hat",
    "is_irreducible",
    "is_reversible",
    "matrix_power",
    "mixing_time",
    "pi_star_hat",
    "reversible_dilation",
    "simulate",
    "smoothed_estimates",
    "spectral_gaps",
    "stationary_distribution",
    "tally",
    "time_reversal",
    "unsmoothed_L_hat",
    "verify_lemma_properties",
]
