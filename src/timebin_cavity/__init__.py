"""Time-bin qudit states and the recirculating Mach-Zehnder measurement.

The package models a d-dimensional single-photon time-bin system, the
Fourier basis mutually unbiased with respect to arrival time, and the
two-beam-splitter loop that approximately projects onto that basis. It
provides exact detection statistics, imperfection models (path mismatch,
dark counts) and a seeded Monte Carlo sampler that reproduces the analytic
numbers.
"""

from .cavity import (
    CavityConfig,
    OutcomeDistribution,
    Port,
    cutoff_acceptances,
    d1_bin_probability,
    d2_bin_probability,
    d2_total_probability,
    full_outcome_distribution,
    gamma_state,
    p_m_given_k,
    projection_fidelity,
    setting_acceptances,
    theta_for_outcome,
    total_error,
    total_error_closed_form,
    windowed_acceptance,
)
from .imperfections import (
    DarkCountModel,
    MismatchModel,
    TradeoffPoint,
    accepted_event_probability,
    compensating_reflectivity,
    cutoff_tradeoff_scan,
    effective_round_trip,
    observed_error_with_dark_counts,
    total_error_with_mismatch,
)
from .montecarlo import (
    EmpiricalStats,
    TrialRecord,
    run_discrimination,
    run_trials,
    sample_frame,
)
from .states import (
    TimeBinState,
    basis_state,
    fidelity,
    inner_product,
    mub_state,
    overlap_probability,
    verify_mub,
)

__version__ = "0.1.0"

__all__ = [
    "CavityConfig",
    "DarkCountModel",
    "EmpiricalStats",
    "MismatchModel",
    "OutcomeDistribution",
    "Port",
    "TimeBinState",
    "TradeoffPoint",
    "TrialRecord",
    "accepted_event_probability",
    "basis_state",
    "compensating_reflectivity",
    "cutoff_acceptances",
    "cutoff_tradeoff_scan",
    "d1_bin_probability",
    "d2_bin_probability",
    "d2_total_probability",
    "effective_round_trip",
    "fidelity",
    "full_outcome_distribution",
    "gamma_state",
    "inner_product",
    "mub_state",
    "observed_error_with_dark_counts",
    "overlap_probability",
    "p_m_given_k",
    "projection_fidelity",
    "run_discrimination",
    "run_trials",
    "sample_frame",
    "setting_acceptances",
    "theta_for_outcome",
    "total_error",
    "total_error_closed_form",
    "total_error_with_mismatch",
    "verify_mub",
    "windowed_acceptance",
]
