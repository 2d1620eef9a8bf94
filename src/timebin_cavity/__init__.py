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
)
from .imperfections import (
    DarkCountModel,
    TradeoffPoint,
    accepted_event_probability,
    cutoff_tradeoff_scan,
    observed_error_with_dark_counts,
)
from .montecarlo import (
    EmpiricalStats,
    run_discrimination,
    run_trials,
)
from .states import (
    TimeBinState,
    basis_state,
    fidelity,
    inner_product,
    mub_state,
    verify_mub,
)

__version__ = "0.1.0"

__all__ = [
    "CavityConfig",
    "DarkCountModel",
    "EmpiricalStats",
    "Port",
    "TimeBinState",
    "TradeoffPoint",
    "accepted_event_probability",
    "basis_state",
    "cutoff_acceptances",
    "cutoff_tradeoff_scan",
    "d1_bin_probability",
    "d2_bin_probability",
    "d2_total_probability",
    "fidelity",
    "full_outcome_distribution",
    "gamma_state",
    "inner_product",
    "mub_state",
    "observed_error_with_dark_counts",
    "p_m_given_k",
    "projection_fidelity",
    "run_discrimination",
    "run_trials",
    "setting_acceptances",
    "theta_for_outcome",
    "total_error",
    "total_error_closed_form",
    "verify_mub",
]
