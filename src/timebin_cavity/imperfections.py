"""Dark-count effects layered on the ideal cavity model.

Detector dark counts inside the accepted window masquerade as basis
measurements, which couples the error rate to the window cutoff and
creates a count-rate / error-rate trade-off. A frame is accepted when D2
fires at least once in the window [d, n_prime], photon or dark, whatever
else clicks; the dark process does not depend on the photon, so each
setting's accepted probability is exactly 1 - (1 - P(m|k)) (1 - p_dc)^W.
That is one function, :func:`dark_acceptances`, from per-setting
acceptance rows to per-setting accepted-click rows; every error and count
figure here is :func:`cavity.error_ratio` or :func:`accepted_probability`
of such a row. (Path mismatch is no model of its own: it scales the
reflectivities, see the CLI's ``ExperimentConfig.cavity_config``.)
"""

from __future__ import annotations

import math
from typing import Iterable, List, NamedTuple, Sequence

import numpy as np

from .cavity import CavityConfig, cutoff_acceptances, error_ratio
from .states import mub_state


def window_dark_probability(cfg: CavityConfig, cutoffs) -> np.ndarray:
    """The probability 1 - (1 - p_dc)^W that D2 fires dark at least once
    in the W = cutoff - d + 1 accepted bins of each cutoff, p_dc =
    ``cfg.p_dc``; 0.0 at p_dc = 0, and accurate down to the smallest
    p_dc."""
    widths = np.asarray(cutoffs, dtype=float) - cfg.dim + 1
    return -np.expm1(widths * math.log1p(-cfg.p_dc))


def dark_acceptances(
    cfg: CavityConfig, acceptances, cutoffs: Sequence[int]
) -> np.ndarray:
    """Each setting's accepted-click probability with dark counts.

    ``acceptances`` holds one row of P(m|k) per window cutoff, as
    :func:`cavity.cutoff_acceptances` returns them for ``cfg``. Model: one
    photon per frame, each accepted bin can fire D2 spuriously with
    probability p_dc, and a frame counts when D2 clicks anywhere in the
    window, whatever else clicks. Row j is then exactly P + (1 - P) p_w,
    p_w = :func:`window_dark_probability` of cutoffs[j]: a probability for
    every p_dc in [0, 1), and P(m|k) bit for bit at p_dc = 0.
    :func:`montecarlo.run_discrimination` samples frames under the same
    rule.
    """
    probs = np.asarray(acceptances, dtype=float)
    return probs + (1.0 - probs) * window_dark_probability(cfg, cutoffs)[:, None]


def accepted_probability(row: Sequence[float]) -> float:
    """Per-frame accepted-event probability sum_m row[m] / d, settings
    drawn uniformly."""
    return math.fsum(row) / len(row)


def observed_error_with_dark_counts(cfg: CavityConfig, k: int = 0) -> float:
    """Discrimination error when windowed dark clicks dilute the signal
    (:func:`dark_acceptances`)."""
    return cutoff_tradeoff_scan(cfg, [cfg.n_prime], k)[0].observed_error


def accepted_event_probability(cfg: CavityConfig, k: int = 0) -> float:
    """Per-frame probability that anything lands in the accepted window:
    the count-rate side of the trade-off."""
    return cutoff_tradeoff_scan(cfg, [cfg.n_prime], k)[0].accepted_probability


class TradeoffPoint(NamedTuple):
    n_prime: int
    observed_error: float
    accepted_probability: float


def cutoff_tradeoff_scan(
    cfg: CavityConfig, n_prime_values: Iterable[int], k: int = 0
) -> List[TradeoffPoint]:
    """Observed error and accepted probability across window cutoffs.

    Shrinking the window discards the late bins where dark counts dominate,
    lowering the observed error at the cost of accepted events. One
    kernel call gives every cutoff's per-setting acceptances, the bin-d
    probabilities times each window's geometric sum;
    :func:`dark_acceptances` folds each window's dark clicks into its row.
    """
    cutoffs = list(n_prime_values)
    probs = cutoff_acceptances(cfg, mub_state(cfg.dim, k), cutoffs)
    rows = dark_acceptances(cfg, probs, cutoffs)
    return [
        TradeoffPoint(int(n_prime), error_ratio(row, k), accepted_probability(row))
        for n_prime, row in zip(cutoffs, rows.tolist())
    ]
