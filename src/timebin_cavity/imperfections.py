"""Dark-count effects layered on the ideal cavity model.

Detector dark counts inside the accepted window masquerade as basis
measurements, which couples the error rate to the window cutoff and
creates a count-rate / error-rate trade-off. The first-order model is one
function, :func:`dark_acceptances`, from per-setting acceptance rows to
per-setting accepted-click rows; every error and count figure here is
:func:`cavity.error_ratio` or :func:`accepted_probability` of such a row.
(Path mismatch is no model of its own: it scales the reflectivities, see
the CLI's ``ExperimentConfig.cavity_config``.)
"""

from __future__ import annotations

import math
from typing import Iterable, List, NamedTuple, Sequence

import numpy as np

from .cavity import CavityConfig, cutoff_acceptances, error_ratio
from .states import mub_state


def dark_acceptances(
    cfg: CavityConfig, acceptances, cutoffs: Sequence[int]
) -> np.ndarray:
    """Each setting's accepted-click probability with dark counts.

    ``acceptances`` holds one row of P(m|k) per window cutoff, as
    :func:`cavity.cutoff_acceptances` returns them for ``cfg``; row j
    gains the dark mass W p_dc of its W = cutoffs[j] - d + 1 accepted
    bins, p_dc = ``cfg.p_dc``. Model: one photon per frame, and each
    accepted bin can fire D2 spuriously with probability p_dc. A frame
    counts when D2 clicks anywhere in the window, whatever else clicks:
    this row is that rule to first order, signal-dark coincidences
    neglected, and reduces to P(m|k) at p_dc = 0. The sampler
    (:func:`montecarlo.run_discrimination`) accepts a frame only when its
    earliest click is D2 inside the window, so with many dark clicks the
    two part: at ``discriminate --d 64 --r-grid 0.9 --p-dc 1e-4`` these
    rows give ``p_e_analytic`` 0.933 against an empirical 0.707.

    Domain: P(m|k) + W p_dc is a probability only while it stays at most
    1 for every m; the model is meant for W p_dc << 1, where the neglected
    coincidences are second order. Outside that domain the rows are still
    returned but describe no experiment; the CLI rejects such inputs.
    """
    widths = np.asarray(cutoffs, dtype=float) - cfg.dim + 1
    return np.asarray(acceptances, dtype=float) + (widths * cfg.p_dc)[:, None]


def accepted_probability(row: Sequence[float]) -> float:
    """Per-frame accepted-event probability sum_m row[m] / d, settings
    drawn uniformly."""
    return math.fsum(row) / len(row)


def observed_error_with_dark_counts(cfg: CavityConfig, k: int = 0) -> float:
    """Discrimination error when windowed dark clicks dilute the signal
    (first order, :func:`dark_acceptances`)."""
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
    :func:`dark_acceptances` adds each window's dark mass to its row.
    """
    cutoffs = [int(n_prime) for n_prime in n_prime_values]
    probs = cutoff_acceptances(cfg, mub_state(cfg.dim, k), cutoffs)
    rows = dark_acceptances(cfg, probs, cutoffs)
    return tradeoff_points(rows, cutoffs, k)


def tradeoff_points(
    rows: np.ndarray, cutoffs: Sequence[int], k: int
) -> List[TradeoffPoint]:
    """One point per cutoff from its row of accepted-click probabilities
    (:func:`dark_acceptances`)."""
    return [
        TradeoffPoint(n_prime, error_ratio(row, k), accepted_probability(row))
        for n_prime, row in zip(cutoffs, rows.tolist())
    ]
