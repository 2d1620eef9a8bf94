"""Path-mismatch and dark-count effects layered on the ideal cavity model.

Two experimental error mechanisms are modelled:

* a length mismatch between the loop and the bin spacing washes out the
  intended interference; for small mismatch this acts as an effective
  round-trip factor below the actual one, with the lost amplitude treated
  as incoherent loss;
* detector dark counts inside the accepted window masquerade as basis
  measurements, which couples the error rate to the window cutoff and
  creates a count-rate / error-rate trade-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Sequence

from .cavity import (
    CavityConfig,
    cutoff_acceptances,
    error_ratio,
    setting_acceptances,
)


@dataclass(frozen=True)
class MismatchModel:
    """Per-circulation mode overlap between incoming and circulating light.

    ``eta`` = 1 is perfect alignment; ``eta`` = 0 destroys the interference
    entirely, leaving uniform outcomes.
    """

    eta: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"mode overlap must lie in [0, 1], got {self.eta}")


@dataclass(frozen=True)
class DarkCountModel:
    """Independent dark-click probability per detector per time bin."""

    p_dc: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p_dc < 1.0:
            raise ValueError(
                f"dark-count probability must lie in [0, 1), got {self.p_dc}"
            )


def effective_round_trip(r: float, mismatch: MismatchModel) -> float:
    """Reduced round-trip amplitude factor r' = r * eta.

    The non-overlapping amplitude fraction never interferes again and is
    treated as loss, so the ideal-model error formulas apply at r'.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError(f"round-trip factor must lie in [0, 1), got {r}")
    return r * mismatch.eta


def window_dark_mass(d: int, n_prime: int, p_dc: float) -> float:
    """First-order dark mass W p_dc over the W = n_prime - d + 1 accepted bins."""
    return (n_prime - d + 1) * p_dc


def accepted_probability(probs: Sequence[float], window_dark: float) -> float:
    """Per-frame accepted-event probability sum_m P(m|k) / d + W p_dc."""
    return math.fsum(probs) / len(probs) + window_dark


def observed_error_with_dark_counts(
    cfg: CavityConfig, dark: DarkCountModel, k: int = 0
) -> float:
    """Discrimination error when windowed dark clicks dilute the signal.

    Model: one photon per frame, settings drawn uniformly, and each of the
    W = n_prime - d + 1 accepted bins can fire D2 spuriously with
    probability p_dc. To first order (signal-dark coincidences neglected)
    this is :func:`cavity.error_ratio` with dark mass w = W p_dc per
    setting, which reduces to the clean error ratio at p_dc = 0.

    Domain: each setting's accepted-click probability in this model is
    P(m|k) + W p_dc, which is a probability only while it stays at most 1
    for every m; the model is meant for W p_dc << 1, where the neglected
    coincidences are second order. Outside that domain the ratio is still
    returned but describes no experiment; the CLI rejects such inputs.
    """
    window_dark = window_dark_mass(cfg.dim, cfg.n_prime, dark.p_dc)
    return error_ratio(setting_acceptances(cfg, k), k, window_dark)


def accepted_event_probability(
    cfg: CavityConfig, dark: DarkCountModel, k: int = 0
) -> float:
    """Per-frame probability that anything lands in the accepted window.

    Averaged over uniform settings: sum_m P(m|k) / d signal clicks plus the
    W p_dc dark contribution. The count-rate side of the trade-off.
    """
    window_dark = window_dark_mass(cfg.dim, cfg.n_prime, dark.p_dc)
    return accepted_probability(setting_acceptances(cfg, k), window_dark)


class TradeoffPoint(NamedTuple):
    n_prime: int
    observed_error: float
    accepted_probability: float


def cutoff_tradeoff_scan(
    cfg: CavityConfig,
    dark: DarkCountModel,
    n_prime_values: Iterable[int],
    k: int = 0,
) -> List[TradeoffPoint]:
    """Observed error and accepted probability across window cutoffs.

    Shrinking the window discards the late bins where dark counts dominate,
    lowering the observed error at the cost of accepted events. One
    kernel call gives every cutoff's per-setting acceptances: the bin-d
    probabilities times each window's geometric sum.
    """
    cutoffs = [int(n_prime) for n_prime in n_prime_values]
    acceptances = cutoff_acceptances(cfg, k, cutoffs)
    points = []
    for n_prime, row in zip(cutoffs, acceptances):
        probs = row.tolist()
        w = window_dark_mass(cfg.dim, n_prime, dark.p_dc)
        error = error_ratio(probs, k, w)
        points.append(TradeoffPoint(n_prime, error, accepted_probability(probs, w)))
    return points
