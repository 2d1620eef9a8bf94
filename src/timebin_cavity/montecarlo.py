"""Seeded Monte Carlo sampler of single-frame detection events.

Frames are drawn from the exact analytic outcome distribution over the
finite outcome list rather than by re-simulating amplitudes; the
sampler exists to exercise dark counts, the one-click-per-frame logic and
the statistics pipeline against the analytic module.

A run builds one stacked table: row m holds the cumulative exit masses
for phase setting m over one shared column layout
(:func:`cavity.outcome_table`) in bin order, zero-mass columns included.
The table steps the loop amplitude over the d entry bins and writes every
later bin in closed form, as a power of r^2 times that amplitude's mass;
it does not reuse the acceptance kernel, so the report's Monte Carlo vs
analytic z-scores compare two independent computations.

Frames are iid, and the dark process does not depend on the photon, so a
run samples counts, not frames. Given the setting counts n_m (one
multinomial over the rows), h_m ~ Binomial(n_m, p_hit) frames per setting
have a dark click inside bin_cap. The rest click as their photon does: one
multinomial over every row's column ranges, split where the CDF steps up in
a fixed-phase run and at the window's edges in a discrimination run, whose
report reads only accepted counts. Only the hit frames are simulated one
by one, in chunks of at most :data:`_DEFAULT_CHUNK`: photon column by inverse
CDF of the row, first dark bin from a uniform scaled into [0, p_hit), then
fair coins for the dark detector and a photon/dark tie (:func:`_merge_dark`).
A call costs O(rows K + hit frames), whatever ``n_trials`` is.

Randomness comes from one Philox stream keyed by the master seed
(:func:`_generator`), read in a fixed order: setting counts, hit counts,
the photon-only range counts, then four doubles per hit frame. Results are
a pure function of (config, n_trials, master_seed).

A fixed-phase run returns its counts in the table's own layout: an int64
histogram over the table's 2 bin_cap + 1 columns (a dark D2 click takes
its bin's D2 column), then, with dark counts, bin_cap columns (D1, 1..
bin_cap) for frames a dark D1 click won. A discrimination run keeps only
its per-setting counts, (d,) arrays, and allocates nothing per column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .cavity import (
    D1,
    D2,
    CavityConfig,
    full_outcome_distribution,  # noqa: F401  (bound for the benchmark's traced run)
    outcome_table,
    theta_for_outcome,
)
from .imperfections import DarkCountModel
from .states import TimeBinState, check_mub_index, mub_state

# Per-hit-frame variate block: outcome, dark bin, dark detector, photon/dark
# tie break.
_DRAWS_PER_HIT = 4
# Most hit frames simulated at once; each takes 4 doubles and a few int64
# temporaries, about 0.1 KiB, so a chunk holds under 1 MiB. The stream is
# read in the same order whatever the chunk size.
_DEFAULT_CHUNK = 8_192
# numpy's binomial and multinomial count in int64.
MAX_TRIALS = 2**63 - 1
# Size cap on d * (bin_cap + d) cells, checked before anything is allocated.
# The stacked table takes 8 B per row and column and has 2 bin_cap + 1
# columns, about 16 B per cell, so 2**22 cells keep it under 100 MiB. The
# acceptance kernel allocates nothing per cell.
# The default window bin_cap = 4 d passes up to d = 915.
MAX_WINDOW_CELLS = 1 << 22


def check_window_size(d: int, last_bin: int) -> None:
    """Reject d * (last_bin + d) cells over :data:`MAX_WINDOW_CELLS`."""
    cells = d * (last_bin + d)
    if cells > MAX_WINDOW_CELLS:
        raise ValueError(
            f"d * (last bin + d) = {cells} exceeds the size cap {MAX_WINDOW_CELLS}"
        )


@dataclass(eq=False)
class EmpiricalStats:
    """Aggregated frame counts plus the derived empirical estimators.

    Both kinds of run fill ``dark_clicks`` and ``accepted_total``. A
    fixed-phase run fills ``counts``, the frames per column, labelled like
    :class:`cavity.OutcomeTable` by ``ports`` (cavity.TABLE_PORTS codes) and
    ``bins``; a discrimination run leaves those None and fills the (d,)
    int64 arrays ``setting_frames`` and ``setting_accepted``. Array fields
    have no single truth value, so == is identity; compare two runs field
    by field.
    """

    n_trials: int
    master_seed: int
    dim: int
    n_prime: int
    bin_cap: int
    prepared_k: Optional[int]
    ports: Optional[np.ndarray] = None
    bins: Optional[np.ndarray] = None
    counts: Optional[np.ndarray] = None
    dark_clicks: int = 0
    accepted_total: int = 0
    setting_frames: Optional[np.ndarray] = None
    setting_accepted: Optional[np.ndarray] = None

    def d2_window_frequency(self) -> float:
        """Fraction of frames with a D2 click inside the accepted window."""
        return self.accepted_total / self.n_trials

    def p_hat(self, m: int) -> float:
        """Empirical windowed acceptance for setting m (discrimination runs)."""
        frames = int(self.setting_frames[m])
        return int(self.setting_accepted[m]) / frames if frames else 0.0

    def p_e_hat(self) -> float:
        """Empirical discrimination error: mismatched share of accepted clicks."""
        if self.prepared_k is None:
            raise ValueError("error estimate requires a discrimination run")
        if self.accepted_total == 0:
            raise ValueError("no accepted events; error estimate undefined")
        matched = int(self.setting_accepted[self.prepared_k])
        return (self.accepted_total - matched) / self.accepted_total


@dataclass(frozen=True)
class _OutcomeTable:
    """Stacked outcome CDF rows over one column layout."""

    ports: np.ndarray  # (K,) cavity.TABLE_PORTS index of each column
    bins: np.ndarray  # (K,) time bin of each column
    cdf: np.ndarray  # (rows, K)


def _outcome_table(
    cfg: CavityConfig, state: TimeBinState, thetas: Sequence[float], bin_cap: int
) -> _OutcomeTable:
    table = outcome_table(cfg, state, thetas, bin_cap)
    cdf = np.cumsum(table.masses, axis=1, out=table.masses)
    cdf[:, -1] = 1.0  # total mass is 1 to ~1e-15; pin it so lookups stay in range
    return _OutcomeTable(ports=table.ports, bins=table.bins, cdf=cdf)


def _generator(seed: int) -> np.random.Generator:
    """The Philox stream keyed by ``seed``.

    The seed is the Philox key itself, so it must lie in [0, 2**128); numpy
    raises ValueError otherwise rather than reducing it onto another seed's
    stream.
    """
    return np.random.Generator(np.random.Philox(key=seed))


def _p_hit(p_dc: float, bin_cap: int) -> float:
    """Probability of a dark click on either detector in bins 1..bin_cap.

    log1p/expm1 keep it accurate down to the smallest p_dc, where
    (1 - p_dc)**2 rounds to 1; it is 0 at p_dc = 0.
    """
    return -math.expm1(bin_cap * 2.0 * math.log1p(-p_dc))


def _sample_photon(
    table: _OutcomeTable, settings: np.ndarray, u_outcome: np.ndarray
) -> np.ndarray:
    """The table column of each frame's photon exit, by inverse CDF.

    ``settings`` is sorted, so each setting's frames are one slice, looked
    up in that row with ``searchsorted(row, u, side="right")``: the first
    column whose CDF exceeds u, never a zero-mass column, and never past
    the last column, which is pinned to 1.
    """
    cols = np.empty(settings.size, dtype=np.int64)
    starts = np.flatnonzero(np.diff(settings, prepend=-1)).tolist()
    for lo, hi in zip(starts, starts[1:] + [settings.size]):
        row = table.cdf[settings[lo]]
        cols[lo:hi] = np.searchsorted(row, u_outcome[lo:hi], side="right")
    return cols


def _merge_dark(
    cols: np.ndarray,
    table: _OutcomeTable,
    u: np.ndarray,
    p_dc: float,
    bin_cap: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge frames that have a dark click inside the cap with their photon.

    Every frame here has one: its first dark bin F comes from u[:, 1]
    scaled into [0, p_hit), the law of F given F <= bin_cap. The earliest
    click wins a frame, a tie by u[:, 3]. In bin F one detector fires
    alone, or both do and one is picked fairly: D1 has the click with
    probability 1/2 exactly, decided by u[:, 2]. Writes the dark click's
    column into ``cols`` for every frame it wins and returns ``cols``, the
    won frames' indices and the per-frame dark-win flags. A dark D2 click
    at bin b takes the table's (D2, b) column, bin_cap + b - 1; a dark D1
    click takes column 2 bin_cap + b, one of the bin_cap columns after the
    table's K = 2 bin_cap + 1, since most bins have a BACK column and no
    D1 one.
    """
    log_no_dark = 2.0 * math.log1p(-p_dc)  # per bin, two detectors
    u_dark = u[:, 1] * _p_hit(p_dc, bin_cap)
    first_dark = np.floor(np.log1p(-u_dark) / log_no_dark).astype(np.int64) + 1
    np.minimum(first_dark, bin_cap, out=first_dark)  # a quotient rounded up
    photon_bins = table.bins[cols]
    wins = (
        (table.ports[cols] > D2)  # the photon clicked no detector
        | (first_dark < photon_bins)
        | ((first_dark == photon_bins) & (u[:, 3] < 0.5))
    )
    won = np.flatnonzero(wins)
    cols[won] = first_dark[won] + np.where(u[won, 2] < 0.5, 2 * bin_cap, bin_cap - 1)
    return cols, won, wins


def _sample(
    cfg: CavityConfig,
    state: Optional[TimeBinState],
    dark: DarkCountModel,
    n_trials: int,
    master_seed: int,
    bin_cap: Optional[int],
    prepared_k: Optional[int] = None,
) -> EmpiricalStats:
    """Sample frames from one stacked table; every entry point runs here.

    Without ``prepared_k`` the table has one row, ``state`` at the config's
    phase. With it the input is Fourier state ``prepared_k``, the table has
    one row per setting phase, and each frame draws its setting uniformly.
    """
    if not 1 <= n_trials <= MAX_TRIALS:
        raise ValueError(f"n_trials must lie in [1, 2**63 - 1], got {n_trials}")
    d = cfg.dim
    cap = cfg.n_prime if bin_cap is None else bin_cap
    check_window_size(d, cap)  # before anything that grows with d
    if prepared_k is None:
        thetas = [cfg.theta]
    else:
        state = mub_state(d, prepared_k)
        thetas = [theta_for_outcome(d, m) for m in range(d)]
    table = _outcome_table(cfg, state, thetas, cap)
    rng = _generator(master_seed)

    rows, n_table = len(thetas), table.ports.size
    lo, hi = cap + d - 1, cap + cfg.n_prime  # accepted: D2 bins d..n_prime
    frames = rng.multinomial(n_trials, np.full(rows, 1.0 / rows))
    hits = rng.binomial(frames, _p_hit(dark.p_dc, cap))  # no draws at p_dc = 0
    # Frames without a dark click inside the cap: one multinomial over the
    # column ranges that end at each edge. A fixed-phase run's edges are the
    # columns where its CDF steps up (the CDF is flat between two); a
    # discrimination run's split off the window. Clamped at 0: the pinned
    # last entry can sit just below its neighbour.
    if prepared_k is None:
        edges = np.flatnonzero(np.diff(table.cdf[0], prepend=0.0) > 0.0)
    else:
        edges = np.array([lo - 1, hi - 1, n_table - 1])
    masses = np.diff(table.cdf[:, edges], axis=1, prepend=0.0)
    photon_counts = rng.multinomial(frames - hits, np.maximum(masses, 0.0))
    setting_accepted = photon_counts[:, (lo <= edges) & (edges < hi)].sum(axis=1)
    stats = EmpiricalStats(n_trials, master_seed, d, cfg.n_prime, cap, prepared_k)
    if prepared_k is None:
        # The table's columns, then with dark counts cap dark D1 columns.
        n_dark = cap if dark.p_dc > 0.0 else 0
        stats.ports = np.append(table.ports, np.full(n_dark, D1, np.int8))
        stats.bins = np.append(table.bins, np.arange(1, n_dark + 1))
        stats.counts = np.zeros(n_table + n_dark, dtype=np.int64)
        stats.counts[edges] = photon_counts[0]

    # Frames with one, simulated in chunks, ordered by setting. A dark D1
    # column lies above the window, so [lo, hi) is every accepted column.
    hit_ends = np.cumsum(hits)
    n_hits = int(hit_ends[-1])
    for start in range(0, n_hits, _DEFAULT_CHUNK):
        stop = min(start + _DEFAULT_CHUNK, n_hits)
        settings = np.searchsorted(hit_ends, np.arange(start, stop), side="right")
        u = rng.random((stop - start, _DRAWS_PER_HIT))
        cols = _sample_photon(table, settings, u[:, 0])
        cols, won, _ = _merge_dark(cols, table, u, dark.p_dc, cap)
        if stats.counts is not None:
            np.add.at(stats.counts, cols, 1)
        setting_accepted += np.bincount(
            settings[(lo <= cols) & (cols < hi)], minlength=rows
        )
        stats.dark_clicks += won.size

    stats.accepted_total = int(setting_accepted.sum())
    if prepared_k is not None:
        stats.setting_frames, stats.setting_accepted = frames, setting_accepted
    return stats


def run_trials(
    cfg: CavityConfig,
    state: TimeBinState,
    dark: DarkCountModel,
    n_trials: int,
    master_seed: int,
    bin_cap: Optional[int] = None,
) -> EmpiricalStats:
    """Sample many frames at the config's fixed phase setting.

    The photon branch is drawn from the exact outcome distribution, then
    merged with per-bin dark clicks on both detectors: the earliest click
    is the one counted, with a fair tie break. One frame is
    ``run_trials(..., n_trials=1, master_seed=seed)``: the one nonzero
    column of ``counts`` is the click, (NONE, 0) for none, and
    ``dark_clicks`` says whether a dark count won it.
    """
    return _sample(cfg, state, dark, n_trials, master_seed, bin_cap)


def run_discrimination(
    d: int,
    r1_sq: float,
    r2_sq: float,
    n_prime: int,
    prepared_k: int,
    dark: DarkCountModel,
    n_trials: int,
    master_seed: int,
    bin_cap: Optional[int] = None,
) -> EmpiricalStats:
    """Simulate the state-discrimination experiment.

    Each frame carries one photon prepared in Fourier state ``prepared_k``;
    the receiver dials a uniformly random setting m and accepts the frame
    when D2 fires inside [d, n_prime]. The per-setting acceptance counts
    estimate the windowed click probabilities, and the mismatched share of
    accepted clicks estimates the discrimination error.
    """
    check_mub_index(d, prepared_k)
    # theta is unused: the table takes one phase per setting
    cfg = CavityConfig(dim=d, r1_sq=r1_sq, r2_sq=r2_sq, theta=0.0, n_prime=n_prime)
    return _sample(cfg, None, dark, n_trials, master_seed, bin_cap, prepared_k)
