"""Seeded Monte Carlo sampler of single-frame detection events.

Frames are drawn from the exact analytic outcome distribution over the
finite outcome list rather than by re-simulating amplitudes; the
sampler exists to exercise dark counts, the one-click-per-frame logic and
the statistics pipeline against the analytic module.

Both kinds of run scan the loop amplitude over the d entry bins for every
phase setting at once (:func:`cavity.entry_bin_masses`). After bin d
nothing enters, so every later bin's mass is |c_d|^2 times a power of
(r1 r2)^2. A fixed-phase run writes those masses into a one-row table
over one column layout (:func:`cavity.full_outcome_distribution`) in bin
order, zero-mass columns included, and draws the table's own masses.
A discrimination run builds no table: its law takes the entry bins'
masses and 1-D sums of the decay vector, summed bin by bin in blocks.
Neither reuses the acceptance kernel, so the report's Monte Carlo vs
analytic z-scores compare two independent computations.

Frames are iid, so a run samples counts, not frames: each row's counts
are one multinomial over that row's exact one-frame outcome law. The dark
process does not depend on the photon. The two runs count different
things. A fixed-phase run reports which (port, bin) clicked first: the
earliest click inside its bin_cap wins a frame, a photon/dark tie by a
fair coin. With q = (1 - p_dc)^2 per bin, a photon click at bin b keeps
its frame with probability q^b + q^(b-1)(1 - q)/2 and a photon that
clicks nothing (BACK, NONE) with q^bin_cap; a dark click at bin f wins
with probability q^(f-1)(1 - q) times the photon mass that clicks after
f or never plus half the mass that clicks at f, and is D1 or D2 with
probability 1/2 each. A discrimination run accepts a frame when D2
clicks at least once in the window [d, n_prime], photon or dark, as the
analytic side does (:func:`imperfections.dark_acceptances`): a frame
whose photon misses the window is accepted with probability
1 - (1 - p_dc)^W, W = n_prime - d + 1. A fixed-phase law is a few passes
over the table, O(K) with K = 2 bin_cap + 1 columns; a discrimination
law is O(d^2 log d) over the entry bins plus O(n_prime) over 1-D
blocks. A call costs that whatever ``n_trials`` and ``p_dc`` are.

Randomness comes from one Philox stream keyed by the master seed
(:func:`_generator`), read in a fixed order, each law's dark categories
last: :func:`run_trials` draws one multinomial over its one row's law;
:func:`run_discrimination` draws the setting counts, then one
multinomial over every setting's law. Without dark counts the law is
the photon's exit masses, and the draws are those of the photon alone.
Results are a pure function of (config, n_trials, master_seed).

A fixed-phase run draws over the table's columns, then bin_cap dark D1
and bin_cap dark D2 columns (:func:`_column_law`), and returns its counts
in the table's own layout: an int64 histogram over the table's
2 bin_cap + 1 columns (a dark D2 click adds to its bin's D2 column), then,
with dark counts, bin_cap columns (D1, 1..bin_cap) for frames a dark D1
click won. A discrimination run draws over three categories per
setting, four with dark counts (:func:`_range_law`), keeps only its
per-setting counts, (d,) arrays, and allocates nothing per column: what
it holds over bins is the (d, d) entry masses and 1-D blocks of at most
:data:`cavity.BLOCK_CELLS` bins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .cavity import (
    BLOCK_CELLS,
    D1,
    D2,
    TWO_PI,
    CavityConfig,
    OutcomeTable,
    entry_bin_masses,
    full_outcome_distribution,
    outcome_table,
)
from .imperfections import window_dark_probability
from .states import TimeBinState, check_integer, check_mub_index, mub_state

# numpy's binomial and multinomial count in int64.
MAX_TRIALS = 2**63 - 1
# Size cap on d * (cap + d) cells, checked before anything is allocated; the
# cap is a fixed-phase run's bin_cap and a discrimination run's n_prime.
# A fixed-phase table takes 8 B per row and column and has 2 bin_cap + 1
# columns, about 16 B per cell, so 2**22 cells keep it under 100 MiB; a
# discrimination run holds 16 B per setting and entry bin, and 1-D blocks.
# The acceptance kernel allocates nothing per cell.
# The default window n_prime = 4 d passes up to d = 915.
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

    Both kinds of run fill ``dark_clicks`` and ``accepted_total``.
    ``dark_clicks`` counts the frames a dark click won in a fixed-phase
    run, whose first click is counted, and the frames a dark D2 click
    alone accepted in a discrimination run. A fixed-phase run fills
    ``counts``, the frames per column, labelled like
    :class:`cavity.OutcomeTable` by ``ports`` (cavity.TABLE_PORTS codes) and
    ``bins``; a discrimination run leaves those None and fills the (d,)
    int64 arrays ``setting_frames`` and ``setting_accepted``. ``bin_cap``
    is the last bin the run simulated: ``n_prime`` for a discrimination
    run, and :func:`run_trials`' own cap otherwise. Array fields have no
    single truth value, so == is identity; compare two runs field by field.
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
        """Fraction of frames with a D2 click inside the accepted window; in
        a fixed-phase run, of frames whose first click is that D2 click."""
        return self.accepted_total / self.n_trials

    def p_hat(self, m: int) -> float:
        """Empirical windowed acceptance for setting m (discrimination runs)."""
        if self.prepared_k is None:
            raise ValueError("acceptance estimate requires a discrimination run")
        check_mub_index(self.dim, m)
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


# Not called in the package; bound for the benchmark's traced run.
_outcome_table = outcome_table


def _generator(seed: int) -> np.random.Generator:
    """The Philox stream keyed by ``seed``.

    The seed is the Philox key itself, so it must be an integer in
    [0, 2**128). numpy raises ValueError outside that range, but truncates
    a float key onto another seed's stream (1.5 draws seed 1's), so the
    runs check the seed is an integer first (:func:`_check_run`).
    """
    return np.random.Generator(np.random.Philox(key=seed))


# Not called in the package; bound for the benchmark's traced run.
def _sample_photon(table, settings: np.ndarray, u_outcome: np.ndarray) -> np.ndarray:
    """The table column of each frame's photon exit, by inverse CDF.

    ``table.cdf`` holds one CDF row per setting; no table the package
    builds has one. ``settings`` is sorted, so each setting's frames are
    one slice, looked up in that row with ``searchsorted(row, u,
    side="right")``: the first column whose CDF exceeds u, never a
    zero-mass column, and never past the last, which is pinned to 1.
    """
    cols = np.empty(settings.size, dtype=np.int64)
    starts = np.flatnonzero(np.diff(settings, prepend=-1)).tolist()
    for lo, hi in zip(starts, starts[1:] + [settings.size]):
        row = table.cdf[settings[lo]]
        cols[lo:hi] = np.searchsorted(row, u_outcome[lo:hi], side="right")
    return cols


# Not called in the package; bound for the benchmark's traced run.
def _merge_dark(
    cols: np.ndarray,
    table: OutcomeTable,
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
    u_dark = u[:, 1] * -math.expm1(bin_cap * log_no_dark)  # P(F <= bin_cap)
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


def _bin_shares(log_q: float, b0: int, b1: int) -> Tuple[np.ndarray, np.ndarray]:
    """Over bins b0..b1 - 1: the share q^(b-1) - h_b of a photon click at b
    that no dark click takes, and h_b = q^(b-1)(1 - q)/2, the chance that b
    is the first bin with a dark click and it is on a given detector; log q
    = 2 log1p(-p_dc)."""
    before = np.exp(np.arange(b0 - 1, b1 - 1) * log_q)
    h = before * -math.expm1(log_q) * 0.5
    return before - h, h


def _column_law(table: OutcomeTable, p_dc: float, bin_cap: int) -> np.ndarray:
    """Each row's one-frame law over a fixed-phase run's columns.

    The table's own masses, (rows, K), without dark counts. With them,
    (rows, K + 2 bin_cap): the share of each table column no dark click
    takes, then dark D1 and dark D2 clicks at bins 1..bin_cap. A dark
    entry can round a little below 0.
    """
    masses = table.masses
    if p_dc == 0.0:
        return masses
    rows, n_table = masses.shape
    law = np.empty((rows, n_table + 2 * bin_cap))
    log_q = 2.0 * math.log1p(-p_dc)
    click_keeps, h = _bin_shares(log_q, 1, bin_cap + 1)
    no_click_keeps = math.exp(bin_cap * log_q)
    up, d2 = masses[:, :bin_cap], masses[:, bin_cap : n_table - 1]
    d1 = table.ports[:bin_cap] == D1
    clicks = d2 + up * d1
    dark = law[:, n_table : n_table + bin_cap]
    np.cumsum(clicks, axis=1, out=dark)
    np.subtract(1.0, dark, out=dark)  # the mass that clicks later or never
    dark += 0.5 * clicks
    dark *= h
    law[:, n_table + bin_cap :] = dark
    np.multiply(up, np.where(d1, click_keeps, no_click_keeps), out=law[:, :bin_cap])
    np.multiply(d2, click_keeps, out=law[:, bin_cap : n_table - 1])
    law[:, n_table - 1] = masses[:, -1] * no_click_keeps
    return law


def _range_law(
    cfg: CavityConfig, state: TimeBinState, thetas: Sequence[float]
) -> np.ndarray:
    """Each row's one-frame law over a discrimination run's categories,
    simulated up to the window's last bin n_prime.

    Without dark counts, (rows, 3): the photon's exit mass before and
    inside the accepted window (D2 bins d..n_prime), and the mass still
    circulating after it. With them (``cfg.p_dc`` > 0), (rows, 4): the
    first and third scaled by 1 - p_w, the chance that D2 fires dark
    nowhere in the window (:func:`imperfections.window_dark_probability`),
    then their p_w share, the frames that a dark D2 click alone accepts.
    Clamped to [0, 1]: near r = 1 a sum of masses that is all but 1 can
    round above it. ``state`` is not checked: :func:`run_discrimination`
    passes a Fourier state of the config's dimension.

    Built without the outcome table, from the d entry bins' masses
    (:func:`cavity.entry_bin_masses`, two (rows, d) arrays) and |c_d|^2:
    after bin d every mass is |c_d|^2 times the table's decay vector
    (r1 r2)^(2j), scaled by t2^2 for D2, t1^2 r2^2 for BACK and r2^2 for
    the residual. So the later bins enter as sums of that vector, summed
    bin by bin (never in closed form, so the law stays apart from the
    acceptance kernel) in blocks of at most :data:`BLOCK_CELLS` bins, and
    no further once the vector rounds to 0: every later block adds 0.0.
    """
    d, n_prime, rows = cfg.dim, cfg.n_prime, len(thetas)
    upstream, d2 = np.empty((rows, d)), np.empty((rows, d))
    norm = entry_bin_masses(cfg, state, thetas, upstream, d2)

    # Bins d + 1..n_prime, in units of |c_d|^2: ``clicks`` the D2 decay,
    # ``back`` the BACK decay, ``last`` the residual's.
    clicks = back = 0.0
    last = 1.0
    for b0 in range(d + 1, n_prime + 1, BLOCK_CELLS):
        if not last:  # the decay only falls, so once it rounds to 0 it stays 0
            break
        b1 = min(b0 + BLOCK_CELLS, n_prime + 1)
        decay = (cfg.r1 * cfg.r2) ** (2 * np.arange(b0 - d - 1, b1 - d))
        clicks += decay[1:].sum()
        back += decay[:-1].sum()
        last = decay[-1]
    scale = cfg.t2**2 * norm  # D2 at bin d + j is scale (r1 r2)^(2j)
    backward = cfg.t1**2 * cfg.r2**2 * back * norm
    law = np.empty((rows, 3 if cfg.p_dc == 0.0 else 4))
    law[:, 0] = upstream.sum(axis=1) + d2[:, :-1].sum(axis=1) + backward
    law[:, 1] = d2[:, -1] + scale * clicks
    law[:, 2] = cfg.r2**2 * last * norm
    if cfg.p_dc > 0.0:
        p_w = window_dark_probability(cfg, n_prime)
        law[:, 3] = (law[:, 0] + law[:, 2]) * p_w
        law[:, 0:3:2] *= 1.0 - p_w  # columns 0 and 2
    return np.minimum(np.maximum(law, 0.0, out=law), 1.0, out=law)


def _check_run(n_trials: int, master_seed: int, d: int, cap: int) -> None:
    """Integer trials, seed and cap, the trial cap, then the size cap,
    before anything that grows with d."""
    check_integer("n_trials", n_trials)
    check_integer("master_seed", master_seed)
    check_integer("bin_cap", cap)
    if not 1 <= n_trials <= MAX_TRIALS:
        raise ValueError(f"n_trials must lie in [1, 2**63 - 1], got {n_trials}")
    check_window_size(d, cap)


def run_trials(
    cfg: CavityConfig,
    state: TimeBinState,
    n_trials: int,
    master_seed: int,
    bin_cap: Optional[int] = None,
) -> EmpiricalStats:
    """Sample many frames at the config's fixed phase setting.

    The counts are one multinomial over the exact one-frame law
    (:func:`_column_law`) up to ``bin_cap``, by default ``cfg.n_prime``:
    the photon's exit masses, and with dark counts (``cfg.p_dc``) on both
    detectors the earliest click is the one counted, with a fair tie
    break. The run reports which (port, bin) clicked first, so its
    ``accepted_total`` counts frames whose first click is D2 in the
    window, not the discrimination run's frames with any D2 click there.
    One frame is ``run_trials(..., n_trials=1, master_seed=seed)``: the
    one nonzero column of ``counts`` is the click, (NONE, 0) for none, and
    ``dark_clicks`` says whether a dark count won it.
    """
    d = cfg.dim
    cap = cfg.n_prime if bin_cap is None else bin_cap
    _check_run(n_trials, master_seed, d, cap)
    table = full_outcome_distribution(cfg, state, cap)
    law = _column_law(table, cfg.p_dc, cap)[0]
    ports, bins = table.ports, table.bins
    del table  # the masses live no longer than the law
    np.minimum(np.maximum(law, 0.0, out=law), 1.0, out=law)
    # Drawn up to the last column a frame can reach: numpy's multinomial
    # gives what is left to its last category. A zero entry draws nothing
    # and reads nothing from the stream.
    n_law, reach = law.size, law.size - np.argmax(law[::-1] > 0.0)
    drawn = _generator(master_seed).multinomial(n_trials, law[:reach])
    del law  # the law and the histogram never coexist
    counts = np.zeros(n_law, dtype=np.int64)
    counts[:reach] = drawn
    n_table = ports.size
    n_dark = cap if cfg.p_dc > 0.0 else 0
    stats = EmpiricalStats(n_trials, master_seed, d, cfg.n_prime, cap, None)
    stats.dark_clicks = int(counts[n_table:].sum())
    if n_dark:
        counts[cap : 2 * cap] += counts[n_table + cap :]  # dark D2 clicks
    stats.counts = counts[: n_table + n_dark]
    stats.ports = np.append(ports, np.full(n_dark, D1, np.int8))
    stats.bins = np.append(bins, np.arange(1, n_dark + 1))
    stats.accepted_total = int(stats.counts[cap + d - 1 : cap + cfg.n_prime].sum())
    return stats


def run_discrimination(
    cfg: CavityConfig, prepared_k: int, n_trials: int, master_seed: int
) -> EmpiricalStats:
    """Simulate the state-discrimination experiment.

    Each frame carries one photon prepared in Fourier state ``prepared_k``;
    the receiver dials a uniformly random setting m, and ``cfg.theta`` is
    not read. Dark clicks (``cfg.p_dc``) fire on each detector in every
    bin, and the frame is accepted when D2 clicks at least once inside the
    window [d, n_prime], photon or dark, whatever else clicks: the rule of
    the analytic side (:func:`imperfections.dark_acceptances`). Nothing
    after n_prime is simulated. The per-setting acceptance counts estimate
    those accepted-click probabilities, the mismatched share of accepted
    clicks estimates the discrimination error, and ``dark_clicks`` counts
    the frames that a dark click alone accepted.
    """
    d, n_prime = cfg.dim, cfg.n_prime
    check_mub_index(d, prepared_k)
    _check_run(n_trials, master_seed, d, n_prime)
    state = mub_state(d, prepared_k)
    thetas = TWO_PI * np.arange(d) / d - math.pi  # each theta_for_outcome(d, m)
    law = _range_law(cfg, state, thetas)
    rng = _generator(master_seed)

    frames = rng.multinomial(n_trials, np.full(d, 1.0 / d))
    counts = rng.multinomial(frames, law)
    stats = EmpiricalStats(n_trials, master_seed, d, n_prime, n_prime, prepared_k)
    dark = counts[:, 3:].sum(axis=1)  # with dark counts, the dark-only column
    stats.setting_accepted = counts[:, 1] + dark
    stats.setting_frames = frames
    stats.dark_clicks = int(dark.sum())
    stats.accepted_total = int(stats.setting_accepted.sum())
    return stats
