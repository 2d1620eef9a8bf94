"""Seeded Monte Carlo sampler of single-frame detection events.

Frames are drawn from the exact analytic outcome distribution (inverse CDF
over the finite outcome list) rather than by re-simulating amplitudes; the
sampler exists to exercise dark counts, the one-click-per-frame logic and
the statistics pipeline against the analytic module.

A run builds one stacked table: row m holds the cumulative exit masses
for phase setting m over one shared column layout
(:func:`cavity.outcome_table`), zero-mass columns included, which a
variate can never land on. The table steps the loop amplitude over the d
entry bins and writes every later bin in closed form, as a power of r^2
times that amplitude's mass; it does not reuse the acceptance kernel, so
the report's Monte Carlo vs analytic z-scores compare two independent
computations. Each row carries a guide table (Chen & Asau
1974) of ``_GUIDE + 1`` entries: entry j is the first column whose CDF
exceeds j / _GUIDE. A variate u then lies between entries floor(u _GUIDE)
and the next, and a bisection over only that range finds the column
``searchsorted(row, u, side="right")`` would, for every u; most frames
need no bisection at all.

Randomness comes from a counter-based Philox stream keyed by the master
seed, with each trial consuming a block of variates whose size is fixed
for the run: six doubles with dark counts, and only the two the photon
reads (setting and outcome) without. Because Philox is counter-based, any
chunk of trials gets its own generator positioned at its first trial
(:func:`_generator`), and chunks are sampled by one worker per usable CPU
(at most one per chunk and :data:`_MAX_WORKERS`): the calling thread and a
pool of helper threads.

Every frame is counted by one column index, one histogram per chunk: the
table's 2 bin_cap + 1 columns, where a dark D2 click takes its bin's D2
column, then, only when dark counts are on, bin_cap columns for the
frames a dark D1 click won. Each chunk's counts are folded into one
accumulator as it finishes; integer sums do not depend on the order, so
results are a pure function of (config, n_trials, master_seed),
independent of the worker count, the chunking and the order chunks finish
in. The (port, bin) counts are formed once, after the last chunk.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .cavity import (
    TABLE_PORTS,
    CavityConfig,
    Port,
    full_outcome_distribution,  # noqa: F401  (bound for the benchmark's traced run)
    outcome_table,
    theta_for_outcome,
)
from .imperfections import DarkCountModel
from .states import TimeBinState, check_mub_index, mub_state

_D2 = TABLE_PORTS.index(Port.D2)
# Per-trial variate block with dark counts: setting, outcome, dark bin, dark
# detector, dual-dark pick, photon/dark tie break.
_DRAWS_PER_TRIAL = 6
# Without dark counts a trial's block is its first two variates alone.
_DRAWS_NO_DARK = 2
# Frames per chunk; results do not depend on it. Every per-chunk temporary,
# the variate block included (1.5 MiB with dark counts, 0.5 MiB without),
# scales with it, and each worker holds one chunk's temporaries: two
# workers keep as many frames in flight as one worker with chunks twice the
# size.
_DEFAULT_CHUNK = 32_768
# Most sampler threads a run starts, however many CPUs it may use.
_MAX_WORKERS = 8
# Guide-table width; a power of two, so u * _GUIDE is exact.
_GUIDE = 1 << 10
# Size cap on d * (bin_cap + d) cells, checked before anything is allocated.
# The stacked table (8 B per row and column, 2 bin_cap + 1 columns) and its
# guide rows take about 16 B per cell (tracemalloc, (d, bin_cap) =
# (256, 1024)), so 2**22 cells keep it under 100 MiB next to the fixed chunk
# buffers. The acceptance kernel allocates nothing per cell.
# The default window bin_cap = 4 d passes up to d = 915.
MAX_WINDOW_CELLS = 1 << 22


def check_window_size(d: int, last_bin: int) -> None:
    """Reject d * (last_bin + d) cells over :data:`MAX_WINDOW_CELLS`."""
    cells = d * (last_bin + d)
    if cells > MAX_WINDOW_CELLS:
        raise ValueError(
            f"d * (last bin + d) = {cells} exceeds the size cap {MAX_WINDOW_CELLS}"
        )


@dataclass
class EmpiricalStats:
    """Aggregated frame counts plus the derived empirical estimators."""

    n_trials: int
    master_seed: int
    dim: int
    n_prime: int
    bin_cap: int
    prepared_k: Optional[int]
    counts: Dict[Tuple[Port, int], int] = field(default_factory=dict)
    dark_clicks: int = 0
    accepted_total: int = 0
    setting_frames: Dict[int, int] = field(default_factory=dict)
    setting_accepted: Dict[int, int] = field(default_factory=dict)

    def frequency(self, port: Port, time_bin: int) -> float:
        return self.counts.get((port, time_bin), 0) / self.n_trials

    def d2_window_frequency(self) -> float:
        """Fraction of frames with a D2 click inside the accepted window."""
        return self.accepted_total / self.n_trials

    def p_hat(self, m: int) -> float:
        """Empirical windowed acceptance for setting m (discrimination runs)."""
        frames = self.setting_frames.get(m, 0)
        if frames == 0:
            return 0.0
        return self.setting_accepted.get(m, 0) / frames

    def p_e_hat(self) -> float:
        """Empirical discrimination error: mismatched share of accepted clicks."""
        if self.prepared_k is None or not self.setting_frames:
            raise ValueError("error estimate requires a discrimination run")
        if self.accepted_total == 0:
            raise ValueError("no accepted events; error estimate undefined")
        mismatched = sum(
            c for m, c in self.setting_accepted.items() if m != self.prepared_k
        )
        return mismatched / self.accepted_total


@dataclass(frozen=True)
class _OutcomeTable:
    """Stacked outcome CDF rows over one column layout, with guide rows."""

    ports: np.ndarray  # (K,) cavity.TABLE_PORTS index of each column
    bins: np.ndarray  # (K,) time bin of each column
    cdf: np.ndarray  # (rows, K)
    guide: np.ndarray  # (rows, _GUIDE + 1) int32


def _outcome_table(
    cfg: CavityConfig, state: TimeBinState, thetas: Sequence[float], bin_cap: int
) -> _OutcomeTable:
    table = outcome_table(cfg, state, thetas, bin_cap)
    cdf = np.cumsum(table.masses, axis=1, out=table.masses)
    cdf[:, -1] = 1.0  # total mass is 1 to ~1e-15; pin it so lookups stay in range
    return _OutcomeTable(
        ports=table.ports,
        bins=table.bins,
        cdf=cdf,
        guide=_guide_table(cdf),
    )


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """Entry [m, j] = searchsorted(cdf[m], j / _GUIDE, side="right").

    The last entry, j = _GUIDE, is the last column: every u < 1 stops at
    the column pinned to 1 at the latest.
    """
    points = np.arange(_GUIDE) / _GUIDE
    guide = np.empty((cdf.shape[0], _GUIDE + 1), dtype=np.int32)
    for row, guide_row in zip(cdf, guide):
        guide_row[:-1] = np.searchsorted(row, points, side="right")
    guide[:, -1] = cdf.shape[1] - 1
    return guide


def _generator(seed: int, first_trial: int, draws: int) -> np.random.Generator:
    """The Philox stream keyed by ``seed``, positioned at trial ``first_trial``.

    Every trial takes ``draws`` doubles. Philox makes four doubles per
    counter value, and numpy steps the counter before each block, so a
    stream started at counter c continues the one started at 0 from block
    c on. Trial t starts at double draws t: block draws t // 4, after
    discarding draws t % 4 doubles. The seed is the Philox key itself, so
    it must lie in [0, 2**128); numpy raises ValueError otherwise rather
    than reducing it onto another seed's stream.
    """
    block, skip = divmod(draws * first_trial, 4)
    bits = np.random.Philox(key=seed, counter=block)
    rng = np.random.Generator(bits)
    if skip:
        rng.random(skip)
    return rng


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _workers(n_chunks: int, chunk: int, count_bytes: int) -> int:
    """Sampler threads: one per usable CPU, per chunk, at most _MAX_WORKERS.

    Every thread holds one chunk's column histogram, as large as the
    ``count_bytes`` accumulator (3 bin_cap + 1 int64 entries with dark
    counts, 2 bin_cap + 1 without), until it is folded in, so a run whose
    accumulator outweighs a chunk's six-double variate block keeps one.
    """
    if count_bytes > chunk * _DRAWS_PER_TRIAL * 8:
        return 1
    return min(_usable_cpus(), n_chunks, _MAX_WORKERS)


def _lookup(cdf: np.ndarray, guide: np.ndarray, rows: np.ndarray, u: np.ndarray):
    """Column ``searchsorted(cdf[row], u, side="right")`` of every frame.

    The guide narrows each frame to [guide[row, j], guide[row, j + 1]] with
    j = floor(u _GUIDE); frames whose range holds more than one column are
    bisected together, at most ceil(log2 K) rounds.
    """
    cell = rows * (_GUIDE + 1) + (u * _GUIDE).astype(np.int64)
    flat_guide = guide.ravel()
    cols = flat_guide[cell].astype(np.int64)
    todo = np.flatnonzero(flat_guide[cell + 1] > cols)
    lo, hi = cols[todo], flat_guide[cell[todo] + 1].astype(np.int64)
    flat_cdf, offset, u_todo = cdf.ravel(), rows[todo] * cdf.shape[1], u[todo]
    while todo.size:
        mid = (lo + hi) >> 1
        right = flat_cdf[offset + mid] <= u_todo
        lo = np.where(right, mid + 1, lo)
        hi = np.where(right, hi, mid)
        done = lo == hi
        cols[todo[done]] = lo[done]
        todo, lo, hi, offset, u_todo = (
            a[~done] for a in (todo, lo, hi, offset, u_todo)
        )
    return cols


def _sample_photon(
    table: _OutcomeTable, settings: np.ndarray, u_outcome: np.ndarray
) -> np.ndarray:
    """The table column of each frame's photon exit."""
    return _lookup(table.cdf, table.guide, settings, u_outcome)


def _merge_dark(
    cols: np.ndarray,
    table: _OutcomeTable,
    u: np.ndarray,
    p_dc: float,
    bin_cap: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply per-bin Bernoulli dark clicks; the earliest click wins a frame.

    Writes the dark click's column into ``cols`` for every frame it wins
    and returns ``cols``, the won frames' indices and the per-frame
    dark-win flags. A dark D2 click at bin b takes the table's (D2, b)
    column, bin_cap + b - 1; a dark D1 click takes column 2 bin_cap + b,
    one of the bin_cap columns after the table's K = 2 bin_cap + 1, since
    most bins have a BACK column and no D1 one. Detector and tie are
    resolved only on the frames with a dark click inside the cap.
    """
    dark_wins = np.zeros(cols.shape, dtype=bool)
    if p_dc == 0.0:
        return cols, np.empty(0, dtype=np.int64), dark_wins
    # Log survival per bin, two detectors; log1p/expm1 keep it nonzero and
    # accurate down to the smallest p_dc, where (1 - p_dc)**2 rounds to 1.
    # Clipping at bin_cap keeps the cast in range: bin_cap + 1 means none.
    log_no_dark = 2.0 * math.log1p(-p_dc)
    first_dark = np.minimum(np.log1p(-u[:, 2]) / log_no_dark, bin_cap)
    first_dark = np.floor(first_dark).astype(np.int64) + 1
    hit = np.flatnonzero(first_dark <= bin_cap)
    first_dark = first_dark[hit]
    photon = cols[hit]
    photon_bins = table.bins[photon]
    wins = (
        (table.ports[photon] > _D2)  # the photon clicked no detector
        | (first_dark < photon_bins)
        | ((first_dark == photon_bins) & (u[hit, 5] < 0.5))
    )
    won, first_dark = hit[wins], first_dark[wins]
    # One detector fires (each with p_one_detector) or both do, and then
    # the dual-dark pick chooses.
    any_dark = -math.expm1(log_no_dark)
    p_one_detector = p_dc * (1.0 - p_dc) / any_dark
    u_det = u[won, 3]
    dark_d1 = (u_det < p_one_detector) | (
        (u_det >= 2.0 * p_one_detector) & (u[won, 4] < 0.5)
    )
    cols[won] = first_dark + np.where(dark_d1, 2 * bin_cap, bin_cap - 1)
    dark_wins[won] = True
    return cols, won, dark_wins


def _sample(
    cfg: CavityConfig,
    state: Optional[TimeBinState],
    dark: DarkCountModel,
    n_trials: int,
    master_seed: int,
    bin_cap: Optional[int],
    chunk_size: Optional[int],
    prepared_k: Optional[int] = None,
) -> EmpiricalStats:
    """Sample frames from one stacked table; every entry point runs here.

    Without ``prepared_k`` the table has one row, ``state`` at the config's
    phase. With it the input is Fourier state ``prepared_k``, the table has
    one row per setting phase, and each frame draws its setting uniformly.
    Trial i consumes the i-th fixed-size block of the Philox stream keyed
    by ``master_seed``, so the aggregate is independent of chunking, of the
    worker count and of the order chunks finish in.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    d = cfg.dim
    cap = cfg.n_prime if bin_cap is None else bin_cap
    check_window_size(d, cap)  # before anything that grows with d
    if prepared_k is None:
        thetas = [cfg.theta]
    else:
        state = mub_state(d, prepared_k)
        thetas = [theta_for_outcome(d, m) for m in range(d)]
    table = _outcome_table(cfg, state, thetas, cap)

    chunk = chunk_size or _DEFAULT_CHUNK
    draws = _DRAWS_PER_TRIAL if dark.p_dc > 0.0 else _DRAWS_NO_DARK
    rows, n_table = len(thetas), table.ports.size
    # With dark counts the table's columns are followed by cap dark D1
    # columns. Accepted: a D2 click inside [d, n_prime], the table's columns
    # cap + d - 1 .. cap + n_prime - 1.
    n_cols = n_table + (cap if dark.p_dc > 0.0 else 0)
    accepts = np.zeros(n_cols, dtype=bool)
    accepts[cap + d - 1 : cap + cfg.n_prime] = True
    col_counts = np.zeros(n_cols, dtype=np.int64)
    # entry 2 m + a: frames of setting m, accepted (a = 1) or not
    setting_counts = np.zeros(2 * rows, dtype=np.int64)
    dark_clicks = 0
    starts = iter(range(0, n_trials, chunk))
    lock = threading.Lock()

    def drain() -> None:
        """Sample chunks until none is left, folding each one in as it ends."""
        nonlocal starts, col_counts, setting_counts, dark_clicks
        # one variate block per worker, refilled for every chunk it takes
        block = np.empty((min(chunk, n_trials), draws))
        try:
            while True:
                with lock:
                    start = next(starts, None)
                if start is None:
                    return
                size = min(chunk, n_trials - start)
                u = _generator(master_seed, start, draws).random(out=block[:size])
                # a one-row table (run_trials) gives every frame setting 0
                settings = np.minimum((u[:, 0] * rows).astype(np.int64), rows - 1)
                cols = _sample_photon(table, settings, u[:, 1])
                cols, won, _ = _merge_dark(cols, table, u, dark.p_dc, cap)
                col_hist = np.bincount(cols, minlength=n_cols)
                accepted = accepts[cols]
                by_setting = np.bincount(2 * settings + accepted, minlength=2 * rows)
                with lock:
                    col_counts += col_hist
                    setting_counts += by_setting
                    dark_clicks += won.size
                del col_hist  # at the size cap it is as large as the accumulator
        except BaseException:  # an error or an interrupt: no worker goes on
            starts = iter(())
            raise

    helpers = _workers(-(-n_trials // chunk), chunk, col_counts.nbytes) - 1
    if not helpers:
        drain()
    else:
        # imported here: about 8 ms, and only threaded runs need it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(helpers) as pool:
            jobs = [pool.submit(drain) for _ in range(helpers)]
            drain()  # the calling thread is one of the workers
            for job in jobs:
                job.result()

    counts: Dict[Tuple[Port, int], int] = {}
    for c in np.flatnonzero(col_counts).tolist():
        if c < n_table:
            key = (TABLE_PORTS[table.ports[c]], int(table.bins[c]))
        else:  # a dark D1 column; bin b's table column may also be D1
            key = (Port.D1, c - n_table + 1)
        counts[key] = counts.get(key, 0) + int(col_counts[c])
    setting_frames: Dict[int, int] = {}
    setting_accepted: Dict[int, int] = {}
    if prepared_k is not None:
        frames, hits = setting_counts.reshape(rows, 2).sum(axis=1), setting_counts[1::2]
        setting_frames = {m: int(c) for m, c in enumerate(frames) if c}
        setting_accepted = {m: int(c) for m, c in enumerate(hits) if c}
    return EmpiricalStats(
        n_trials=n_trials,
        master_seed=master_seed,
        dim=d,
        n_prime=cfg.n_prime,
        bin_cap=cap,
        prepared_k=prepared_k,
        counts=counts,
        dark_clicks=dark_clicks,
        accepted_total=int(col_counts[accepts].sum()),
        setting_frames=setting_frames,
        setting_accepted=setting_accepted,
    )


def run_trials(
    cfg: CavityConfig,
    state: TimeBinState,
    dark: DarkCountModel,
    n_trials: int,
    master_seed: int,
    bin_cap: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> EmpiricalStats:
    """Sample many frames at the config's fixed phase setting.

    The photon branch is drawn from the exact outcome distribution, then
    merged with per-bin dark clicks on both detectors: the earliest click
    is the one counted, with a fair tie break. One frame is
    ``run_trials(..., n_trials=1, master_seed=seed)``: its single
    ``counts`` key is the click, (Port.NONE, 0) for none, and
    ``dark_clicks`` says whether a dark count won it.
    """
    return _sample(cfg, state, dark, n_trials, master_seed, bin_cap, chunk_size)


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
    chunk_size: Optional[int] = None,
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
    return _sample(
        cfg, None, dark, n_trials, master_seed, bin_cap, chunk_size, prepared_k
    )
