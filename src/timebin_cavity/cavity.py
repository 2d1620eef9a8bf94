"""Exact analytic model of the recirculating Mach-Zehnder measurement stage.

A photon entering the device either reflects off the first beam splitter
(detector D1, time-of-arrival information), or enters a loop formed by the
two splitters where each circulation takes exactly one time-bin duration and
multiplies the amplitude by r * e^{i phi}, with r = |R1||R2| and
phi = theta + pi (phase-shifter setting plus the two reflection phases).
Light leaving the loop through the second splitter reaches detector D2; a
D2 click in bin N >= d acts as a projection onto an unnormalized state
that approaches the Fourier basis state as r -> 1.

Everything in this module is a pure function of immutable configs/states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Sequence

import numpy as np

from .states import (
    TimeBinState,
    check_dimension,
    check_integer,
    check_mub_index,
    fidelity,
    inner_product,
    mub_state,
)

TWO_PI = 2.0 * math.pi
# Cells per block wherever bins are walked in blocks: rows x bins in the
# entry-bin scan of :func:`entry_bin_masses` (40 B per cell of buffers,
# 640 KiB), and bins in the sampler's discrimination law, whose 1-D sums
# over the loop's decay take a few 128 KiB vectors per block; neither
# grows with d or the window.
BLOCK_CELLS = 1 << 14


@dataclass(frozen=True)
class CavityConfig:
    """One run's physics: reflectivities, phase, window and dark counts.

    ``r1_sq`` / ``r2_sq`` are intensity reflectivities in [0, 1); the
    splitters are lossless, so |T_i|^2 = 1 - |R_i|^2. ``n_prime`` is the
    last time bin in which a D2 click still counts as a basis measurement.
    ``p_dc``, the dark-click probability per detector per bin, is read only
    by the dark-count layer (:mod:`imperfections`) and the sampler.
    """

    dim: int
    r1_sq: float
    r2_sq: float
    theta: float
    n_prime: int
    p_dc: float = 0.0

    def __post_init__(self):
        check_integer("dim", self.dim)
        check_dimension(self.dim)
        for name, value in (("r1_sq", self.r1_sq), ("r2_sq", self.r2_sq)):
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {value}")
        if not math.isfinite(self.theta):  # every exit mass would be nan
            raise ValueError(f"theta must be finite, got {self.theta}")
        check_integer("n_prime", self.n_prime)
        if self.n_prime < self.dim:
            raise ValueError(
                f"n_prime ({self.n_prime}) must be >= dim ({self.dim})"
            )
        if not 0.0 <= self.p_dc < 1.0:
            raise ValueError(
                f"dark-count probability must lie in [0, 1), got {self.p_dc}"
            )

    @property
    def r1(self) -> float:
        return math.sqrt(self.r1_sq)

    @property
    def r2(self) -> float:
        return math.sqrt(self.r2_sq)

    @property
    def t1(self) -> float:
        return math.sqrt(1.0 - self.r1_sq)

    @property
    def t2(self) -> float:
        return math.sqrt(1.0 - self.r2_sq)

    @property
    def r(self) -> float:
        """Amplitude survival per circulation, |R1||R2|."""
        return math.sqrt(self.r1_sq * self.r2_sq)

    @property
    def phi(self) -> float:
        """Phase per circulation: the setting plus pi from the two reflections."""
        return (self.theta + math.pi) % TWO_PI

    def for_outcome(self, m: int) -> "CavityConfig":
        """Copy of this config with the phase dialled to target outcome m."""
        return replace(self, theta=theta_for_outcome(self.dim, m))


def theta_for_outcome(d: int, m: int) -> float:
    """Phase-shifter setting whose round-trip phase 2 pi m / d targets outcome m.

    The two reflections contribute pi per circulation, so theta must be
    2 pi m / d - pi.
    """
    check_dimension(d)
    check_mub_index(d, m)
    return TWO_PI * m / d - math.pi


def gamma_state(cfg: CavityConfig, N: int) -> TimeBinState:
    """Unnormalized state a windowed D2 click at bin N projects onto.

    The amplitude on ket |d - n> is |T1||T2| r^(N-d+n) e^{i (N-d+n) phi}
    for n = 0..d-1: the slot that entered earliest has circulated the most
    and carries the largest power of r. Requires N >= d; every input slot
    must already be inside the loop.
    """
    d = cfg.dim
    check_integer("bin", N)
    if N < d:
        raise ValueError(
            f"bin {N} precedes the measurement window (first accepted bin is {d})"
        )
    n = np.arange(d)
    trips = N - d + n
    amps = np.zeros(d, dtype=np.complex128)
    amps[d - 1 - n] = cfg.t1 * cfg.t2 * cfg.r**trips * np.exp(1j * trips * cfg.phi)
    return TimeBinState(amps, normalized=False)


def _check_input(cfg: CavityConfig, state: TimeBinState) -> None:
    if not state.normalized:
        raise ValueError("input state must be normalized")
    if state.dim != cfg.dim:
        raise ValueError(f"dimension mismatch: {state.dim} vs {cfg.dim}")


# Not called in the package; bound for the benchmark's traced run.
def d2_bin_probability(cfg: CavityConfig, state: TimeBinState, N: int) -> float:
    """Probability of a D2 click at bin N (N >= d) for the given input."""
    _check_input(cfg, state)
    return float(abs(inner_product(gamma_state(cfg, N), state)) ** 2)


def d1_bin_probability(cfg: CavityConfig, state: TimeBinState, n: int) -> float:
    """The first-reflection term of the D1 click at bin n, for n in 1..d.

    That term alone, |R1|^2 |<n|state>|^2. At a bin where light already
    circulates, :func:`outcome_table` adds the backward leakage coherently
    to it in the D1 column, so that column's mass differs (for
    ``mub_state(4, 1)`` at r^2 = 0.8 and theta_1: 0.128 at bin 2, 0.2 here).
    """
    _check_input(cfg, state)
    if not 1 <= n <= cfg.dim:
        raise ValueError(f"bin {n} outside the arrival window 1..{cfg.dim}")
    return float(cfg.r1_sq * abs(state.amps[n - 1]) ** 2)


def _window_sums(cfg: CavityConfig, widths) -> np.ndarray:
    """sum_{j=0}^{W-1} r^(2j) for each window width W, one per entry.

    Evaluated as expm1(W L) / expm1(L) with L = ln r^2 taken as
    ln r1^2 + ln r2^2: the product r1^2 r2^2 would round before the log,
    which near r = 1 costs digits of L and, through W L, of the sum. At
    r = 0 only the j = 0 term is left.
    """
    widths = np.asarray(widths, dtype=float)
    if cfg.r1_sq == 0.0 or cfg.r2_sq == 0.0:
        return np.ones_like(widths)
    log_r_sq = math.log(cfg.r1_sq) + math.log(cfg.r2_sq)
    return np.expm1(widths * log_r_sq) / math.expm1(log_r_sq)


def cutoff_acceptances(
    cfg: CavityConfig, state: TimeBinState, cutoffs: Sequence[int]
) -> np.ndarray:
    """P(m | state) for every setting m at every window cutoff, shape (len, d).

    From bin d on every input slot is inside the loop, so the D2 amplitude
    at bin N is t1 t2 (r e^{-i phi})^(N-d) A(phi), with
    A(phi) = sum_n r^n e^{-i n phi} psi_(d-n). At phi_m = 2 pi m / d that
    is the length-d DFT of r^n psi_(d-n), so one FFT gives A for every
    setting, and row j is the bin-d probability (t1 t2)^2 |A|^2 times the
    window sum over the bins d..cutoffs[j] (:func:`_window_sums`). The cost
    is O(d log d) however wide the window is. ``cfg.n_prime`` and the
    config's own ``theta`` are not used. It takes any normalized input;
    Fourier state k, whose rows are P(m|k), is one caller.
    """
    _check_input(cfg, state)
    d = cfg.dim
    for cutoff in cutoffs:
        check_integer("cutoff", cutoff)
        if cutoff < d:
            raise ValueError(
                f"cutoff {cutoff} precedes the measurement window "
                f"(first accepted bin is {d})"
            )
    amp = np.fft.fft(cfg.r ** np.arange(d, dtype=float) * state.amps[::-1])
    first_bin = (1.0 - cfg.r1_sq) * (1.0 - cfg.r2_sq) * (amp.real**2 + amp.imag**2)
    widths = np.asarray(cutoffs, dtype=float) - d + 1
    return np.multiply.outer(_window_sums(cfg, widths), first_bin)


def setting_acceptances(cfg: CavityConfig, k: int) -> List[float]:
    """P(m|k) over the window [d, n_prime] for every setting m = 0..d-1."""
    return cutoff_acceptances(cfg, mub_state(cfg.dim, k), [cfg.n_prime])[0].tolist()


# Not called in the package; bound for the benchmark's traced run.
def p_m_given_k(cfg: CavityConfig, k: int) -> float:
    """Windowed D2 click probability for Fourier state k at the config's phase."""
    return d2_total_probability(cfg, mub_state(cfg.dim, k))


def error_ratio(probs: Sequence[float], k: int) -> float:
    """Mismatched share of accepted clicks, sum_{m != k} / sum_m of the
    per-setting accepted-click probabilities: the discrimination error.
    Dark counts, if any, are already in ``probs``
    (:func:`imperfections.dark_acceptances`).
    """
    total = math.fsum(probs)
    if total == 0.0:
        raise ValueError("zero acceptance in every setting; ratio undefined")
    # summed apart, not as total - P(k|k): near r = 1 that difference
    # cancels every digit of the small mismatched mass
    return math.fsum([*probs[:k], *probs[k + 1 :]]) / total


def total_error(cfg: CavityConfig, k: int = 0) -> float:
    """Discrimination error over all settings, by brute-force summation.

    :func:`error_ratio` of the per-setting acceptances, each setting m
    evaluated at phase 2 pi m / d over the same window
    (:func:`setting_acceptances`). The window length and the prepared index
    cancel in the ratio, which is enforced by tests rather than assumed.
    """
    return error_ratio(setting_acceptances(cfg, k), k)


def total_error_closed_form(r: float, d: int) -> float:
    """Geometric-series reduction of the discrimination error.

    Summing |1 - r e^{2 pi i j / d}|^{-2} over j collapses the double sum
    behind :func:`total_error` to 1 - (1 + r)(1 - r^d) / [d (1 - r)(1 + r^d)],
    evaluated here in the equivalent form with only nonnegative terms,

        sum_{j=1}^{d-1} (1 - r^j)(1 - r^(d-j)) / [ d (1 + r^d) ],

    with 1 - r^j = -expm1(j ln r), so nothing cancels as r -> 1, where the
    error tends to 0. Valid for 0 <= r < 1.
    """
    check_dimension(d)
    if not 0.0 <= r < 1.0:
        raise ValueError(
            f"round-trip factor must lie in [0, 1), got {r}; "
            "the r -> 1 limit of the error is 0"
        )
    if r == 0.0:
        return (d - 1) / d
    log_r = math.log(r)
    # term d - j is term j with its factors swapped, the same float: each pair
    # is summed once, doubled (exact), and an even d's middle term is m * m
    pairs = range(1, (d + 1) // 2)
    terms = [2.0 * (math.expm1(j * log_r) * math.expm1((d - j) * log_r)) for j in pairs]
    middle = math.expm1(d // 2 * log_r) if d % 2 == 0 else 0.0
    return math.fsum(terms + [middle * middle]) / (d * (1.0 + r**d))


def d2_total_probability(
    cfg: CavityConfig, state: TimeBinState, include_early: bool = False
) -> float:
    """Total D2 detection probability for the given input.

    By default sums the per-bin click probabilities over the accepted
    window [d, n_prime] only: the bin-d probability times the window sum,
    as in :func:`cutoff_acceptances`. With ``include_early=True`` the
    inconclusive bins 1..d-1 are counted as well, giving the full mass the
    detector sees up to bin n_prime. At bin b, slot j has made b - j round
    trips and slots that enter after bin b contribute nothing, so the D2
    amplitudes of the entry bins 1..d are the causal convolution of the
    input with (r e^{-i phi})^n: one length-2d FFT product.
    """
    _check_input(cfg, state)
    d = cfg.dim
    trips = np.arange(d, dtype=float)
    steps = cfg.r**trips * np.exp(-1j * cfg.phi * trips)
    amp = np.fft.ifft(np.fft.fft(steps, 2 * d) * np.fft.fft(state.amps, 2 * d))[:d]
    probs = (1.0 - cfg.r1_sq) * (1.0 - cfg.r2_sq) * (amp.real**2 + amp.imag**2)
    total = float(probs[-1] * _window_sums(cfg, cfg.n_prime - d + 1))
    if include_early:
        total = math.fsum([total, *probs[:-1].tolist()])
    # The map from input to exit amplitudes is an isometry, so anything
    # above 1 is rounding: at r = 0 and d = 3 the three entry masses
    # (1/sqrt 3)^2 sum to 1.0000000000000002.
    return min(total, 1.0)


def projection_fidelity(cfg: CavityConfig, N: int, k: int) -> float:
    """How closely the bin-N projection state matches Fourier state k.

    Independent of N (the N-dependence of the projection state is a global
    scalar) and approaches 1 as the round-trip factor approaches 1 with the
    phase dialled to 2 pi k / d.
    """
    check_mub_index(cfg.dim, k)
    return fidelity(gamma_state(cfg, N), mub_state(cfg.dim, k))


# Exit ports (NONE: still circulating), detectors first, so a code above
# D2's is a frame that clicked no detector. Outcome tables label each column
# by its port's index here, and the sampler counts frames by it.
TABLE_PORTS = ("D1", "D2", "BACK", "NONE")
D1, D2, BACK, NONE = range(len(TABLE_PORTS))


@dataclass(frozen=True)
class OutcomeTable:
    """Exit masses of one input state at several loop phases, one row each.

    Column c is the exit (TABLE_PORTS[ports[c]], bins[c]); every row shares
    the layout, zero-mass slots kept, and each part is in bin order: column
    b - 1 is the upstream exit at bin b, column bin_cap + b - 1 is D2 at
    bin b, and the last is the still-circulating residual (NONE, bin 0). D2
    columns below bin d are inconclusive clicks: the photon left before
    every input slot had entered the loop. An upstream column is labelled
    by provenance: D1 at a bin where an input slot reflects off the first
    splitter, BACK (leakage back through it) everywhere else. At a bin
    where both happen (superposition inputs, bins 2..d) they leave on the
    same line, and their coherent mass is the D1 column. Which bins are D1
    depends on the input alone, not on the phase.
    """

    ports: np.ndarray
    bins: np.ndarray
    masses: np.ndarray


def entry_bin_masses(
    cfg: CavityConfig,
    state: TimeBinState,
    thetas: Sequence[float],
    upstream: np.ndarray,
    d2: np.ndarray,
) -> np.ndarray:
    """The exit masses of the d entry bins for every phase in thetas.

    Writes bin b's upstream mass to ``upstream[:, b - 1]`` and its D2 mass
    to ``d2[:, b - 1]`` for b = 1..d, one row per phase, and returns each
    row's |c_d|^2, the mass still circulating once every slot has entered.
    Over the entry bins the circulating amplitude obeys
    c_b = loop c_(b-1) + t1 psi_b, with loop = r1 r2 e^{-i (theta + pi)};
    bin b's upstream exit comes from c_(b-1) and the slot reflecting there,
    and its D2 exit is t2 c_b. Every row's c is one inclusive scan of that
    recurrence, bins along axis 0, in log2 doubling steps and blocks of at
    most :data:`BLOCK_CELLS` rows x bins, each block starting from the last
    one's c; nothing is stepped bin by bin in Python. The caller checks
    the input first.
    """
    d = cfg.dim
    thetas = np.asarray(thetas, dtype=float)
    rows = len(thetas)
    loop = cfg.r1 * cfg.r2 * np.exp(-1j * (thetas + math.pi))
    leak = 1j * cfg.t1 * cfg.r2 * np.exp(-1j * thetas)
    reflecting, entering = 1j * cfg.r1 * state.amps, cfg.t1 * state.amps
    # Scan row 0 holds the last block's c and row i the c of the block's
    # i-th bin; a doubling step adds loop^s c_(b-s). The buffers are
    # allocated once: fresh block-sized temporaries cost more in page
    # faults than the arithmetic.
    step = min(d, max(1, BLOCK_CELLS // rows))
    scan = np.zeros((step + 1, rows), dtype=np.complex128)
    term = np.empty((step, rows), dtype=np.complex128)
    mass = np.empty((step, rows))
    for b0 in range(0, d, step):
        n = min(step, d - b0)
        c = scan[: n + 1]
        c[1:] = entering[b0 : b0 + n, None]
        power, shift = loop, 1
        while shift <= n:
            c[shift:] += np.multiply(power, c[:-shift], out=term[: n + 1 - shift])
            power, shift = power * power, 2 * shift
        np.multiply(leak, c[:-1], out=term[:n])
        term[:n] += reflecting[b0 : b0 + n, None]
        upstream[:, b0 : b0 + n] = np.square(np.abs(term[:n], out=mass[:n])).T
        np.multiply(cfg.t2, c[1:], out=term[:n])
        d2[:, b0 : b0 + n] = np.square(np.abs(term[:n], out=mass[:n])).T
        scan[0] = c[n]
    return abs(scan[0]) ** 2


def outcome_table(
    cfg: CavityConfig, state: TimeBinState, thetas: Sequence[float], bin_cap: int
) -> OutcomeTable:
    """Exit masses over D1, D2 and the backward port for every phase in thetas.

    Every reflection contributes a phase of pi/2, so the map from input to
    exit amplitudes is an isometry: for a normalized input each row sums
    to one. The loop phase takes the sign that makes the D2 masses equal
    the literal projection-state probabilities.

    Built in two parts for all phases at once, straight into one
    preallocated (len(thetas), 2 bin_cap + 1) array in the bin-order layout
    of :class:`OutcomeTable`: the entry bins 1..d by
    :func:`entry_bin_masses`, then the tail. Nothing enters after bin d, so
    |c_(d+j)|^2 = (r1 r2)^(2j) |c_d|^2, and the tail is outer products of
    |c_d|^2 with that one decay vector: D2 at bin b is t2^2 |c_b|^2, BACK
    at bin b + 1 is t1^2 r2^2 |c_b|^2, and the residual is r2^2 |c_cap|^2.
    The D2 masses are not taken from the acceptance kernel
    (:func:`cutoff_acceptances`): the sampler draws from this table
    and its report compares the counts with the kernel's P(m|k), which
    checks something only while the two are different algorithms. The
    config's own ``theta`` is ignored.
    """
    _check_input(cfg, state)
    if bin_cap < cfg.n_prime:
        raise ValueError(
            f"bin_cap ({bin_cap}) must cover the accepted window "
            f"(n_prime = {cfg.n_prime})"
        )
    masses = np.empty((len(thetas), 2 * bin_cap + 1))
    upstream, d2 = masses[:, :bin_cap], masses[:, bin_cap:-1]  # bin b in column b - 1
    norm = entry_bin_masses(cfg, state, thetas, upstream, d2)
    d, r1, r2 = cfg.dim, cfg.r1, cfg.r2
    ports = np.full(2 * bin_cap + 1, D2, dtype=np.int8)
    ports[:bin_cap] = BACK
    ports[:d][(state.amps != 0) & (r1 > 0.0)] = D1
    ports[-1] = NONE
    bins = np.append(np.tile(np.arange(1, bin_cap + 1), 2), 0)
    decay = (r1 * r2) ** (2 * np.arange(bin_cap - d + 1))
    np.multiply.outer(cfg.t2**2 * norm, decay[1:], out=d2[:, d:])
    np.multiply.outer(cfg.t1**2 * r2**2 * norm, decay[:-1], out=upstream[:, d:])
    masses[:, -1] = r2**2 * norm * decay[-1]
    return OutcomeTable(ports=ports, bins=bins, masses=masses)


def full_outcome_distribution(
    cfg: CavityConfig, state: TimeBinState, bin_cap: int
) -> OutcomeTable:
    """The one-row :func:`outcome_table` at the config's own phase."""
    return outcome_table(cfg, state, [cfg.theta], bin_cap)
