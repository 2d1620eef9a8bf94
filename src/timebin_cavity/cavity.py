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

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .states import (
    TimeBinState,
    check_dimension,
    check_mub_index,
    fidelity,
    inner_product,
    mub_state,
)

TWO_PI = 2.0 * math.pi
# Bins per evaluation block of the windowed-acceptance kernel: temporaries
# stay O(rows * (block + d)) however long the accepted window is.
_BIN_BLOCK = 256


class Port(Enum):
    """Exit channels of the measurement stage (NONE = still circulating)."""

    D1 = "D1"
    D2 = "D2"
    BACK = "BACK"
    NONE = "NONE"


@dataclass(frozen=True)
class CavityConfig:
    """Splitter reflectivities, phase setting and accepted detection window.

    ``r1_sq`` / ``r2_sq`` are intensity reflectivities in [0, 1); the
    splitters are lossless, so |T_i|^2 = 1 - |R_i|^2. ``n_prime`` is the
    last time bin in which a D2 click still counts as a basis measurement.
    """

    dim: int
    r1_sq: float
    r2_sq: float
    theta: float
    n_prime: int

    def __post_init__(self):
        check_dimension(self.dim)
        for name, value in (("r1_sq", self.r1_sq), ("r2_sq", self.r2_sq)):
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {value}")
        if self.n_prime < self.dim:
            raise ValueError(
                f"n_prime ({self.n_prime}) must be >= dim ({self.dim})"
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


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over (exit port, time bin) plus still-circulating mass.

    For a normalized input the entry masses and the residual sum to one
    exactly (the underlying map is an isometry). D2 entries at bins below
    ``dim`` are inconclusive clicks: the photon left before every input
    slot had entered the loop.
    """

    dim: int
    entries: Dict[Tuple[Port, int], float]
    residual: float

    def probability(self, port: Port, time_bin: int) -> float:
        return self.entries.get((port, time_bin), 0.0)

    def port_total(self, port: Port) -> float:
        return math.fsum(
            p for (prt, _), p in self.entries.items() if prt is port
        )

    def total_mass(self) -> float:
        return math.fsum(self.entries.values()) + self.residual

    def inconclusive_d2_mass(self) -> float:
        """Mass of D2 clicks arriving before bin d (not a basis measurement)."""
        return math.fsum(
            p
            for (prt, b), p in self.entries.items()
            if prt is Port.D2 and b < self.dim
        )

    def sorted_entries(self):
        """Entries in a deterministic (port, bin) order."""
        return sorted(self.entries.items(), key=lambda kv: (kv[0][0].value, kv[0][1]))


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
    """Probability of the immediate-reflection D1 click at bin n.

    First-reflection model: |R1|^2 |<n|state>|^2 for n in 1..d. Backward
    leakage on later circulations exits toward the source instead and is
    accounted as the BACK port of :func:`full_outcome_distribution`.
    """
    _check_input(cfg, state)
    if not 1 <= n <= cfg.dim:
        raise ValueError(f"bin {n} outside the arrival window 1..{cfg.dim}")
    return float(cfg.r1_sq * abs(state.amps[n - 1]) ** 2)


def _click_probability_blocks(
    cfg: CavityConfig, amps: np.ndarray, first: int, last: int, phi
) -> Iterator[np.ndarray]:
    """Per-bin D2 click probabilities |<gamma_N|psi>|^2 for N = first..last.

    ``phi`` is one round-trip phase, or an array of them (one output row
    each). At bin N, slot d - n has made N - d + n round trips; slots that
    have not yet entered the loop (negative counts, only in bins N < d)
    contribute nothing, which gives the truncated projection states. Each
    block of at most ``_BIN_BLOCK`` bins is one contraction of the Hankel
    block of conjugated projection amplitudes with the input amplitudes.
    """
    d = cfg.dim
    coupling = cfg.t1 * cfg.t2
    r = cfg.r
    by_trips = amps[::-1]  # entry n: amplitude of slot d - n
    for start in range(first, last + 1, _BIN_BLOCK):
        stop = min(start + _BIN_BLOCK, last + 1)
        trips = np.arange(start - d, stop - 1)
        entered = np.maximum(trips, 0)
        loop = coupling * r**entered * np.exp(-1j * np.multiply.outer(phi, entered))
        loop[..., trips < 0] = 0.0
        amp = sliding_window_view(loop, d, axis=-1) @ by_trips
        yield amp.real**2 + amp.imag**2


def _setting_blocks(cfg: CavityConfig, k: int, last: int) -> Iterator[np.ndarray]:
    """Blocks of per-bin D2 probabilities for every setting, bins d..last."""
    d = cfg.dim
    check_mub_index(d, k)
    phases = TWO_PI * np.arange(d) / d
    return _click_probability_blocks(cfg, mub_state(d, k).amps, d, last, phases)


def windowed_acceptance(cfg: CavityConfig, k: int) -> np.ndarray:
    """Per-bin D2 click probabilities for every setting, shape (d, W).

    Entry [m, N - d] is |<gamma_N|phi_k>|^2 with the loop phase dialled to
    2 pi m / d, for the W = n_prime - d + 1 accepted bins N in [d, n_prime];
    row m sums to P(m|k). This is the direct per-bin sum, independent of
    :func:`total_error_closed_form`. The config's own ``theta`` is ignored.
    Callers that need only the sums use :func:`cutoff_acceptances`, which
    does not hold the (d, W) array.
    """
    out = np.empty((cfg.dim, cfg.n_prime - cfg.dim + 1))
    start = 0
    for block in _setting_blocks(cfg, k, cfg.n_prime):
        out[:, start : start + block.shape[1]] = block
        start += block.shape[1]
    return out


def cutoff_acceptances(
    cfg: CavityConfig, k: int, cutoffs: Sequence[int]
) -> np.ndarray:
    """P(m|k) for every setting m at every window cutoff, shape (len, d).

    Row j sums the rows of :func:`windowed_acceptance` over the bins
    d..cutoffs[j]: one pass over the bins up to the widest cutoff, reading
    the running sums at each cutoff, so temporaries stay one block however
    wide the window is. ``cfg.n_prime`` is not used.
    """
    d = cfg.dim
    for cutoff in cutoffs:
        if cutoff < d:
            raise ValueError(
                f"cutoff {cutoff} precedes the measurement window "
                f"(first accepted bin is {d})"
            )
    out = np.empty((len(cutoffs), d))
    if not cutoffs:
        return out
    offsets = np.asarray(cutoffs) - d  # index of each cutoff's last bin
    running = np.zeros(d)
    start = 0
    for block in _setting_blocks(cfg, k, max(cutoffs)):
        block[:, 0] += running  # the block continues the running sums
        prefix = np.cumsum(block, axis=1)
        stop = start + block.shape[1]
        inside = (offsets >= start) & (offsets < stop)
        out[inside] = prefix[:, offsets[inside] - start].T
        running = prefix[:, -1]
        start = stop
    return out


def setting_acceptances(cfg: CavityConfig, k: int) -> List[float]:
    """P(m|k) over the window [d, n_prime] for every setting m = 0..d-1."""
    return cutoff_acceptances(cfg, k, [cfg.n_prime])[0].tolist()


# Not called in the package; bound for the benchmark's traced run.
def p_m_given_k(cfg: CavityConfig, k: int) -> float:
    """Windowed D2 click probability for Fourier state k at the config's phase."""
    return d2_total_probability(cfg, mub_state(cfg.dim, k))


def error_ratio(probs: Sequence[float], k: int, window_dark: float = 0.0) -> float:
    """Mismatched share of accepted clicks when each setting's window also
    fires on dark mass w (first order, :mod:`imperfections`):

        [ sum_{m != k} P(m|k) + (d-1) w ] / [ sum_m P(m|k) + d w ].

    At w = 0 this is the clean discrimination error.
    """
    total = math.fsum(probs)
    numerator = (total - probs[k]) + (len(probs) - 1) * window_dark
    denominator = total + len(probs) * window_dark
    if denominator == 0.0:
        raise ValueError("zero acceptance and zero dark rate; ratio undefined")
    return numerator / denominator


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
    terms = (math.expm1(j * log_r) * math.expm1((d - j) * log_r) for j in range(1, d))
    return math.fsum(terms) / (d * (1.0 + r**d))


def d2_total_probability(
    cfg: CavityConfig, state: TimeBinState, include_early: bool = False
) -> float:
    """Total D2 detection probability for the given input.

    By default sums the per-bin click probabilities over the accepted
    window [d, n_prime] only. With ``include_early=True`` the inconclusive
    bins 1..d-1 are counted as well, giving the full mass the detector
    sees up to bin n_prime.
    """
    _check_input(cfg, state)
    first = 1 if include_early else cfg.dim
    blocks = _click_probability_blocks(cfg, state.amps, first, cfg.n_prime, cfg.phi)
    return math.fsum(float(block.sum()) for block in blocks)


def projection_fidelity(cfg: CavityConfig, N: int, k: int) -> float:
    """How closely the bin-N projection state matches Fourier state k.

    Independent of N (the N-dependence of the projection state is a global
    scalar) and approaches 1 as the round-trip factor approaches 1 with the
    phase dialled to 2 pi k / d.
    """
    check_mub_index(cfg.dim, k)
    return fidelity(gamma_state(cfg, N), mub_state(cfg.dim, k))


# Exit ports in the order of OutcomeDistribution.sorted_entries ("BACK" <
# "D1" < "D2"), then the still-circulating residual; outcome tables label
# their columns by index into this tuple.
TABLE_PORTS = (Port.BACK, Port.D1, Port.D2, Port.NONE)


@dataclass(frozen=True)
class OutcomeTable:
    """Exit masses of one input state at several loop phases, one row each.

    Column c is the exit (TABLE_PORTS[ports[c]], bins[c]); every row shares
    the layout, which follows :meth:`OutcomeDistribution.sorted_entries`
    with zero-mass slots kept: one upstream column per bin (BACK bins, then
    D1 bins), D2 bins 1..bin_cap, then the residual (NONE, bin 0). Which
    bins reach D1 depends on the input alone, not on the phase.
    """

    ports: np.ndarray
    bins: np.ndarray
    masses: np.ndarray


def outcome_table(
    cfg: CavityConfig, state: TimeBinState, thetas: Sequence[float], bin_cap: int
) -> OutcomeTable:
    """Exit masses over D1, D2 and the backward port for every phase in thetas.

    Runs the bin-by-bin recurrence of :func:`full_outcome_distribution`
    for all phases at once: the loop runs over bins, each step on length
    len(thetas) vectors, writing straight into one preallocated
    (len(thetas), 2 bin_cap + 1) array. Complex products are written out
    in real arithmetic in the same order as Python's complex type, so the
    amplitudes equal the one-phase recurrence's bit for bit; only the
    final squares may round differently (by one unit in the last place).
    The config's own ``theta`` is ignored.
    """
    _check_input(cfg, state)
    if bin_cap < cfg.n_prime:
        raise ValueError(
            f"bin_cap ({bin_cap}) must cover the accepted window "
            f"(n_prime = {cfg.n_prime})"
        )
    d = cfg.dim
    r1, r2, t1, t2 = cfg.r1, cfg.r2, cfg.t1, cfg.t2
    amps = [complex(a) for a in state.amps]  # Python scalars, as in the one-phase loop
    # A bin's upstream exit is the D1 click while an input slot enters and
    # reflects there, otherwise backward leakage.
    reflected = np.zeros(bin_cap, dtype=bool)
    reflected[:d] = (state.amps != 0) & (r1 > 0.0)
    upstream = np.concatenate(  # 0-based bins, in column order
        [np.flatnonzero(~reflected), np.flatnonzero(reflected)]
    )
    upstream_col = np.empty(bin_cap, dtype=np.intp)
    upstream_col[upstream] = np.arange(bin_cap)
    n_back = bin_cap - int(reflected.sum())
    ports = np.repeat(
        np.arange(4, dtype=np.int8), [n_back, bin_cap - n_back, bin_cap, 1]
    )
    bins = np.concatenate([upstream + 1, np.arange(1, bin_cap + 1), [0]])

    # Amplitudes are (real, imaginary) row pairs. A per-phase factor z
    # multiplies a pair c as z_re * c + z_swap * c[::-1], with z_re =
    # (Re z, Re z) and z_swap = (-Im z, Im z): Python's complex product,
    # term for term.
    def factor(values):
        z = np.array(values)
        return np.stack([z.real, z.real]), np.stack([-z.imag, z.imag])

    loop_re, loop_swap = factor(
        [r1 * r2 * cmath.exp(-1j * (theta + math.pi)) for theta in thetas]
    )
    leak_re, leak_swap = factor(
        [1j * t1 * r2 * cmath.exp(-1j * theta) for theta in thetas]
    )
    entering = [np.array([[t1 * a.real], [t1 * a.imag]]) for a in amps]
    reflecting = [np.array([[z.real], [z.imag]]) for z in (1j * r1 * a for a in amps)]

    rows = len(thetas)
    masses = np.empty((rows, 2 * bin_cap + 1))
    circulating = np.zeros((2, rows))
    norm = np.empty(rows)
    for b in range(1, bin_cap + 1):
        leak = leak_re * circulating + leak_swap * circulating[::-1]
        circulating = loop_re * circulating + loop_swap * circulating[::-1]
        if b <= d:
            circulating += entering[b - 1]
            if reflected[b - 1]:
                leak += reflecting[b - 1]
        exit_d2 = t2 * circulating
        np.hypot(exit_d2[0], exit_d2[1], out=norm)
        np.multiply(norm, norm, out=masses[:, bin_cap + b - 1])
        np.hypot(leak[0], leak[1], out=norm)
        np.multiply(norm, norm, out=masses[:, upstream_col[b - 1]])
    np.hypot(circulating[0], circulating[1], out=norm)
    masses[:, -1] = (r2 * norm) ** 2
    return OutcomeTable(ports=ports, bins=bins, masses=masses)


def full_outcome_distribution(
    cfg: CavityConfig, state: TimeBinState, bin_cap: int
) -> OutcomeDistribution:
    """Exit probabilities over D1, D2 and the backward port up to bin_cap.

    Evolves the input bin-by-bin through the two splitters with the
    symmetric phase convention (every reflection contributes pi/2), so the
    map from input amplitudes to exit amplitudes is an isometry and the
    reported masses plus the still-circulating residual sum to one exactly.
    The loop phase is applied with the sign that makes the per-bin D2
    masses equal the literal projection-state probabilities.

    Ports are labelled by provenance: the immediate first reflection of
    slot n appears as (D1, n); backward leakage through the first splitter
    appears as (BACK, bin). When both reach the same bin (superposition
    inputs, bins 2..d) they exit on the same physical line, and their
    coherent combined mass is reported under D1 as an arrival-window click.
    This is the one-phase view of :func:`outcome_table` at ``cfg.theta``;
    zero-mass exits are left out.
    """
    table = outcome_table(cfg, state, [cfg.theta], bin_cap)
    *masses, residual = table.masses[0].tolist()
    entries = {
        (TABLE_PORTS[port], b): mass
        for port, b, mass in zip(table.ports.tolist(), table.bins.tolist(), masses)
        if mass > 0.0
    }
    return OutcomeDistribution(dim=cfg.dim, entries=entries, residual=residual)
