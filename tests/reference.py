"""Independent reference formulas used as oracles by the test suite.

Everything here is written with plain-Python cmath loops, straight from the
model definitions, and deliberately imports nothing from the package under
test. Expected values frozen into tests were produced by these functions.
The sampler's oracle, :func:`sample_frames`, simulates every frame one by
one in law (vectorized over frames with numpy), the algorithm the
count-based sampler replaced.
"""

import cmath
import decimal
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def mub_amplitudes(d, k):
    """Fourier basis state k: slot d - n carries exp(2 pi i n k / d) / sqrt(d)."""
    amps = [0j] * d
    for n in range(d):
        amps[d - n - 1] = cmath.exp(2j * math.pi * n * k / d) / math.sqrt(d)
    return amps


def gamma_amplitudes(d, r1_sq, r2_sq, phi, N):
    """Projection-state amplitudes for a D2 click at bin N >= d."""
    t1t2 = math.sqrt(1 - r1_sq) * math.sqrt(1 - r2_sq)
    r = math.sqrt(r1_sq * r2_sq)
    amps = [0j] * d
    for n in range(d):
        amps[d - n - 1] = (
            t1t2 * r ** (N - d + n) * cmath.exp(1j * (N - d + n) * phi)
        )
    return amps


def inner(a, b):
    return sum(x.conjugate() * y for x, y in zip(a, b))


def window_probability(d, r1_sq, r2_sq, n_prime, m, k):
    """P(m|k): summed projections over the accepted window [d, n_prime]."""
    phi = 2 * math.pi * m / d
    prepared = mub_amplitudes(d, k)
    return sum(
        abs(inner(gamma_amplitudes(d, r1_sq, r2_sq, phi, N), prepared)) ** 2
        for N in range(d, n_prime + 1)
    )


def error_ratio(d, r1_sq, r2_sq, n_prime, k=0):
    """Total discrimination error: mismatched share of windowed acceptance."""
    probs = [window_probability(d, r1_sq, r2_sq, n_prime, m, k) for m in range(d)]
    return (sum(probs) - probs[k]) / sum(probs)


def d2_mass(d, r1_sq, r2_sq, phi, xi, lo, hi):
    """Sum of D2 click probabilities over bins lo..hi, truncated for bins < d."""
    t1t2 = math.sqrt(1 - r1_sq) * math.sqrt(1 - r2_sq)
    r = math.sqrt(r1_sq * r2_sq)
    total = 0.0
    for b in range(lo, hi + 1):
        amp = 0j
        for j in range(1, min(b, d) + 1):
            amp += t1t2 * r ** (b - j) * cmath.exp(-1j * (b - j) * phi) * xi[j - 1]
        total += abs(amp) ** 2
    return total


def closed_form_error(r, d):
    """The paper's closed-form error 1 - (1+r)(1-r^d) / (d (1-r)(1+r^d)),
    evaluated in exact rational arithmetic at the float r (r < 1)."""
    r = Fraction(r)
    return 1 - (1 + r) * (1 - r**d) / (d * (1 - r) * (1 + r**d))


def observed_error(d, r_sq, n_prime, p_dc, k=0):
    """First-order dark-count mixing on top of the clean error ratio."""
    probs = [window_probability(d, r_sq, r_sq, n_prime, m, k) for m in range(d)]
    dark = (n_prime - d + 1) * p_dc
    return ((sum(probs) - probs[k]) + (d - 1) * dark) / (sum(probs) + d * dark)


def accepted_probability(d, r_sq, n_prime, p_dc, k=0):
    """Per-frame accepted-event probability: the mean over settings of the
    windowed acceptance plus the first-order dark mass of the window."""
    probs = [window_probability(d, r_sq, r_sq, n_prime, m, k) for m in range(d)]
    return sum(probs) / d + (n_prime - d + 1) * p_dc


def outcome_masses(d, r1_sq, r2_sq, theta, amps, bin_cap):
    """Exit masses of one input, evolved bin by bin through both splitters.

    Returns ({(port, bin): mass}, residual) with ports "D1", "D2", "BACK";
    zero masses are left out. Symmetric convention: every reflection
    contributes pi/2, the loop multiplies by r1 r2 e^{-i (theta + pi)}.
    """
    r1, r2 = math.sqrt(r1_sq), math.sqrt(r2_sq)
    t1, t2 = math.sqrt(1 - r1_sq), math.sqrt(1 - r2_sq)
    loop = r1 * r2 * cmath.exp(-1j * (theta + math.pi))
    leak_coefficient = 1j * t1 * r2 * cmath.exp(-1j * theta)
    entries = {}
    circulating = 0j
    for b in range(1, bin_cap + 1):
        injected = complex(amps[b - 1]) if b <= d else 0j
        leak = leak_coefficient * circulating
        circulating = t1 * injected + loop * circulating
        d2_mass = abs(t2 * circulating) ** 2
        if d2_mass > 0.0:
            entries[("D2", b)] = d2_mass
        if injected != 0 and r1 > 0.0:
            upstream = abs(1j * r1 * injected + leak) ** 2
            if upstream > 0.0:
                entries[("D1", b)] = upstream
        else:
            back = abs(leak) ** 2
            if back > 0.0:
                entries[("BACK", b)] = back
    return entries, (r2 * abs(circulating)) ** 2


PORTS = ("D1", "D2", "BACK", "NONE")


@dataclass
class SampledFrames:
    """Tallies of :func:`sample_frames`; accepted: D2 inside [d, n_prime]."""

    counts: dict  # (port name, bin) -> frames; ("NONE", 0) for no click
    dark_clicks: int
    setting_accepted: list


def sample_frames(d, r1_sq, r2_sq, thetas, amps, bin_cap, n_prime, p_dc, n, seed):
    """Per-frame oracle of the Monte Carlo sampler, over n frames.

    Each frame draws its setting uniformly over ``thetas``, then its photon
    exit by inverse CDF over that setting's :func:`outcome_masses` (one
    masked ``searchsorted`` per setting), then its first dark bin, a
    geometric variate whose per-bin success is a click on either detector,
    (1 - (1 - p_dc)**2). In that bin one detector fires alone, or both do
    and a fair pick chooses. The earliest click inside ``bin_cap`` wins the
    frame, a photon/dark tie by a fair coin; a photon that reaches no
    detector always loses to a dark click.
    """
    rng = np.random.default_rng(seed)
    settings = rng.integers(0, len(thetas), size=n)
    ports = np.empty(n, dtype=np.int64)
    bins = np.empty(n, dtype=np.int64)
    for m, theta in enumerate(thetas):
        entries, residual = outcome_masses(d, r1_sq, r2_sq, theta, amps, bin_cap)
        keys = sorted(entries) + [("NONE", 0)]
        cdf = np.cumsum([entries[key] for key in keys[:-1]] + [residual])
        mask = settings == m
        u = rng.random(int(mask.sum()))
        cols = np.minimum(np.searchsorted(cdf, u, side="right"), len(keys) - 1)
        ports[mask] = np.array([PORTS.index(port) for port, _ in keys])[cols]
        bins[mask] = np.array([time_bin for _, time_bin in keys])[cols]

    dark_wins = np.zeros(n, dtype=bool)
    if p_dc > 0.0:
        any_dark = 1.0 - (1.0 - p_dc) ** 2
        first_dark = rng.geometric(any_dark, size=n)
        alone = p_dc * (1.0 - p_dc) / any_dark
        fired = rng.choice(3, size=n, p=[alone, alone, 1.0 - 2.0 * alone])
        dark_port = np.where(fired == 2, rng.integers(0, 2, size=n), fired)
        photon_clicks = ports <= PORTS.index("D2")
        coin = rng.random(n) < 0.5
        dark_wins = (first_dark <= bin_cap) & (
            ~photon_clicks
            | (first_dark < bins)
            | ((first_dark == bins) & coin)
        )
        ports[dark_wins] = dark_port[dark_wins]
        bins[dark_wins] = first_dark[dark_wins]

    codes, tallies = np.unique(ports * (bin_cap + 1) + bins, return_counts=True)
    counts = {
        (PORTS[code // (bin_cap + 1)], code % (bin_cap + 1)): tally
        for code, tally in zip(codes.tolist(), tallies.tolist())
    }
    accepted = (ports == PORTS.index("D2")) & (bins >= d) & (bins <= n_prime)
    return SampledFrames(
        counts=counts,
        dark_clicks=int(dark_wins.sum()),
        setting_accepted=np.bincount(
            settings[accepted], minlength=len(thetas)
        ).tolist(),
    )


def _cos_sin(x):
    """cos x and sin x by their Taylor series in the current decimal context."""
    cos, sin = decimal.Decimal(0), decimal.Decimal(0)
    term, n = decimal.Decimal(1), 0
    while True:
        new_cos = cos + term if n % 4 == 0 else cos - term if n % 4 == 2 else cos
        new_sin = sin + term if n % 4 == 1 else sin - term if n % 4 == 3 else sin
        if n > 1 and new_cos == cos and new_sin == sin:
            return cos, sin
        cos, sin = new_cos, new_sin
        n += 1
        term = term * x / n


def d2_mass_decimal(d, r1_sq, r2_sq, phi, xi, lo, hi, digits=50):
    """:func:`d2_mass` in ``digits``-digit decimal arithmetic from the exact
    binary values of the float inputs, bin by bin through the recurrence
    amp_b = r e^{-i phi} amp_{b-1} + t1 t2 xi_b (the input term for b <= d)."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        D = decimal.Decimal
        t1t2 = ((1 - D(r1_sq)) * (1 - D(r2_sq))).sqrt()
        r = (D(r1_sq) * D(r2_sq)).sqrt()
        cos, sin = _cos_sin(D(phi))
        step_re, step_im = r * cos, -r * sin
        re, im, total = D(0), D(0), D(0)
        for b in range(1, hi + 1):
            re, im = step_re * re - step_im * im, step_re * im + step_im * re
            if b <= d:
                x = complex(xi[b - 1])
                re += t1t2 * D(x.real)
                im += t1t2 * D(x.imag)
            if b >= lo:
                total += re * re + im * im
        return float(total)


def window_sum(r1_sq, r2_sq, width, digits=50):
    """sum_{j=0}^{width-1} (r1_sq r2_sq)^j in ``digits``-digit decimal
    arithmetic, from the exact binary values of the float inputs."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        q = decimal.Decimal(r1_sq) * decimal.Decimal(r2_sq)
        return float((1 - q**width) / (1 - q))


def frame_law(d, r1_sq, r2_sq, theta, amps, bin_cap, p_dc):
    """Exact one-frame outcome law with dark counts, by enumeration.

    Every photon exit of :func:`outcome_masses` meets every first dark bin
    f in 1..bin_cap (probability q^(f-1) (1 - q), q = (1 - p_dc)**2) or
    none inside the cap (q^bin_cap), each dark detector with probability
    1/2 and each side of a fair tie coin. The earliest click wins, a tie
    by the coin; a photon that reaches no detector loses to any dark
    click. Returns {(port, bin, dark): probability}, dark True where a
    dark click won, and ("NONE", 0, False) for no click.
    """
    entries, residual = outcome_masses(d, r1_sq, r2_sq, theta, amps, bin_cap)
    photons = list(entries.items()) + [(("NONE", 0), residual)]
    q = (1.0 - p_dc) ** 2
    firsts = [(f, q ** (f - 1) * (1.0 - q)) for f in range(1, bin_cap + 1)]
    firsts.append((None, q**bin_cap))
    law = {}
    for (port, b), mass in photons:
        clicks = port in ("D1", "D2")
        for f, p_first in firsts:
            for detector in ("D1", "D2"):
                for dark_wins_tie in (False, True):
                    photon_wins = f is None or (
                        clicks and (f > b or (f == b and not dark_wins_tie))
                    )
                    key = (port, b, False) if photon_wins else (detector, f, True)
                    law[key] = law.get(key, 0.0) + mass * p_first / 4.0
    return law
