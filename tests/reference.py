"""Independent reference formulas used as oracles by the test suite.

Everything here is written with plain-Python cmath loops, straight from the
model definitions, and deliberately imports nothing from the package under
test. Expected values frozen into tests were produced by these functions.
The sampler's lookup oracle is the per-setting numpy ``searchsorted`` loop
that the stacked guide-table lookup replaced.
"""

import cmath
import decimal
import math
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


def masked_lookup(cdf_rows, settings, u):
    """Column searchsorted(cdf_rows[m], u, side="right") of each frame, one
    masked pass over the frames per setting m."""
    cols = np.empty(len(u), dtype=np.int64)
    for m, cdf in enumerate(cdf_rows):
        mask = settings == m
        cols[mask] = np.minimum(
            np.searchsorted(cdf, u[mask], side="right"), cdf.size - 1
        )
    return cols


def window_sum(r1_sq, r2_sq, width, digits=50):
    """sum_{j=0}^{width-1} (r1_sq r2_sq)^j in ``digits``-digit decimal
    arithmetic, from the exact binary values of the float inputs."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        q = decimal.Decimal(r1_sq) * decimal.Decimal(r2_sq)
        return float((1 - q**width) / (1 - q))
