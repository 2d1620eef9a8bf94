import numpy as np
from hypothesis import strategies as st

from timebin_cavity import TimeBinState


def random_normalized_state(rng, d):
    z = rng.normal(size=d) + 1j * rng.normal(size=d)
    return TimeBinState(z / np.linalg.norm(z), normalized=True)


def within_binomial_error(observed_freq, p, n, sigmas=5.0):
    sigma = np.sqrt(max(p * (1.0 - p), 1e-300) / n)
    return abs(observed_freq - p) <= sigmas * sigma


def retry_once(check, seeds):
    """Run a seeded statistical check with the one-rerun flakiness budget.

    ``check(seed)`` must return True on success; the second fixed seed is
    only consulted when the first fails.
    """
    first, second = seeds
    if check(first):
        return True
    return check(second)


@st.composite
def window_cases(draw):
    """Random (d <= 24, round-trip factor r in [0, 0.999), n' in [d, 6d], k).

    For equal splitters the round-trip factor equals |R|^2, so ``r`` is
    used as both intensity reflectivities.
    """
    d = draw(st.integers(1, 24))
    r = draw(st.floats(0.0, 0.999, exclude_max=True))
    n_prime = draw(st.integers(d, 6 * d))
    k = draw(st.integers(0, d - 1))
    return d, r, n_prime, k
