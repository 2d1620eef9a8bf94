import json

import numpy as np
from hypothesis import strategies as st

from timebin_cavity import TimeBinState, TradeoffPoint
from timebin_cavity.cli import SWEEP_COLUMNS, TRADEOFF_COLUMNS, SweepRow


def random_normalized_state(rng, d):
    z = rng.normal(size=d) + 1j * rng.normal(size=d)
    return TimeBinState(z / np.linalg.norm(z), normalized=True)


def within_binomial_error(observed_freq, p, n, sigmas=5.0):
    sigma = np.sqrt(max(p * (1.0 - p), 1e-300) / n)
    return abs(observed_freq - p) <= sigmas * sigma


def within_two_sample_error(count_a, n_a, count_b, n_b, sigmas=5.0):
    """Two binomial counts agree: their frequencies differ by at most
    ``sigmas`` standard errors of the difference under the pooled rate."""
    p = (count_a + count_b) / (n_a + n_b)
    sigma = np.sqrt(max(p * (1.0 - p), 1e-300) * (1.0 / n_a + 1.0 / n_b))
    return abs(count_a / n_a - count_b / n_b) <= sigmas * sigma


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


def _parse_rows(text, fmt, row_type, columns, int_columns=()):
    rows = []
    if fmt == "csv":
        lines = [ln for ln in text.splitlines() if ln]
        if not lines or tuple(lines[0].split(",")) != tuple(columns):
            raise ValueError("unexpected header row")
        for line in lines[1:]:
            cells = line.split(",")
            kwargs = {
                c: int(cell) if c in int_columns else float(cell)
                for c, cell in zip(columns, cells)
            }
            rows.append(row_type(**kwargs))
    else:
        for item in json.loads(text):
            rows.append(row_type(**item))
    return rows


def parse_sweep(text, fmt):
    """Rows of ``error-sweep`` output in csv or json, as SweepRow."""
    return _parse_rows(text, fmt, SweepRow, SWEEP_COLUMNS)


def parse_tradeoff(text, fmt):
    """Rows of ``tradeoff`` output in csv or json, as TradeoffPoint."""
    return _parse_rows(
        text, fmt, TradeoffPoint, TRADEOFF_COLUMNS, int_columns=("n_prime",)
    )
