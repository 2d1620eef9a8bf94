"""Value types and exact linear algebra for d-dimensional time-bin states.

A single photon whose arrival time is split into d discrete slots lives in a
d-dimensional Hilbert space spanned by the kets |1>..|d| ("photon in slot n").
This module provides the state container, the discrete-Fourier basis that is
mutually unbiased with respect to arrival time, and the handful of exact
inner-product operations everything else is built on.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

# States flagged as normalized must satisfy sum |amp|^2 = 1 to this tolerance.
NORMALIZATION_ATOL = 1e-12


def check_integer(name: str, value) -> None:
    try:
        operator.index(value)  # numpy integers pass, 4.0 does not
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def check_dimension(d: int) -> None:
    check_integer("dimension", d)
    if d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d}")


def check_mub_index(d: int, k: int) -> None:
    if not 0 <= k <= d - 1:
        raise ValueError(f"basis index {k} out of range 0..{d - 1}")


def _as_amplitude_array(amps) -> np.ndarray:
    arr = np.array(amps, dtype=np.complex128)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("amplitudes must form a non-empty 1-d sequence")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TimeBinState:
    """Amplitudes of a single photon over d time bins.

    Bins are labelled 1..d; ``amps[n - 1]`` is the amplitude of ket |n>.
    Unnormalized states are first-class citizens (the cavity projection
    states are one example) and must carry ``normalized=False``.
    """

    amps: np.ndarray
    normalized: bool

    def __post_init__(self):
        object.__setattr__(self, "amps", _as_amplitude_array(self.amps))
        if self.normalized:
            norm_sq = self.norm_sq()
            if abs(norm_sq - 1.0) > NORMALIZATION_ATOL:
                raise ValueError(
                    f"state flagged normalized but sum |amp|^2 = {norm_sq!r}"
                )

    @property
    def dim(self) -> int:
        return int(self.amps.size)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))


def basis_state(d: int, n: int) -> TimeBinState:
    """Arrival-time basis ket |n> in dimension d."""
    check_dimension(d)
    if not 1 <= n <= d:
        raise ValueError(f"bin {n} out of range 1..{d}")
    amps = np.zeros(d, dtype=np.complex128)
    amps[n - 1] = 1.0
    return TimeBinState(amps, normalized=True)


def mub_state(d: int, k: int) -> TimeBinState:
    """k-th state of the Fourier basis conjugate to arrival time.

    The amplitude on ket |d - n> is exp(2 pi i n k / d) / sqrt(d) for
    n = 0..d-1, so every overlap with an arrival-time ket has squared
    modulus exactly 1/d.
    """
    check_dimension(d)
    check_mub_index(d, k)
    n = np.arange(d)
    amps = np.zeros(d, dtype=np.complex128)
    amps[d - 1 - n] = np.exp(2j * np.pi * n * k / d) / math.sqrt(d)
    return TimeBinState(amps, normalized=True)


def _check_same_dim(a: TimeBinState, b: TimeBinState) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def inner_product(a: TimeBinState, b: TimeBinState) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    _check_same_dim(a, b)
    return complex(np.vdot(a.amps, b.amps))


def verify_mub(d: int) -> float:
    """Largest deviation of |<m|phi_k>|^2 from 1/d over all bins and indices.

    Zero (up to rounding) certifies that the Fourier basis is mutually
    unbiased with respect to arrival time in dimension d.
    """
    check_dimension(d)
    basis = np.stack([mub_state(d, k).amps for k in range(d)])
    deviations = np.abs(np.abs(basis) ** 2 - 1.0 / d)
    return float(deviations.max())


def fidelity(a: TimeBinState, b: TimeBinState) -> float:
    """Normalization-free overlap |<a|b>|^2 / (<a|a><b|b>), in [0, 1].

    Equals 1 exactly when the states are proportional; both arguments must
    have nonzero norm.
    """
    _check_same_dim(a, b)
    norm_a, norm_b = a.norm_sq(), b.norm_sq()
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("fidelity is undefined for zero-norm states")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2 / (norm_a * norm_b))
