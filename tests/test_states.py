import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_normalized_state
from timebin_cavity import (
    TimeBinState,
    basis_state,
    fidelity,
    inner_product,
    mub_state,
    total_error_closed_form,
    verify_mub,
)

complex_amplitudes = st.lists(
    st.tuples(
        st.floats(-1.0, 1.0, allow_nan=False),
        st.floats(-1.0, 1.0, allow_nan=False),
    ),
    min_size=1,
    max_size=8,
).map(lambda pairs: [complex(re, im) for re, im in pairs])

nonzero_scalars = st.tuples(
    st.floats(0.05, 5.0, allow_nan=False),
    st.floats(0.0, 2.0 * math.pi, allow_nan=False),
).map(lambda ra: ra[0] * complex(math.cos(ra[1]), math.sin(ra[1])))


def _nonzero(amps):
    return sum(abs(a) ** 2 for a in amps) > 1e-6


class TestTimeBinState:
    def test_dim_tracks_amplitude_count(self):
        state = TimeBinState([1.0, 0.0, 0.0], normalized=True)
        assert state.dim == 3

    def test_normalized_flag_is_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            TimeBinState([1.0, 1.0], normalized=True)

    def test_unnormalized_states_are_allowed(self):
        state = TimeBinState([0.5, 0.25], normalized=False)
        assert state.norm_sq() == pytest.approx(0.3125)

    def test_amplitudes_are_read_only(self):
        state = basis_state(3, 1)
        with pytest.raises(ValueError):
            state.amps[0] = 5.0

    def test_bin_n_is_amps_index_n_minus_one(self):
        state = TimeBinState([0.6, 0.8], normalized=True)
        assert state.amps[1 - 1] == 0.6
        assert state.amps[2 - 1] == 0.8

    def test_empty_amplitudes_rejected(self):
        with pytest.raises(ValueError):
            TimeBinState([], normalized=False)


class TestMubState:
    def test_single_bin_identity(self):
        state = mub_state(1, 0)
        assert state.amps[1 - 1] == pytest.approx(1.0)
        assert state.normalized

    def test_two_bin_signs(self):
        state = mub_state(2, 1)
        root_half = 1.0 / math.sqrt(2.0)
        assert state.amps[2 - 1] == pytest.approx(root_half)
        assert state.amps[1 - 1] == pytest.approx(-root_half)

    def test_fourth_root_of_unity(self):
        # n = 1 term of the d = 4, k = 1 state lands on bin 3 with phase i
        assert abs(mub_state(4, 1).amps[3 - 1] - 0.5j) < 1e-15

    def test_invalid_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            mub_state(0, 0)

    @pytest.mark.parametrize("k", [-1, 4, 7])
    def test_index_out_of_range(self, k):
        with pytest.raises(ValueError, match="out of range"):
            mub_state(4, k)


class TestInnerProduct:
    def test_self_overlap_is_one(self):
        phi = mub_state(8, 0)
        assert inner_product(phi, phi) == pytest.approx(1.0)

    def test_distinct_basis_states_are_orthogonal(self):
        assert abs(inner_product(mub_state(2, 0), mub_state(2, 1))) < 1e-14

    @pytest.mark.parametrize("d,k", [(2, 1), (3, 0), (5, 4), (16, 7)])
    def test_latest_bin_overlap(self, d, k):
        # only the zero-trip term of the Fourier state reaches |d>
        value = inner_product(basis_state(d, d), mub_state(d, k))
        assert value == pytest.approx(1.0 / math.sqrt(d))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            inner_product(basis_state(2, 1), basis_state(3, 1))

    @given(amps=complex_amplitudes, scalar=nonzero_scalars)
    @settings(max_examples=50)
    def test_conjugate_linear_in_first_argument(self, amps, scalar):
        if not _nonzero(amps):
            return
        a = TimeBinState(amps, normalized=False)
        b = TimeBinState(list(reversed(amps)), normalized=False)
        scaled = TimeBinState([scalar * z for z in amps], normalized=False)
        assert inner_product(scaled, b) == pytest.approx(
            scalar.conjugate() * inner_product(a, b), abs=1e-12
        )


class TestOverlapProbability:
    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_unbiased_against_every_bin(self, d):
        for m in range(1, d + 1):
            for k in range(d):
                value = abs(inner_product(basis_state(d, m), mub_state(d, k))) ** 2
                assert value == pytest.approx(1.0 / d, abs=1e-14)

    def test_self_overlap(self):
        value = abs(inner_product(mub_state(5, 2), mub_state(5, 2))) ** 2
        assert value == pytest.approx(1.0)

    def test_orthogonal_bins(self):
        assert abs(inner_product(basis_state(4, 1), basis_state(4, 2))) ** 2 == 0.0

    @given(amps=complex_amplitudes)
    @settings(max_examples=50)
    def test_symmetric_under_swap(self, amps):
        a = TimeBinState(amps, normalized=False)
        b = TimeBinState([z * 1j for z in reversed(amps)], normalized=False)
        assert abs(inner_product(a, b)) ** 2 == pytest.approx(
            abs(inner_product(b, a)) ** 2, abs=1e-13
        )


class TestVerifyMub:
    def test_trivial_dimension(self):
        assert verify_mub(1) == 0.0

    def test_qubit(self):
        assert verify_mub(2) < 1e-14

    def test_large_dimension(self):
        assert verify_mub(64) < 1e-12

    def test_all_dimensions_up_to_128(self):
        assert max(verify_mub(d) for d in range(1, 129)) < 1e-12

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            verify_mub(0)


# Every library function that takes d without a CavityConfig.
DIMENSION_CALLS = {
    "mub_state": lambda d: mub_state(d, 1).amps.tolist(),
    "basis_state": lambda d: basis_state(d, 2).amps.tolist(),
    "verify_mub": verify_mub,
    "total_error_closed_form": lambda d: total_error_closed_form(0.5, d),
}


@pytest.mark.parametrize("value", [4.0, np.float64(4)], ids=["float", "numpy-float"])
@pytest.mark.parametrize("name", sorted(DIMENSION_CALLS))
def test_dimension_must_be_an_integer(name, value):
    # a float d got past the positivity check and failed with numpy's or
    # range's TypeError
    with pytest.raises(ValueError, match="dimension must be an integer"):
        DIMENSION_CALLS[name](value)


@pytest.mark.parametrize("name", sorted(DIMENSION_CALLS))
def test_numpy_integer_dimension_passes(name):
    call = DIMENSION_CALLS[name]
    assert call(np.int64(4)) == call(4)


def test_fourier_basis_is_orthonormal_up_to_128():
    for d in range(1, 129):
        basis = np.stack([mub_state(d, k).amps for k in range(d)])
        gram = basis @ basis.conj().T
        assert np.max(np.abs(gram - np.eye(d))) < 1e-12


class TestFidelity:
    @given(amps=complex_amplitudes, scalar=nonzero_scalars)
    @settings(max_examples=50)
    def test_invariant_under_scaling(self, amps, scalar):
        if not _nonzero(amps):
            return
        a = TimeBinState(amps, normalized=False)
        scaled = TimeBinState([scalar * z for z in amps], normalized=False)
        assert fidelity(a, scaled) == pytest.approx(1.0, abs=1e-10)
        rng = np.random.default_rng(0)
        other = random_normalized_state(rng, a.dim)
        assert fidelity(scaled, other) == pytest.approx(
            fidelity(a, other), abs=1e-10
        )

    def test_orthogonal_bins(self):
        assert fidelity(basis_state(3, 1), basis_state(3, 2)) == 0.0

    @pytest.mark.parametrize("d", [2, 5, 16])
    def test_fourier_state_against_latest_bin(self, d):
        assert fidelity(mub_state(d, 0), basis_state(d, d)) == pytest.approx(1.0 / d)

    def test_zero_norm_rejected(self):
        zero = TimeBinState([0.0, 0.0], normalized=False)
        with pytest.raises(ValueError, match="zero-norm"):
            fidelity(zero, basis_state(2, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(basis_state(2, 1), basis_state(4, 1))
