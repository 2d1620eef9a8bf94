import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import random_normalized_state, window_cases
from timebin_cavity import (
    CavityConfig,
    TimeBinState,
    basis_state,
    cutoff_acceptances,
    d1_bin_probability,
    d2_bin_probability,
    d2_total_probability,
    full_outcome_distribution,
    gamma_state,
    mub_state,
    p_m_given_k,
    projection_fidelity,
    setting_acceptances,
    theta_for_outcome,
    total_error,
    total_error_closed_form,
)
from timebin_cavity import cavity
from timebin_cavity.cavity import TABLE_PORTS, error_ratio, outcome_table


def symmetric_config(d, r_sq, k=0, n_prime=None):
    """Equal splitters dialled to outcome k; round-trip factor equals r_sq."""
    return CavityConfig(
        dim=d,
        r1_sq=r_sq,
        r2_sq=r_sq,
        theta=theta_for_outcome(d, k),
        n_prime=n_prime if n_prime is not None else 2 * d,
    )


class TestPhaseHelpers:
    """theta_for_outcome(d, m) + pi is the round-trip phase 2 pi m / d."""

    def test_zero_setting(self):
        assert theta_for_outcome(4, 0) + math.pi == 0.0

    def test_half_turn(self):
        assert theta_for_outcome(4, 2) + math.pi == pytest.approx(math.pi)

    def test_three_sixteenths(self):
        assert theta_for_outcome(16, 3) + math.pi == pytest.approx(3.0 * math.pi / 8.0)

    def test_theta_compensates_reflection_phases(self):
        for d, m in [(2, 1), (5, 3), (16, 9)]:
            assert symmetric_config(d, 0.5, k=m).phi == pytest.approx(
                2.0 * math.pi * m / d
            )

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            theta_for_outcome(4, 4)


class TestCavityConfig:
    @pytest.mark.parametrize("field,value", [("r1_sq", 1.0), ("r2_sq", -0.1)])
    def test_reflectivity_bounds(self, field, value):
        kwargs = dict(dim=4, r1_sq=0.5, r2_sq=0.5, theta=0.0, n_prime=4)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            CavityConfig(**kwargs)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_theta_must_be_finite(self, theta):
        # a non-finite phase made every exit mass nan, and a run failed deep
        # inside numpy's multinomial
        with pytest.raises(ValueError, match="theta must be finite"):
            CavityConfig(dim=4, r1_sq=0.5, r2_sq=0.5, theta=theta, n_prime=4)

    @pytest.mark.parametrize(
        "field,value",
        [("dim", 4.0), ("dim", np.float64(4)), ("n_prime", 6.5)],
        ids=["dim-float", "dim-numpy-float", "n_prime-float"],
    )
    def test_counts_must_be_integers(self, field, value):
        # a float count built, then failed with a TypeError deep inside
        # mub_state or the sampler's table build
        kwargs = dict(dim=4, r1_sq=0.5, r2_sq=0.5, theta=0.0, n_prime=8)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            CavityConfig(**kwargs)

    def test_numpy_integer_counts_pass(self):
        cfg = CavityConfig(np.int64(4), 0.5, 0.5, 0.0, np.int32(8))
        assert (cfg.dim, cfg.n_prime) == (4, 8)

    def test_n_prime_is_checked_after_theta(self):
        with pytest.raises(ValueError, match="theta must be finite"):
            CavityConfig(dim=4, r1_sq=0.5, r2_sq=0.5, theta=math.nan, n_prime=6.5)

    def test_window_must_cover_all_slots(self):
        with pytest.raises(ValueError, match="n_prime"):
            CavityConfig(dim=4, r1_sq=0.5, r2_sq=0.5, theta=0.0, n_prime=3)

    @pytest.mark.parametrize("p_dc", [-1e-9, 1.0, math.nan])
    def test_dark_count_rate_bounds(self, p_dc):
        with pytest.raises(ValueError, match=r"dark-count probability .* \[0, 1\)"):
            CavityConfig(4, 0.5, 0.5, 0.0, 8, p_dc)

    def test_dark_count_rate_is_checked_after_n_prime(self):
        with pytest.raises(ValueError, match="n_prime"):
            CavityConfig(4, 0.5, 0.5, 0.0, 3, p_dc=1.0)

    def test_copies_keep_the_dark_count_rate(self):
        assert symmetric_config(4, 0.5).p_dc == 0.0
        cfg = CavityConfig(4, 0.5, 0.5, 0.0, 8, p_dc=1e-4)
        assert replace(cfg, theta=1.0, n_prime=12).p_dc == 1e-4
        assert [cfg.for_outcome(m).p_dc for m in range(4)] == [1e-4] * 4

    def test_lossless_splitters(self):
        cfg = symmetric_config(4, 0.3)
        assert cfg.t1**2 + cfg.r1**2 == pytest.approx(1.0)
        assert cfg.t2**2 + cfg.r2**2 == pytest.approx(1.0)

    def test_round_trip_factor(self):
        cfg = CavityConfig(dim=2, r1_sq=0.5, r2_sq=0.72, theta=0.25, n_prime=4)
        assert cfg.r == pytest.approx(math.sqrt(0.5 * 0.72))
        assert cfg.phi == pytest.approx((0.25 + math.pi) % (2.0 * math.pi))


class TestGammaState:
    def test_transparent_splitters_collapse_to_latest_bin(self):
        cfg = CavityConfig(dim=3, r1_sq=0.0, r2_sq=0.0, theta=0.7, n_prime=3)
        state = gamma_state(cfg, 3)
        assert not state.normalized
        np.testing.assert_allclose(state.amps, [0.0, 0.0, 1.0], atol=1e-15)

    def test_termwise_two_bin_example(self):
        cfg = symmetric_config(2, 0.5)  # phase dialled to zero
        state = gamma_state(cfg, 2)
        np.testing.assert_allclose(state.amps, [0.25, 0.5], atol=1e-12)

    def test_prefactor_recursion_in_click_bin(self):
        cfg = symmetric_config(2, 0.5, n_prime=4)
        later = gamma_state(cfg, 3)
        np.testing.assert_allclose(later.amps, 0.5 * gamma_state(cfg, 2).amps, atol=1e-15)

    @pytest.mark.parametrize("r_sq,theta", [(0.3, 0.9), (0.81, -1.2), (0.05, 2.4)])
    def test_norm_scales_by_round_trip_factor(self, r_sq, theta):
        cfg = CavityConfig(dim=5, r1_sq=r_sq, r2_sq=0.6, theta=theta, n_prime=40)
        r = cfg.r
        for N in range(5, 12):
            ratio = math.sqrt(gamma_state(cfg, N + 1).norm_sq())
            ratio /= math.sqrt(gamma_state(cfg, N).norm_sq())
            assert ratio == pytest.approx(r, rel=1e-13)

    def test_matches_reference_amplitudes(self):
        cfg = CavityConfig(dim=4, r1_sq=0.8, r2_sq=0.65, theta=0.37, n_prime=9)
        expected = reference.gamma_amplitudes(
            4, 0.8, 0.65, (0.37 + math.pi) % (2 * math.pi), 7
        )
        np.testing.assert_allclose(gamma_state(cfg, 7).amps, expected, atol=1e-14)

    def test_window_violation(self):
        with pytest.raises(ValueError, match="window"):
            gamma_state(symmetric_config(4, 0.5), 3)

    def test_bin_must_be_an_integer(self):
        # bin 5.5 gave a state between two bins' powers of r
        cfg = symmetric_config(4, 0.5, n_prime=8)
        with pytest.raises(ValueError, match="bin must be an integer"):
            gamma_state(cfg, 5.5)
        with pytest.raises(ValueError, match="bin must be an integer"):
            d2_bin_probability(cfg, mub_state(4, 0), 5.5)
        np.testing.assert_array_equal(
            gamma_state(cfg, np.int64(5)).amps, gamma_state(cfg, 5).amps
        )


class TestD2BinProbability:
    def test_matched_two_bin_example(self):
        cfg = symmetric_config(2, 0.5)
        value = d2_bin_probability(cfg, mub_state(2, 0), 2)
        assert value == pytest.approx(0.28125, abs=1e-12)

    @pytest.mark.parametrize("d,r_sq", [(3, 0.5), (5, 0.9)])
    def test_earliest_bin_needs_full_circulation(self, d, r_sq):
        cfg = symmetric_config(d, r_sq)
        expected = (1.0 - r_sq) ** 2 * r_sq ** (2 * (d - 1))
        assert d2_bin_probability(cfg, basis_state(d, 1), d) == pytest.approx(expected)

    def test_transparent_limit_is_unbiased(self):
        cfg = CavityConfig(dim=4, r1_sq=0.0, r2_sq=0.0, theta=0.0, n_prime=4)
        assert d2_bin_probability(cfg, mub_state(4, 0), 4) == pytest.approx(0.25)

    def test_requires_normalized_input(self):
        cfg = symmetric_config(2, 0.5)
        with pytest.raises(ValueError, match="normalized"):
            d2_bin_probability(cfg, gamma_state(cfg, 2), 2)


class TestD1BinProbability:
    def test_delta_input_reflects_once(self):
        cfg = CavityConfig(dim=4, r1_sq=0.99, r2_sq=0.5, theta=0.0, n_prime=4)
        assert d1_bin_probability(cfg, basis_state(4, 3), 3) == pytest.approx(0.99)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fourier_input_is_uniform(self, n):
        cfg = symmetric_config(4, 0.36)
        value = d1_bin_probability(cfg, mub_state(4, 2), n)
        assert value == pytest.approx(0.36 / 4.0)

    def test_no_reflection_no_clicks(self):
        cfg = CavityConfig(dim=4, r1_sq=0.0, r2_sq=0.5, theta=0.0, n_prime=4)
        assert d1_bin_probability(cfg, mub_state(4, 1), 2) == 0.0

    def test_is_the_first_reflection_not_the_table_column(self):
        # From bin 2 on the table's D1 column adds the backward leakage of
        # the circulating light coherently; bin 1 has none yet.
        cfg = symmetric_config(4, 0.8, k=1)
        state = mub_state(4, 1)
        d1 = full_outcome_distribution(cfg, state, 16).masses[0, :4]
        assert d1_bin_probability(cfg, state, 2) == pytest.approx(0.2)
        assert d1[0] == pytest.approx(0.2)
        assert d1[1] == pytest.approx(0.128)

    def test_bin_out_of_range(self):
        cfg = symmetric_config(4, 0.5)
        with pytest.raises(ValueError, match="arrival window"):
            d1_bin_probability(cfg, mub_state(4, 0), 5)


class TestWindowedAcceptance:
    def test_matched_setting_frozen_value(self):
        cfg = symmetric_config(2, 0.5, n_prime=3)
        assert p_m_given_k(cfg, 0) == pytest.approx(0.3515625, abs=1e-12)

    def test_mismatched_setting_frozen_value(self):
        cfg = symmetric_config(2, 0.5, n_prime=3).for_outcome(1)
        assert p_m_given_k(cfg, 0) == pytest.approx(0.0390625, abs=1e-12)

    def test_no_recirculation_is_setting_independent(self):
        # r = 0 through r1_sq = 0 with partially reflective second splitter
        cfg = CavityConfig(dim=3, r1_sq=0.0, r2_sq=0.3, theta=0.0, n_prime=3)
        expected = (1.0 - 0.3) / 3.0
        for m in range(3):
            for k in range(3):
                assert p_m_given_k(cfg.for_outcome(m), k) == pytest.approx(expected)

    def test_agrees_with_reference(self):
        for m in range(4):
            cfg = symmetric_config(4, 0.7, n_prime=11).for_outcome(m)
            assert p_m_given_k(cfg, 2) == pytest.approx(
                reference.window_probability(4, 0.7, 0.7, 11, m, 2), abs=1e-13
            )


def per_bin_acceptances(cfg, k):
    """Per-bin D2 probabilities over [d, n_prime], shape (W, d), as the
    differences of the kernel's acceptances at every cutoff."""
    state = mub_state(cfg.dim, k)
    sums = cutoff_acceptances(cfg, state, range(cfg.dim, cfg.n_prime + 1))
    return np.diff(sums, axis=0, prepend=0.0)


near_unity_r_sq = st.one_of(
    st.floats(0.0, 0.999),
    st.floats(1e-9, 1e-3).map(lambda gap: 1.0 - gap),
)


@st.composite
def long_window_cases(draw):
    """(d <= 4, r_sq up to 1 - 1e-9, two cutoffs up to d + 3000, k)."""
    d = draw(st.integers(1, 4))
    r_sq = draw(near_unity_r_sq)
    cutoffs = draw(st.lists(st.integers(d, d + 3000), min_size=2, max_size=2))
    return d, r_sq, cutoffs, draw(st.integers(0, d - 1))


# pocketfft takes other code paths at prime and odd composite lengths than
# at the powers of two and small d the other cases draw.
FFT_PATH_DIMS = [61, 97, 127, 243]


class TestWindowedAcceptanceKernel:
    @given(case=window_cases())
    @example(case=(2, 0.5, 3, 0))  # the frozen two-bin values below
    @example(case=(5, 0.0, 15, 1))  # no recirculation
    @example(case=(7, 0.8, 7, 6))  # one-bin window, n' == d
    @settings(max_examples=50, deadline=None)
    def test_rows_match_reference_and_per_bin_probabilities(self, case):
        d, r, n_prime, k = case
        cfg = symmetric_config(d, r, n_prime=n_prime)
        per_bin = per_bin_acceptances(cfg, k)
        assert per_bin.shape == (n_prime - d + 1, d)
        rows = setting_acceptances(cfg, k)
        prepared = mub_state(d, k)
        for m in range(d):
            expected = [
                d2_bin_probability(cfg.for_outcome(m), prepared, N)
                for N in range(d, n_prime + 1)
            ]
            np.testing.assert_allclose(per_bin[:, m], expected, rtol=0, atol=1e-13)
            assert abs(rows[m] - math.fsum(expected)) <= 1e-13
            oracle = reference.window_probability(d, r, r, n_prime, m, k)
            assert abs(rows[m] - oracle) <= 1e-13

    @given(case=long_window_cases())
    @settings(max_examples=15, deadline=None)
    def test_long_windows_match_reference(self, case):
        # Near r = 1 every P(m|k) is small, so the gap is measured against
        # the row's total over settings rather than in absolute terms.
        d, r_sq, cutoffs, k = case
        sums = cutoff_acceptances(symmetric_config(d, r_sq), mub_state(d, k), cutoffs)
        for row, cutoff in zip(sums, cutoffs):
            oracle = [
                reference.window_probability(d, r_sq, r_sq, cutoff, m, k)
                for m in range(d)
            ]
            assert np.max(np.abs(row - oracle)) <= 1e-13 * math.fsum(oracle)

    @given(
        d=st.sampled_from(FFT_PATH_DIMS),
        r_sq=near_unity_r_sq,
        extra=st.integers(0, 2),
        data=st.data(),
    )
    @example(d=243, r_sq=0.0, extra=0, data=None)
    @example(d=127, r_sq=1.0 - 1e-9, extra=2, data=None)
    @settings(max_examples=8, deadline=None)
    def test_fft_lengths_match_reference(self, d, r_sq, extra, data):
        # the long-window tolerance: near r = 1 every P(m|k) is small
        k = data.draw(st.integers(0, d - 1)) if data else d // 3
        cutoff = d + extra
        cfg = symmetric_config(d, r_sq)
        (row,) = cutoff_acceptances(cfg, mub_state(d, k), [cutoff])
        oracle = [
            reference.window_probability(d, r_sq, r_sq, cutoff, m, k)
            for m in range(d)
        ]
        assert np.max(np.abs(row - oracle)) <= 1e-13 * math.fsum(oracle)

    @pytest.mark.parametrize("r_sq", [0.999999, 1.0 - 1e-9])
    def test_window_sum_matches_decimal_oracle(self, r_sq):
        # The bin-d probability times sum_{j<W} (r1^2 r2^2)^j: the ratio of
        # the one-bin and W-bin rows is that sum, at the d = 2 size cap.
        width = 2097149
        cfg = symmetric_config(2, r_sq)
        one_bin, window = cutoff_acceptances(cfg, mub_state(2, 0), [2, 2 + width - 1])
        expected = reference.window_sum(r_sq, r_sq, width)
        assert window[0] / one_bin[0] == pytest.approx(expected, rel=1e-14)

    def test_two_bin_frozen_values(self):
        per_bin = per_bin_acceptances(symmetric_config(2, 0.5, n_prime=3), 0)
        np.testing.assert_allclose(
            per_bin.T, [[0.28125, 0.0703125], [0.03125, 0.0078125]], atol=1e-15
        )

    @pytest.mark.parametrize("d", [1, 2, 7])
    def test_single_bin_window(self, d):
        cfg = symmetric_config(d, 0.8, n_prime=d)
        acceptance = cutoff_acceptances(cfg, mub_state(d, d - 1), [d])
        assert acceptance.shape == (1, d)
        for m in range(d):
            assert acceptance[0, m] == pytest.approx(
                reference.window_probability(d, 0.8, 0.8, d, m, d - 1), abs=1e-13
            )

    @pytest.mark.parametrize("d", [2, 5])
    def test_no_recirculation_clicks_once_uniformly(self, d):
        per_bin = per_bin_acceptances(symmetric_config(d, 0.0, n_prime=3 * d), 1)
        expected = np.zeros((2 * d + 1, d))
        expected[0] = 1.0 / d
        np.testing.assert_allclose(per_bin, expected, rtol=0, atol=1e-15)

    def test_invalid_prepared_index(self):
        with pytest.raises(ValueError, match="out of range"):
            setting_acceptances(symmetric_config(4, 0.5), 4)


class TestCutoffAcceptances:
    def test_each_row_depends_only_on_its_cutoff(self):
        d = 3
        cfg = symmetric_config(d, 0.995)
        every = cutoff_acceptances(cfg, mub_state(d, 1), range(d, d + 701))
        cutoffs = [d + 700, d, d + 255, d + 256, d + 257, d + 511, d + 512, d + 255]
        sums = cutoff_acceptances(cfg, mub_state(d, 1), cutoffs)
        assert sums.shape == (len(cutoffs), d)
        np.testing.assert_array_equal(sums, every[np.array(cutoffs) - d])

    def test_setting_acceptances_are_the_row_sums(self):
        cfg = symmetric_config(5, 0.9, n_prime=40)
        for k in (0, 3):
            rows = [
                math.fsum(
                    d2_bin_probability(cfg.for_outcome(m), mub_state(5, k), N)
                    for N in range(5, 41)
                )
                for m in range(5)
            ]
            np.testing.assert_allclose(
                setting_acceptances(cfg, k), rows, rtol=0, atol=1e-13
            )

    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 16),
        r1_sq=st.floats(0.0, 0.999),
        r2_sq=st.floats(0.0, 0.999),
        widths=st.lists(st.integers(0, 80), min_size=1, max_size=3),
    )
    @example(seed=0, d=2, r1_sq=0.0, r2_sq=0.0, widths=[0])
    @settings(max_examples=40, deadline=None)
    def test_any_state_matches_reference_mass(self, seed, d, r1_sq, r2_sq, widths):
        # The kernel transforms whatever amplitudes it is given: for a
        # random superposition, each row is the D2 mass over the bins
        # d..cutoff at phase 2 pi m / d, to the Fourier-input tolerance.
        state = random_normalized_state(np.random.default_rng(seed), d)
        cutoffs = [d + width for width in widths]
        cfg = CavityConfig(d, r1_sq, r2_sq, 0.0, max(cutoffs))
        rows = cutoff_acceptances(cfg, state, cutoffs)
        assert rows.shape == (len(cutoffs), d)
        amps = list(state.amps)
        for row, cutoff in zip(rows, cutoffs):
            expected = [
                reference.d2_mass(d, r1_sq, r2_sq, 2 * math.pi * m / d, amps, d, cutoff)
                for m in range(d)
            ]
            np.testing.assert_allclose(row, expected, rtol=0, atol=1e-13)

    def test_input_must_be_normalized_and_of_the_config_dimension(self):
        cfg = symmetric_config(4, 0.5)
        unnormalized = TimeBinState(np.ones(4), normalized=False)
        with pytest.raises(ValueError, match="must be normalized"):
            cutoff_acceptances(cfg, unnormalized, [8])
        with pytest.raises(ValueError, match="dimension mismatch"):
            cutoff_acceptances(cfg, mub_state(3, 0), [8])

    def test_cutoff_before_the_window_is_rejected(self):
        with pytest.raises(ValueError, match="precedes"):
            cutoff_acceptances(symmetric_config(4, 0.5), mub_state(4, 0), [8, 3])

    @pytest.mark.parametrize("cutoff", [12.7, math.nan, np.float64(12)])
    def test_cutoff_must_be_an_integer(self, cutoff):
        # 12.7 gave a 9.7-bin window sum, and nan a row of nan
        cfg, state = symmetric_config(4, 0.5), mub_state(4, 0)
        with pytest.raises(ValueError, match="cutoff must be an integer"):
            cutoff_acceptances(cfg, state, [8, cutoff])

    def test_numpy_integer_cutoffs_pass(self):
        cfg, state = symmetric_config(4, 0.5), mub_state(4, 0)
        np.testing.assert_array_equal(
            cutoff_acceptances(cfg, state, [np.int64(8), np.int32(12)]),
            cutoff_acceptances(cfg, state, [8, 12]),
        )

    def test_no_cutoffs(self):
        cfg = symmetric_config(4, 0.5)
        assert cutoff_acceptances(cfg, mub_state(4, 0), []).shape == (0, 4)

    def test_temporaries_do_not_grow_with_the_window(self):
        d = 32

        def peak(n_prime):
            cfg = symmetric_config(d, 0.9, n_prime=n_prime)
            tracemalloc.start()
            try:
                setting_acceptances(cfg, 0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(d + 2 * 256), peak(d + 40 * 256)
        assert long < 1.2 * short


class TestTotalError:
    def test_two_bin_spot_value(self):
        assert total_error(symmetric_config(2, 0.5)) == pytest.approx(0.1, abs=1e-12)

    def test_uniform_outcomes_without_recirculation(self):
        for d in (2, 3, 8):
            cfg = CavityConfig(dim=d, r1_sq=0.0, r2_sq=0.0, theta=0.0, n_prime=d)
            assert total_error(cfg) == pytest.approx((d - 1) / d, abs=1e-12)

    def test_sixteen_bin_frozen_value(self):
        cfg = symmetric_config(16, 0.9, n_prime=48)
        assert total_error(cfg) == pytest.approx(0.18379127246930158, abs=1e-12)

    def test_agrees_with_reference_oracle(self):
        for d, r_sq in [(2, 0.25), (3, 0.6), (5, 0.85)]:
            cfg = symmetric_config(d, r_sq)
            assert total_error(cfg) == pytest.approx(
                reference.error_ratio(d, r_sq, r_sq, 2 * d), abs=1e-13
            )

    @pytest.mark.parametrize("d", [2, 4])
    def test_independent_of_prepared_state(self, d):
        cfg = symmetric_config(d, 0.7)
        values = [total_error(cfg, k) for k in range(d)]
        assert max(values) - min(values) < 1e-12

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("r_sq", [0.1, 0.5, 0.9])
    def test_independent_of_window_cutoff(self, d, r_sq):
        errors = [
            total_error(symmetric_config(d, r_sq, n_prime=n)) for n in (d, 2 * d, 10 * d)
        ]
        assert max(errors) - min(errors) < 1e-12


class TestTotalErrorClosedForm:
    def test_two_bin_spot_value(self):
        assert total_error_closed_form(0.5, 2) == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 7, 64])
    def test_no_recirculation(self, d):
        assert total_error_closed_form(0.0, d) == pytest.approx((d - 1) / d)

    def test_high_reflectivity_tail(self):
        assert total_error_closed_form(0.999, 16) < 0.002

    def test_domain_error_at_unity(self):
        with pytest.raises(ValueError, match="limit"):
            total_error_closed_form(1.0, 16)

    def test_limit_is_stated_in_domain_error(self):
        with pytest.raises(ValueError, match="r -> 1 limit of the error is 0"):
            total_error_closed_form(1.0, 16)

    def test_matches_brute_force_on_grid(self):
        for d in (2, 3, 8):
            for r_sq in (0.0, 0.2, 0.5, 0.8, 0.95):
                cfg = symmetric_config(d, r_sq)
                assert abs(total_error(cfg) - total_error_closed_form(r_sq, d)) < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 7, 16, 64, 256])
    @pytest.mark.parametrize(
        "r", [1e-300, 0.1, 0.5, 0.985, 1 - 1e-6, 1 - 1e-8, 1 - 1e-12, 1 - 2**-53]
    )
    def test_matches_exact_rational_value(self, d, r):
        exact = reference.closed_form_error(r, d)
        # abs=0: approx's default abs=1e-12 would pass any P_E below 1e-12
        assert total_error_closed_form(r, d) == pytest.approx(
            float(exact), rel=1e-14, abs=0
        )

    @given(
        d=st.integers(2, 2048),
        r=st.floats(1e-300, 1 - 2**-53),
    )
    @example(d=2, r=0.6180837777030738)  # where middle**2 rounds apart
    @example(d=2048, r=1 - 2**-53)
    @settings(max_examples=200, deadline=None)
    def test_pairs_sum_to_the_full_sum_bit_for_bit(self, d, r):
        # term d - j is term j with its factors swapped; summing each pair
        # once, doubled, must round to the same float as every term alone
        assert total_error_closed_form(r, d) == reference.closed_form_error_sum(r, d)

    @pytest.mark.parametrize("d", [2, 16, 64])
    @pytest.mark.parametrize("r_sq", [0.9, 1 - 1e-5, 1 - 1e-7, 1 - 1e-9])
    def test_kernel_ratio_keeps_digits_near_unity(self, d, r_sq):
        # the mismatched mass is tiny here; total - P(k|k) would cancel it
        k = d // 2
        cfg = symmetric_config(d, r_sq, n_prime=4 * d)
        expected = total_error_closed_form(cfg.r, d)
        got = error_ratio(setting_acceptances(cfg, k), k)
        assert abs(got - expected) <= 1e-6 * expected  # approx adds abs=1e-12

    @given(
        d=st.integers(1, 64),
        r=st.floats(0.0, 1.0, exclude_max=True),
        extra=st.integers(0, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_kernel_for_any_round_trip_factor(self, d, r, extra):
        cfg = CavityConfig(dim=d, r1_sq=r, r2_sq=r, theta=0.0, n_prime=d + extra)
        assert total_error_closed_form(cfg.r, d) == pytest.approx(
            total_error(cfg), abs=1e-12
        )

    @pytest.mark.parametrize("d", [2, 3, 16, 64])
    def test_strictly_decreasing_in_round_trip_factor(self, d):
        grid = np.linspace(0.001, 0.999, 400)
        values = [total_error_closed_form(r, d) for r in grid]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestD2TotalProbability:
    def test_long_window_matches_reference(self):
        cfg = symmetric_config(3, 0.99, n_prime=3 + 600)
        state = random_normalized_state(np.random.default_rng(5), 3)
        phi = theta_for_outcome(3, 0) + math.pi
        assert d2_total_probability(cfg, state, include_early=True) == pytest.approx(
            reference.d2_mass(3, 0.99, 0.99, phi, list(state.amps), 1, 603), abs=1e-13
        )

    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 12),
        slot=st.one_of(st.none(), st.integers(0, 11)),
        r1_sq=st.floats(0.0, 0.999),
        r2_sq=st.floats(0.0, 0.999),
        theta=st.floats(-math.pi, math.pi),
        extra=st.integers(0, 60),
    )
    @example(seed=0, d=3, slot=None, r1_sq=0.0, r2_sq=0.0, theta=0.0, extra=0)
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_mass(self, seed, d, slot, r1_sq, r2_sq, theta, extra):
        # Random superpositions, or the basis state |slot>: the entry bins
        # 1..d-1 see only the slots already inside the loop.
        if slot is None:
            state = random_normalized_state(np.random.default_rng(seed), d)
        else:
            state = basis_state(d, slot % d + 1)
        n_prime = d + extra
        cfg = CavityConfig(d, r1_sq, r2_sq, theta, n_prime)
        amps = list(state.amps)
        for include_early, first in ((True, 1), (False, d)):
            expected = reference.d2_mass(d, r1_sq, r2_sq, cfg.phi, amps, first, n_prime)
            value = d2_total_probability(cfg, state, include_early=include_early)
            assert value == pytest.approx(expected, abs=1e-13)
            assert value <= 1.0

    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from(FFT_PATH_DIMS),
        basis=st.booleans(),
        r1_sq=near_unity_r_sq,
        r2_sq=near_unity_r_sq,
        theta=st.floats(-math.pi, math.pi),
        extra=st.integers(0, 3),
    )
    @example(seed=1, d=243, basis=False, r1_sq=0.0, r2_sq=0.0, theta=0.0, extra=0)
    @example(
        seed=2, d=61, basis=True, r1_sq=1 - 1e-9, r2_sq=1 - 1e-9, theta=1.0, extra=3
    )
    @settings(max_examples=8, deadline=None)
    def test_fft_lengths_match_reference_mass(
        self, seed, d, basis, r1_sq, r2_sq, theta, extra
    ):
        # The entry bins are a length-2d FFT convolution. Near r = 1 every
        # bin's mass carries (1 - r1^2)(1 - r2^2), so the gap to the 50-digit
        # oracle is also held to that scale over the d entry bins, not only
        # in absolute terms. Rounding r = sqrt(r1^2 r2^2) to a double already
        # moves r^n by up to n ulps, so no double-precision kernel, the
        # plain-float reference included, is closer than about d ulps of a
        # mass that reaches d (1 - r1^2)(1 - r2^2).
        rng = np.random.default_rng(seed)
        if basis:
            state = basis_state(d, int(rng.integers(1, d + 1)))
        else:
            state = random_normalized_state(rng, d)
        cfg = CavityConfig(d, r1_sq, r2_sq, theta, d + extra)
        amps = list(state.amps)
        for include_early, first in ((True, 1), (False, d)):
            expected = reference.d2_mass(
                d, r1_sq, r2_sq, cfg.phi, amps, first, d + extra
            )
            value = d2_total_probability(cfg, state, include_early=include_early)
            assert value == pytest.approx(expected, abs=1e-13)
            exact = reference.d2_mass_decimal(
                d, r1_sq, r2_sq, cfg.phi, amps, first, d + extra
            )
            assert abs(value - exact) <= 1e-13 * d * (1 - r1_sq) * (1 - r2_sq)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            d2_total_probability(symmetric_config(4, 0.5), mub_state(3, 0))

    def test_latest_bin_delta_geometric_series(self):
        cfg = symmetric_config(4, 0.5, n_prime=4 + 60)
        value = d2_total_probability(cfg, basis_state(4, 4))
        assert value == pytest.approx(1.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_any_delta_with_early_bins(self, j):
        cfg = symmetric_config(4, 0.5, n_prime=4 + 60)
        value = d2_total_probability(cfg, basis_state(4, j), include_early=True)
        assert value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_transparent_splitters_detect_everything(self):
        cfg = CavityConfig(dim=4, r1_sq=0.0, r2_sq=0.0, theta=0.0, n_prime=8)
        assert d2_total_probability(cfg, basis_state(4, 4)) == pytest.approx(1.0)
        for j in (1, 2, 3):
            value = d2_total_probability(cfg, basis_state(4, j), include_early=True)
            assert value == pytest.approx(1.0)

    def test_vanishes_at_high_reflectivity(self):
        low = d2_total_probability(
            symmetric_config(16, 0.9, n_prime=64), mub_state(16, 0)
        )
        high = d2_total_probability(
            symmetric_config(16, 0.9999, n_prime=64), mub_state(16, 0)
        )
        assert high < 1e-3
        assert high < low

    def test_windowed_mass_peaks_then_falls(self):
        # the accepted-window mass is not monotone: it climbs while the
        # early-bin leakage shrinks, then falls as detection stalls
        grid = np.arange(0.5, 0.9951, 0.005)
        values = [
            d2_total_probability(symmetric_config(16, r, n_prime=64), mub_state(16, 0))
            for r in grid
        ]
        peak = int(np.argmax(values))
        assert 0 < peak < len(values) - 1
        tail = values[peak:]
        assert all(b < a for a, b in zip(tail, tail[1:]))

    @given(
        d=st.sampled_from([2, 3, 5, 16, 64]),
        u1=st.floats(0.0, 1.0),
        u2=st.floats(0.0, 1.0),
        extra=st.integers(0, 256),
    )
    @example(d=64, u1=1.0, u2=1.0, extra=192)
    @settings(max_examples=30, deadline=None)
    def test_time_bin_inputs_click_alike_in_every_setting(self, d, u1, u2, extra):
        # The arrival-time half of unbiasedness: a time-bin input |n> gives
        # the same windowed D2 probability in every setting m. Each splitter
        # keeps r_i^(2(d - 1)) >= 0.01, so the slot that waits longest keeps
        # a tenth of its amplitude; far below that the FFT's absolute
        # rounding, about one ulp of the largest amplitude, outgrows any
        # relative bound. The widest spread measured there was 2.5e-14.
        lowest = 0.01 ** (1 / (d - 1))
        r1_sq, r2_sq = (lowest + u * (0.999999 - lowest) for u in (u1, u2))
        cfg = CavityConfig(d, r1_sq, r2_sq, 0.0, d + extra)
        for n in range(1, d + 1):
            state = basis_state(d, n)
            probs = [d2_total_probability(cfg.for_outcome(m), state) for m in range(d)]
            assert max(probs) - min(probs) <= 1e-13 * max(probs)

    def test_agrees_with_reference_for_superpositions(self):
        rng = np.random.default_rng(11)
        state = random_normalized_state(rng, 5)
        cfg = CavityConfig(dim=5, r1_sq=0.7, r2_sq=0.55, theta=0.9, n_prime=17)
        phi = (0.9 + math.pi) % (2 * math.pi)
        expected = reference.d2_mass(5, 0.7, 0.55, phi, list(state.amps), 1, 17)
        value = d2_total_probability(cfg, state, include_early=True)
        assert value == pytest.approx(expected, abs=1e-13)


class TestProjectionFidelity:
    def test_transparent_limit(self):
        cfg = CavityConfig(dim=4, r1_sq=0.0, r2_sq=0.0, theta=0.0, n_prime=4)
        assert projection_fidelity(cfg, 4, 0) == pytest.approx(0.25)

    def test_two_bin_spot_value(self):
        cfg = symmetric_config(2, 0.5)
        assert projection_fidelity(cfg, 2, 0) == pytest.approx(0.9, abs=1e-12)

    def test_high_reflectivity_approaches_unity(self):
        cfg = symmetric_config(16, 0.999, k=3, n_prime=64)
        assert projection_fidelity(cfg, 20, 3) > 0.9999

    def test_independent_of_click_bin(self):
        cfg = symmetric_config(8, 0.8, k=5, n_prime=80)
        values = [projection_fidelity(cfg, N, 5) for N in (8, 11, 15, 40)]
        assert max(values) - min(values) < 1e-12

    def test_monotone_in_round_trip_factor(self):
        values = [
            projection_fidelity(symmetric_config(8, r, k=1, n_prime=16), 8, 1)
            for r in np.linspace(0.0, 0.99, 100)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0


def port_mass(table, port, below=math.inf):
    """Summed row-0 mass of one port, over the bins before ``below``."""
    keep = (table.ports == TABLE_PORTS.index(port)) & (table.bins < below)
    return math.fsum(table.masses[0, keep].tolist())


def nonzero_exits(table):
    """Row 0's nonzero exits by (port, bin), the residual left out."""
    columns = zip(table.ports[:-1].tolist(), table.bins[:-1].tolist())
    return {
        (TABLE_PORTS[p], b): m
        for (p, b), m in zip(columns, table.masses[0, :-1].tolist())
        if m > 0.0
    }


class TestFullOutcomeDistribution:
    def test_delta_branching_arithmetic(self):
        cfg = symmetric_config(4, 0.5, n_prime=150)
        dist = full_outcome_distribution(cfg, basis_state(4, 2), 160)
        assert port_mass(dist, "D1") == pytest.approx(0.5, abs=1e-12)
        assert port_mass(dist, "D2") == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert port_mass(dist, "BACK") == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert math.fsum(dist.masses[0].tolist()) == pytest.approx(1.0, abs=1e-12)

    def test_transparent_splitters_single_entry(self):
        cfg = CavityConfig(dim=4, r1_sq=0.0, r2_sq=0.0, theta=0.4, n_prime=6)
        dist = full_outcome_distribution(cfg, basis_state(4, 2), 8)
        assert nonzero_exits(dist) == {("D2", 2): pytest.approx(1.0)}
        assert dist.masses[0, -1] == 0.0

    def test_d2_port_total_matches_summed_bins(self):
        rng = np.random.default_rng(6)
        state = random_normalized_state(rng, 5)
        cfg = CavityConfig(dim=5, r1_sq=0.5, r2_sq=0.5, theta=1.1, n_prime=20)
        dist = full_outcome_distribution(cfg, state, 20)
        assert port_mass(dist, "D2") == pytest.approx(
            d2_total_probability(cfg, state, include_early=True), abs=1e-13
        )

    def test_inconclusive_mass_counts_early_bins_only(self):
        rng = np.random.default_rng(7)
        state = random_normalized_state(rng, 5)
        cfg = CavityConfig(dim=5, r1_sq=0.5, r2_sq=0.5, theta=1.1, n_prime=20)
        dist = full_outcome_distribution(cfg, state, 20)
        expected = port_mass(dist, "D2") - d2_total_probability(cfg, state)
        early = port_mass(dist, "D2", below=5)
        assert early == pytest.approx(expected, abs=1e-13)

    def test_residual_shrinks_with_cap(self):
        cfg = symmetric_config(4, 0.81, n_prime=8)
        state = mub_state(4, 0)
        small = full_outcome_distribution(cfg, state, 8).masses[0, -1]
        large = full_outcome_distribution(cfg, state, 40).masses[0, -1]
        assert large < small
        assert large < 1e-6

    def test_requires_normalized_input(self):
        cfg = symmetric_config(2, 0.5)
        with pytest.raises(ValueError, match="normalized"):
            full_outcome_distribution(cfg, gamma_state(cfg, 2), 8)


# A few loop phases per table: settings of d = 5 and an off-grid one.
TABLE_THETAS = [theta_for_outcome(5, m) for m in range(5)] + [0.3]


@st.composite
def table_cases(draw):
    """Random (d <= 12, r1_sq, r2_sq, input state, bin_cap, phases).

    Some input slots are zeroed, so bins split between D1 and BACK. The
    reflectivities reach 1 - 1e-6 and bin_cap reaches d + 2000, so the
    table's geometric tail is checked far past the entry bins.
    """
    d = draw(st.integers(1, 12))
    r1_sq = draw(st.floats(0.0, 1.0 - 1e-6))
    r2_sq = draw(st.floats(0.0, 1.0 - 1e-6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    keep = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    keep[draw(st.integers(0, d - 1))] = True
    amps = np.where(keep, amps, 0.0)
    state = TimeBinState(amps / np.linalg.norm(amps), normalized=True)
    bin_cap = draw(st.integers(d, d + 2000))
    thetas = draw(st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=4))
    return d, r1_sq, r2_sq, state, bin_cap, thetas


def column_keys(table):
    return [(TABLE_PORTS[p], b) for p, b in zip(table.ports, table.bins)]


def assert_rows_match_per_bin_oracle(case, table):
    """Every row of ``table`` within 1e-15 of :func:`reference.outcome_masses`."""
    d, r1_sq, r2_sq, state, bin_cap, thetas = case
    keys = column_keys(table)
    for row, theta in zip(table.masses, thetas):
        entries, residual = reference.outcome_masses(
            d, r1_sq, r2_sq, theta, list(state.amps), bin_cap
        )
        assert set(entries) <= set(keys)
        for key, mass in zip(keys[:-1], row[:-1]):
            assert abs(mass - entries.get(key, 0.0)) <= 1e-15
        assert abs(row[-1] - residual) <= 1e-15


class TestOutcomeTable:
    @given(case=table_cases())
    @example(  # entry bins 2 and 4 are BACK columns between D1 ones
        case=(
            5, 0.6, 0.7,
            TimeBinState(np.array([1, 0, 1j, 0, -1]) / math.sqrt(3), normalized=True),
            9, [0.3, -1.2],
        )
    )  # fmt: skip
    @settings(max_examples=80, deadline=None)
    def test_rows_match_per_bin_oracle(self, case):
        d, r1_sq, r2_sq, state, bin_cap, thetas = case
        cfg = CavityConfig(dim=d, r1_sq=r1_sq, r2_sq=r2_sq, theta=0.0, n_prime=d)
        table = outcome_table(cfg, state, thetas, bin_cap)
        keys = column_keys(table)
        # bins 1..bin_cap upstream (D1 or BACK), then on D2, then (NONE, 0)
        cap_bins = list(range(1, bin_cap + 1))
        assert [b for _, b in keys] == cap_bins + cap_bins + [0]
        assert {p for p, _ in keys[:bin_cap]} <= {"D1", "BACK"}
        assert [p for p, _ in keys[bin_cap:]] == ["D2"] * bin_cap + ["NONE"]
        assert len(set(keys)) == len(keys) == 2 * bin_cap + 1
        assert_rows_match_per_bin_oracle(case, table)

    @pytest.mark.parametrize("cells", [1, 20, 28, 48])
    def test_blocked_scan_matches_per_bin_oracle(self, monkeypatch, cells):
        # Four rows at d = 12 take blocks of 1, 5, 7 and 12 entry bins; each
        # block's scan starts from the amplitude the last one ended with.
        monkeypatch.setattr(cavity, "BLOCK_CELLS", cells)
        d, bin_cap, thetas = 12, 40, [0.3, -1.2, 2.5, math.pi]
        amps = random_normalized_state(np.random.default_rng(cells), d).amps.copy()
        amps[[2, 7]] = 0.0  # BACK columns between D1 ones
        state = TimeBinState(amps / np.linalg.norm(amps), normalized=True)
        case = (d, 0.97, 0.9, state, bin_cap, thetas)
        cfg = CavityConfig(dim=d, r1_sq=0.97, r2_sq=0.9, theta=0.0, n_prime=d)
        table = outcome_table(cfg, state, thetas, bin_cap)
        assert_rows_match_per_bin_oracle(case, table)

    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 8),
        r1_sq=st.floats(0.0, 0.97, allow_nan=False),
        r2_sq=st.floats(0.0, 0.97, allow_nan=False),
        theta=st.floats(-math.pi, math.pi, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_conservation_for_arbitrary_inputs(self, seed, d, r1_sq, r2_sq, theta):
        rng = np.random.default_rng(seed)
        state = random_normalized_state(rng, d)
        cfg = CavityConfig(dim=d, r1_sq=r1_sq, r2_sq=r2_sq, theta=theta, n_prime=4 * d)
        table = outcome_table(cfg, state, [theta] + TABLE_THETAS, 6 * d)
        for row in table.masses:
            assert math.fsum(row) == pytest.approx(1.0, abs=1e-9)

    def test_d2_entries_match_projection_probabilities(self):
        rng = np.random.default_rng(5)
        state = random_normalized_state(rng, 6)
        cfg = CavityConfig(dim=6, r1_sq=0.62, r2_sq=0.77, theta=-0.8, n_prime=24)
        table = outcome_table(cfg, state, [-0.8] + TABLE_THETAS, 24)
        column = {key: c for c, key in enumerate(column_keys(table))}
        for row, theta in zip(table.masses, [-0.8] + TABLE_THETAS):
            for N in range(6, 25):
                assert row[column[("D2", N)]] == pytest.approx(
                    d2_bin_probability(replace(cfg, theta=theta), state, N), abs=1e-14
                )

    def test_tail_decays_geometrically(self):
        # After the d entry bins nothing enters: each later D2 and BACK mass
        # is the previous one times (r1 r2)^2, and BACK at bin b + 1 stands
        # to D2 at bin b as t1^2 r2^2 : t2^2.
        rng = np.random.default_rng(9)
        state = random_normalized_state(rng, 3)
        cfg = CavityConfig(dim=3, r1_sq=0.999, r2_sq=0.998, theta=0.0, n_prime=3)
        bin_cap = 3 + 3000
        table = outcome_table(cfg, state, [0.2, -1.0], bin_cap)
        column = {key: c for c, key in enumerate(column_keys(table))}
        tail = np.arange(3, bin_cap + 1)
        d2 = [column[("D2", b)] for b in tail]
        back = [column[("BACK", b + 1)] for b in tail[:-1]]
        decay = (cfg.r1_sq * cfg.r2_sq) ** (tail - 3)
        for row in table.masses:
            # abs=0: the tail masses are near 1e-7, inside approx's default
            # abs=1e-12 at only about 1e-5 relative
            assert row[d2] == pytest.approx(row[d2[0]] * decay, rel=1e-12, abs=0)
            assert row[back] == pytest.approx(
                row[d2[:-1]] * cfg.t1**2 * cfg.r2_sq / cfg.t2**2, rel=1e-12, abs=0
            )
            assert row[-1] == pytest.approx(
                row[d2[-1]] * cfg.r2_sq / cfg.t2**2, rel=1e-12, abs=0
            )

    def test_cap_too_small(self):
        cfg = symmetric_config(4, 0.5, n_prime=12)
        with pytest.raises(ValueError, match="bin_cap"):
            outcome_table(cfg, basis_state(4, 1), TABLE_THETAS, 11)

    def test_one_phase_view(self):
        rng = np.random.default_rng(8)
        state = random_normalized_state(rng, 5)
        cfg = CavityConfig(dim=5, r1_sq=0.5, r2_sq=0.3, theta=1.1, n_prime=20)
        table = outcome_table(cfg, state, [1.1], 20)
        view = full_outcome_distribution(cfg, state, 20)
        assert view.masses.shape == (1, 41)
        for name in ("ports", "bins", "masses"):
            assert np.array_equal(getattr(view, name), getattr(table, name))
