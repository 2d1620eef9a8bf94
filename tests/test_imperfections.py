import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import window_cases
from timebin_cavity import (
    CavityConfig,
    DarkCountModel,
    accepted_event_probability,
    cutoff_tradeoff_scan,
    observed_error_with_dark_counts,
    theta_for_outcome,
    total_error,
    total_error_closed_form,
)
from timebin_cavity.cli import ExperimentConfig, UsageError


def symmetric_config(d, r_sq, n_prime):
    return CavityConfig(
        dim=d, r1_sq=r_sq, r2_sq=r_sq, theta=theta_for_outcome(d, 0), n_prime=n_prime
    )


class TestModels:
    @pytest.mark.parametrize("eta", [-0.1, 1.0001])
    def test_mismatch_bounds(self, eta):
        with pytest.raises(UsageError, match="eta"):
            ExperimentConfig(d=8, eta=eta).resolved()

    @pytest.mark.parametrize("p_dc", [-1e-9, 1.0])
    def test_dark_count_bounds(self, p_dc):
        with pytest.raises(ValueError, match="dark-count"):
            DarkCountModel(p_dc)


def effective_round_trip(d, r, eta):
    """The factor both mirrors get for grid value r at mode overlap eta."""
    return ExperimentConfig(d=d, eta=eta).resolved().cavity_config(r, 4 * d).r1_sq


class TestEffectiveRoundTrip:
    def test_perfect_overlap_is_identity(self):
        assert effective_round_trip(8, 0.9, 1.0) == 0.9

    def test_total_mismatch_kills_interference(self):
        r_eff = effective_round_trip(8, 0.9, 0.0)
        assert r_eff == 0.0
        assert total_error_closed_form(r_eff, 8) == pytest.approx(7.0 / 8.0)

    def test_small_mismatch_increases_error(self):
        r_eff = effective_round_trip(16, 0.9, 0.99)
        assert r_eff == pytest.approx(0.891)
        assert total_error_closed_form(r_eff, 16) > total_error_closed_form(0.9, 16)

    def test_domain_check(self):
        with pytest.raises(UsageError, match=r"\[0, 1\)"):
            ExperimentConfig(d=8, r_grid=[1.0], eta=0.9).resolved()


class TestMismatchWiring:
    def test_error_evaluates_at_reduced_factor(self):
        for r, d in [(0.5, 2), (0.9, 16), (0.99, 64)]:
            cfg = ExperimentConfig(d=d, eta=0.97).cavity_config(r, 4 * d)
            assert total_error_closed_form(cfg.r1_sq, d) == pytest.approx(
                total_error_closed_form(r * 0.97, d), abs=1e-12
            )


    @pytest.mark.parametrize("eta", [1.0, 0.99, 0.0])
    def test_both_mirrors_see_reduced_factor(self, eta):
        cfg = ExperimentConfig(d=16, eta=eta).cavity_config(0.9, 64)
        assert cfg.r1_sq == cfg.r2_sq
        assert cfg.r1_sq == pytest.approx(0.9 * eta, abs=1e-15)

class TestObservedErrorWithDarkCounts:
    def test_clean_detectors_reduce_to_total_error(self):
        cfg = symmetric_config(4, 0.7, n_prime=12)
        observed = observed_error_with_dark_counts(cfg, DarkCountModel(0.0))
        assert observed == pytest.approx(total_error(cfg), abs=1e-15)

    def test_frozen_value(self):
        cfg = symmetric_config(16, 0.99, n_prime=16 + 49)
        observed = observed_error_with_dark_counts(cfg, DarkCountModel(1e-5))
        assert observed == pytest.approx(0.14596605621654632, abs=1e-12)
        assert observed == pytest.approx(
            reference.observed_error(16, 0.99, 16 + 49, 1e-5), abs=1e-13
        )

    def test_dark_dominated_outcomes_are_uniform(self):
        # reflectivities close enough to one that almost no signal survives
        cfg = symmetric_config(4, 1.0 - 1e-6, n_prime=20)
        observed = observed_error_with_dark_counts(cfg, DarkCountModel(0.01))
        assert observed == pytest.approx(3.0 / 4.0, abs=1e-4)

    def test_monotone_in_dark_rate(self):
        cfg = symmetric_config(8, 0.9, n_prime=24)
        values = [
            observed_error_with_dark_counts(cfg, DarkCountModel(p))
            for p in (0.0, 1e-6, 1e-4, 1e-3, 1e-2)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_monotone_in_window_at_fixed_high_signal(self):
        values = [
            observed_error_with_dark_counts(
                symmetric_config(8, 0.95, n_prime=n), DarkCountModel(1e-4)
            )
            for n in (8, 16, 40, 80)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestCutoffTradeoffScan:
    def test_clean_detectors_give_constant_error(self):
        cfg = symmetric_config(8, 0.9, n_prime=48)
        points = cutoff_tradeoff_scan(cfg, DarkCountModel(0.0), [8, 16, 32, 48])
        errors = [p.observed_error for p in points]
        assert max(errors) - min(errors) < 1e-12

    def test_shorter_window_cuts_dark_errors(self):
        cfg = symmetric_config(16, 0.99, n_prime=66)
        points = cutoff_tradeoff_scan(cfg, DarkCountModel(1e-5), [21, 36, 66])
        errors = [p.observed_error for p in points]
        assert errors[0] < errors[1] < errors[2]

    def test_accepted_probability_grows_with_window(self):
        cfg = symmetric_config(8, 0.8, n_prime=48)
        for p_dc in (0.0, 1e-4):
            points = cutoff_tradeoff_scan(cfg, DarkCountModel(p_dc), [8, 12, 24, 48])
            accepted = [p.accepted_probability for p in points]
            assert all(b > a for a, b in zip(accepted, accepted[1:]))

    def test_window_violation(self):
        cfg = symmetric_config(8, 0.8, n_prime=16)
        with pytest.raises(ValueError, match="window"):
            cutoff_tradeoff_scan(cfg, DarkCountModel(0.0), [7])

    def test_accepted_probability_definition(self):
        cfg = symmetric_config(4, 0.6, n_prime=10)
        dark = DarkCountModel(2e-4)
        (point,) = cutoff_tradeoff_scan(cfg, dark, [10])
        expected = accepted_event_probability(cfg, dark)
        assert point.accepted_probability == pytest.approx(expected, abs=1e-15)
        clean = accepted_event_probability(cfg, DarkCountModel(0.0))
        assert point.accepted_probability == pytest.approx(
            clean + (10 - 4 + 1) * 2e-4, abs=1e-15
        )

    def test_empty_cutoff_list(self):
        cfg = symmetric_config(4, 0.6, n_prime=10)
        assert cutoff_tradeoff_scan(cfg, DarkCountModel(1e-4), []) == []

    @given(
        case=window_cases(),
        p_dc=st.sampled_from([0.0, 1e-6, 1e-4, 1e-2]),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_prefix_sums_match_per_cutoff_recomputation(self, case, p_dc, data):
        d, r, n_prime, k = case
        cfg = symmetric_config(d, r, n_prime=n_prime)
        dark = DarkCountModel(p_dc)
        cutoffs = data.draw(st.lists(st.integers(d, n_prime), min_size=1, max_size=6))
        points = cutoff_tradeoff_scan(cfg, dark, cutoffs, k)
        assert [p.n_prime for p in points] == cutoffs
        for point in points:
            sub = replace(cfg, n_prime=point.n_prime)
            assert abs(
                point.observed_error - observed_error_with_dark_counts(sub, dark, k)
            ) <= 1e-13
            assert abs(
                point.accepted_probability - accepted_event_probability(sub, dark, k)
            ) <= 1e-13

    @given(
        case=window_cases(),
        p_dc=st.sampled_from([0.0, 1e-6, 1e-4, 1e-2]),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_per_bin_reference(self, case, p_dc, data):
        # independent of the kernel and of the package's dark arithmetic
        d, r, n_prime, k = case
        cfg = symmetric_config(d, r, n_prime=n_prime)
        cutoffs = data.draw(st.lists(st.integers(d, n_prime), min_size=1, max_size=3))
        for point in cutoff_tradeoff_scan(cfg, DarkCountModel(p_dc), cutoffs, k):
            n = point.n_prime
            assert abs(
                point.observed_error - reference.observed_error(d, r, n, p_dc, k)
            ) <= 1e-13
            assert abs(
                point.accepted_probability
                - reference.accepted_probability(d, r, n, p_dc, k)
            ) <= 1e-13

    @given(case=window_cases(), p_dc=st.sampled_from([0.0, 1e-6, 1e-4]))
    @settings(max_examples=50, deadline=None)
    def test_accepted_probability_never_decreases(self, case, p_dc):
        d, r, n_prime, k = case
        cfg = symmetric_config(d, r, n_prime=n_prime)
        points = cutoff_tradeoff_scan(
            cfg, DarkCountModel(p_dc), range(d, n_prime + 1), k
        )
        accepted = [p.accepted_probability for p in points]
        assert all(b >= a for a, b in zip(accepted, accepted[1:]))
