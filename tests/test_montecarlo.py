import dataclasses
import hashlib
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import (
    random_normalized_state,
    retry_once,
    within_binomial_error,
    within_two_sample_error,
)
from timebin_cavity import montecarlo
from timebin_cavity import (
    CavityConfig,
    basis_state,
    cutoff_acceptances,
    d2_total_probability,
    full_outcome_distribution,
    mub_state,
    run_discrimination,
    run_trials,
    theta_for_outcome,
    total_error,
)
from timebin_cavity.cavity import TABLE_PORTS, entry_bin_masses, outcome_table


def symmetric_config(d, r_sq, n_prime, p_dc=0.0):
    return CavityConfig(
        dim=d,
        r1_sq=r_sq,
        r2_sq=r_sq,
        theta=theta_for_outcome(d, 0),
        n_prime=n_prime,
        p_dc=p_dc,
    )


def port_counts(stats, port):
    """A fixed-phase run's frames per column of one port."""
    return stats.counts[stats.ports == TABLE_PORTS.index(port)]


def clicks(stats):
    """A fixed-phase run's nonzero columns by (port, bin); a dark D1 column
    adds to the table's D1 column of its bin, where there is one."""
    merged = {}
    for p, b, c in zip(stats.ports.tolist(), stats.bins.tolist(), stats.counts):
        if c:
            key = (TABLE_PORTS[p], b)
            merged[key] = merged.get(key, 0) + int(c)
    return merged


def assert_same_stats(a, b):
    """Every field equal, the histogram and its labels included."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


class TestSampleFrame:
    """Frame-level behaviour, sampled through run_trials."""

    def test_transparent_splitters_always_click_input_bin(self):
        cfg = CavityConfig(dim=4, r1_sq=0.0, r2_sq=0.0, theta=0.1, n_prime=8)
        stats = run_trials(cfg, basis_state(4, 3), 25, master_seed=0)
        assert clicks(stats) == {("D2", 3): 25}
        assert stats.dark_clicks == 0

    def test_certain_dark_rate_is_rejected_by_model(self):
        with pytest.raises(ValueError, match="dark-count"):
            symmetric_config(4, 0.5, 8, p_dc=1.0)

    def test_bins_stay_under_cap(self):
        cfg = symmetric_config(3, 0.9, 9, p_dc=0.05)
        state = mub_state(3, 1)
        stats = run_trials(cfg, state, 60, master_seed=0, bin_cap=12)
        # every column, the cap dark D1 ones included, clicked or not
        assert stats.counts.shape == stats.ports.shape == stats.bins.shape == (37,)
        none = stats.ports == TABLE_PORTS.index("NONE")
        assert (stats.bins[none] == 0).all()
        assert ((1 <= stats.bins[~none]) & (stats.bins[~none] <= 12)).all()


class TestRunTrials:
    def test_identical_seeds_give_identical_stats(self):
        cfg = symmetric_config(2, 0.5, 6)
        state = mub_state(2, 0)
        a = run_trials(cfg, state, 20_000, master_seed=314)
        b = run_trials(cfg, state, 20_000, master_seed=314)
        assert_same_stats(a, b)

    def test_requires_at_least_one_trial(self):
        cfg = symmetric_config(2, 0.5, 4)
        with pytest.raises(ValueError, match="n_trials"):
            run_trials(cfg, mub_state(2, 0), 0, 1)

    @pytest.mark.parametrize(
        "n_trials,seed,bin_cap", [(10.5, 1, None), (10, 1.5, None), (10, 1, 10.5)]
    )
    def test_counts_must_be_integers(self, n_trials, seed, bin_cap):
        # 10.5 trials drew 10 frames but reported n_trials 10.5, and a
        # bin_cap of 10.5 raised a TypeError from the table build
        cfg = symmetric_config(2, 0.5, 4)
        with pytest.raises(ValueError, match="must be an integer"):
            run_trials(cfg, mub_state(2, 0), n_trials, seed, bin_cap)

    def test_numpy_integer_counts_pass(self):
        cfg, state = symmetric_config(4, 0.5, 12, p_dc=0.002), mub_state(4, 0)
        assert_same_stats(
            run_trials(cfg, state, np.int32(5000), np.int64(5)),
            run_trials(cfg, state, 5000, 5),
        )

    def test_counts_add_up_to_trials(self):
        cfg = symmetric_config(4, 0.5, 12, p_dc=0.002)
        stats = run_trials(cfg, mub_state(4, 0), 50_000, 5)
        assert stats.counts.dtype == np.int64
        assert stats.counts.sum() == 50_000

    def test_error_estimator_requires_discrimination_run(self):
        cfg = symmetric_config(2, 0.5, 4)
        stats = run_trials(cfg, mub_state(2, 0), 1_000, 1)
        with pytest.raises(ValueError, match="discrimination"):
            stats.p_e_hat()

    def test_acceptance_estimator_requires_discrimination_run(self):
        cfg = symmetric_config(2, 0.5, 4)
        stats = run_trials(cfg, mub_state(2, 0), 1_000, 1)
        with pytest.raises(ValueError, match="discrimination"):
            stats.p_hat(0)

    @pytest.mark.parametrize("m", [-1, 4])
    def test_acceptance_estimator_rejects_a_setting_out_of_range(self, m):
        stats = run_discrimination(symmetric_config(4, 0.5, 16), 0, 1_000, 1)
        with pytest.raises(ValueError, match="out of range"):
            stats.p_hat(m)

    def test_every_entry_frequency_matches_analytic(self):
        cfg = symmetric_config(4, 0.5, 12)
        state = random_normalized_state(np.random.default_rng(1), 4)
        table = full_outcome_distribution(cfg, state, 12)
        n = 200_000

        def check(seed):
            stats = run_trials(cfg, state, n, seed)
            # without dark counts the histogram is the table's layout
            assert np.array_equal(stats.ports, table.ports)
            assert np.array_equal(stats.bins, table.bins)
            return all(
                within_binomial_error(count / n, p, n)
                for count, p in zip(stats.counts.tolist(), table.masses[0].tolist())
            )

        assert retry_once(check, seeds=(2024, 2025))

    def test_chi_square_against_analytic_distribution(self):
        cfg = symmetric_config(4, 0.7, 12)
        state = mub_state(4, 0)
        table = full_outcome_distribution(cfg, state, 12)
        n = 300_000
        stats = run_trials(cfg, state, n, master_seed=4242)

        observed, expected = [], []
        small_obs, small_exp = 0, 0.0
        for o, p in zip(stats.counts.tolist(), table.masses[0].tolist()):
            e = p * n
            if e < 5.0:  # pool sparse cells so the chi-square approximation holds
                small_obs += o
                small_exp += e
            else:
                observed.append(o)
                expected.append(e)
        if small_exp > 0.0:
            observed.append(small_obs)
            expected.append(small_exp)
        expected = np.asarray(expected) * (n / sum(expected))
        result = scipy.stats.chisquare(observed, expected)
        assert result.pvalue > 0.001


class TestDarkCounts:
    def test_dark_preemption_rate_matches_closed_form(self):
        # transparent splitters: the photon always clicks (D2, 3), so the
        # dark process wins exactly when it fires earlier (or ties and wins
        # the coin flip)
        cfg = CavityConfig(dim=4, r1_sq=0.0, r2_sq=0.0, theta=0.0, n_prime=8)
        state = basis_state(4, 3)
        p_dc = 0.02
        q = (1.0 - p_dc) ** 2
        p_dark_wins = (1.0 - q**2) + q**2 * (1.0 - q) / 2.0
        n = 150_000

        def check(seed):
            stats = run_trials(dataclasses.replace(cfg, p_dc=p_dc), state, n, seed)
            return within_binomial_error(stats.dark_clicks / n, p_dark_wins, n)

        assert retry_once(check, seeds=(11, 12))

    def test_dark_clicks_split_evenly_between_detectors(self):
        # no photon at all cannot be arranged, so use a photon that nearly
        # always leaves late: dark clicks at early bins dominate both ports
        cfg = symmetric_config(2, 0.9, 40)
        state = mub_state(2, 0)
        # at p_dc = 0.5 both detectors fire in a third of the dark bins
        for p_dc in (0.01, 0.5):
            stats = run_trials(
                dataclasses.replace(cfg, p_dc=p_dc), state, 100_000, 21
            )
            late = stats.bins > 2
            d1 = stats.ports == TABLE_PORTS.index("D1")
            d2 = stats.ports == TABLE_PORTS.index("D2")
            d1_dark_region = stats.counts[late & d1].sum()
            d2_dark_region = stats.counts[late & d2].sum()
            # D2 also receives signal clicks in this region; it must be the
            # larger of the two, and both must be populated
            assert d1_dark_region > 0
            assert d2_dark_region > d1_dark_region
            # every dark click is on D1 or D2 with probability 1/2: the
            # appended dark D1 columns hold half of them
            dark_d1 = stats.counts[2 * 40 + 1 :].sum()
            n = stats.dark_clicks
            assert abs(dark_d1 / n - 0.5) <= 5.0 * math.sqrt(0.25 / n)

    @pytest.mark.parametrize("p_dc", [0.0, 1e-300, 1e-17, 1e-12, 0.5])
    def test_any_dark_rate_down_to_the_smallest(self, p_dc):
        # (1 - p_dc)**2 rounds to 1 below ~1e-17; the per-bin survival must
        # still be finite and the preemption rate match the closed form
        cfg = CavityConfig(dim=4, r1_sq=0.0, r2_sq=0.0, theta=0.0, n_prime=8)
        state = basis_state(4, 3)
        n = 20_000
        stats = run_trials(dataclasses.replace(cfg, p_dc=p_dc), state, n, 17)
        assert stats.counts.sum() == n
        q = math.exp(2.0 * math.log1p(-p_dc))
        p_dark_wins = (1.0 - q**2) + q**2 * (1.0 - q) / 2.0
        assert within_binomial_error(stats.dark_clicks / n, p_dark_wins, n)
        if p_dc < 1e-6:
            clean = run_trials(cfg, state, n, 17)
            assert clicks(stats) == clicks(clean)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p_dc", [1e-310, 5e-324])
    def test_subnormal_dark_rate_does_not_overflow(self, p_dc):
        # the window's dark probability is subnormal: the dark column
        # rounds to at most a subnormal, no frame is accepted by a dark
        # click, and the photon columns draw as at a tiny normal p_dc
        stats = run_discrimination(symmetric_config(2, 0.5, 8, p_dc), 0, 1000, 1)
        tiny = run_discrimination(symmetric_config(2, 0.5, 8, 1e-300), 0, 1000, 1)
        assert stats.dark_clicks == tiny.dark_clicks == 0
        assert stats.counts is tiny.counts is None
        assert np.array_equal(stats.setting_accepted, tiny.setting_accepted)

    def test_zero_dark_rate_never_flags_dark(self):
        cfg = symmetric_config(2, 0.5, 6)
        stats = run_trials(cfg, mub_state(2, 0), 10_000, 3)
        assert stats.dark_clicks == 0


class TestRunDiscrimination:
    def test_reproducible(self):
        a = run_discrimination(symmetric_config(2, 0.5, 4), 0, 25_000, 777)
        b = run_discrimination(symmetric_config(2, 0.5, 4), 0, 25_000, 777)
        assert_same_stats(a, b)

    def test_frozen_counts_without_dark_counts(self):
        # setting counts, then one multinomial over every setting's three
        # column ranges; the pin also depends on numpy's binomial and
        # multinomial algorithms
        stats = run_discrimination(symmetric_config(16, 0.8, 64), 3, 60_000, 2024)
        assert stats.accepted_total == 1169
        assert stats.dark_clicks == 0
        assert stats.setting_accepted.tolist() == [
            21, 44, 175, 612, 164, 37, 17, 12, 13, 14, 14, 10, 11, 10, 2, 13
        ]  # fmt: skip
        assert stats.setting_frames.tolist() == [
            3743, 3784, 3695, 3712, 3805, 3763, 3699, 3753,
            3808, 3832, 3721, 3706, 3699, 3719, 3837, 3724,
        ]  # fmt: skip
        assert stats.counts is None  # a discrimination run keeps no bin counts

    def test_settings_cover_all_outcomes(self):
        stats = run_discrimination(symmetric_config(4, 0.5, 8), 0, 40_000, 13)
        assert stats.setting_frames.shape == (4,)
        assert (stats.setting_frames > 0).all()
        assert stats.setting_frames.sum() == 40_000

    def test_error_estimate_matches_analytic(self):
        cfg = symmetric_config(2, 0.5, 4)
        expected = total_error(cfg)
        n = 150_000

        def check(seed):
            stats = run_discrimination(symmetric_config(2, 0.5, 4), 0, n, seed)
            sigma = math.sqrt(expected * (1 - expected) / stats.accepted_total)
            return abs(stats.p_e_hat() - expected) <= 5 * sigma

        assert retry_once(check, seeds=(31, 32))

    def test_windowed_frequency_matches_average_acceptance(self):
        d, r_sq, n_prime = 4, 0.6, 12
        from timebin_cavity import p_m_given_k

        cfg = symmetric_config(d, r_sq, n_prime)
        mean_acceptance = sum(
            p_m_given_k(cfg.for_outcome(m), 0) for m in range(d)
        ) / d
        n = 150_000

        def check(seed):
            cfg = symmetric_config(d, r_sq, n_prime)
            stats = run_discrimination(cfg, 0, n, seed)
            return within_binomial_error(
                stats.d2_window_frequency(), mean_acceptance, n
            )

        assert retry_once(check, seeds=(51, 52))

    @pytest.mark.parametrize("d, n_prime", [(2, 2), (4, 4), (4, 7)])
    def test_window_edges_at_the_cap(self, d, n_prime):
        # The window is the D2 bins d..n_prime, and the run stops at n_prime;
        # n_prime = d is a one-bin window. Moving either edge by one bin
        # shifts some setting's acceptance by many sigma at these sizes.
        r_sq, k, n = 0.9, 1, 400_000
        cfg = symmetric_config(d, r_sq, n_prime)
        (expected,) = cutoff_acceptances(cfg, mub_state(d, k), [n_prime])

        def check(seed):
            stats = run_discrimination(cfg, k, n, seed)
            return all(
                within_binomial_error(stats.p_hat(m), p, stats.setting_frames[m])
                for m, p in enumerate(expected.tolist())
            )

        assert retry_once(check, seeds=(71, 72))

    @pytest.mark.parametrize("p_dc", [0.0, 1e-3])
    def test_law_is_clamped_to_one_near_unit_reflectivity(self, p_dc):
        # At r^2 = 1 - 1e-7 and d = 3 nearly every photon reflects at D1. In
        # settings 1 and 2 the entry bins' upstream and early D2 masses, the
        # mass before the window, sum to 1.0000000000000004, which numpy's
        # multinomial rejects as a probability.
        r_sq = 0.9999999
        cfg = CavityConfig(
            dim=3, r1_sq=r_sq, r2_sq=r_sq, theta=0.0, n_prime=3, p_dc=p_dc
        )
        stats = run_discrimination(cfg, 0, 1000, 1)
        assert stats.setting_frames.sum() == 1000
        thetas = [theta_for_outcome(3, m) for m in range(3)]
        upstream, d2 = np.empty((3, 3)), np.empty((3, 3))
        entry_bin_masses(cfg, mub_state(3, 0), thetas, upstream, d2)
        early = upstream.sum(axis=1) + d2[:, :-1].sum(axis=1)
        assert early.max() > 1.0  # the rounding this guards against
        law = montecarlo._range_law(cfg, mub_state(3, 0), thetas)
        assert ((0.0 <= law) & (law <= 1.0)).all()

    @pytest.mark.parametrize("p_dc", [0.0, 1e-3])
    def test_counts_do_not_depend_on_theta(self, p_dc):
        # the run dials every setting's phase itself
        cfg = symmetric_config(8, 0.8, 24, p_dc)
        runs = [
            run_discrimination(dataclasses.replace(cfg, theta=theta), 2, 10**5, 5)
            for theta in (cfg.theta, 0.0, 1.3, -40.0)
        ]
        for other in runs[1:]:
            assert_same_stats(runs[0], other)

    @pytest.mark.parametrize("seed", [-1, 2**128, 2**128 + 1])
    def test_seed_outside_key_range_is_rejected(self, seed):
        # The seed is the Philox key, not reduced onto it: 2**128 + 1 must
        # not run the stream of seed 1.
        with pytest.raises(ValueError, match="2\\*\\*128"):
            run_discrimination(symmetric_config(2, 0.5, 4), 0, 100, seed)

    def test_invalid_prepared_index(self):
        with pytest.raises(ValueError, match="out of range"):
            run_discrimination(symmetric_config(4, 0.5, 8), 4, 100, 1)

    @pytest.mark.parametrize("seed", [1.5, 1.9, np.float64(1)])
    def test_seed_must_be_an_integer(self, seed):
        # Philox truncates a float key: seed 1.5 drew seed 1's stream
        with pytest.raises(ValueError, match="master_seed must be an integer"):
            run_discrimination(symmetric_config(2, 0.5, 4), 0, 10**5, seed)

    @pytest.mark.parametrize("n_trials", [10.7, 100.0])
    def test_trials_must_be_an_integer(self, n_trials):
        # 10.7 drew 10 frames and divided the D2 frequency by 10.7
        with pytest.raises(ValueError, match="n_trials must be an integer"):
            run_discrimination(symmetric_config(2, 0.5, 4), 0, n_trials, 1)

    def test_numpy_integer_counts_pass(self):
        cfg = symmetric_config(4, 0.5, 8, p_dc=1e-3)
        assert_same_stats(
            run_discrimination(cfg, 1, np.int64(5000), np.uint64(3)),
            run_discrimination(cfg, 1, 5000, 3),
        )


class TestFixedRunAgainstAnalyticD2:
    def test_windowed_d2_frequency(self):
        cfg = symmetric_config(2, 0.5, 8)
        state = mub_state(2, 0)
        expected = d2_total_probability(cfg, state)
        n = 200_000

        def check(seed):
            stats = run_trials(cfg, state, n, seed)
            return within_binomial_error(stats.d2_window_frequency(), expected, n)

        assert retry_once(check, seeds=(61, 62))


class TestFrozenCounts:
    def test_frozen_counts(self):
        # setting counts, then one multinomial over every setting's four
        # categories; the pin also depends on numpy's binomial and
        # multinomial algorithms
        cfg = symmetric_config(16, 0.8, 64, p_dc=1e-3)
        stats = run_discrimination(cfg, 3, 60_000, 2024)
        assert stats.accepted_total == 4063
        assert stats.dark_clicks == 2841
        assert stats.setting_accepted.tolist() == [
            205, 255, 326, 802, 380, 216, 197, 186,
            204, 192, 172, 182, 168, 198, 196, 184,
        ]  # fmt: skip
        assert stats.setting_frames.tolist() == [
            3743, 3784, 3695, 3712, 3805, 3763, 3699, 3753,
            3808, 3832, 3721, 3706, 3699, 3719, 3837, 3724,
        ]  # fmt: skip
        assert stats.counts is stats.ports is stats.bins is None

    def test_frozen_counts_of_a_multi_block_dark_law(self):
        # Two rows take the window's 19 998 bins after the entry bins in two
        # blocks of at most BLOCK_CELLS = 16384: the law carries the decay
        # sums from the first block to the second.
        cfg = symmetric_config(2, 0.999, 20_000, p_dc=1e-4)
        stats = run_discrimination(cfg, 0, 10**6, 2024)
        assert stats.accepted_total == 864695
        assert stats.dark_clicks == 864195
        assert stats.setting_accepted.tolist() == [432858, 431837]
        assert stats.setting_frames.tolist() == [500377, 499623]

    def test_frozen_counts_of_dark_d1_clicks(self):
        # Basis input 1 has its D1 column at bin 1 and BACK columns at bins
        # 2..16, so dark D1 wins land on both kinds. The pin also depends on
        # numpy's multinomial algorithm.
        cfg = symmetric_config(4, 0.6, 16, p_dc=0.02)
        stats = run_trials(cfg, basis_state(4, 1), 20_000, 2024)
        assert stats.accepted_total == 766
        assert stats.dark_clicks == 1915
        assert stats.setting_frames is stats.setting_accepted is None
        for port, frames in (("D1", 12780), ("D2", 5656), ("BACK", 1564)):
            assert port_counts(stats, port).sum() == frames
        # the table's 33 columns, then the dark D1 columns (D1, 1..16)
        assert stats.ports[33:].tolist() == [TABLE_PORTS.index("D1")] * 16
        assert stats.bins[33:].tolist() == list(range(1, 17))
        merged = clicks(stats)
        assert [merged.get(("D1", b), 0) for b in range(1, 17)] == [
            12053, 89, 65, 43, 52, 46, 64, 54, 37, 43, 53, 49, 43, 32, 30, 27
        ]  # fmt: skip
        items = sorted((p, b, c) for (p, b), c in merged.items())
        assert hashlib.sha256(repr(items).encode()).hexdigest() == (
            "a93c62db02919d8412f8ead1e513e2f47e1c15414d517a4498125f3a31bf011e"
        )


class TestAgainstPerFrameOracle:
    """The count-based sampler against frames simulated one by one: a
    fixed-phase run under the earliest-click rule, a discrimination run
    under any D2 click in the window."""

    @pytest.mark.parametrize("p_dc", [0.0, 1e-3, 0.05, 0.5])
    @pytest.mark.parametrize("d", [2, 4, 16])
    @pytest.mark.parametrize("entry", ["run_trials", "run_discrimination"])
    def test_same_law_as_per_frame_sampler(self, entry, d, p_dc):
        r_sq, n_prime, k, n = 0.6, 4 * d, d // 2, 100_000
        cfg = symmetric_config(d, r_sq, n_prime, p_dc)
        if entry == "run_trials":
            state = random_normalized_state(np.random.default_rng(d), d)
            thetas = [cfg.theta]
            run = lambda seed: run_trials(cfg, state, n, seed)
        else:
            state = mub_state(d, k)
            thetas = [theta_for_outcome(d, m) for m in range(d)]
            run = lambda seed: run_discrimination(cfg, k, n, seed)
        amps = list(state.amps)

        def check(seed):
            got = run(seed)
            if entry == "run_trials":
                want = reference.sample_frames(
                    d, r_sq, r_sq, thetas, amps, n_prime, n_prime, p_dc, n, seed
                )
            else:
                want = reference.sample_window_frames(
                    d, r_sq, r_sq, thetas, amps, n_prime, p_dc, n, seed
                )
            pairs = [(got.dark_clicks, want.dark_clicks)]
            if entry == "run_trials":
                for port in TABLE_PORTS:
                    got_port = int(port_counts(got, port).sum())
                    want_port = sum(
                        c for (p, _), c in want.counts.items() if p == port
                    )
                    pairs.append((got_port, want_port))
                pairs.append((got.accepted_total, sum(want.setting_accepted)))
            else:
                pairs += [
                    (got.setting_accepted[m], want.setting_accepted[m])
                    for m in range(d)
                ]
            return all(within_two_sample_error(a, n, b, n) for a, b in pairs)

        assert retry_once(check, seeds=(8, 9))


def _reference_columns(law, cap):
    """:func:`reference.frame_law` in :func:`montecarlo._column_law`'s
    layout: the table's columns, then dark D1 and dark D2 at 1..cap."""
    n_table = 2 * cap + 1
    out = np.zeros(n_table + 2 * cap)
    for (port, b, dark), p in law.items():
        if dark:
            out[n_table + (cap if port == "D2" else 0) + b - 1] += p
        elif port == "NONE":
            out[n_table - 1] += p
        else:
            out[(cap if port == "D2" else 0) + b - 1] += p
    return out


def assert_laws_match_enumeration(d, cap, n_prime, k, r1_sq, r2_sq, p_dc):
    """A table's column law at ``cap`` equals :func:`reference.frame_law`
    (the earliest click wins), and the range law, which stops at the
    window's end n_prime, :func:`reference.window_law` (any D2 click in
    the window accepts), row by row within 1e-14."""
    state = mub_state(d, k)
    thetas = [theta_for_outcome(d, m) for m in range(d)]
    cfg = CavityConfig(
        dim=d, r1_sq=r1_sq, r2_sq=r2_sq, theta=0.0, n_prime=n_prime, p_dc=p_dc
    )
    table = outcome_table(cfg, state, thetas, cap)
    columns = montecarlo._column_law(table, p_dc, cap)
    ranges = montecarlo._range_law(cfg, state, thetas)
    assert ranges.shape == (d, 4 if p_dc > 0.0 else 3)
    for m, theta in enumerate(thetas):
        amps = list(state.amps)
        law = reference.frame_law(d, r1_sq, r2_sq, theta, amps, cap, p_dc)
        want = _reference_columns(law, cap)
        np.testing.assert_allclose(columns[m], want, rtol=0, atol=1e-14)
        want = reference.window_law(d, r1_sq, r2_sq, theta, amps, n_prime, p_dc)
        want = want if p_dc > 0.0 else want[:3]
        np.testing.assert_allclose(ranges[m], want, rtol=0, atol=1e-14)
        assert abs(columns[m].sum() - 1.0) <= 1e-14
        assert abs(ranges[m].sum() - 1.0) <= 1e-14


class TestExactFrameLaw:
    """The law each row's counts are drawn from, against the enumeration
    of every photon exit with every first dark bin, dark detector and tie
    coin (a fixed-phase run) or with the window's dark D2 clicks (a
    discrimination run)."""

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 5),
        extra_bins=st.integers(0, 6),
        window_data=st.data(),
        r1_sq=st.floats(0.0, 0.99),
        r2_sq=st.floats(0.0, 0.99),
        p_dc=st.floats(0.0, 0.9, exclude_min=True),
    )
    def test_law_matches_enumeration(
        self, d, extra_bins, window_data, r1_sq, r2_sq, p_dc
    ):
        cap = d + extra_bins
        n_prime = window_data.draw(st.integers(d, cap), label="n_prime")
        k = window_data.draw(st.integers(0, d - 1), label="k")
        assert_laws_match_enumeration(d, cap, n_prime, k, r1_sq, r2_sq, p_dc)

    @pytest.mark.parametrize("cells", [1, 2, 4, 7])
    @pytest.mark.parametrize("p_dc", [1e-3, 0.3])
    def test_blocked_dark_law_matches_enumeration(self, monkeypatch, cells, p_dc):
        # The range law's 11 bins after the last entry bin go in blocks of
        # 1, 2, 4 and 7 bins; the decay sums carry from block to block.
        monkeypatch.setattr(montecarlo, "BLOCK_CELLS", cells)
        assert_laws_match_enumeration(3, 14, 14, 1, 0.9, 0.8, p_dc)

    @pytest.mark.parametrize("p_dc", [1e-3, 0.3])
    def test_transparent_first_splitter_leaks_back(self, p_dc):
        # At r1 = 0 no slot reflects at D1: the upstream exits of the entry
        # bins are BACK leakage, which clicks no detector.
        assert_laws_match_enumeration(3, 8, 5, 1, 0.0, 0.8, p_dc)

    def test_residual_has_its_own_mass(self):
        # The (NONE, 0) mass is far below the rounding of the masses before
        # it; the column law takes it from the table, not as a difference
        # of running sums, and the range law as r2^2 |c_d|^2 times the decay.
        d, cap, p_dc = 4, 40, 1e-3
        cfg = symmetric_config(d, 0.5, cap, p_dc)
        state = mub_state(d, 1)
        thetas = [theta_for_outcome(d, m) for m in range(d)]
        table = outcome_table(cfg, state, thetas, cap)
        columns = montecarlo._column_law(table, p_dc, cap)
        ranges = montecarlo._range_law(cfg, state, thetas)
        for m, theta in enumerate(thetas):
            amps = list(state.amps)
            law = reference.frame_law(d, 0.5, 0.5, theta, amps, cap, p_dc)
            residual = law[("NONE", 0, False)]
            assert 0.0 < residual < 1e-18
            assert columns[m, 2 * cap] == pytest.approx(residual, rel=1e-12, abs=0)
            residual = reference.window_law(d, 0.5, 0.5, theta, amps, cap, p_dc)[2]
            assert 0.0 < residual < 1e-18
            assert ranges[m, 2] == pytest.approx(residual, rel=1e-12, abs=0)

    def test_law_without_dark_counts_is_the_table(self):
        # The column law is the table row; the range law sums the masses of
        # the table at cap n_prime over the columns before, inside and after
        # the window.
        d, cap, n_prime = 4, 12, 8
        cfg = symmetric_config(d, 0.7, n_prime)
        state = mub_state(d, 1)
        thetas = [theta_for_outcome(d, m) for m in range(d)]
        exact = outcome_table(cfg, state, thetas, cap).masses
        table = outcome_table(cfg, state, thetas, cap)
        assert np.array_equal(montecarlo._column_law(table, 0.0, cap), exact)
        ranges = montecarlo._range_law(cfg, state, thetas)
        assert ranges.shape == (d, 3)
        exact = outcome_table(cfg, state, thetas, n_prime).masses
        lo, hi = n_prime + d - 1, 2 * n_prime  # accepted columns
        want = [exact[:, :lo].sum(1), exact[:, lo:hi].sum(1), exact[:, hi:].sum(1)]
        np.testing.assert_allclose(ranges, np.transpose(want), rtol=0, atol=1e-15)

    def test_fixed_run_draws_small_masses_exactly(self, monkeypatch):
        # Near r = 1 the D2 masses after bin d are about 1e-13, far below
        # the rounding of the masses before them: taken as differences of
        # running sums they were drawn with relative error up to 1e-3.
        d, n_prime, r_sq, theta = 4, 16, 1 - 1e-6, 0.3
        cfg = CavityConfig(dim=d, r1_sq=r_sq, r2_sq=r_sq, theta=theta, n_prime=n_prime)
        state = mub_state(d, 1)
        masses = outcome_table(cfg, state, [theta], n_prime).masses[0]
        d2 = slice(n_prime, 2 * n_prime)
        assert (masses[d2][d:] < 1e-12).all()
        draws = _record_multinomials(monkeypatch)
        run_trials(cfg, state, 10**6, 1)
        assert np.array_equal(draws[-1], masses)
        p_dc = 1e-3
        run_trials(dataclasses.replace(cfg, p_dc=p_dc), state, 10**6, 1)
        keeps, _ = montecarlo._bin_shares(2.0 * math.log1p(-p_dc), 1, n_prime + 1)
        np.testing.assert_allclose(draws[-1][d2], masses[d2] * keeps, rtol=1e-12, atol=0)


class TestCost:
    """A run costs O(rows K), whatever n_trials and p_dc are."""

    @pytest.mark.parametrize("n_trials", [2**63, 10**30])
    def test_trials_beyond_int64_are_rejected(self, monkeypatch, n_trials):
        # numpy counts in int64; such a run used to go on without end
        _forbid_building(monkeypatch)
        cfg = symmetric_config(2, 0.5, 4)
        with pytest.raises(ValueError, match="n_trials"):
            run_trials(cfg, mub_state(2, 0), n_trials, 1)
        with pytest.raises(ValueError, match="n_trials"):
            run_discrimination(symmetric_config(2, 0.5, 4), 0, n_trials, 1)

    @pytest.mark.parametrize("p_dc", [0.0, 1e-4])
    @pytest.mark.parametrize("n_trials", [10**15, montecarlo.MAX_TRIALS])
    def test_cost_does_not_grow_with_trials(self, n_trials, p_dc):
        # no frame is simulated on its own, with dark counts or without:
        # the run is two multinomials, whatever n_trials is
        cfg = symmetric_config(16, 0.8, 64, p_dc)
        start = time.perf_counter()
        stats = run_discrimination(cfg, 3, n_trials, 7)
        fixed = run_trials(cfg, mub_state(16, 3), n_trials, 7)
        assert time.perf_counter() - start < 5.0
        assert stats.setting_frames.sum() == n_trials
        assert fixed.counts.sum() == n_trials
        assert 0 < stats.accepted_total < n_trials
        assert (stats.dark_clicks > 0) == (fixed.dark_clicks > 0) == (p_dc > 0)

    @pytest.mark.parametrize(
        "d, p_dc, categories", [(2, 0.0, 3), (64, 0.0, 3), (2, 1e-3, 4), (64, 1e-3, 4)]
    )
    def test_discrimination_run_is_two_multinomials(
        self, monkeypatch, d, p_dc, categories
    ):
        # the setting counts, then every setting's frame law at once: the
        # photon ranges, and with dark counts the frames a dark click alone
        # accepts
        draws = _record_multinomials(monkeypatch)
        run_discrimination(symmetric_config(d, 0.8, 4 * d, p_dc), 0, 10**6, 7)
        assert [pvals.shape for pvals in draws] == [(d,), (d, categories)]

    @pytest.mark.parametrize("p_dc", [0.0, 1e-3])
    def test_each_run_draws_only_its_own_multinomials(self, monkeypatch, p_dc):
        # a fixed-phase run has one row and no setting draw: its one
        # multinomial is over that row's law; a discrimination run draws
        # the setting counts, then every setting's law
        cfg = symmetric_config(4, 0.8, 16, p_dc)
        draws = _record_multinomials(monkeypatch)
        run_trials(cfg, mub_state(4, 1), 10**6, 7)
        assert [pvals.ndim for pvals in draws] == [1]
        del draws[:]
        run_discrimination(cfg, 1, 10**6, 7)
        assert [pvals.shape[0] for pvals in draws] == [4, 4]

    def test_memory_does_not_grow_with_trials(self):
        # p_dc = 1e-3 over 2**16 bins: all but a share e**-131 of the frames
        # have a dark click inside the window, and none is simulated alone.
        cfg, base = symmetric_config(2, 0.9, 2**16, p_dc=1e-3), 4_096

        def peak(n_trials):
            tracemalloc.start()
            try:
                run_discrimination(cfg, 0, n_trials, 3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(40 * base) <= 1.2 * peak(4 * base)

    @pytest.mark.parametrize("p_dc", [0.0, 1e-7])
    def test_discrimination_run_allocates_nothing_per_column(self, p_dc):
        # The table of d = 2, n' = 2**20 would have 2**21 + 1 columns: an
        # int64 or bool array over them would take 16 or 2 MiB. The run
        # builds no table and keeps only per-setting counts; its law sums
        # the bins after d in 1-D blocks of at most BLOCK_CELLS bins, so from
        # two blocks on its peak no longer grows with the window.
        run_discrimination(symmetric_config(2, 0.9, 8, p_dc), 0, 10, 1)
        peaks = []
        for n_prime in (2 * montecarlo.BLOCK_CELLS, 2**20):
            tracemalloc.start()
            try:
                cfg = symmetric_config(2, 0.9, n_prime, p_dc)
                stats = run_discrimination(cfg, 0, 10**5, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert stats.accepted_total > 0
        assert peaks[1] <= 1.1 * peaks[0]
        assert peaks[1] < 2**21

    def test_long_window_at_d_64_stays_small(self):
        # The largest window the cell cap lets through at d = 64, near r = 1
        # where the photon circulates for about 1 / (1 - r^2) bins. A
        # (64, 2 n' + 1) table and its CDF took 66 MiB here.
        d, n_prime = 64, montecarlo.MAX_WINDOW_CELLS // 64 - 64
        run_discrimination(symmetric_config(d, 0.999, 256, 1e-5), 0, 10, 1)
        cfg = symmetric_config(d, 0.999, n_prime, 1e-5)
        tracemalloc.start()
        try:
            stats = run_discrimination(cfg, 0, 10**6, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n_prime == 65_472
        assert stats.accepted_total > 0
        assert peak < 2**21


def _record_multinomials(monkeypatch):
    """The list that each of a run's multinomials appends a copy of its
    pvals to, in draw order."""
    draws = []

    class Recording:
        def __init__(self, generator):
            self._generator = generator

        def multinomial(self, n, pvals):
            draws.append(np.array(pvals))
            return self._generator.multinomial(n, pvals)

        def __getattr__(self, name):
            return getattr(self._generator, name)

    generator = montecarlo._generator
    monkeypatch.setattr(
        montecarlo, "_generator", lambda seed: Recording(generator(seed))
    )
    return draws


def _must_not_allocate(*args, **kwargs):
    raise AssertionError("oversized window reached the table or law build")


def _forbid_building(monkeypatch):
    """Fail a run that reaches a fixed-phase run's table or a
    discrimination run's law."""
    monkeypatch.setattr(montecarlo, "full_outcome_distribution", _must_not_allocate)
    monkeypatch.setattr(montecarlo, "_range_law", _must_not_allocate)


# Both entry points at d = 4 with the cap as the argument: a fixed-phase
# run's bin_cap at n' = 8, and a discrimination run's n', its cap.
ENTRIES_AT_D4 = [
    lambda cap: run_trials(
        symmetric_config(4, 0.5, 8), mub_state(4, 0), 10, 1, bin_cap=cap
    ),
    lambda cap: run_discrimination(symmetric_config(4, 0.5, cap), 0, 10, 1),
]
ENTRY_IDS = ["run_trials", "run_discrimination"]


class TestWindowCap:
    def test_cli_uses_the_sampler_cap(self):
        from timebin_cavity import cli

        assert cli.MAX_WINDOW_CELLS is montecarlo.MAX_WINDOW_CELLS

    @pytest.mark.parametrize("entry", ENTRIES_AT_D4, ids=ENTRY_IDS)
    def test_oversized_bin_cap_is_rejected_before_allocation(self, monkeypatch, entry):
        _forbid_building(monkeypatch)
        one_bin_over = montecarlo.MAX_WINDOW_CELLS // 4 - 4 + 1  # d = 4
        with pytest.raises(ValueError, match="size cap"):
            entry(one_bin_over)
        with pytest.raises(ValueError, match="size cap"):
            entry(10**12)

    @pytest.mark.parametrize("cap", [7, 0, -1])
    @pytest.mark.parametrize("entry", ENTRIES_AT_D4[:1], ids=ENTRY_IDS[:1])
    def test_bin_cap_must_cover_the_window(self, entry, cap):
        # a discrimination run's cap is its window's end
        message = f"bin_cap ({cap}) must cover the accepted window (n_prime = 8)"
        with pytest.raises(ValueError, match=re.escape(message)):
            entry(cap)

    def test_oversized_dimension_is_rejected(self, monkeypatch):
        _forbid_building(monkeypatch)
        with pytest.raises(ValueError, match="size cap"):
            run_discrimination(symmetric_config(4096, 0.5, 4096), 0, 10, 1)
        monkeypatch.setattr(montecarlo, "mub_state", _must_not_allocate)
        with pytest.raises(ValueError, match="size cap"):
            run_discrimination(symmetric_config(10**9, 0.5, 10**9), 0, 10, 1)

    def test_table_build_stays_under_45_bytes_per_cell(self):
        d, n_prime = 256, 1024
        cfg = symmetric_config(d, 0.9, n_prime)
        state = mub_state(d, 0)
        thetas = [theta_for_outcome(d, m) for m in range(d)]
        tracemalloc.start()
        try:
            table = outcome_table(cfg, state, thetas, n_prime)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.masses.shape == (d, 2 * n_prime + 1)
        assert peak <= 45 * d * (n_prime + d)

    def test_entry_bin_scan_is_blocked(self):
        # At n_prime = d half the table's columns are entry bins; the largest
        # such d under the cell cap. The table takes 8 B per cell and the
        # scan's block buffers 640 KiB; a scan over all d entry bins at once
        # would hold (d + 1) x d complex amplitudes, 16 B per cell more.
        d = 1448
        cfg = symmetric_config(d, 0.9, d)
        thetas = [theta_for_outcome(d, m) for m in range(d)]
        state = mub_state(d, 0)
        tracemalloc.start()
        try:
            outcome_table(cfg, state, thetas, d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * d * (d + d)
