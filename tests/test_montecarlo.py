import dataclasses
import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.stats

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
    DarkCountModel,
    Port,
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
from timebin_cavity.cavity import TABLE_PORTS

NO_DARK = DarkCountModel(0.0)


def symmetric_config(d, r_sq, n_prime):
    return CavityConfig(
        dim=d, r1_sq=r_sq, r2_sq=r_sq, theta=theta_for_outcome(d, 0), n_prime=n_prime
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
        stats = run_trials(cfg, basis_state(4, 3), NO_DARK, 25, master_seed=0)
        assert clicks(stats) == {(Port.D2, 3): 25}
        assert stats.dark_clicks == 0

    def test_certain_dark_rate_is_rejected_by_model(self):
        with pytest.raises(ValueError, match="dark-count"):
            DarkCountModel(1.0)

    def test_bins_stay_under_cap(self):
        cfg = symmetric_config(3, 0.9, 9)
        state = mub_state(3, 1)
        dark = DarkCountModel(0.05)
        stats = run_trials(cfg, state, dark, 60, master_seed=0, bin_cap=12)
        # every column, the cap dark D1 ones included, clicked or not
        assert stats.counts.shape == stats.ports.shape == stats.bins.shape == (37,)
        none = stats.ports == TABLE_PORTS.index(Port.NONE)
        assert (stats.bins[none] == 0).all()
        assert ((1 <= stats.bins[~none]) & (stats.bins[~none] <= 12)).all()


class TestRunTrials:
    def test_identical_seeds_give_identical_stats(self):
        cfg = symmetric_config(2, 0.5, 6)
        state = mub_state(2, 0)
        a = run_trials(cfg, state, NO_DARK, 20_000, master_seed=314)
        b = run_trials(cfg, state, NO_DARK, 20_000, master_seed=314)
        assert_same_stats(a, b)

    def test_requires_at_least_one_trial(self):
        cfg = symmetric_config(2, 0.5, 4)
        with pytest.raises(ValueError, match="n_trials"):
            run_trials(cfg, mub_state(2, 0), NO_DARK, 0, 1)

    def test_counts_add_up_to_trials(self):
        cfg = symmetric_config(4, 0.5, 12)
        stats = run_trials(cfg, mub_state(4, 0), DarkCountModel(0.002), 50_000, 5)
        assert stats.counts.dtype == np.int64
        assert stats.counts.sum() == 50_000

    def test_error_estimator_requires_discrimination_run(self):
        cfg = symmetric_config(2, 0.5, 4)
        stats = run_trials(cfg, mub_state(2, 0), NO_DARK, 1_000, 1)
        with pytest.raises(ValueError, match="discrimination"):
            stats.p_e_hat()

    def test_every_entry_frequency_matches_analytic(self):
        cfg = symmetric_config(4, 0.5, 12)
        state = random_normalized_state(np.random.default_rng(1), 4)
        table = full_outcome_distribution(cfg, state, 12)
        n = 200_000

        def check(seed):
            stats = run_trials(cfg, state, NO_DARK, n, seed)
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
        stats = run_trials(cfg, state, NO_DARK, n, master_seed=4242)

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
            stats = run_trials(cfg, state, DarkCountModel(p_dc), n, seed)
            return within_binomial_error(stats.dark_clicks / n, p_dark_wins, n)

        assert retry_once(check, seeds=(11, 12))

    def test_dark_clicks_split_evenly_between_detectors(self):
        # no photon at all cannot be arranged, so use a photon that nearly
        # always leaves late: dark clicks at early bins dominate both ports
        cfg = symmetric_config(2, 0.9, 40)
        state = mub_state(2, 0)
        stats = run_trials(cfg, state, DarkCountModel(0.01), 100_000, 21)
        late = stats.bins > 2
        d1 = stats.ports == TABLE_PORTS.index(Port.D1)
        d2 = stats.ports == TABLE_PORTS.index(Port.D2)
        d1_dark_region = stats.counts[late & d1].sum()
        d2_dark_region = stats.counts[late & d2].sum()
        # D2 also receives signal clicks in this region; it must be the
        # larger of the two, and both must be populated
        assert d1_dark_region > 0
        assert d2_dark_region > d1_dark_region

    @pytest.mark.parametrize("p_dc", [0.0, 1e-300, 1e-17, 1e-12, 0.5])
    def test_any_dark_rate_down_to_the_smallest(self, p_dc):
        # (1 - p_dc)**2 rounds to 1 below ~1e-17; the per-bin survival must
        # still be finite and the preemption rate match the closed form
        cfg = CavityConfig(dim=4, r1_sq=0.0, r2_sq=0.0, theta=0.0, n_prime=8)
        state = basis_state(4, 3)
        n = 20_000
        stats = run_trials(cfg, state, DarkCountModel(p_dc), n, 17)
        assert stats.counts.sum() == n
        q = math.exp(2.0 * math.log1p(-p_dc))
        p_dark_wins = (1.0 - q**2) + q**2 * (1.0 - q) / 2.0
        assert within_binomial_error(stats.dark_clicks / n, p_dark_wins, n)
        if p_dc < 1e-6:
            clean = run_trials(cfg, state, NO_DARK, n, 17)
            assert clicks(stats) == clicks(clean)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p_dc", [1e-310, 5e-324])
    def test_subnormal_dark_rate_does_not_overflow(self, p_dc):
        # the per-bin log survival is subnormal: the first-dark quotient
        # overflows to inf, which means no dark click inside the cap, as
        # at a tiny normal p_dc with the same variates per trial
        stats = run_discrimination(2, 0.5, 0.5, 8, 0, DarkCountModel(p_dc), 1000, 1)
        tiny = run_discrimination(2, 0.5, 0.5, 8, 0, DarkCountModel(1e-300), 1000, 1)
        assert stats.dark_clicks == tiny.dark_clicks == 0
        assert stats.counts is tiny.counts is None
        assert stats.setting_accepted == tiny.setting_accepted

    def test_zero_dark_rate_never_flags_dark(self):
        cfg = symmetric_config(2, 0.5, 6)
        stats = run_trials(cfg, mub_state(2, 0), NO_DARK, 10_000, 3)
        assert stats.dark_clicks == 0


class TestRunDiscrimination:
    def test_reproducible(self):
        a = run_discrimination(2, 0.5, 0.5, 4, 0, NO_DARK, 25_000, 777)
        b = run_discrimination(2, 0.5, 0.5, 4, 0, NO_DARK, 25_000, 777)
        assert_same_stats(a, b)

    def test_frozen_counts_without_dark_counts(self):
        # setting counts, then one multinomial over every setting's three
        # column ranges; the pin also depends on numpy's binomial and
        # multinomial algorithms
        stats = run_discrimination(16, 0.8, 0.8, 64, 3, NO_DARK, 60_000, 2024)
        assert stats.accepted_total == 1169
        assert stats.dark_clicks == 0
        assert [stats.setting_accepted.get(m, 0) for m in range(16)] == [
            21, 44, 175, 612, 164, 37, 17, 12, 13, 14, 14, 10, 11, 10, 2, 13
        ]  # fmt: skip
        assert [stats.setting_frames[m] for m in range(16)] == [
            3743, 3784, 3695, 3712, 3805, 3763, 3699, 3753,
            3808, 3832, 3721, 3706, 3699, 3719, 3837, 3724,
        ]  # fmt: skip
        assert stats.counts is None  # a discrimination run keeps no bin counts

    def test_settings_cover_all_outcomes(self):
        stats = run_discrimination(4, 0.5, 0.5, 8, 0, NO_DARK, 40_000, 13)
        assert sorted(stats.setting_frames) == [0, 1, 2, 3]
        assert sum(stats.setting_frames.values()) == 40_000

    def test_error_estimate_matches_analytic(self):
        cfg = symmetric_config(2, 0.5, 4)
        expected = total_error(cfg)
        n = 150_000

        def check(seed):
            stats = run_discrimination(2, 0.5, 0.5, 4, 0, NO_DARK, n, seed)
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
            stats = run_discrimination(d, r_sq, r_sq, n_prime, 0, NO_DARK, n, seed)
            return within_binomial_error(
                stats.d2_window_frequency(), mean_acceptance, n
            )

        assert retry_once(check, seeds=(51, 52))

    @pytest.mark.parametrize("d, n_prime, bin_cap", [(2, 2, 9), (4, 4, 12), (4, 7, 20)])
    def test_window_edges_inside_a_longer_cap(self, d, n_prime, bin_cap):
        # The window is the D2 bins d..n_prime, not the whole cap; n_prime = d
        # is a one-bin window. Moving either edge by one bin shifts some
        # setting's acceptance by many sigma at these sizes.
        r_sq, k, n = 0.9, 1, 400_000
        cfg = symmetric_config(d, r_sq, n_prime)
        (expected,) = cutoff_acceptances(cfg, k, [n_prime])

        def check(seed):
            stats = run_discrimination(
                d, r_sq, r_sq, n_prime, k, NO_DARK, n, seed, bin_cap=bin_cap
            )
            return all(
                within_binomial_error(stats.p_hat(m), p, stats.setting_frames[m])
                for m, p in enumerate(expected.tolist())
            )

        assert retry_once(check, seeds=(71, 72))

    @pytest.mark.parametrize("seed", [-1, 2**128, 2**128 + 1])
    def test_seed_outside_key_range_is_rejected(self, seed):
        # The seed is the Philox key, not reduced onto it: 2**128 + 1 must
        # not run the stream of seed 1.
        with pytest.raises(ValueError, match="2\\*\\*128"):
            run_discrimination(2, 0.5, 0.5, 4, 0, DarkCountModel(0.0), 100, seed)

    def test_invalid_prepared_index(self):
        with pytest.raises(ValueError, match="out of range"):
            run_discrimination(4, 0.5, 0.5, 8, 4, NO_DARK, 100, 1)


class TestFixedRunAgainstAnalyticD2:
    def test_windowed_d2_frequency(self):
        cfg = symmetric_config(2, 0.5, 8)
        state = mub_state(2, 0)
        expected = d2_total_probability(cfg, state)
        n = 200_000

        def check(seed):
            stats = run_trials(cfg, state, NO_DARK, n, seed)
            return within_binomial_error(stats.d2_window_frequency(), expected, n)

        assert retry_once(check, seeds=(61, 62))


class TestFrozenCounts:
    def test_frozen_counts(self):
        # setting, hit and photon-range counts, then the hit frames one by
        # one; the pin also depends on numpy's binomial and multinomial
        # algorithms
        stats = run_discrimination(
            16, 0.8, 0.8, 64, 3, DarkCountModel(1e-3), 60_000, 2024
        )
        assert stats.accepted_total == 1129
        assert stats.dark_clicks == 1059
        assert [stats.setting_accepted.get(m, 0) for m in range(16)] == [
            24, 43, 125, 621, 156, 52, 21, 14, 12, 10, 11, 7, 7, 7, 7, 12
        ]  # fmt: skip
        assert [stats.setting_frames[m] for m in range(16)] == [
            3743, 3784, 3695, 3712, 3805, 3763, 3699, 3753,
            3808, 3832, 3721, 3706, 3699, 3719, 3837, 3724,
        ]  # fmt: skip
        assert stats.counts is stats.ports is stats.bins is None

    def test_frozen_counts_of_dark_d1_clicks(self):
        # Basis input 1 has its D1 column at bin 1 and BACK columns at bins
        # 2..16, so dark D1 wins land on both kinds. The pin also depends on
        # numpy's binomial and multinomial algorithms.
        cfg = symmetric_config(4, 0.6, 16)
        stats = run_trials(cfg, basis_state(4, 1), DarkCountModel(0.02), 20_000, 2024)
        assert stats.accepted_total == 763
        assert stats.dark_clicks == 1862
        assert stats.setting_frames == {} and stats.setting_accepted == {}
        for port, frames in ((Port.D1, 12768), (Port.D2, 5663), (Port.BACK, 1569)):
            assert port_counts(stats, port).sum() == frames
        # the table's 33 columns, then the dark D1 columns (D1, 1..16)
        assert stats.ports[33:].tolist() == [TABLE_PORTS.index(Port.D1)] * 16
        assert stats.bins[33:].tolist() == list(range(1, 17))
        merged = clicks(stats)
        assert [merged.get((Port.D1, b), 0) for b in range(1, 17)] == [
            12084, 78, 70, 64, 65, 46, 32, 41, 37, 33, 43, 36, 32, 35, 43, 29
        ]  # fmt: skip
        items = sorted((p.value, b, c) for (p, b), c in merged.items())
        assert hashlib.sha256(repr(items).encode()).hexdigest() == (
            "5329b52e5f042763c006664bd18c36a804c7a01a6911bbbd09bcb2d9a05e3fba"
        )


class TestAgainstPerFrameOracle:
    """The count-based sampler against frames simulated one by one."""

    @pytest.mark.parametrize("p_dc", [0.0, 1e-3, 0.05])
    @pytest.mark.parametrize("d", [2, 4, 16])
    @pytest.mark.parametrize("entry", ["run_trials", "run_discrimination"])
    def test_same_law_as_per_frame_sampler(self, entry, d, p_dc):
        r_sq, n_prime, k, n = 0.6, 4 * d, d // 2, 100_000
        dark = DarkCountModel(p_dc)
        if entry == "run_trials":
            cfg = symmetric_config(d, r_sq, n_prime)
            state = random_normalized_state(np.random.default_rng(d), d)
            thetas = [cfg.theta]
            run = lambda seed: run_trials(cfg, state, dark, n, seed)
        else:
            state = mub_state(d, k)
            thetas = [theta_for_outcome(d, m) for m in range(d)]
            run = lambda seed: run_discrimination(
                d, r_sq, r_sq, n_prime, k, dark, n, seed
            )
        amps = list(state.amps)

        def check(seed):
            got = run(seed)
            want = reference.sample_frames(
                d, r_sq, r_sq, thetas, amps, n_prime, n_prime, p_dc, n, seed
            )
            pairs = [(got.dark_clicks, want.dark_clicks)]
            if entry == "run_trials":
                for port in Port:
                    got_port = int(port_counts(got, port).sum())
                    want_port = sum(
                        c for (p, _), c in want.counts.items() if p == port.value
                    )
                    pairs.append((got_port, want_port))
                pairs.append((got.accepted_total, sum(want.setting_accepted)))
            else:
                pairs += [
                    (got.setting_accepted.get(m, 0), want.setting_accepted[m])
                    for m in range(d)
                ]
            return all(within_two_sample_error(a, n, b, n) for a, b in pairs)

        assert retry_once(check, seeds=(8, 9))


class TestCost:
    """A run costs O(table + hit frames), whatever n_trials is."""

    @pytest.mark.parametrize("n_trials", [2**63, 10**30])
    def test_trials_beyond_int64_are_rejected(self, monkeypatch, n_trials):
        # numpy counts in int64; such a run used to go on without end
        monkeypatch.setattr(montecarlo, "outcome_table", _must_not_allocate)
        cfg = symmetric_config(2, 0.5, 4)
        with pytest.raises(ValueError, match="n_trials"):
            run_trials(cfg, mub_state(2, 0), NO_DARK, n_trials, 1)
        with pytest.raises(ValueError, match="n_trials"):
            run_discrimination(2, 0.5, 0.5, 4, 0, NO_DARK, n_trials, 1)

    @pytest.mark.parametrize("n_trials", [10**15, montecarlo.MAX_TRIALS])
    def test_cost_does_not_grow_with_trials(self, n_trials):
        # without dark counts no frame is simulated on its own: the run is
        # two multinomials, whatever n_trials is
        start = time.perf_counter()
        stats = run_discrimination(16, 0.8, 0.8, 64, 3, NO_DARK, n_trials, 7)
        fixed = run_trials(
            symmetric_config(16, 0.8, 64), mub_state(16, 3), NO_DARK, n_trials, 7
        )
        assert time.perf_counter() - start < 5.0
        assert sum(stats.setting_frames.values()) == n_trials
        assert fixed.counts.sum() == n_trials
        assert 0 < stats.accepted_total < n_trials

    @pytest.mark.parametrize("d", [2, 64])
    def test_discrimination_run_is_two_multinomials(self, monkeypatch, d):
        # the setting counts, then every setting's photon ranges at once
        sizes = []

        class Counting:
            def __init__(self, generator):
                self._generator = generator

            def multinomial(self, n, pvals):
                sizes.append(np.shape(pvals))
                return self._generator.multinomial(n, pvals)

            def __getattr__(self, name):
                return getattr(self._generator, name)

        generator = montecarlo._generator
        monkeypatch.setattr(
            montecarlo, "_generator", lambda seed: Counting(generator(seed))
        )
        run_discrimination(d, 0.8, 0.8, 4 * d, 0, DarkCountModel(1e-3), 10**6, 7)
        assert sizes == [(d,), (d, 3)]

    def test_memory_does_not_grow_with_hit_chunks(self, monkeypatch):
        # p_dc = 1e-3 over 2**16 bins: all but a share e**-131 of the frames
        # have a dark click inside the cap and are simulated one by one, in
        # chunks of 4096, each tallied into the per-setting accepted counts.
        d, cap, chunk = 2, 2**16, 4_096
        table = montecarlo._outcome_table(
            symmetric_config(d, 0.9, 8),
            mub_state(d, 0),
            [theta_for_outcome(d, m) for m in range(d)],
            cap,
        )
        monkeypatch.setattr(montecarlo, "_outcome_table", lambda *_: table)
        monkeypatch.setattr(montecarlo, "_DEFAULT_CHUNK", chunk)

        def peak(chunks):
            tracemalloc.start()
            try:
                run_discrimination(
                    d, 0.9, 0.9, 8, 0, DarkCountModel(1e-3), chunks * chunk, 3,
                    bin_cap=cap,
                )  # fmt: skip
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(40) <= 1.2 * peak(4)

    @pytest.mark.parametrize("p_dc", [0.0, 1e-7])
    def test_discrimination_run_allocates_nothing_per_column(self, monkeypatch, p_dc):
        # The table of d = 2, n' = 2**20 has 2**21 + 1 columns: an int64 or
        # bool array over them would take 16 or 2 MiB. The run keeps only
        # per-setting counts and tests acceptance as a column range; at
        # p_dc = 1e-7 about 19 000 hit frames take part.
        d, n_prime = 2, 2**20
        table = montecarlo._outcome_table(
            symmetric_config(d, 0.9, n_prime),
            mub_state(d, 0),
            [theta_for_outcome(d, m) for m in range(d)],
            n_prime,
        )
        monkeypatch.setattr(montecarlo, "_outcome_table", lambda *_: table)

        def run():
            return run_discrimination(
                d, 0.9, 0.9, n_prime, 0, DarkCountModel(p_dc), 10**5, 1
            )

        run()  # the first run imports numpy's seeding modules
        tracemalloc.start()
        try:
            stats = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.accepted_total > 0
        assert peak < 2**20


def _must_not_allocate(*args, **kwargs):
    raise AssertionError("oversized window reached the table build")


class TestWindowCap:
    def test_cli_uses_the_sampler_cap(self):
        from timebin_cavity import cli

        assert cli.MAX_WINDOW_CELLS is montecarlo.MAX_WINDOW_CELLS

    @pytest.mark.parametrize(
        "entry",
        [
            lambda cap: run_trials(
                symmetric_config(4, 0.5, 8), mub_state(4, 0), NO_DARK, 10, 1,
                bin_cap=cap,
            ),
            lambda cap: run_discrimination(
                4, 0.5, 0.5, 8, 0, NO_DARK, 10, 1, bin_cap=cap
            ),
        ],
        ids=["run_trials", "run_discrimination"],
    )  # fmt: skip
    def test_oversized_bin_cap_is_rejected_before_allocation(self, monkeypatch, entry):
        monkeypatch.setattr(montecarlo, "outcome_table", _must_not_allocate)
        one_bin_over = montecarlo.MAX_WINDOW_CELLS // 4 - 4 + 1  # d = 4
        with pytest.raises(ValueError, match="size cap"):
            entry(one_bin_over)
        with pytest.raises(ValueError, match="size cap"):
            entry(10**12)

    def test_oversized_dimension_is_rejected(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "outcome_table", _must_not_allocate)
        with pytest.raises(ValueError, match="size cap"):
            run_discrimination(4096, 0.5, 0.5, 4096, 0, NO_DARK, 10, 1)
        monkeypatch.setattr(montecarlo, "mub_state", _must_not_allocate)
        with pytest.raises(ValueError, match="size cap"):
            run_discrimination(10**9, 0.5, 0.5, 10**9, 0, NO_DARK, 10, 1)

    def test_table_build_stays_under_45_bytes_per_cell(self):
        d, n_prime = 256, 1024
        cfg = symmetric_config(d, 0.9, n_prime)
        state = mub_state(d, 0)
        thetas = [theta_for_outcome(d, m) for m in range(d)]
        tracemalloc.start()
        try:
            table = montecarlo._outcome_table(cfg, state, thetas, n_prime)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.cdf.shape == (d, 2 * n_prime + 1)
        assert (table.cdf[:, -1] == 1.0).all()
        assert peak <= 45 * d * (n_prime + d)
