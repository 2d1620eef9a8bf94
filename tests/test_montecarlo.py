import hashlib
import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import random_normalized_state, retry_once, within_binomial_error
from timebin_cavity import montecarlo
from timebin_cavity import (
    CavityConfig,
    DarkCountModel,
    Port,
    basis_state,
    d2_total_probability,
    full_outcome_distribution,
    mub_state,
    run_discrimination,
    run_trials,
    theta_for_outcome,
    total_error,
)

NO_DARK = DarkCountModel(0.0)


def symmetric_config(d, r_sq, n_prime):
    return CavityConfig(
        dim=d, r1_sq=r_sq, r2_sq=r_sq, theta=theta_for_outcome(d, 0), n_prime=n_prime
    )


class TestSampleFrame:
    """Frame-level behaviour, sampled through run_trials."""

    def test_transparent_splitters_always_click_input_bin(self):
        cfg = CavityConfig(dim=4, r1_sq=0.0, r2_sq=0.0, theta=0.1, n_prime=8)
        stats = run_trials(cfg, basis_state(4, 3), NO_DARK, 25, master_seed=0)
        assert stats.counts == {(Port.D2, 3): 25}
        assert stats.dark_clicks == 0

    def test_certain_dark_rate_is_rejected_by_model(self):
        with pytest.raises(ValueError, match="dark-count"):
            DarkCountModel(1.0)

    def test_bins_stay_under_cap(self):
        cfg = symmetric_config(3, 0.9, 9)
        state = mub_state(3, 1)
        dark = DarkCountModel(0.05)
        stats = run_trials(cfg, state, dark, 60, master_seed=0, bin_cap=12)
        for port, time_bin in stats.counts:
            if port is Port.NONE:
                assert time_bin == 0
            else:
                assert 1 <= time_bin <= 12


class TestRunTrials:
    def test_identical_seeds_give_identical_stats(self):
        cfg = symmetric_config(2, 0.5, 6)
        state = mub_state(2, 0)
        a = run_trials(cfg, state, NO_DARK, 20_000, master_seed=314)
        b = run_trials(cfg, state, NO_DARK, 20_000, master_seed=314)
        assert a == b

    @pytest.mark.parametrize("p_dc", [0.001, 0.0])
    def test_independent_of_chunking(self, p_dc):
        # both entry points: a one-row and a d-row table; without dark
        # counts a trial is two doubles, and the 7777-trial chunks start
        # half-way through a Philox block
        cfg = symmetric_config(3, 0.6, 9)
        state = mub_state(3, 2)
        dark = DarkCountModel(p_dc)
        for run in (
            lambda **kw: run_trials(cfg, state, dark, 30_000, 99, **kw),
            lambda **kw: run_discrimination(3, 0.6, 0.6, 9, 2, dark, 30_000, 99, **kw),
        ):
            full = run()
            for chunk in (1_000, 7_777, 30_000):
                assert run(chunk_size=chunk) == full

    def test_requires_at_least_one_trial(self):
        cfg = symmetric_config(2, 0.5, 4)
        with pytest.raises(ValueError, match="n_trials"):
            run_trials(cfg, mub_state(2, 0), NO_DARK, 0, 1)

    def test_counts_add_up_to_trials(self):
        cfg = symmetric_config(4, 0.5, 12)
        stats = run_trials(cfg, mub_state(4, 0), DarkCountModel(0.002), 50_000, 5)
        assert sum(stats.counts.values()) == 50_000

    def test_error_estimator_requires_discrimination_run(self):
        cfg = symmetric_config(2, 0.5, 4)
        stats = run_trials(cfg, mub_state(2, 0), NO_DARK, 1_000, 1)
        with pytest.raises(ValueError, match="discrimination"):
            stats.p_e_hat()

    def test_every_entry_frequency_matches_analytic(self):
        cfg = symmetric_config(4, 0.5, 12)
        state = random_normalized_state(np.random.default_rng(1), 4)
        dist = full_outcome_distribution(cfg, state, 12)
        n = 200_000

        def check(seed):
            stats = run_trials(cfg, state, NO_DARK, n, seed)
            expected = dict(dist.sorted_entries())
            expected[(Port.NONE, 0)] = dist.residual
            for key, p in expected.items():
                port, time_bin = key
                freq = stats.frequency(port, time_bin)
                if not within_binomial_error(freq, p, n):
                    return False
            return True

        assert retry_once(check, seeds=(2024, 2025))

    def test_chi_square_against_analytic_distribution(self):
        cfg = symmetric_config(4, 0.7, 12)
        state = mub_state(4, 0)
        dist = full_outcome_distribution(cfg, state, 12)
        n = 300_000
        stats = run_trials(cfg, state, NO_DARK, n, master_seed=4242)

        cells = list(dist.sorted_entries()) + [((Port.NONE, 0), dist.residual)]
        observed, expected = [], []
        small_obs, small_exp = 0, 0.0
        for key, p in cells:
            e = p * n
            o = stats.counts.get(key, 0)
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
        d1_dark_region = sum(
            c for (port, b), c in stats.counts.items() if port is Port.D1 and b > 2
        )
        d2_dark_region = sum(
            c for (port, b), c in stats.counts.items() if port is Port.D2 and b > 2
        )
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
        assert sum(stats.counts.values()) == n
        q = math.exp(2.0 * math.log1p(-p_dc))
        p_dark_wins = (1.0 - q**2) + q**2 * (1.0 - q) / 2.0
        assert within_binomial_error(stats.dark_clicks / n, p_dark_wins, n)
        if p_dc < 1e-6:
            clean = run_trials(cfg, state, NO_DARK, n, 17)
            assert stats.counts == clean.counts

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p_dc", [1e-310, 5e-324])
    def test_subnormal_dark_rate_does_not_overflow(self, p_dc):
        # the per-bin log survival is subnormal: the first-dark quotient
        # overflows to inf, which means no dark click inside the cap, as
        # at a tiny normal p_dc with the same variates per trial
        stats = run_discrimination(2, 0.5, 0.5, 8, 0, DarkCountModel(p_dc), 1000, 1)
        tiny = run_discrimination(2, 0.5, 0.5, 8, 0, DarkCountModel(1e-300), 1000, 1)
        assert stats.dark_clicks == tiny.dark_clicks == 0
        assert stats.counts == tiny.counts
        assert stats.setting_accepted == tiny.setting_accepted

    def test_zero_dark_rate_never_flags_dark(self):
        cfg = symmetric_config(2, 0.5, 6)
        stats = run_trials(cfg, mub_state(2, 0), NO_DARK, 10_000, 3)
        assert stats.dark_clicks == 0


class TestRunDiscrimination:
    def test_reproducible(self):
        a = run_discrimination(2, 0.5, 0.5, 4, 0, NO_DARK, 25_000, 777)
        b = run_discrimination(2, 0.5, 0.5, 4, 0, NO_DARK, 25_000, 777)
        assert a == b

    def test_frozen_counts_without_dark_counts(self):
        # trial t reads doubles 2 t and 2 t + 1 of the Philox stream
        stats = run_discrimination(
            16, 0.8, 0.8, 64, 3, NO_DARK, 60_000, 2024, chunk_size=7777
        )
        assert stats.accepted_total == 1144
        assert stats.dark_clicks == 0
        assert [stats.setting_accepted.get(m, 0) for m in range(16)] == [
            28, 44, 141, 617, 173, 57, 20, 9, 10, 7, 9, 3, 3, 5, 8, 10
        ]  # fmt: skip
        assert [stats.setting_frames[m] for m in range(16)] == [
            3748, 3719, 3799, 3805, 3830, 3815, 3803, 3643,
            3784, 3697, 3738, 3707, 3808, 3783, 3795, 3526,
        ]  # fmt: skip
        for port, frames in ((Port.D1, 52360), (Port.D2, 6728), (Port.BACK, 912)):
            assert sum(c for (p, _), c in stats.counts.items() if p is port) == frames
        items = sorted((p.value, b, c) for (p, b), c in stats.counts.items())
        assert hashlib.sha256(repr(items).encode()).hexdigest() == (
            "0eab3271f753f25be8454b6158dfefd9718d4ae8737b4bc9b3720b3c64313915"
        )

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


@st.composite
def cdf_tables(draw):
    """Stacked CDF rows as the sampler builds them, plus variates to look up.

    Rows are non-decreasing with the last entry pinned to 1; repeated
    values are zero-mass entries, guide points j / 1024 appear as CDF
    values, and the entry before the pin may exceed 1 by one rounding, as
    a cumulative sum can. Variates include every CDF value below 1, 0,
    nextafter(1, 0) and every guide point.
    """
    rows = draw(st.integers(1, 4))
    width = draw(st.integers(1, 40))
    value = st.one_of(
        st.floats(0.0, 1.0, exclude_max=True),
        st.integers(0, 1023).map(lambda j: j / 1024),
        st.floats(1023 / 1024, 1.0, exclude_max=True),  # inside the last guide cell
        st.just(0.0),
        st.just(np.nextafter(1.0, 2.0)),
    )
    cdf = np.empty((rows, width))
    for row in cdf:
        row[:-1] = sorted(draw(st.lists(value, min_size=width - 1, max_size=width - 1)))
        row[-1] = 1.0
    on_points = cdf[cdf < 1.0]
    extra = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
    u = np.concatenate(
        [on_points, [0.0, np.nextafter(1.0, 0.0)], np.arange(1024) / 1024, extra]
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return cdf, rng.integers(0, rows, size=u.size), u


class TestStackedLookup:
    @given(case=cdf_tables())
    @settings(max_examples=150, deadline=None)
    def test_guide_lookup_equals_per_setting_searchsorted(self, case):
        cdf, settings_, u = case
        guide = montecarlo._guide_table(cdf)
        points = np.arange(montecarlo._GUIDE) / montecarlo._GUIDE
        for row, guide_row in zip(cdf, guide):
            expected = np.searchsorted(row, points, side="right")
            assert guide_row[:-1].tolist() == expected.tolist()
        got = montecarlo._lookup(cdf, guide, settings_, u)
        assert got.tolist() == reference.masked_lookup(cdf, settings_, u).tolist()

    def test_frozen_counts(self):
        # recorded from the per-setting masked searchsorted sampler
        stats = run_discrimination(
            16, 0.8, 0.8, 64, 3, DarkCountModel(1e-3), 60_000, 2024, chunk_size=7777
        )
        assert stats.accepted_total == 1172
        assert stats.dark_clicks == 1094
        assert [stats.setting_accepted.get(m, 0) for m in range(16)] == [
            26, 45, 153, 642, 162, 56, 22, 9, 10, 6, 3, 4, 5, 9, 7, 13
        ]  # fmt: skip
        assert [stats.setting_frames[m] for m in range(16)] == [
            3744, 3698, 3779, 3804, 3675, 3761, 3784, 3745,
            3749, 3724, 3809, 3691, 3766, 3798, 3834, 3639,
        ]  # fmt: skip
        for port, frames in ((Port.D1, 52048), (Port.D2, 7195), (Port.BACK, 757)):
            assert sum(c for (p, _), c in stats.counts.items() if p is port) == frames
        items = sorted((p.value, b, c) for (p, b), c in stats.counts.items())
        assert hashlib.sha256(repr(items).encode()).hexdigest() == (
            "c2e3a028f7fd93821eab9c4c197a5dd7b738066d91ba1a37f33fc35d9246c7db"
        )

    def test_frozen_counts_of_dark_d1_clicks(self):
        # recorded from the sampler that kept dark clicks in a separate
        # (detector, bin) tally. Basis input 1 has its D1 column at bin 1
        # and BACK columns at bins 2..16, so dark D1 wins land on both kinds
        cfg = symmetric_config(4, 0.6, 16)
        stats = run_trials(
            cfg, basis_state(4, 1), DarkCountModel(0.02), 20_000, 2024,
            chunk_size=777,
        )  # fmt: skip
        assert stats.accepted_total == 761
        assert stats.dark_clicks == 1906
        assert stats.setting_frames == {} and stats.setting_accepted == {}
        for port, frames in ((Port.D1, 12701), (Port.D2, 5756), (Port.BACK, 1543)):
            assert sum(c for (p, _), c in stats.counts.items() if p is port) == frames
        assert [stats.counts.get((Port.D1, b), 0) for b in range(1, 17)] == [
            12000, 78, 55, 58, 69, 42, 50, 39, 55, 35, 48, 35, 40, 30, 31, 36
        ]  # fmt: skip
        items = sorted((p.value, b, c) for (p, b), c in stats.counts.items())
        assert hashlib.sha256(repr(items).encode()).hexdigest() == (
            "64a776010fd8c2aa719e75b4e571a8e78a251606de9b2d3b314323c1ffe63065"
        )


class TestParallelChunks:
    """Chunks run on worker threads; no result may depend on how many."""

    @pytest.mark.parametrize(
        "draws", [montecarlo._DRAWS_NO_DARK, montecarlo._DRAWS_PER_TRIAL]
    )
    @given(
        seed=st.integers(0, 2**128 - 1),
        first=st.integers(0, 400),
        n=st.integers(1, 50),
    )
    @settings(max_examples=200, deadline=None)
    def test_generator_continues_the_one_stream(self, draws, seed, first, n):
        stream = np.random.Generator(np.random.Philox(key=seed))
        rows = stream.random((first + n, draws))
        block = montecarlo._generator(seed, first, draws).random((n, draws))
        assert np.array_equal(block, rows[first:])

    @pytest.mark.parametrize("seed", [-1, 2**128, 2**128 + 1])
    def test_seed_outside_key_range_is_rejected(self, seed):
        # The seed is the Philox key, not reduced onto it: 2**128 + 1 must
        # not run the stream of seed 1.
        with pytest.raises(ValueError, match="2\\*\\*128"):
            run_discrimination(2, 0.5, 0.5, 4, 0, DarkCountModel(0.0), 100, seed)

    @pytest.mark.parametrize("p_dc", [0.0, 1e-3])
    @pytest.mark.parametrize(
        "chunk_size,n_trials", [(1, 1_500), (7_777, 40_000), (None, 70_000)]
    )
    @pytest.mark.parametrize(
        "entry", ["run_trials", "run_trials_basis", "run_discrimination"]
    )
    def test_counts_independent_of_worker_count(
        self, monkeypatch, entry, chunk_size, n_trials, p_dc
    ):
        dark = DarkCountModel(p_dc)
        if entry.startswith("run_trials"):
            if entry == "run_trials":
                cfg, state = symmetric_config(3, 0.6, 9), mub_state(3, 2)
            else:  # dark D1 wins on BACK-column bins and on the D1 bin
                cfg, state = symmetric_config(4, 0.6, 16), basis_state(4, 1)
            run = lambda: run_trials(cfg, state, dark, n_trials, 99, None, chunk_size)
        else:
            run = lambda: run_discrimination(
                3, 0.6, 0.6, 9, 2, dark, n_trials, 99, chunk_size=chunk_size
            )
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_workers", lambda *_: workers)
            results.append(run())
        assert results[1] == results[0] and results[2] == results[0]
        assert sum(results[0].counts.values()) == n_trials

    def test_no_lost_update_under_frequent_thread_switches(self, monkeypatch):
        # more workers than cores, small chunks and a 1 us switch interval:
        # a fold outside the lock would drop counts
        def run(workers):
            monkeypatch.setattr(montecarlo, "_workers", lambda *_: workers)
            return run_discrimination(
                3, 0.6, 0.6, 9, 2, DarkCountModel(0.01), 20_000, 7, chunk_size=64
            )

        expected = run(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run(6)
        finally:
            sys.setswitchinterval(interval)
        assert got == expected

    def test_worker_count(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 16)
        assert montecarlo._workers(31, 32_768, 1_000) == montecarlo._MAX_WORKERS
        assert montecarlo._workers(3, 32_768, 1_000) == 3
        block = 32_768 * montecarlo._DRAWS_PER_TRIAL * 8
        assert montecarlo._workers(31, 32_768, block) == montecarlo._MAX_WORKERS
        assert montecarlo._workers(31, 32_768, block + 8) == 1
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
        assert montecarlo._workers(31, 32_768, 1_000) == 1

    def test_memory_does_not_grow_with_chunks(self, monkeypatch):
        # At bin_cap 2**16 one chunk's column histogram is 1 MiB; a list of
        # per-chunk partials would hold 10x more of them at 40 chunks.
        d, cap, chunk = 2, 2**16, 4_096
        table = montecarlo._outcome_table(
            symmetric_config(d, 0.9, 8),
            mub_state(d, 0),
            [theta_for_outcome(d, m) for m in range(d)],
            cap,
        )
        monkeypatch.setattr(montecarlo, "_outcome_table", lambda *_: table)

        def peak(chunks):
            tracemalloc.start()
            try:
                run_discrimination(
                    d, 0.9, 0.9, 8, 0, DarkCountModel(1e-3), chunks * chunk, 3,
                    bin_cap=cap, chunk_size=chunk,
                )  # fmt: skip
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # one worker here: the column accumulator outweighs a chunk's variates
        assert montecarlo._workers(40, chunk, (2 * cap + 1) * 8) == 1
        one_worker = peak(4)
        assert peak(40) <= 1.2 * one_worker
        # two workers hold at most two histograms and chunks in flight
        monkeypatch.setattr(montecarlo, "_workers", lambda *_: 2)
        assert peak(40) <= 2 * one_worker


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
