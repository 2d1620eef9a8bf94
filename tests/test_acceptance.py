"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import math
import time

import numpy as np

from conftest import random_normalized_state
from timebin_cavity import (
    CavityConfig,
    DarkCountModel,
    basis_state,
    cutoff_tradeoff_scan,
    d2_total_probability,
    full_outcome_distribution,
    mub_state,
    p_m_given_k,
    projection_fidelity,
    run_discrimination,
    run_trials,
    theta_for_outcome,
    total_error,
    total_error_closed_form,
    verify_mub,
)
from timebin_cavity.cli import ExperimentConfig, main


def _report(number, label, ok):
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {number} failed: {label}"


def symmetric_config(d, r_sq, k=0, n_prime=None):
    return CavityConfig(
        dim=d,
        r1_sq=r_sq,
        r2_sq=r_sq,
        theta=theta_for_outcome(d, k),
        n_prime=n_prime if n_prime is not None else 2 * d,
    )


def test_criterion_01_mub_property():
    start = time.perf_counter()
    worst = max(verify_mub(d) for d in range(2, 65))
    elapsed = time.perf_counter() - start
    _report(
        1,
        f"max basis deviation {worst:.2e} < 1e-12 for d=2..64 in {elapsed:.2f}s",
        worst < 1e-12 and elapsed < 1.0,
    )


def test_criterion_02_closed_form_vs_brute_force():
    start = time.perf_counter()
    grid = [0.05 * i for i in range(20)] + [0.99]
    worst = 0.0
    for d in (2, 3, 4, 8, 16, 64):
        for r in grid:
            brute = total_error(symmetric_config(d, r))
            closed = total_error_closed_form(r, d)
            worst = max(worst, abs(brute - closed))
    elapsed = time.perf_counter() - start
    _report(
        2,
        f"max |brute - closed| = {worst:.2e} < 1e-10 over the grid in {elapsed:.1f}s",
        worst < 1e-10 and elapsed < 10.0,
    )


def test_criterion_03_monotonicity_claims():
    grid = np.arange(0.5, 0.9951, 0.005)
    ok = True
    for d in (16, 64):
        p_e = [total_error_closed_form(r, d) for r in grid]
        ok = ok and all(b < a for a, b in zip(p_e, p_e[1:]))
        prepared = mub_state(d, 0)
        p_d2 = [
            d2_total_probability(
                symmetric_config(d, r, n_prime=4 * d), prepared, include_early=True
            )
            for r in grid
        ]
        ok = ok and all(b < a for a, b in zip(p_d2, p_d2[1:]))
    tail = total_error_closed_form(0.999, 16)
    ok = ok and tail < 0.005
    _report(
        3,
        "error and total D2 detection strictly decrease on |R|^2 in "
        f"[0.5, 0.995] for d=16,64; error({0.999}, d=16) = {tail:.2e} < 0.005",
        ok,
    )


def test_criterion_04_window_and_state_independence():
    worst_window = 0.0
    worst_state = 0.0
    for d in (2, 4, 16):
        for r_sq in (0.1, 0.5, 0.9):
            errors = [
                total_error(symmetric_config(d, r_sq, n_prime=n))
                for n in (d, 2 * d, 10 * d)
            ]
            worst_window = max(worst_window, max(errors) - min(errors))
        cfg = symmetric_config(d, 0.7)
        by_state = [total_error(cfg, k) for k in range(d)]
        worst_state = max(worst_state, max(by_state) - min(by_state))
    _report(
        4,
        f"error spread {worst_window:.2e} over cutoffs and {worst_state:.2e} "
        "over prepared states, both < 1e-12",
        worst_window < 1e-12 and worst_state < 1e-12,
    )


def test_criterion_05_conservation():
    rng = np.random.default_rng(20240509)
    worst = 0.0
    for _ in range(5):
        d = int(rng.choice([2, 3, 5, 8, 16]))
        cfg = CavityConfig(
            dim=d,
            r1_sq=float(rng.uniform(0.0, 0.95)),
            r2_sq=float(rng.uniform(0.0, 0.95)),
            theta=float(rng.uniform(-math.pi, math.pi)),
            n_prime=3 * d,
        )
        inputs = [basis_state(d, int(rng.integers(1, d + 1))) for _ in range(10)]
        inputs += [random_normalized_state(rng, d) for _ in range(10)]
        for state in inputs:
            row = full_outcome_distribution(cfg, state, 4 * d).masses[0]
            mass = math.fsum(row.tolist())
            worst = max(worst, abs(mass - 1.0))
    _report(
        5,
        f"outcome mass deviates from 1 by at most {worst:.2e} < 1e-9 "
        "over 100 inputs at 5 configs",
        worst < 1e-9,
    )


def test_criterion_06_spot_values():
    err = total_error(symmetric_config(2, 0.5, n_prime=3))
    fid = projection_fidelity(symmetric_config(2, 0.5), 2, 0)
    windowed = d2_total_probability(
        symmetric_config(4, 0.5, n_prime=4 + 60), basis_state(4, 4)
    )
    with_early = d2_total_probability(
        symmetric_config(4, 0.5, n_prime=4 + 60), basis_state(4, 1), include_early=True
    )
    ok = (
        abs(err - 0.1) < 1e-12
        and abs(fid - 0.9) < 1e-12
        and abs(windowed - 1.0 / 3.0) < 1e-12
        and abs(with_early - 1.0 / 3.0) < 1e-12
    )
    _report(
        6,
        f"error(d=2, r=0.5) = {err}, fidelity = {fid}, delta-input D2 mass = "
        f"{windowed} and {with_early}, all at 1e-12",
        ok,
    )


def _discrimination_agrees(d, r_sq, n_prime, n_trials, seed):
    stats = run_discrimination(
        d, r_sq, r_sq, n_prime, 0, DarkCountModel(0.0), n_trials, seed
    )
    for m in range(d):
        frames = stats.setting_frames[m]
        p = p_m_given_k(symmetric_config(d, r_sq, n_prime=n_prime).for_outcome(m), 0)
        sigma = math.sqrt(p * (1.0 - p) / frames)
        if abs(stats.p_hat(m) - p) > 5.0 * sigma:
            return False
    p_e = total_error(symmetric_config(d, r_sq, n_prime=n_prime))
    sigma_e = math.sqrt(p_e * (1.0 - p_e) / stats.accepted_total)
    return abs(stats.p_e_hat() - p_e) <= 5.0 * sigma_e


def _fixed_run_agrees(d, r_sq, n_prime, n_trials, seed):
    cfg = symmetric_config(d, r_sq, n_prime=n_prime)
    prepared = mub_state(d, 0)
    stats = run_trials(cfg, prepared, DarkCountModel(0.0), n_trials, seed)
    p = d2_total_probability(cfg, prepared)
    sigma = math.sqrt(p * (1.0 - p) / n_trials)
    return abs(stats.d2_window_frequency() - p) <= 5.0 * sigma


def test_criterion_07_monte_carlo_agreement():
    start = time.perf_counter()
    n = 1_000_000
    ok = (
        _discrimination_agrees(2, 0.5, 4, n, seed=20240501)
        and _discrimination_agrees(16, 0.9, 32, n, seed=20240502)
        and _fixed_run_agrees(2, 0.5, 8, n, seed=20240503)
        and _fixed_run_agrees(16, 0.9, 48, n, seed=20240504)
    )
    elapsed = time.perf_counter() - start
    _report(
        7,
        "10^6-trial empirical acceptance, error and D2 rates within 5 sigma "
        f"of analytic values for (d=2, r=0.5) and (d=16, r=0.9) in {elapsed:.1f}s",
        ok and elapsed < 60.0,
    )


def test_criterion_08_mismatch_model():
    cfg = ExperimentConfig(d=16, eta=0.99).cavity_config(0.9, 64)
    mismatched = total_error_closed_form(cfg.r1_sq, 16)
    reduced = total_error_closed_form(0.891, 16)
    clean = total_error_closed_form(0.9, 16)
    ok = abs(mismatched - reduced) < 1e-12 and mismatched > clean
    _report(
        8,
        f"mismatch error {mismatched:.6f} equals the reduced-factor value and "
        f"exceeds the aligned error {clean:.6f}",
        ok,
    )


def test_criterion_09_dark_count_tradeoff():
    cfg = symmetric_config(16, 0.99, n_prime=66)
    points = cutoff_tradeoff_scan(cfg, DarkCountModel(1e-5), [21, 36, 66])
    errors = [p.observed_error for p in points]
    accepted = [p.accepted_probability for p in points]
    ok = errors[0] < errors[1] < errors[2] and accepted[0] < accepted[1] < accepted[2]
    _report(
        9,
        f"observed error {errors} and accepted probability {accepted} both "
        "strictly increase with the cutoff",
        ok,
    )


def test_criterion_10_byte_identical_reruns(tmp_path):
    sweep_args = [
        "error-sweep", "--d", "4", "--r-grid", "0.2:0.8:0.2", "--n-prime", "12",
    ]
    disc_args = [
        "discriminate", "--d", "2", "--r-grid", "0.5", "--n-prime", "4",
        "--trials", "20000", "--seed", "918273",
    ]
    ok = True
    for label, args in (("sweep", sweep_args), ("discriminate", disc_args)):
        first = tmp_path / f"{label}-a.out"
        second = tmp_path / f"{label}-b.out"
        ok = ok and main(args + ["--out", str(first)]) == 0
        ok = ok and main(args + ["--out", str(second)]) == 0
        ok = ok and first.read_bytes() == second.read_bytes()
    _report(10, "error-sweep and discriminate reruns are byte-identical", ok)
