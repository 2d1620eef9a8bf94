"""Seeded per-call inputs and output checks for the benchmark's workloads.

Every workload is a closed loop: one client issues CLI calls back to back,
each with fresh inputs drawn from a ``random.Random`` keyed by the workload
name and the seed, so the same seed always gives the same calls. The
program under test sees only argv and a per-call JSON config (``k`` has no
flag, so it travels through ``--config``).

The checks never call the package's kernels: the closed-form error is
recomputed here from the per-setting geometric sums, and the Monte Carlo
checks use only counts the report itself carries.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

CLOSED_FORM_TOLERANCE = 1e-10
Z_GATE = 5.0  # |z| gate per setting, applied only where p_dc == 0

SWEEP_COLUMNS = (
    "r_sq",
    "p_e_analytic",
    "p_e_closed_form",
    "p_d2",
    "p_e_observed",
    "accepted_probability",
)
TRADEOFF_COLUMNS = ("n_prime", "observed_error", "accepted_probability")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    d: int
    why: str
    cutoffs: int = 0  # window cutoffs per tradeoff call
    trials: int = 0  # Monte Carlo frames per discriminate call
    dark: bool = True  # p_dc log-uniform in [1e-6, 1e-4]; else p_dc = 0
    seeded_eta: bool = True  # eta uniform in [0.95, 1]; else eta = 1
    # Reference kernel parts like the calls' work: "python" (small numpy
    # calls, as in the exact kernels) and/or "array" (bulk, as the sampler).
    reference: Tuple[str, ...] = ("python",)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sweep-d64",
            "error-sweep",
            64,
            why="error-sweep at d=64, n'=4d: brute-force windowed P(m|k) "
            "dominates; the batched acceptance kernel shows here",
        ),
        Workload(
            "tradeoff-d16",
            "tradeoff",
            16,
            cutoffs=12,
            seeded_eta=False,
            why="tradeoff at d=16: one config over many window lengths; "
            "prefix sums over N show here, not on the d=64 sweep",
        ),
        Workload(
            "mc-d64",
            "discriminate",
            64,
            trials=1_000_000,
            reference=("python", "array"),
            why="discriminate at d=64, 1e6 frames, dark counts: per-setting "
            "lookup loop, dark merge, 64 table builds, analytic report",
        ),
        Workload(
            "mc-d2",
            "discriminate",
            2,
            trials=1_000_000,
            dark=False,
            reference=("array",),
            why="discriminate at d=2, 1e6 frames, p_dc=0: the sampler's "
            "per-trial core alone; predicts no change for kernel work",
        ),
    )
}


@dataclass(frozen=True)
class Call:
    """One CLI invocation's inputs."""

    workload: Workload
    r_sq: float
    eta: float
    p_dc: float
    k: int
    n_prime: Tuple[int, ...]  # one cutoff, or the tradeoff's cutoff list
    master_seed: int

    @property
    def output_format(self) -> str:
        return "json" if self.workload.command == "discriminate" else "csv"

    @property
    def rows(self) -> int:
        """Output rows: one sweep row, tradeoff cutoffs, MC settings."""
        w = self.workload
        if w.command == "error-sweep":
            return 1
        if w.command == "tradeoff":
            return len(self.n_prime)
        return w.d

    def config(self) -> dict:
        return {"k": self.k}

    def argv(self, config_path: str, out_path: str) -> List[str]:
        w = self.workload
        argv = [
            w.command,
            "--config", config_path,
            "--d", str(w.d),
            "--r-grid", repr(self.r_sq),
            "--n-prime", ",".join(str(n) for n in self.n_prime),
            "--eta", repr(self.eta),
            "--p-dc", repr(self.p_dc),
            "--out", out_path,
            "--format", self.output_format,
        ]  # fmt: skip
        if w.command == "discriminate":
            argv += ["--trials", str(w.trials), "--seed", str(self.master_seed)]
        return argv


def _draw_call(w: Workload, rng: random.Random) -> Call:
    r_sq = rng.uniform(0.5, 0.99)
    eta = rng.uniform(0.95, 1.0) if w.seeded_eta else 1.0
    p_dc = 10.0 ** rng.uniform(-6.0, -4.0) if w.dark else 0.0
    k = rng.randrange(w.d)
    if w.command == "tradeoff":
        # One cutoff per equal stratum of [d, 16d]: random values, near
        # constant total window length, so per-call cost barely varies.
        span = 15 * w.d / w.cutoffs
        n_prime = tuple(
            int(w.d + (i + rng.random()) * span) for i in range(w.cutoffs)
        )
    else:
        n_prime = (4 * w.d,)
    return Call(w, r_sq, eta, p_dc, k, n_prime, rng.randrange(2**32))


def call_stream(workload: Workload, seed: int) -> Iterator[Call]:
    """Endless, reproducible sequence of distinct calls for one workload."""
    rng = random.Random(f"{workload.name}/{seed}")
    while True:
        yield _draw_call(workload, rng)


# -- output checks -----------------------------------------------------------


def closed_form_error(r: float, d: int) -> float:
    """Discrimination error from the per-setting geometric sums.

    The windowed acceptance of setting offset j is proportional to
    |1 - r e^{2 pi i j / d}|^-2, so P_E = 1 - w_0 / sum_j w_j. This is a
    direct sum, independent of the package's reduced closed form.
    """
    weights = [
        1.0 / abs(1.0 - r * cmath.exp(2j * math.pi * j / d)) ** 2 for j in range(d)
    ]
    return 1.0 - weights[0] / math.fsum(weights)


def _csv_rows(text: str, columns: Tuple[str, ...]) -> List[Dict[str, float]]:
    reader = csv.DictReader(io.StringIO(text))
    missing = set(columns) - set(reader.fieldnames or ())
    if missing:
        raise ValueError(f"missing columns {sorted(missing)}")
    return [{c: float(row[c]) for c in columns} for row in reader]


def _unit_interval_problems(rows, columns) -> List[str]:
    return [
        f"row {i} {c}={row[c]!r} is not a finite value in [0, 1]"
        for i, row in enumerate(rows)
        for c in columns
        if not (math.isfinite(row[c]) and 0.0 <= row[c] <= 1.0)
    ]


def _check_sweep(call: Call, text: str) -> List[str]:
    rows = _csv_rows(text, SWEEP_COLUMNS)
    if len(rows) != call.rows:
        return [f"expected {call.rows} rows, got {len(rows)}"]
    problems = _unit_interval_problems(rows, SWEEP_COLUMNS)
    (row,) = rows
    if row["r_sq"] != call.r_sq:
        problems.append(f"r_sq {row['r_sq']!r} does not echo input {call.r_sq!r}")
    expected = closed_form_error(call.r_sq * call.eta, call.workload.d)
    gap = abs(row["p_e_analytic"] - expected)
    if not gap <= CLOSED_FORM_TOLERANCE:
        problems.append(
            f"p_e_analytic {row['p_e_analytic']!r} is {gap:.3g} from the "
            f"closed form {expected!r} at r_sq={call.r_sq!r}"
        )
    return problems


def _check_tradeoff(call: Call, text: str) -> List[str]:
    rows = _csv_rows(text, TRADEOFF_COLUMNS)
    if len(rows) != call.rows:
        return [f"expected {call.rows} rows, got {len(rows)}"]
    problems = _unit_interval_problems(rows, TRADEOFF_COLUMNS[1:])
    if [int(row["n_prime"]) for row in rows] != list(call.n_prime):
        problems.append("n_prime column does not echo the input cutoffs")
    ordered = sorted(rows, key=lambda row: row["n_prime"])
    for a, b in zip(ordered, ordered[1:]):
        if b["accepted_probability"] < a["accepted_probability"]:
            problems.append(
                f"accepted_probability falls from {a['accepted_probability']!r} "
                f"to {b['accepted_probability']!r} as the cutoff grows "
                f"{int(a['n_prime'])} -> {int(b['n_prime'])}"
            )
    return problems


def _check_discriminate(call: Call, text: str) -> List[str]:
    report = json.loads(text)
    w = call.workload
    settings = report["settings"]
    problems = []
    if len(settings) != w.d:
        problems.append(f"expected {w.d} settings, got {len(settings)}")
    frames = sum(s["frames"] for s in settings)
    if frames != w.trials:
        problems.append(f"frames sum to {frames}, not the {w.trials} trials")
    for s in settings:
        if not 0 <= s["accepted"] <= s["frames"]:
            problems.append(
                f"setting {s['m']}: accepted {s['accepted']} exceeds "
                f"frames {s['frames']}"
            )
        if call.p_dc == 0.0 and not abs(s["z"]) <= Z_GATE:
            problems.append(
                f"setting {s['m']}: |z| = {abs(s['z']):.3g} > {Z_GATE} at p_dc=0"
            )
    accepted = sum(s["accepted"] for s in settings)
    if accepted != report["accepted_total"]:
        problems.append(
            f"per-setting accepted sum {accepted} != accepted_total "
            f"{report['accepted_total']}"
        )
    return problems


_CHECKS = {
    "error-sweep": _check_sweep,
    "tradeoff": _check_tradeoff,
    "discriminate": _check_discriminate,
}


def check_output(call: Call, text: str) -> List[str]:
    """Problems found in one call's output text; empty when it is correct."""
    try:
        return _CHECKS[call.workload.command](call, text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def check_repeat(first: bytes, again: bytes) -> List[str]:
    """A rerun with identical inputs must reproduce the output bytes."""
    if first == again:
        return []
    return [f"rerun output differs ({len(first)} vs {len(again)} bytes)"]


def mc_diagnostics(text: str) -> Dict[str, float]:
    """Max per-setting |z|, p_e z-score and accepted share of an MC report.

    Reported, not gated, where p_dc > 0: the first-order dark-count model
    is known to be off there (see bench/README.md).
    """
    report = json.loads(text)
    return {
        "max_abs_z": max(abs(s["z"]) for s in report["settings"]),
        "p_e_z": report["p_e_z_score"] or 0.0,
        "accepted_ratio": report["accepted_total"] / report["n_trials"],
    }
