"""Command-line surface: basis verification, sweeps, discrimination, trade-offs.

All numeric output is emitted with round-trip-exact formatting (17
significant digits for CSV, shortest-repr for JSON) and contains no
timestamps, so identical configs and seeds reproduce identical bytes.

Exit codes: 0 success, 1 usage/config error, 2 numerical invariant
violation (e.g. brute-force and closed-form error disagree beyond
tolerance).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from .cavity import (
    CavityConfig,
    d2_total_probability,
    setting_acceptances,
    theta_for_outcome,
    total_error,
    total_error_closed_form,
)
from .imperfections import (
    DarkCountModel,
    MismatchModel,
    accepted_event_probability,
    cutoff_tradeoff_scan,
    effective_round_trip,
    observed_error_with_dark_counts,
)
from .montecarlo import MAX_WINDOW_CELLS, check_window_size, run_discrimination
from .states import mub_state, verify_mub

MUB_TOLERANCE = 1e-12
CLOSED_FORM_TOLERANCE = 1e-10
# Size caps, checked before anything is allocated. mub-verify stacks a d x d
# complex matrix. The window commands share the sampler's cap on
# d * (n_prime + d) cells, MAX_WINDOW_CELLS.
MAX_MUB_DIM = 1024


class UsageError(Exception):
    """Bad flags, bad config file, or unwritable output (exit code 1)."""


class NumericalInvariantViolation(Exception):
    """A cross-check the tool performs on itself failed (exit code 2)."""


@dataclass
class ExperimentConfig:
    """Flat run configuration; file values are overridden by CLI flags."""

    d: int = 16
    r_grid: List[float] = field(
        default_factory=lambda: [round(0.5 + 0.05 * i, 10) for i in range(10)]
    )
    k: int = 0
    theta: Optional[float] = None
    n_prime: Optional[int] = None  # defaults to 4 * d when unset
    n_prime_values: Optional[List[int]] = None
    eta: float = 1.0
    p_dc: float = 0.0
    n_trials: int = 100_000
    master_seed: int = 12345
    output_path: Optional[str] = None
    output_format: str = "csv"

    def resolved(self) -> "ExperimentConfig":
        """Validated copy with dependent defaults filled in."""
        cfg = dataclasses.replace(self)
        if cfg.d < 2:
            raise UsageError(f"d must be >= 2 for basis experiments, got {cfg.d}")
        if not cfg.r_grid:
            raise UsageError("r_grid must contain at least one value")
        for value in cfg.r_grid:
            if not 0.0 <= value < 1.0:
                raise UsageError(f"r_grid values must lie in [0, 1), got {value}")
        if not 0 <= cfg.k < cfg.d:
            raise UsageError(f"k must lie in 0..{cfg.d - 1}, got {cfg.k}")
        if cfg.n_prime is None:
            cfg.n_prime = 4 * cfg.d
        if cfg.n_prime < cfg.d:
            raise UsageError(f"n_prime must be >= d, got {cfg.n_prime}")
        if cfg.n_prime_values is not None:
            for value in cfg.n_prime_values:
                if value < cfg.d:
                    raise UsageError(f"cutoff {value} must be >= d ({cfg.d})")
        if not 0.0 <= cfg.eta <= 1.0:
            raise UsageError(f"eta must lie in [0, 1], got {cfg.eta}")
        if not 0.0 <= cfg.p_dc < 1.0:
            raise UsageError(f"p_dc must lie in [0, 1), got {cfg.p_dc}")
        if cfg.n_trials < 1:
            raise UsageError(f"trials must be >= 1, got {cfg.n_trials}")
        if cfg.output_format not in ("csv", "json"):
            raise UsageError(f"format must be csv or json, got {cfg.output_format}")
        return cfg

    def check_window(self, n_prime: int) -> None:
        """Reject a window over the size cap before anything is allocated."""
        try:
            check_window_size(self.d, n_prime)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc

    def phase_theta(self) -> float:
        """Phase-shifter setting: explicit theta, else dialled to outcome k."""
        if self.theta is not None:
            return self.theta
        return theta_for_outcome(self.d, self.k)


@dataclass
class SweepRow:
    r_sq: float
    p_e_analytic: float
    p_e_closed_form: float
    p_d2: float
    p_e_observed: float
    accepted_probability: float


@dataclass
class TradeoffRow:
    n_prime: int
    observed_error: float
    accepted_probability: float


SWEEP_COLUMNS = tuple(f.name for f in dataclasses.fields(SweepRow))
TRADEOFF_COLUMNS = tuple(f.name for f in dataclasses.fields(TradeoffRow))


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit_csv(rows: Sequence, columns: Sequence[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, c)) for c in columns))
    return "\n".join(lines) + "\n"


def emit_json(rows: Sequence, columns: Sequence[str]) -> str:
    payload = [{c: getattr(row, c) for c in columns} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def _parse_rows(text: str, fmt: str, row_type, columns, int_columns=()):
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


def parse_sweep(text: str, fmt: str) -> List[SweepRow]:
    return _parse_rows(text, fmt, SweepRow, SWEEP_COLUMNS)


def parse_tradeoff(text: str, fmt: str) -> List[TradeoffRow]:
    return _parse_rows(
        text, fmt, TradeoffRow, TRADEOFF_COLUMNS, int_columns=("n_prime",)
    )


def _check_dark_model(probability: float, what: str) -> None:
    """Reject inputs where the first-order dark-count model exceeds 1."""
    if probability > 1.0:
        raise UsageError(
            f"{what} = {probability!r} exceeds 1: the first-order dark-count "
            "model holds only while W p_dc, W = n_prime - d + 1 accepted bins, "
            "stays well below 1; lower p_dc or n_prime"
        )


def compute_sweep(config: ExperimentConfig) -> List[SweepRow]:
    """One row per grid value of |R|^2 = |R1|^2 = |R2|^2.

    Error columns are evaluated at the mismatch-reduced round-trip factor;
    the detection column uses the actual reflectivities, counts every D2
    bin up to n_prime, and the phase dialled to the configured outcome.
    """
    mismatch = MismatchModel(config.eta)
    dark = DarkCountModel(config.p_dc)
    prepared = mub_state(config.d, config.k)
    rows = []
    for r_sq in config.r_grid:
        r_eff = effective_round_trip(r_sq, mismatch)
        cfg_eff = CavityConfig(
            dim=config.d,
            r1_sq=r_eff,
            r2_sq=r_eff,
            theta=config.phase_theta(),
            n_prime=config.n_prime,
        )
        cfg_actual = dataclasses.replace(cfg_eff, r1_sq=r_sq, r2_sq=r_sq)
        p_e = total_error(cfg_eff, config.k)
        p_e_closed = total_error_closed_form(r_eff, config.d)
        if abs(p_e - p_e_closed) > CLOSED_FORM_TOLERANCE:
            raise NumericalInvariantViolation(
                f"brute-force error {p_e!r} and closed form {p_e_closed!r} "
                f"disagree at r_sq={r_sq}"
            )
        accepted = accepted_event_probability(cfg_eff, dark, config.k)
        _check_dark_model(accepted, f"accepted probability at r_sq={r_sq!r}")
        rows.append(
            SweepRow(
                r_sq=r_sq,
                p_e_analytic=p_e,
                p_e_closed_form=p_e_closed,
                p_d2=d2_total_probability(cfg_actual, prepared, include_early=True),
                p_e_observed=observed_error_with_dark_counts(cfg_eff, dark, config.k),
                accepted_probability=accepted,
            )
        )
    return rows


def compute_tradeoff(config: ExperimentConfig) -> List[TradeoffRow]:
    if config.n_prime_values is None:
        raise UsageError(
            "tradeoff needs a list of cutoffs; pass --n-prime a,b,c "
            "or set n_prime_values in the config file"
        )
    r_eff = effective_round_trip(config.r_grid[0], MismatchModel(config.eta))
    cfg = CavityConfig(
        dim=config.d,
        r1_sq=r_eff,
        r2_sq=r_eff,
        theta=config.phase_theta(),
        n_prime=max(config.n_prime_values),
    )
    points = cutoff_tradeoff_scan(
        cfg, DarkCountModel(config.p_dc), config.n_prime_values, config.k
    )
    for point in points:
        _check_dark_model(
            point.accepted_probability,
            f"accepted probability at n_prime={point.n_prime}",
        )
    return [TradeoffRow(*point) for point in points]


def discrimination_report(config: ExperimentConfig) -> dict:
    """Empirical vs analytic discrimination statistics as a JSON-ready dict."""
    mismatch = MismatchModel(config.eta)
    dark = DarkCountModel(config.p_dc)
    r_eff = effective_round_trip(config.r_grid[0], mismatch)
    cfg = CavityConfig(
        dim=config.d,
        r1_sq=r_eff,
        r2_sq=r_eff,
        theta=theta_for_outcome(config.d, config.k),
        n_prime=config.n_prime,
    )
    window_dark = (config.n_prime - config.d + 1) * config.p_dc
    acceptance = setting_acceptances(cfg, config.k)
    _check_dark_model(
        max(acceptance) + window_dark, "largest P(m|k) + W p_dc over settings"
    )
    stats = run_discrimination(
        d=config.d,
        r1_sq=r_eff,
        r2_sq=r_eff,
        n_prime=config.n_prime,
        prepared_k=config.k,
        dark=dark,
        n_trials=config.n_trials,
        master_seed=config.master_seed,
    )
    settings = []
    for m in range(config.d):
        frames = stats.setting_frames.get(m, 0)
        p_analytic = acceptance[m] + window_dark
        p_hat = stats.p_hat(m)
        sigma = math.sqrt(p_analytic * (1.0 - p_analytic) / frames) if frames else 0.0
        settings.append(
            {
                "m": m,
                "frames": frames,
                "accepted": stats.setting_accepted.get(m, 0),
                "p_hat": p_hat,
                "p_analytic": p_analytic,
                "z": (p_hat - p_analytic) / sigma if sigma > 0.0 else 0.0,
            }
        )
    p_e_expected = observed_error_with_dark_counts(cfg, dark, config.k)
    p_e_hat = stats.p_e_hat() if stats.accepted_total else None
    if p_e_hat is None:
        p_e_z = None
    else:
        sigma_e = math.sqrt(
            p_e_expected * (1.0 - p_e_expected) / stats.accepted_total
        )
        p_e_z = (p_e_hat - p_e_expected) / sigma_e if sigma_e > 0.0 else 0.0
    return {
        "d": config.d,
        "r_sq": config.r_grid[0],
        "r_effective": r_eff,
        "n_prime": config.n_prime,
        "prepared_k": config.k,
        "p_dc": config.p_dc,
        "n_trials": config.n_trials,
        "master_seed": config.master_seed,
        "accepted_total": stats.accepted_total,
        "dark_clicks": stats.dark_clicks,
        "d2_window_frequency": stats.d2_window_frequency(),
        "p_e_analytic": p_e_expected,
        "p_e_empirical": p_e_hat,
        "p_e_z_score": p_e_z,
        "settings": settings,
    }


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write output file {path}: {exc}") from exc


def _emit_rows(rows, columns, config: ExperimentConfig) -> None:
    if config.output_format == "csv":
        text = emit_csv(rows, columns)
    else:
        text = emit_json(rows, columns)
    _write_output(text, config.output_path)
    if config.output_path is not None:
        print(f"wrote {len(rows)} rows to {config.output_path}")


def cmd_mub_verify(args) -> int:
    config = _load_config(args)
    if config.d < 1:
        raise UsageError(f"d must be >= 1, got {config.d}")
    if config.d > MAX_MUB_DIM:
        raise UsageError(f"d must be <= {MAX_MUB_DIM} (size cap), got {config.d}")
    deviation = verify_mub(config.d)
    status = "pass" if deviation < MUB_TOLERANCE else "FAIL"
    print(
        f"d={config.d}: max |overlap^2 - 1/d| = {_fmt(deviation)} "
        f"({status} at {MUB_TOLERANCE:g})"
    )
    return 0 if deviation < MUB_TOLERANCE else 2


def cmd_error_sweep(args) -> int:
    config = _load_config(args).resolved()
    config.check_window(config.n_prime)
    rows = compute_sweep(config)
    _emit_rows(rows, SWEEP_COLUMNS, config)
    return 0


def cmd_discriminate(args) -> int:
    config = _load_config(args).resolved()
    config.check_window(config.n_prime)
    report = discrimination_report(config)
    _write_output(json.dumps(report, indent=2) + "\n", config.output_path)
    if config.output_path is not None:
        print(f"wrote discrimination report to {config.output_path}")
    return 0


def cmd_tradeoff(args) -> int:
    config = _load_config(args).resolved()
    if config.n_prime_values:  # tradeoff never builds the n_prime window
        config.check_window(max(config.n_prime_values))
    rows = compute_tradeoff(config)
    _emit_rows(rows, TRADEOFF_COLUMNS, config)
    return 0


def cmd_defaults(args) -> int:
    print(json.dumps(dataclasses.asdict(ExperimentConfig()), indent=2))
    return 0


def parse_r_grid(text: str) -> List[float]:
    """Grid spec: ``a:b:step``, a comma list, or a single value."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("expected a:b:step")
            a, b, step = (float(p) for p in parts)
            if step <= 0.0 or b < a:
                raise ValueError("need step > 0 and b >= a")
            count = int(math.floor((b - a) / step + 1e-9)) + 1
            return [a + i * step for i in range(count)]
        if "," in text:
            return [float(p) for p in text.split(",")]
        return [float(text)]
    except ValueError as exc:
        raise UsageError(f"bad r-grid spec {text!r}: {exc}") from exc


def parse_n_prime(text: str):
    """Either a single cutoff or a comma list of cutoffs."""
    try:
        if "," in text:
            return [int(p) for p in text.split(",")]
        return int(text)
    except ValueError as exc:
        raise UsageError(f"bad n-prime spec {text!r}: {exc}") from exc


_CONFIG_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def _load_config(args) -> ExperimentConfig:
    data = {}
    if getattr(args, "config", None):
        try:
            raw = Path(args.config).read_text()
        except OSError as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}") from exc
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {args.config} is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise UsageError("config file must contain a JSON object")
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
    config = ExperimentConfig(**data)

    if getattr(args, "d", None) is not None:
        config.d = args.d
    if getattr(args, "r_grid", None) is not None:
        config.r_grid = parse_r_grid(args.r_grid)
    if getattr(args, "n_prime", None) is not None:
        parsed = parse_n_prime(args.n_prime)
        if isinstance(parsed, list):
            config.n_prime_values = parsed
        else:
            config.n_prime = parsed
    if getattr(args, "eta", None) is not None:
        config.eta = args.eta
    if getattr(args, "p_dc", None) is not None:
        config.p_dc = args.p_dc
    if getattr(args, "trials", None) is not None:
        config.n_trials = args.trials
    if getattr(args, "seed", None) is not None:
        config.master_seed = args.seed
    if getattr(args, "out", None) is not None:
        config.output_path = args.out
    if getattr(args, "format", None) is not None:
        config.output_format = args.format
    return config


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="timebin-cavity",
        description=(
            "Exact and Monte Carlo statistics of a recirculating "
            "Mach-Zehnder measurement for time-bin qudits"
        ),
    )
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON config file (flags override it)")
    common.add_argument("--d", type=int, help="number of time bins")
    common.add_argument("--r-grid", dest="r_grid", help="|R|^2 grid: a:b:step")
    common.add_argument(
        "--n-prime", dest="n_prime", help="window cutoff, or comma list for tradeoff"
    )
    common.add_argument("--eta", type=float, help="per-trip mode overlap in [0, 1]")
    common.add_argument(
        "--p-dc", dest="p_dc", type=float, help="dark-count probability per bin"
    )
    common.add_argument("--trials", type=int, help="Monte Carlo frames")
    common.add_argument("--seed", type=int, help="master seed")
    common.add_argument("--out", help="output file (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), help="output format")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "mub-verify", parents=[common], help="check the basis unbiasedness"
    ).set_defaults(func=cmd_mub_verify)
    sub.add_parser(
        "error-sweep", parents=[common], help="error and detection vs |R|^2"
    ).set_defaults(func=cmd_error_sweep)
    sub.add_parser(
        "discriminate", parents=[common], help="Monte Carlo discrimination run"
    ).set_defaults(func=cmd_discriminate)
    sub.add_parser(
        "tradeoff", parents=[common], help="error vs count rate across cutoffs"
    ).set_defaults(func=cmd_tradeoff)
    sub.add_parser(
        "defaults", parents=[common], help="print the default configuration"
    ).set_defaults(func=cmd_defaults)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalInvariantViolation as exc:
        print(f"numerical invariant violated: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
