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
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from .cavity import (
    CavityConfig,
    d2_total_probability,
    error_ratio,
    setting_acceptances,
    theta_for_outcome,
    total_error,  # noqa: F401  (bound for the benchmark's traced run)
    total_error_closed_form,
)
from .imperfections import (
    DarkCountModel,
    TradeoffPoint,
    accepted_probability,
    cutoff_tradeoff_scan,
    dark_acceptances,
)
from .montecarlo import MAX_WINDOW_CELLS, check_window_size, run_discrimination
from .states import mub_state, verify_mub

MUB_TOLERANCE = 1e-12
CLOSED_FORM_TOLERANCE = 1e-10
# Size caps, checked before anything is allocated. mub-verify stacks a d x d
# complex matrix. The window commands share the sampler's cap on
# d * (n_prime + d) cells, MAX_WINDOW_CELLS. An a:b:step r-grid spec names at
# most MAX_GRID_POINTS values.
MAX_MUB_DIM = 1024
MAX_GRID_POINTS = 10**5


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
        if cfg.theta is not None and not math.isfinite(cfg.theta):
            raise UsageError(f"theta must be finite, got {cfg.theta}")
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
        if not 0 <= cfg.master_seed < 2**128:
            raise UsageError(
                "seed must lie in [0, 2**128), the Philox key range, "
                f"got {cfg.master_seed}"
            )
        if cfg.output_format not in ("csv", "json"):
            raise UsageError(f"format must be csv or json, got {cfg.output_format}")
        return cfg

    def check_window(self, n_prime: int) -> None:
        """Reject a window over the size cap before anything is allocated."""
        try:
            check_window_size(self.d, n_prime)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc

    def cavity_config(self, r_sq: float, n_prime: int) -> CavityConfig:
        """Cavity for grid value r_sq: both reflectivities r_sq * eta, and the
        explicit theta, else the phase dialled to outcome k.

        eta is the per-circulation mode overlap of incoming and circulating
        light (1 perfect alignment, 0 no interference left). The amplitude
        that does not overlap never interferes again and is treated as loss,
        so the ideal-model formulas apply at the factor r_sq * eta.
        """
        r_eff = r_sq * self.eta
        theta = theta_for_outcome(self.d, self.k) if self.theta is None else self.theta
        return CavityConfig(self.d, r_eff, r_eff, theta, n_prime)


@dataclass
class SweepRow:
    r_sq: float
    p_e_analytic: float
    p_e_closed_form: float
    p_d2: float
    p_e_observed: float
    accepted_probability: float


SWEEP_COLUMNS = tuple(f.name for f in dataclasses.fields(SweepRow))
TRADEOFF_COLUMNS = TradeoffPoint._fields


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

    Error and count columns share one kernel pass at the mismatch-reduced
    round-trip factor; the detection column uses the actual reflectivities,
    counts every D2 bin up to n_prime, and the configured phase.

    The exit-2 check stays independent of the kernel: the kernel's window
    sum is one factor common to every setting and cancels in the error
    ratio, so the check compares the numerical d-term amplitude sums
    |A(2 pi m / d)|^2 with the analytic sum over j in
    :func:`total_error_closed_form`.
    """
    k = config.k
    prepared = mub_state(config.d, k)
    rows = []
    for r_sq in config.r_grid:
        cfg = config.cavity_config(r_sq, config.n_prime)
        probs = setting_acceptances(cfg, k)
        p_e = error_ratio(probs, k)
        p_e_closed = total_error_closed_form(cfg.r1_sq, config.d)
        if abs(p_e - p_e_closed) > CLOSED_FORM_TOLERANCE:
            raise NumericalInvariantViolation(
                f"brute-force error {p_e!r} and closed form {p_e_closed!r} "
                f"disagree at r_sq={r_sq}"
            )
        (dark_probs,) = dark_acceptances(
            [probs], config.d, [config.n_prime], config.p_dc
        ).tolist()
        accepted = accepted_probability(dark_probs)
        _check_dark_model(accepted, f"accepted probability at r_sq={r_sq!r}")
        actual = dataclasses.replace(cfg, r1_sq=r_sq, r2_sq=r_sq)
        rows.append(
            SweepRow(
                r_sq=r_sq,
                p_e_analytic=p_e,
                p_e_closed_form=p_e_closed,
                p_d2=d2_total_probability(actual, prepared, include_early=True),
                p_e_observed=error_ratio(dark_probs, k),
                accepted_probability=accepted,
            )
        )
    return rows


def compute_tradeoff(config: ExperimentConfig) -> List[TradeoffPoint]:
    if not config.n_prime_values:
        raise UsageError(
            "tradeoff needs a list of cutoffs; pass --n-prime a,b,c "
            "or set n_prime_values in the config file"
        )
    cfg = config.cavity_config(config.r_grid[0], max(config.n_prime_values))
    points = cutoff_tradeoff_scan(
        cfg, DarkCountModel(config.p_dc), config.n_prime_values, config.k
    )
    for point in points:
        _check_dark_model(
            point.accepted_probability,
            f"accepted probability at n_prime={point.n_prime}",
        )
    return points


def _z_score(observed: float, expected: float, n: int) -> float:
    """Binomial z-score of a frequency over n trials; 0 when sigma is 0."""
    sigma = math.sqrt(expected * (1.0 - expected) / n) if n else 0.0
    return (observed - expected) / sigma if sigma > 0.0 else 0.0


def discrimination_report(config: ExperimentConfig) -> dict:
    """Empirical vs analytic statistics as a JSON-ready dict; one kernel pass."""
    dark = DarkCountModel(config.p_dc)
    cfg = config.cavity_config(config.r_grid[0], config.n_prime)
    (p_analytic,) = dark_acceptances(
        [setting_acceptances(cfg, config.k)], config.d, [config.n_prime], config.p_dc
    ).tolist()
    _check_dark_model(max(p_analytic), "largest P(m|k) + W p_dc over settings")
    stats = run_discrimination(
        d=config.d,
        r1_sq=cfg.r1_sq,
        r2_sq=cfg.r2_sq,
        n_prime=config.n_prime,
        prepared_k=config.k,
        dark=dark,
        n_trials=config.n_trials,
        master_seed=config.master_seed,
    )
    settings = []
    for m in range(config.d):
        frames = stats.setting_frames.get(m, 0)
        p_hat = stats.p_hat(m)
        settings.append(
            {
                "m": m,
                "frames": frames,
                "accepted": stats.setting_accepted.get(m, 0),
                "p_hat": p_hat,
                "p_analytic": p_analytic[m],
                "z": _z_score(p_hat, p_analytic[m], frames),
            }
        )
    p_e_expected = error_ratio(p_analytic, config.k)
    p_e_hat = p_e_z = None
    if stats.accepted_total:
        p_e_hat = stats.p_e_hat()
        p_e_z = _z_score(p_e_hat, p_e_expected, stats.accepted_total)
    return {
        "d": config.d,
        "r_sq": config.r_grid[0],
        "r_effective": cfg.r1_sq,
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
    if args.format == "csv":  # a config file's output_format is for the tables
        raise UsageError("discriminate writes a JSON report; it takes no --format csv")
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
    """Grid spec: ``a:b:step``, a comma list, or a single value.

    A range needs finite ``a <= b`` in [0, 1) and names at most
    :data:`MAX_GRID_POINTS` values, checked before the list is built.
    """
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("expected a:b:step")
            a, b, step = (float(p) for p in parts)
            if not (0.0 <= a < 1.0 and 0.0 <= b < 1.0):
                raise ValueError("a and b must lie in [0, 1)")
            if not step > 0.0 or b < a:
                raise ValueError("need step > 0 and b >= a")
            span = (b - a) / step + 1e-9
            if span >= MAX_GRID_POINTS:
                raise ValueError(f"more than {MAX_GRID_POINTS} points (size cap)")
            return [a + i * step for i in range(int(math.floor(span)) + 1)]
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


# Every ExperimentConfig field: its config-file value type, then the flag
# (argparse dest) that overrides it and the parser of that flag's text.
# Fields that default to None also accept null.
_FIELDS = (
    ("d", "int", "d", None),
    ("r_grid", "list of float", "r_grid", parse_r_grid),
    ("k", "int", None, None),
    ("theta", "float", None, None),
    ("n_prime", "int", "n_prime", parse_n_prime),
    ("n_prime_values", "list of int", None, None),
    ("eta", "float", "eta", None),
    ("p_dc", "float", "p_dc", None),
    ("n_trials", "int", "trials", None),
    ("master_seed", "int", "seed", None),
    ("output_path", "str", "out", None),
    ("output_format", "str", "format", None),
)
_NULLABLE = {f.name for f in dataclasses.fields(ExperimentConfig) if f.default is None}
_JSON_TYPES = {"int": int, "float": (int, float), "str": str}


def _has_type(value, kind: str) -> bool:
    """JSON type check: int excludes bool, and float admits int."""
    if kind.startswith("list of "):
        return isinstance(value, list) and all(_has_type(v, kind[8:]) for v in value)
    return isinstance(value, _JSON_TYPES[kind]) and not isinstance(value, bool)


def _load_config(args) -> ExperimentConfig:
    data = {}
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}") from exc
        except ValueError as exc:  # malformed JSON or text that is not UTF-8
            raise UsageError(f"config file {args.config} is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise UsageError("config file must contain a JSON object")
        unknown = set(data) - {name for name, *_ in _FIELDS}
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for name, kind, _, _ in _FIELDS:
        value = data.get(name)
        if name in data and not (value is None and name in _NULLABLE):
            if not _has_type(value, kind):
                raise UsageError(f"config key {name!r} must be {kind}, got {value!r}")
    config = ExperimentConfig(**data)
    for name, _, dest, parse in _FIELDS:  # flags override the file
        value = None if dest is None else getattr(args, dest)
        if value is None:
            continue
        value = value if parse is None else parse(value)
        if name == "n_prime" and isinstance(value, list):
            if args.command != "tradeoff":
                raise UsageError(
                    f"{args.command} takes one --n-prime cutoff; "
                    "only tradeoff takes a comma list"
                )
            name = "n_prime_values"  # a comma list sets the tradeoff cutoffs
        setattr(config, name, value)
    return config


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


_COMMANDS = (
    ("mub-verify", "check the basis unbiasedness", cmd_mub_verify),
    ("error-sweep", "error and detection vs |R|^2", cmd_error_sweep),
    ("discriminate", "Monte Carlo discrimination run", cmd_discriminate),
    ("tradeoff", "error vs count rate across cutoffs", cmd_tradeoff),
    ("defaults", "print the default configuration", cmd_defaults),
)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once: parsing leaves it unchanged."""
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
    for name, help_text, func in _COMMANDS:
        sub.add_parser(name, parents=[common], help=help_text).set_defaults(func=func)
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
