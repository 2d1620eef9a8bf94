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
import itertools
import json
import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .cavity import (
    CavityConfig,
    cutoff_acceptances,
    d2_total_probability,
    error_ratio,
    theta_for_outcome,
    total_error,  # noqa: F401  (bound for the benchmark's traced run)
    total_error_closed_form,
)
from .imperfections import (
    TradeoffPoint,
    accepted_probability,
    cutoff_tradeoff_scan,  # noqa: F401  (bound for the benchmark's traced run)
    dark_acceptances,
    tradeoff_points,
)
from .montecarlo import (
    MAX_TRIALS,
    MAX_WINDOW_CELLS,
    check_window_size,
    run_discrimination,
)
from .states import mub_state, verify_mub

MUB_TOLERANCE = 1e-12
CLOSED_FORM_TOLERANCE = 1e-10
# Size caps, checked before anything is allocated. mub-verify stacks a d x d
# complex matrix. The analytic kernel holds O(d) numbers per grid value
# whatever the window, so d alone is capped, at MAX_ANALYTIC_DIM (above 1448,
# the largest d any window under the cell cap allowed), and every cutoff at
# MAX_CUTOFF, below which bin counts are exact as floats. discriminate's
# sampler also keeps its cap on d * (n_prime + d) cells, MAX_WINDOW_CELLS, and
# on trials, MAX_TRIALS; tradeoff caps its cutoffs x d cells at the same
# MAX_WINDOW_CELLS. An a:b:step r-grid spec names at most MAX_GRID_POINTS
# values.
MAX_MUB_DIM = 1024
MAX_ANALYTIC_DIM = 2048
MAX_CUTOFF = 2**53
MAX_GRID_POINTS = 10**5


class UsageError(Exception):
    """Bad flags, bad config file, or unwritable output (exit code 1)."""


class NumericalInvariantViolation(Exception):
    """A cross-check the tool performs on itself failed (exit code 2)."""


@dataclass
class ExperimentConfig:
    """Flat run configuration; file values are overridden by CLI flags. A
    config file may hold every key: a command type-checks a key it does not
    read (see ``_FIELDS``) and otherwise ignores it."""

    d: int = 16
    r_grid: Optional[List[float]] = None  # by command when unset, see resolved
    k: int = 0
    theta: Optional[float] = None
    n_prime: Optional[List[int]] = None  # window cutoffs, see resolved
    eta: float = 1.0
    p_dc: float = 0.0
    n_trials: int = 100_000
    master_seed: int = 12345
    output_path: Optional[str] = None
    output_format: str = "csv"

    def resolved(self, command: str) -> "ExperimentConfig":
        """Validated copy with the defaults ``command`` reads filled in.

        Only the fields ``command`` reads are checked: mub-verify reads d
        alone, and only discriminate reads n_trials and master_seed. Unset,
        r_grid is ten values from 0.5 to 0.95 for error-sweep and its last
        value for the others, and the cutoffs n_prime are d, 2 d and 4 d for
        tradeoff and 4 d for the others, which take one.
        """
        cfg = dataclasses.replace(self)
        if command == "mub-verify":
            if cfg.d < 1:
                raise UsageError(f"d must be >= 1, got {cfg.d}")
            if cfg.d > MAX_MUB_DIM:
                raise UsageError(f"d must be <= {MAX_MUB_DIM} (size cap), got {cfg.d}")
            return cfg
        if cfg.r_grid is None:
            grid = [round(0.5 + 0.05 * i, 10) for i in range(10)]
            cfg.r_grid = grid if command == "error-sweep" else grid[-1:]
        if cfg.n_prime is None:
            d = cfg.d
            cfg.n_prime = [d, 2 * d, 4 * d] if command == "tradeoff" else [4 * d]
        if command != "tradeoff" and len(cfg.n_prime) != 1:
            raise UsageError(
                f"{command} takes one --n-prime cutoff; "
                "only tradeoff takes a comma list"
            )
        if not cfg.n_prime:
            raise UsageError(
                "tradeoff needs a list of cutoffs; pass --n-prime a,b,c "
                "or set n_prime in the config file"
            )
        if cfg.d < 2:
            raise UsageError(f"d must be >= 2 for basis experiments, got {cfg.d}")
        if cfg.d > MAX_ANALYTIC_DIM:
            raise UsageError(f"d = {cfg.d} exceeds the size cap {MAX_ANALYTIC_DIM}")
        if not cfg.r_grid:
            raise UsageError("r_grid must contain at least one value")
        for value in cfg.r_grid:
            if not 0.0 <= value < 1.0:
                raise UsageError(f"r_grid values must lie in [0, 1), got {value}")
        if not 0 <= cfg.k < cfg.d:
            raise UsageError(f"k must lie in 0..{cfg.d - 1}, got {cfg.k}")
        if cfg.theta is not None and not math.isfinite(cfg.theta):
            raise UsageError(f"theta must be finite, got {cfg.theta}")
        for value in cfg.n_prime:
            if not cfg.d <= value <= MAX_CUTOFF:
                raise UsageError(f"cutoff {value} must lie in [d, 2**53], d = {cfg.d}")
        if not 0.0 <= cfg.eta <= 1.0:
            raise UsageError(f"eta must lie in [0, 1], got {cfg.eta}")
        if not 0.0 <= cfg.p_dc < 1.0:
            raise UsageError(f"p_dc must lie in [0, 1), got {cfg.p_dc}")
        if command == "discriminate" and not 1 <= cfg.n_trials <= MAX_TRIALS:
            raise UsageError(f"trials must lie in [1, 2**63 - 1], got {cfg.n_trials}")
        if command == "discriminate" and not 0 <= cfg.master_seed < 2**128:
            raise UsageError(
                "seed must lie in [0, 2**128), the Philox key range, "
                f"got {cfg.master_seed}"
            )
        if cfg.output_format not in ("csv", "json"):
            raise UsageError(f"format must be csv or json, got {cfg.output_format}")
        if command == "tradeoff":
            cells = len(cfg.n_prime) * cfg.d  # the kernel holds d numbers per cutoff
            if cells > MAX_WINDOW_CELLS:
                raise UsageError(
                    f"{len(cfg.n_prime)} cutoffs x d = {cells} exceeds the size cap "
                    f"{MAX_WINDOW_CELLS}"
                )
        if command == "discriminate":
            try:
                check_window_size(cfg.d, cfg.n_prime[0])
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
        if command != "error-sweep" and len(cfg.r_grid) != 1:
            raise UsageError(
                f"{command} takes one --r-grid value, got {len(cfg.r_grid)}; "
                "only error-sweep takes a grid"
            )
        return cfg

    def cavity_config(self, r_sq: float, n_prime: int) -> CavityConfig:
        """Cavity for grid value r_sq: both reflectivities r_sq * eta, the
        explicit theta, else the phase dialled to outcome k, and p_dc.

        eta is the per-circulation mode overlap of incoming and circulating
        light (1 perfect alignment, 0 no interference left). The amplitude
        that does not overlap never interferes again and is treated as loss,
        so the ideal-model formulas apply at the factor r_sq * eta.
        """
        r_eff = r_sq * self.eta
        theta = theta_for_outcome(self.d, self.k) if self.theta is None else self.theta
        return CavityConfig(self.d, r_eff, r_eff, theta, n_prime, self.p_dc)


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


_CONTAINERS = (dict, list, tuple)


def _indented(value, pad: str = "") -> str:
    """The text of ``json.dumps(value, indent=2)`` for ``value`` nested at
    ``pad``.

    json runs its C encoder only when ``indent`` is None, so each run of
    items that are not nonempty containers is one C call with the indent's
    item separator, its brackets cut off; nested containers are encoded
    one level in, between the runs. A list of objects of scalars, the rows
    of a table, is one call: every separator is written at the rows' own
    level, and since a scalar neither starts nor ends with a brace and a
    string holds no raw newline, "}", separator, "{" is always a boundary
    between rows, which is re-indented. Object keys must be strings.
    """
    if not isinstance(value, _CONTAINERS) or not value:
        return json.JSONEncoder().encode(value)
    inner, is_dict = pad + "  ", isinstance(value, dict)
    if not is_dict and all(isinstance(row, dict) and row for row in value):
        cells = itertools.chain.from_iterable(map(dict.values, value))
        if not any(map(isinstance, cells, itertools.repeat(_CONTAINERS))):
            row = inner + "  "
            text = json.JSONEncoder(separators=(",\n" + row, ": ")).encode(value)
            body = text[2:-2].replace(
                f"}},\n{row}{{", f"\n{inner}}},\n{inner}{{\n{row}"
            )
            return f"[\n{inner}{{\n{row}{body}\n{inner}}}\n{pad}]"
    encode = json.JSONEncoder(separators=(",\n" + inner, ": ")).encode
    parts, run = [], []
    for item in value.items() if is_dict else value:
        nested = item[1] if is_dict else item
        if not (isinstance(nested, _CONTAINERS) and nested):
            run.append(item)
            continue
        if run:
            parts.append(encode(dict(run) if is_dict else run)[1:-1])
            run = []
        text = _indented(nested, inner)
        parts.append(f"{encode(item[0])}: {text}" if is_dict else text)
    if run:
        parts.append(encode(dict(run) if is_dict else run)[1:-1])
    left, right = "{}" if is_dict else "[]"
    return f"{left}\n{inner}" + f",\n{inner}".join(parts) + f"\n{pad}{right}"


def emit_json(value, columns: Optional[Sequence[str]] = None) -> str:
    """``json.dumps(value, indent=2)`` and a newline, by json's C encoder
    (:func:`_indented`). With ``columns``, ``value`` is a sequence of rows,
    each written as an object of those attributes."""
    if columns is not None:
        value = [{c: getattr(row, c) for c in columns} for row in value]
    return _indented(value) + "\n"


def _accepted_rows(config: ExperimentConfig, r_sq: float, cutoffs: Sequence[int]):
    """The cavity at grid value r_sq, and its P(m|k) and P(m|k) + W p_dc,
    one row per cutoff, from one kernel pass. Rejects the input if any
    setting's P(m|k) + W p_dc exceeds 1."""
    cfg = config.cavity_config(r_sq, max(cutoffs))
    probs = cutoff_acceptances(cfg, config.k, cutoffs)
    rows = dark_acceptances(cfg, probs, cutoffs)
    for n_prime, row in zip(cutoffs, rows.tolist()):
        if max(row) > 1.0:
            raise UsageError(
                f"largest P(m|k) + W p_dc over settings at r_sq={r_sq!r}, "
                f"n_prime={n_prime} = {max(row)!r} exceeds 1: the first-order "
                "dark-count model holds only while W p_dc, W = n_prime - d + 1 "
                "accepted bins, stays well below 1; lower p_dc or n_prime"
            )
    return cfg, probs, rows


def compute_sweep(config: ExperimentConfig) -> List[SweepRow]:
    """One row per grid value of |R|^2 = |R1|^2 = |R2|^2.

    Error and count columns share one kernel pass at the mismatch-reduced
    round-trip factor; the detection column uses the actual reflectivities,
    counts every D2 bin up to n_prime, and the configured phase.

    The exit-2 check stays independent of the kernel: the kernel's window
    sum is one factor common to every setting and cancels in the error
    ratio, so it compares the kernel's per-setting |A(2 pi m / d)|^2 with
    the analytic sum over j in :func:`total_error_closed_form`.
    """
    k = config.k
    prepared = mub_state(config.d, k)
    rows = []
    for r_sq in config.r_grid:
        cfg, (probs,), (dark_probs,) = _accepted_rows(config, r_sq, config.n_prime)
        p_e = error_ratio(probs.tolist(), k)
        p_e_closed = total_error_closed_form(cfg.r1_sq, config.d)
        if abs(p_e - p_e_closed) > CLOSED_FORM_TOLERANCE:
            raise NumericalInvariantViolation(
                f"brute-force error {p_e!r} and closed form {p_e_closed!r} "
                f"disagree at r_sq={r_sq}"
            )
        dark_probs = dark_probs.tolist()
        actual = dataclasses.replace(cfg, r1_sq=r_sq, r2_sq=r_sq)
        rows.append(
            SweepRow(
                r_sq=r_sq,
                p_e_analytic=p_e,
                p_e_closed_form=p_e_closed,
                p_d2=d2_total_probability(actual, prepared, include_early=True),
                p_e_observed=error_ratio(dark_probs, k),
                accepted_probability=accepted_probability(dark_probs),
            )
        )
    return rows


def compute_tradeoff(config: ExperimentConfig) -> List[TradeoffPoint]:
    """:func:`imperfections.cutoff_tradeoff_scan` at the grid's one value,
    for a config resolved for tradeoff."""
    _, _, rows = _accepted_rows(config, config.r_grid[0], config.n_prime)
    return tradeoff_points(rows, config.n_prime, config.k)


def _z_score(observed: float, expected: float, n: int) -> float:
    """Binomial z-score of a frequency over n trials; 0 when sigma is 0."""
    sigma = math.sqrt(expected * (1.0 - expected) / n) if n else 0.0
    return (observed - expected) / sigma if sigma > 0.0 else 0.0


def discrimination_report(config: ExperimentConfig) -> dict:
    """Empirical vs analytic statistics as a JSON-ready dict, for a config
    resolved for discriminate; one kernel pass."""
    r_sq, (n_prime,) = config.r_grid[0], config.n_prime
    cfg, _, (p_analytic,) = _accepted_rows(config, r_sq, config.n_prime)
    p_analytic = p_analytic.tolist()
    stats = run_discrimination(cfg, config.k, config.n_trials, config.master_seed)
    settings = []
    counts = zip(stats.setting_frames.tolist(), stats.setting_accepted.tolist())
    for m, ((frames, accepted), p) in enumerate(zip(counts, p_analytic)):
        p_hat = accepted / frames if frames else 0.0  # EmpiricalStats.p_hat(m)
        settings.append(
            {
                "m": m,
                "frames": frames,
                "accepted": accepted,
                "p_hat": p_hat,
                "p_analytic": p,
                "z": _z_score(p_hat, p, frames),
            }
        )
    p_e_expected = error_ratio(p_analytic, config.k)
    p_e_hat = p_e_z = None
    if stats.accepted_total:
        p_e_hat = stats.p_e_hat()
        p_e_z = _z_score(p_e_hat, p_e_expected, stats.accepted_total)
    return {
        "d": config.d,
        "r_sq": r_sq,
        "r_effective": cfg.r1_sq,
        "n_prime": n_prime,
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
        with open(path, "wb") as file:
            file.write(text.encode())
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
    deviation = verify_mub(config.d)
    status = "pass" if deviation < MUB_TOLERANCE else "FAIL"
    print(
        f"d={config.d}: max |overlap^2 - 1/d| = {_fmt(deviation)} "
        f"({status} at {MUB_TOLERANCE:g})"
    )
    return 0 if deviation < MUB_TOLERANCE else 2


def cmd_error_sweep(args) -> int:
    config = _load_config(args)
    rows = compute_sweep(config)
    _emit_rows(rows, SWEEP_COLUMNS, config)
    return 0


def cmd_discriminate(args) -> int:
    if args.output_format == "csv":  # a config file's output_format is for the tables
        raise UsageError("discriminate writes a JSON report; it takes no --format csv")
    config = _load_config(args)
    report = discrimination_report(config)
    _write_output(emit_json(report), config.output_path)
    if config.output_path is not None:
        print(f"wrote discrimination report to {config.output_path}")
    return 0


def cmd_tradeoff(args) -> int:
    config = _load_config(args)
    rows = compute_tradeoff(config)
    _emit_rows(rows, TRADEOFF_COLUMNS, config)
    return 0


def cmd_defaults(args) -> int:
    sys.stdout.write(emit_json(dataclasses.asdict(ExperimentConfig())))
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


def parse_n_prime(text: str) -> List[int]:
    """A cutoff or a comma list of cutoffs, as a list."""
    try:
        return [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad n-prime spec {text!r}: {exc}") from exc


_WINDOWS = ("error-sweep", "discriminate", "tradeoff")  # the window commands

# Every ExperimentConfig field: its config-file value type, the commands that
# read it, and the flag that sets it (argparse dest is the field name) with
# that flag's argparse type and help, or None. Fields that default to None
# also accept null. A config file may hold every key: a command type-checks
# a key it does not read and otherwise ignores it.
_FIELDS = (
    ("d", "int", ("mub-verify", *_WINDOWS), ("--d", int, "number of time bins")),
    ("r_grid", "list of float", _WINDOWS,
        ("--r-grid", parse_r_grid, "|R|^2 grid: a:b:step")),
    ("k", "int", _WINDOWS, None),
    ("theta", "float", _WINDOWS, None),
    ("n_prime", "list of int", _WINDOWS,
        ("--n-prime", parse_n_prime, "window cutoff, or comma list for tradeoff")),
    ("eta", "float", _WINDOWS, ("--eta", float, "per-trip mode overlap in [0, 1]")),
    ("p_dc", "float", _WINDOWS, ("--p-dc", float, "dark-count probability per bin")),
    ("n_trials", "int", ("discriminate",), ("--trials", int, "Monte Carlo frames")),
    ("master_seed", "int", ("discriminate",), ("--seed", int, "master seed")),
    ("output_path", "str", _WINDOWS, ("--out", str, "output file (default: stdout)")),
    ("output_format", "str", _WINDOWS, ("--format", str, "csv or json")),
)  # fmt: skip
_NULLABLE = {f.name for f in dataclasses.fields(ExperimentConfig) if f.default is None}
_JSON_TYPES = {"int": int, "float": (int, float), "str": str}


def _has_type(value, kind: str) -> bool:
    """JSON type check: int excludes bool, and float admits int."""
    if kind.startswith("list of "):
        return isinstance(value, list) and all(_has_type(v, kind[8:]) for v in value)
    return isinstance(value, _JSON_TYPES[kind]) and not isinstance(value, bool)


def _load_config(args) -> ExperimentConfig:
    """The config file's values, overridden by the flags, resolved for the
    command."""
    data = {}
    if args.config:
        try:
            with open(args.config, "rb") as file:
                data = json.loads(file.read().decode("utf-8"))
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
        if getattr(args, name, None) is not None:  # flags override the file
            data[name] = getattr(args, name)
    return ExperimentConfig(**data).resolved(args.command)


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
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func in _COMMANDS:
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(func=func)
        if name != "defaults":
            command.add_argument("--config", help="JSON config file; flags override it")
    for name, _, commands, flag in _FIELDS:  # each command rejects flags it lacks
        for command in commands if flag is not None else ():
            option, parse, text = flag
            sub.choices[command].add_argument(option, dest=name, type=parse, help=text)
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
