"""Committed output bytes of the CLI: what each case prints and its exit code.

Each case is one ``timebin-cavity`` invocation without ``--out``. Its
stdout is kept byte for byte in ``data/golden/<name>.out``; its exit code
and stderr, with the numpy version that wrote them, are in
``data/golden/manifest.json``. The Monte Carlo reports follow numpy's
binomial and multinomial algorithms, so a numpy release that changes
them moves those files. ``test_golden.py`` reruns every case in-process
and compares.

    python tests/golden.py                  # list the cases that differ
    python tests/golden.py --refresh NAME.. # rewrite the named cases
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from timebin_cavity.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
MANIFEST = GOLDEN / "manifest.json"

CASES = {
    # the console-script commands CI runs
    "defaults": "defaults",
    "mub-verify-d64": "mub-verify --d 64",
    "error-sweep-d16": "error-sweep --d 16 --r-grid 0.5:0.99:0.1",
    "error-sweep-d16-json": "error-sweep --d 16 --r-grid 0.5:0.99:0.1 --format json",
    "tradeoff-d16": "tradeoff --d 16 --r-grid 0.99 --p-dc 1e-5 --n-prime 21,36,66",
    "discriminate-d2": "discriminate --d 2 --r-grid 0.5 --trials 10000 --seed 42",
    # no dark counts at d = 16: the oldest committed report
    "discriminate-d16": "discriminate --d 16 --r-grid 0.9 --p-dc 0 "
    "--trials 200000 --seed 5 --format json",
    # dark counts, at d = 16 and d = 64
    "discriminate-d16-dark": "discriminate --d 16 --r-grid 0.9 --p-dc 1e-3 "
    "--trials 200000 --seed 5 --format json",
    "discriminate-d64-dark": "discriminate --d 64 --r-grid 0.9 --p-dc 1e-4 "
    "--trials 1000000 --seed 7 --format json",
    # the widest window at d = 64, and the d = 2 size cap with dark counts
    "discriminate-d64-wide": "discriminate --d 64 --r-grid 0.999 --n-prime 65472 "
    "--p-dc 1e-5 --trials 1000000 --seed 7 --format json",
    "discriminate-d2-cap-dark": "discriminate --d 2 --r-grid 0.99 --n-prime 2097150 "
    "--p-dc 1e-7 --trials 100000 --seed 1 --format json",
    # r^2 one ulp below 1, a subnormal p_dc, and eta < 1 with dark counts
    "discriminate-near-one": "discriminate --d 6 --r-grid 0.9999999999999999 "
    "--trials 1000 --seed 1",
    "discriminate-subnormal": "discriminate --d 2 --r-grid 0.5 --p-dc 1e-320 "
    "--trials 1000 --seed 1",
    "discriminate-eta-dark": "discriminate --d 5 --r-grid 0.7 --eta 0.97 "
    "--p-dc 0.01 --n-prime 9 --trials 50000 --seed 3 --format json",
    # an input whose first-order dark rows P(m|k) + W p_dc exceeded 1, which
    # the CLI rejected before dark counts were modelled exactly
    "error-sweep-dark-high": "error-sweep --d 2 --r-grid 0.1 --p-dc 0.55 --n-prime 2",
    # a usage error: nothing on stdout, exit 1
    "error-sweep-bad-grid": "error-sweep --r-grid 0:inf:1",
    # the parser's exits: no command, an unknown one, a flag of another
    # command, a bad int, and a flag on defaults, which takes none
    "no-command": "",
    "unknown-command": "bogus",
    "error-sweep-foreign-flag": "error-sweep --trials 9",
    "error-sweep-bad-int": "error-sweep --d x",
    "defaults-extra-flag": "defaults --d 32",
}


def run(name: str):
    """(stdout bytes, exit code, stderr text) of one case, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(CASES[name].split())
    return out.getvalue().encode(), code, err.getvalue()


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}


def refresh(names) -> None:
    """Rewrite the named cases' files and manifest entries."""
    manifest = load_manifest()
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in names:
        stdout, code, stderr = run(name)
        (GOLDEN / f"{name}.out").write_bytes(stdout)
        manifest[name] = {
            "argv": CASES[name],
            "exit": code,
            "stderr": stderr,
            "numpy": np.__version__,
        }
    MANIFEST.write_text(json.dumps(dict(sorted(manifest.items())), indent=2) + "\n")


def differing() -> list:
    """The cases whose output, exit code or stderr moved."""
    manifest = load_manifest()
    moved = []
    for name in CASES:
        entry = manifest.get(name)
        stdout, code, stderr = run(name)
        path = GOLDEN / f"{name}.out"
        if (
            entry is None
            or entry["argv"] != CASES[name]
            or (entry["exit"], entry["stderr"]) != (code, stderr)
            or not path.exists()
            or path.read_bytes() != stdout
        ):
            moved.append(name)
    return moved


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--refresh"]:
        unknown = set(args[1:]) - set(CASES)
        if unknown or not args[1:]:
            sys.exit(f"name one or more cases to refresh; unknown: {sorted(unknown)}")
        refresh(args[1:])
    elif args:
        sys.exit("usage: golden.py [--refresh NAME...]")
    else:
        moved = differing()
        print("\n".join(moved) if moved else "every case matches")
        sys.exit(1 if moved else 0)
