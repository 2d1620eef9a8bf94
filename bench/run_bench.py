"""Benchmark of the timebin-cavity CLI: seeded closed-loop workloads.

Run from the repository root:

    python3 bench/run_bench.py --workload sweep-d64 --seed 1 --seconds 24 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs the same calls again under hooks and prints the per-layer metrics. The
last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import layers  # noqa: E402
from bench.tracing import Tracer  # noqa: E402
from bench.workloads import (  # noqa: E402
    WORKLOADS,
    Call,
    Workload,
    call_stream,
    check_output,
    check_repeat,
    mc_diagnostics,
)

SETUP_REPEATS = 7
TAIL_BEYOND = 10  # the tail percentile keeps at least this many calls above it
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import timebin_cavity.cli as cli; cli.build_parser(); "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)

# name, unit; the end-to-end metrics of BENCHMARK.json, from the untraced run.
END_TO_END = (
    ("setup_s", "s"),
    ("call_p50_ref", "ref"),
    ("call_tail_ref", "ref"),
    ("rows_per_ref", "rows/ref"),
    ("peak_rss_mb", "MiB"),
)


@dataclass
class Outcome:
    elapsed: float
    rc: Optional[int]
    data: bytes
    log: str


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    times: List[float] = field(default_factory=list)
    traced_times: List[float] = field(default_factory=list)
    references: List[float] = field(default_factory=list)
    setup: List[float] = field(default_factory=list)
    rows: int = 0
    trials: int = 0
    diagnostics: List[Dict[str, float]] = field(default_factory=list)
    tracer: Optional[Tracer] = None

    def brackets(self) -> List[float]:
        """Mean time of the two reference kernels around each timed call."""
        refs = self.references
        return [0.5 * (a + b) for a, b in zip(refs, refs[1:])]

    def record(self, call: Call, problems: List[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{call.workload.name}: {p}" for p in problems)
        return not problems


class ReferenceKernel:
    """Fixed work timed between calls; call times are also given in its units.

    On a shared 2-vCPU virtual machine the CPU's speed was seen to drift by
    10-50 % within seconds to minutes, and the CLI and a kernel doing the
    same kind of work slow down together. Each workload names the parts its
    calls resemble: ``python`` (many small numpy calls from Python, like the
    projection states, plus a sort) and/or ``array`` (Philox variates, a CDF
    lookup and a bincount, like the sampler). There, a call's time over the
    matching kernels around it was two to ten times steadier across runs
    than its wall time, and a mismatched kernel was much worse: 15 % against
    2 % window-to-window spread on the d=2 Monte Carlo run, 12 % against
    3 % run-to-run on the trade-off.
    """

    def __init__(self, parts: Tuple[str, ...]):
        import numpy

        self._np = numpy
        kernels = {"python": self._python, "array": self._array}
        self._parts = [kernels[part] for part in parts]
        self._slots = numpy.arange(64)
        self._data = numpy.random.default_rng(0).random(1 << 18)
        self._cdf = numpy.linspace(1.0 / 256, 1.0, 256)

    def _python(self) -> None:
        np, n = self._np, self._slots
        for i in range(400):
            amps = np.zeros(64, dtype=np.complex128)
            amps[63 - n] = 0.9 ** (i + n) * np.exp(1j * (i + n) * 0.3)
            abs(np.vdot(amps, amps))
        np.sort(self._data)

    def _array(self) -> None:
        np = self._np
        u = np.random.Generator(np.random.Philox(key=1)).random((1 << 16, 6))
        np.bincount(np.searchsorted(self._cdf, u[:, 1], side="right"), minlength=257)

    def time(self) -> float:
        start = time.perf_counter()
        for part in self._parts:
            part()
        return time.perf_counter() - start


def invoke(cli, call: Call, workdir: Path, tracer: Optional[Tracer] = None) -> Outcome:
    """One in-process CLI call; only ``cli.main`` is inside the timing."""
    config = workdir / "config.json"
    config.write_text(json.dumps(call.config()))
    out = workdir / f"out.{call.output_format}"
    out.unlink(missing_ok=True)
    argv = call.argv(str(config), str(out))
    log = io.StringIO()
    with redirect_stdout(log), redirect_stderr(log):
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                with tracer:
                    rc = tracer.call_span("cli.main", cli.main, (argv,))
        except Exception:  # a traceback is a failed call, not a failed run
            rc = None
            log.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    data = out.read_bytes() if out.exists() else b""
    return Outcome(elapsed, rc, data, log.getvalue())


def problems_of(call: Call, outcome: Outcome) -> List[str]:
    if outcome.rc != 0:
        return [f"exit code {outcome.rc}: {outcome.log.strip()[-400:]}"]
    return check_output(call, outcome.data.decode())


def run_workload(
    modules,
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    setup_probe: Optional[Callable[[], float]] = None,
    setup_repeats: int = 0,
) -> RunResult:
    """Warm-up call, timed closed loop for ``seconds``, then one repeat call.

    With ``trace`` every timed call is followed by a traced call on the same
    inputs; hooks are installed only around the traced calls. The
    ``setup_repeats`` set-up probes are spread evenly over the loop, between
    calls, so that their median spans the run rather than one moment of it.
    """
    cli = modules["cli"]
    result = RunResult()
    if trace:
        result.tracer = Tracer(layers.hooks(**modules))
    stream = call_stream(workload, seed)
    warm = next(stream)
    result.record(warm, problems_of(warm, invoke(cli, warm, workdir)))

    reference = ReferenceKernel(workload.reference)
    result.references.append(reference.time())
    first: Optional[tuple] = None
    start = time.perf_counter()
    while not result.times or time.perf_counter() - start < seconds:
        call = next(stream)
        outcome = invoke(cli, call, workdir)
        ok = result.record(call, problems_of(call, outcome))
        result.times.append(outcome.elapsed)
        result.rows += call.rows
        result.trials += workload.trials
        if first is None:
            first = (call, outcome.data)
        if ok and workload.command == "discriminate":
            result.diagnostics.append(mc_diagnostics(outcome.data.decode()))
        if trace:
            traced = invoke(cli, call, workdir, result.tracer)
            same = check_repeat(outcome.data, traced.data)
            result.record(call, problems_of(call, traced) + same)
            result.traced_times.append(traced.elapsed)
        if len(result.setup) < setup_repeats and (
            time.perf_counter() - start >= len(result.setup) * seconds / setup_repeats
        ):
            result.setup.append(setup_probe())
        result.references.append(reference.time())
    while len(result.setup) < setup_repeats:
        result.setup.append(setup_probe())

    call, data = first
    again = invoke(cli, call, workdir)
    result.record(call, problems_of(call, again) + check_repeat(data, again.data))
    return result


def tail_percentile(times: List[float]):
    """(value, percentile, calls beyond): highest percentile with >= 10 above."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, TAIL_BEYOND


def measure_setup(src: Path) -> float:
    """Wall time from spawning a fresh interpreter until the CLI parser exists."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_PROBE, str(src)],
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            rc = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if line != "ready\n" or rc != 0:
        raise RuntimeError(f"set-up probe failed (exit {rc}, output {line!r})")
    return elapsed


def cap_blas_threads() -> int:
    """Cap numpy's BLAS pools at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    caps = [nproc] + [
        int(os.environ[n]) for n in names if os.environ.get(n, "").isdigit()
    ]
    threads = max(1, min(caps))
    for name in names:
        os.environ[name] = str(threads)
    return threads


def provenance(src: Path, seed: int, blas_threads: int, numpy_version: str) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=30,
            ).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_sha": sha,
        "src_lines": sum(p.read_bytes().count(b"\n") for p in src.rglob("*.py")),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "seed": seed,
    }


def end_to_end(result: RunResult) -> List[tuple]:
    """(name, value, unit, samples) for every end-to-end figure of a run.

    The names in :data:`END_TO_END` go into the result line; the wall-clock
    figures and ``failed_ratio`` are printed beside them.
    """
    n = len(result.times)
    brackets = result.brackets()
    relative = [t / b for t, b in zip(result.times, brackets)]
    # Throughput in reference units divides total call time by the mean
    # bracket, which is steadier than summing per-call ratios.
    scale = {"ref": math.fsum(brackets) / n, "s": 1.0}
    figures = [("setup_s", statistics.median(result.setup), "s",
                f"median of {len(result.setup)} fresh interpreters")]  # fmt: skip
    for suffix, unit, times in (("ref", "ref", relative), ("s", "s", result.times)):
        tail, pct, beyond = tail_percentile(times)
        figures += [
            (f"call_p50_{suffix}", statistics.median(times), unit, f"n={n} calls"),
            (f"call_tail_{suffix}", tail, unit,
             f"p{pct:.1f} of n={n} calls, {beyond} beyond"),
            (f"rows_per_{suffix}",
             result.rows * scale[suffix] / math.fsum(result.times), f"rows/{unit}",
             f"{result.rows} rows over n={n} calls"),
        ]  # fmt: skip
    if result.trials:
        figures.append(
            ("trials_per_s", result.trials / math.fsum(result.times), "trials/s",
             f"{result.trials} frames over n={n} calls")
        )  # fmt: skip
    figures += [
        ("reference_s", statistics.median(result.references), "s",
         f"median of n={len(result.references)} reference kernels"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
         "MiB", "n=1 process"),
        ("failed_ratio", result.failed / result.attempted, "ratio",
         f"{result.failed} of n={result.attempted} calls"),
    ]  # fmt: skip
    return figures


def trace_outputs(result: RunResult) -> Dict[str, float]:
    outputs = {
        "trace.overhead_ratio": math.fsum(result.traced_times) / math.fsum(result.times)
    }
    if result.diagnostics:
        outputs["montecarlo.accepted_ratio"] = statistics.fmean(
            d["accepted_ratio"] for d in result.diagnostics
        )
        outputs["montecarlo.max_abs_z"] = max(
            d["max_abs_z"] for d in result.diagnostics
        )
        outputs["montecarlo.p_e_z"] = statistics.median(
            d["p_e_z"] for d in result.diagnostics
        )
    return outputs


def _report_diagnostics(result: RunResult) -> None:
    if not result.diagnostics:
        return
    z = [d["max_abs_z"] for d in result.diagnostics]
    pz = [d["p_e_z"] for d in result.diagnostics]
    print(
        f"  finding: per-setting max |z| {min(z):.3g}..{max(z):.3g}, "
        f"p_e z-score {min(pz):.3g}..{max(pz):.3g} over {len(z)} calls "
        "(gated only where p_dc = 0)"
    )


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "timebin_cavity" / "cli.py").is_file():
        print(f"error: no package source at {src / 'timebin_cavity'}", file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()

    sys.path.insert(0, str(src))
    import numpy

    from timebin_cavity import cavity, cli, imperfections, montecarlo

    if Path(cli.__file__).resolve().parent != src / "timebin_cavity":
        print(f"error: imported {cli.__file__}, not the checkout", file=sys.stderr)
        return 2
    modules = dict(
        cli=cli, cavity=cavity, imperfections=imperfections, montecarlo=montecarlo
    )
    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        result = run_workload(
            modules,
            workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            workdir,
            setup_probe=lambda: measure_setup(src),
            setup_repeats=0 if args.trace else SETUP_REPEATS,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    print(
        f"workload {workload.name} (seed {args.seed}, trace {args.trace}): "
        f"{result.attempted} calls checked, {result.failed} failed"
    )
    for problem in result.problems[:20]:
        print(f"  FAILED {problem}", file=sys.stderr)
    metrics = {}
    if args.trace:
        values, absent = layers.layer_metrics(
            result.tracer, len(result.traced_times), trace_outputs(result)
        )
        for name, unit in layers.PER_LAYER:
            note = f"  (absent: {absent[name]})" if name in absent else ""
            print(f"  {name:<56} {values[name]:.6g} {unit}{note}")
            metrics[name] = {"value": values[name], "unit": unit}
        print(f"  traced calls: n={len(result.traced_times)}")
    else:
        contract = dict(END_TO_END)
        for name, value, unit, samples in end_to_end(result):
            print(f"  {name:<14} {value:.6g} {unit}  ({samples})")
            if name in contract:
                metrics[name] = {"value": value, "unit": unit}
    _report_diagnostics(result)
    print(
        "provenance "
        + json.dumps(provenance(src, args.seed, blas_threads, numpy.__version__))
    )
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
