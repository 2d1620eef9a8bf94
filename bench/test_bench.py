"""Tests of the benchmark itself: span arithmetic, output checks, smoke runs.

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

from bench import layers, run_bench
from bench.tracing import Hook, Span, Tracer, self_times
from bench.workloads import (
    WORKLOADS,
    call_stream,
    check_output,
    check_repeat,
    Workload,
    closed_form_error,
)
from timebin_cavity import cavity, cli, imperfections, montecarlo
from timebin_cavity.cavity import total_error_closed_form

ROOT = Path(__file__).resolve().parent.parent
MODULES = dict(
    cli=cli, cavity=cavity, imperfections=imperfections, montecarlo=montecarlo
)


def tiny(workload: Workload) -> Workload:
    """The same workload at a size that runs in milliseconds."""
    return replace(
        workload,
        d=min(workload.d, 4),
        cutoffs=min(workload.cutoffs, 3),
        trials=min(workload.trials, 2_000),
    )


# -- span tree arithmetic ----------------------------------------------------


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(0, "root", None, 0.0, 10.0),
        Span(1, "a", 0, 1.0, 3.0),
        Span(2, "b", 0, 2.0, 5.0),  # overlaps a: covered [1, 5]
        Span(3, "c", 0, 6.0, 7.0),
        Span(4, "grandchild", 2, 2.5, 4.5),
        Span(5, "late", 0, 9.5, 12.0),  # clipped to the parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0 - 2.0)
    assert own[4] == pytest.approx(2.0)


def test_tracer_totals_and_restores_names():
    module = types.ModuleType("fake")
    module.outer = lambda x: module.inner(x) + 1
    module.inner = lambda x: x * 2
    module.hot = lambda x: x
    originals = (module.outer, module.inner, module.hot)
    tracer = Tracer(
        [
            Hook(module, "outer", "m.outer"),
            Hook(module, "inner", "m.inner"),
            Hook(module, "hot", "m.hot", counter=True),
            Hook(module, "gone", "m.gone"),
        ]
    )
    with tracer:
        assert module.outer(3) == 7
        module.hot(1)
        module.hot(2)
    assert (module.outer, module.inner, module.hot) == originals
    totals = tracer.span_totals()
    assert totals["m.outer"]["calls"] == 1 and totals["m.inner"]["calls"] == 1
    outer = totals["m.outer"]
    assert outer["self_s"] == pytest.approx(outer["s"] - totals["m.inner"]["s"])
    assert tracer.counts["m.hot.calls"] == 2
    assert tracer.absent == {"m.gone": "not found: fake.gone"}


def test_removed_private_hook_is_reported_absent(monkeypatch):
    monkeypatch.delattr(montecarlo, "_merge_dark")
    tracer = Tracer(layers.hooks(**MODULES))
    with tracer:
        pass
    values, absent = layers.layer_metrics(tracer, 1, {})
    assert set(absent) == {"montecarlo.merge_dark.s", "montecarlo.dark_win_ratio"}
    assert "montecarlo._merge_dark" in absent["montecarlo.merge_dark.s"]
    assert values["montecarlo.merge_dark.s"] == 0.0
    assert cli.total_error is cavity.total_error  # every wrapped name restored


# -- output checks -----------------------------------------------------------


def test_closed_form_matches_package_reduction():
    for d in (2, 16, 64):
        for r in (0.3, 0.9, 0.985):
            assert closed_form_error(r, d) == pytest.approx(
                total_error_closed_form(r, d), abs=1e-12
            )


def _first_output(tmp_path, name):
    call = next(call_stream(tiny(WORKLOADS[name]), seed=7))
    outcome = run_bench.invoke(cli, call, tmp_path)
    assert outcome.rc == 0, outcome.log
    text = outcome.data.decode()
    assert check_output(call, text) == []
    return call, text


def test_checker_rejects_perturbed_error(tmp_path):
    call, text = _first_output(tmp_path, "sweep-d64")
    header, row = text.splitlines()[:2]
    cells = row.split(",")
    column = header.split(",").index("p_e_analytic")
    cells[column] = repr(float(cells[column]) + 1e-9)
    corrupted = "\n".join([header, ",".join(cells)]) + "\n"
    problems = check_output(call, corrupted)
    assert any("closed form" in p for p in problems)


def test_checker_rejects_decreasing_acceptance(tmp_path):
    call, text = _first_output(tmp_path, "tradeoff-d16")
    lines = text.splitlines()
    header = lines[0].split(",")
    column = header.index("accepted_probability")
    cells = lines[-1].split(",")
    cells[column] = "0"
    corrupted = "\n".join(lines[:-1] + [",".join(cells)]) + "\n"
    assert any("falls" in p for p in check_output(call, corrupted))


def test_checker_rejects_frames_off_by_one(tmp_path):
    call, text = _first_output(tmp_path, "mc-d2")
    report = json.loads(text)
    report["settings"][0]["frames"] += 1
    problems = check_output(call, json.dumps(report))
    assert any("frames sum" in p for p in problems)


def test_checker_rejects_large_z_only_without_dark_counts(tmp_path):
    call, text = _first_output(tmp_path, "mc-d2")
    report = json.loads(text)
    report["settings"][1]["z"] = -6.0
    assert any("|z|" in p for p in check_output(call, json.dumps(report)))
    dark_call = replace(call, p_dc=1e-5)
    assert check_output(dark_call, json.dumps(report)) == []


def test_repeat_check_rejects_differing_bytes():
    assert check_repeat(b"a,b\n1,2\n", b"a,b\n1,2\n") == []
    assert check_repeat(b"a,b\n1,2\n", b"a,b\n1,3\n")


def test_inputs_are_reproducible_and_in_range():
    for workload in WORKLOADS.values():
        first = [c for c, _ in zip(call_stream(workload, 3), range(20))]
        again = [c for c, _ in zip(call_stream(workload, 3), range(20))]
        other = [c for c, _ in zip(call_stream(workload, 4), range(20))]
        assert first == again and first != other
        for call in first:
            assert 0.5 <= call.r_sq < 0.99
            assert 0.95 <= call.eta <= 1.0 and 0 <= call.k < workload.d
            assert call.p_dc == 0.0 or 1e-6 <= call.p_dc <= 1e-4
            assert all(workload.d <= n <= 16 * workload.d for n in call.n_prime)
            assert list(call.n_prime) == sorted(call.n_prime)


# -- smoke runs --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_clean(tmp_path, name, trace):
    result = run_bench.run_workload(
        MODULES, tiny(WORKLOADS[name]), seed=5, seconds=0.05, trace=trace,
        workdir=tmp_path, setup_probe=lambda: 0.25, setup_repeats=3,
    )  # fmt: skip
    assert result.failed == 0, result.problems
    assert result.attempted >= 3 and result.times
    if trace:
        values, absent = layers.layer_metrics(
            result.tracer, len(result.traced_times), run_bench.trace_outputs(result)
        )
        assert absent == {}
        assert set(values) == {name for name, _ in layers.PER_LAYER}
        assert all(math.isfinite(v) for v in values.values())
        assert values["cli.main.self_s"] > 0.0
    else:
        figures = {
            name: value
            for name, value, _, _ in run_bench.end_to_end(result)
        }
        assert all(figures[name] > 0.0 for name, _ in run_bench.END_TO_END)
        assert figures["failed_ratio"] == 0.0


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run_bench.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )


def test_setup_probe_reports_a_time():
    assert 0.0 < run_bench.measure_setup(ROOT / "src") < 60.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "mc-d2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
