"""Where the traced run hooks into each module, and the per-layer metrics.

Hooks wrap a name in the namespace its caller looks it up in: the package
binds imported names at load time, so ``cli.total_error`` and
``cavity.total_error`` are separate attributes. The only private hooks are
the sampler stages ``montecarlo._outcome_table``, ``_sample_photon``,
``_merge_dark`` and ``_generator``; if a later change removes one, its
metrics are reported as absent.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .tracing import Hook, Tracer

# name, unit. Per-call values are totals over traced calls divided by the
# number of traced calls; ``.calls`` counts calls, ``.s`` is inclusive
# time, ``.self_s`` is span time minus child spans.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("cavity.p_m_given_k.calls", "count/call"),
    ("cavity.p_m_given_k.self_s", "s/call"),
    ("cavity.d2_bin_probability.calls", "count/call"),
    ("cavity.d2_bin_probability.s", "s/call"),
    ("cavity.gamma_state.s", "s/call"),
    ("states.inner_product.calls", "count/call"),
    ("states.inner_product.s", "s/call"),
    ("cavity.total_error.self_s", "s/call"),
    ("imperfections.observed_error_with_dark_counts.self_s", "s/call"),
    ("imperfections.accepted_event_probability.self_s", "s/call"),
    ("imperfections.cutoff_tradeoff_scan.self_s", "s/call"),
    ("cavity.d2_total_probability.self_s", "s/call"),
    ("cavity.total_error_closed_form.self_s", "s/call"),
    ("cavity.full_outcome_distribution.calls", "count/call"),
    ("cavity.full_outcome_distribution.self_s", "s/call"),
    ("montecarlo.outcome_table.s", "s/call"),
    ("montecarlo.table_entries", "count/call"),
    ("montecarlo.sample_photon.s", "s/call"),
    ("montecarlo.merge_dark.s", "s/call"),
    ("montecarlo.dark_win_ratio", "ratio"),
    ("montecarlo.draw.s", "s/call"),
    ("montecarlo.chunks", "count/call"),
    ("montecarlo.variate_bytes", "B/call"),
    ("montecarlo.run_discrimination.self_s", "s/call"),
    ("montecarlo.accepted_ratio", "ratio"),
    ("cli.main.self_s", "s/call"),
    ("cli.compute_sweep.self_s", "s/call"),
    ("cli.compute_tradeoff.self_s", "s/call"),
    ("cli.discrimination_report.self_s", "s/call"),
    ("cli.emit.s", "s/call"),
    ("montecarlo.max_abs_z", "z"),
    ("montecarlo.p_e_z", "z"),
    ("trace.overhead_ratio", "ratio"),
)

# Metrics recorded by a hook whose name differs from the metric's prefix.
_SOURCE_HOOK = {
    "montecarlo.table_entries": "montecarlo.outcome_table",
    "montecarlo.draw.s": "montecarlo.generator",
    "montecarlo.chunks": "montecarlo.generator",
    "montecarlo.variate_bytes": "montecarlo.generator",
    "montecarlo.dark_win_ratio": "montecarlo.merge_dark",
}

# Taken from the CLI's output and the run itself, not from hooks.
OUTPUT_METRICS = (
    "montecarlo.accepted_ratio",
    "montecarlo.max_abs_z",
    "montecarlo.p_e_z",
    "trace.overhead_ratio",
)


def _count_table_entries(tracer: Tracer, table):
    tracer.add("montecarlo.table_entries", table.cdf.size)
    return table


def _count_dark_wins(tracer: Tracer, merged):
    ports, _bins, dark_wins = merged
    tracer.add("montecarlo.dark_wins", int(dark_wins.sum()))
    tracer.add("montecarlo.merged_trials", ports.size)
    return merged


class _TimedGenerator:
    """Delegates to a numpy Generator, recording each ``random`` draw."""

    def __init__(self, tracer: Tracer, generator):
        self._tracer = tracer
        self._generator = generator

    def random(self, *args, **kwargs):
        out = self._tracer.call_span(
            "montecarlo.draw", self._generator.random, args, kwargs
        )
        self._tracer.add("montecarlo.chunks", 1)
        self._tracer.add("montecarlo.variate_bytes", out.nbytes)
        return out

    def __getattr__(self, name):
        return getattr(self._generator, name)


class _TimedJson:
    """Delegates to the json module, recording ``dumps`` as ``cli.emit``."""

    def __init__(self, tracer: Tracer, module):
        self._tracer = tracer
        self._module = module

    def dumps(self, *args, **kwargs):
        return self._tracer.call_span("cli.emit", self._module.dumps, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._module, name)


def hooks(cli, cavity, imperfections, montecarlo) -> List[Hook]:
    """Every hook the traced run installs, grouped by calling module."""
    return [
        Hook(cli, "compute_sweep", "cli.compute_sweep"),
        Hook(cli, "compute_tradeoff", "cli.compute_tradeoff"),
        Hook(cli, "discrimination_report", "cli.discrimination_report"),
        Hook(cli, "emit_csv", "cli.emit"),
        Hook(cli, "emit_json", "cli.emit"),
        Hook(cli, "json", "cli.emit", replace=_TimedJson),
        Hook(cli, "total_error", "cavity.total_error"),
        Hook(cli, "total_error_closed_form", "cavity.total_error_closed_form"),
        Hook(cli, "d2_total_probability", "cavity.d2_total_probability"),
        Hook(cli, "p_m_given_k", "cavity.p_m_given_k"),
        Hook(
            cli,
            "observed_error_with_dark_counts",
            "imperfections.observed_error_with_dark_counts",
        ),
        Hook(
            cli,
            "accepted_event_probability",
            "imperfections.accepted_event_probability",
        ),
        Hook(cli, "cutoff_tradeoff_scan", "imperfections.cutoff_tradeoff_scan"),
        Hook(cli, "run_discrimination", "montecarlo.run_discrimination"),
        Hook(imperfections, "p_m_given_k", "cavity.p_m_given_k"),
        Hook(
            imperfections,
            "observed_error_with_dark_counts",
            "imperfections.observed_error_with_dark_counts",
        ),
        Hook(
            imperfections,
            "accepted_event_probability",
            "imperfections.accepted_event_probability",
        ),
        Hook(cavity, "p_m_given_k", "cavity.p_m_given_k"),
        Hook(
            cavity, "d2_bin_probability", "cavity.d2_bin_probability", counter=True
        ),
        Hook(cavity, "gamma_state", "cavity.gamma_state", counter=True),
        Hook(cavity, "inner_product", "states.inner_product", counter=True),
        Hook(
            montecarlo, "full_outcome_distribution", "cavity.full_outcome_distribution"
        ),
        Hook(
            montecarlo,
            "_outcome_table",
            "montecarlo.outcome_table",
            on_result=_count_table_entries,
        ),
        Hook(
            montecarlo,
            "_generator",
            "montecarlo.generator",
            on_result=_TimedGenerator,
        ),
        Hook(montecarlo, "_sample_photon", "montecarlo.sample_photon"),
        Hook(
            montecarlo,
            "_merge_dark",
            "montecarlo.merge_dark",
            on_result=_count_dark_wins,
        ),
    ]


def layer_metrics(
    tracer: Tracer, traced_calls: int, outputs: Dict[str, float]
) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Per-layer values, and the metrics absent with the reason why.

    ``outputs`` supplies :data:`OUTPUT_METRICS`. An absent metric reads 0.
    """
    totals = tracer.span_totals()
    absent_hooks = tracer.absent
    values: Dict[str, float] = {}
    absent: Dict[str, str] = {}
    for name, unit in PER_LAYER:
        base, _, field = name.rpartition(".")
        source = _SOURCE_HOOK.get(name, base)
        if name in OUTPUT_METRICS:
            values[name] = outputs.get(name, 0.0)
        elif source in absent_hooks:
            absent[name] = absent_hooks[source]
            values[name] = 0.0
        elif name == "montecarlo.dark_win_ratio":
            trials = tracer.counts.get("montecarlo.merged_trials", 0)
            wins = tracer.counts.get("montecarlo.dark_wins", 0)
            values[name] = wins / trials if trials else 0.0
        elif base in totals:
            values[name] = totals[base][field] / traced_calls
        else:
            values[name] = tracer.counts.get(name, 0.0) / traced_calls
    return values, absent
