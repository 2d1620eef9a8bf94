import contextlib
import csv
import dataclasses
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import parse_sweep, parse_tradeoff
from timebin_cavity import (
    CavityConfig,
    cavity,
    cli,
    montecarlo,
    mub_state,
    theta_for_outcome,
    total_error_closed_form,
)
from timebin_cavity.imperfections import (
    accepted_event_probability,
    observed_error_with_dark_counts,
)
from timebin_cavity.cli import (
    ExperimentConfig,
    SweepRow,
    SWEEP_COLUMNS,
    TRADEOFF_COLUMNS,
    compute_sweep,
    emit_csv,
    emit_json,
    main,
    parse_r_grid,
)


# r_grid when unset, for error-sweep; discriminate and tradeoff take its last
DEFAULT_GRID = [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95]


def run_cli(*argv):
    return main(list(argv))


class TestParsing:
    def test_colon_grid(self):
        grid = parse_r_grid("0.5:0.9:0.1")
        assert grid == pytest.approx([0.5, 0.6, 0.7, 0.8, 0.9])

    def test_single_value_grid(self):
        assert parse_r_grid("0.25") == [0.25]

    def test_comma_grid(self):
        assert parse_r_grid("0.1,0.4") == [0.1, 0.4]

    def test_bad_grid(self):
        with pytest.raises(cli.UsageError):
            parse_r_grid("0.9:0.5:0.1")

    def test_n_prime_single_and_list(self):
        assert cli.parse_n_prime("32") == [32]
        assert cli.parse_n_prime("21,36,66") == [21, 36, 66]

    def test_grid_at_the_point_cap(self):
        assert len(parse_r_grid("0:0.99999:0.00001")) == cli.MAX_GRID_POINTS

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_field_table_covers_the_config(self):
        fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert [name for name, *_ in cli._FIELDS] == fields
        windows = set(fields) - {"n_trials", "master_seed"}
        # the fields each command reads, and the flags it parses: k and
        # theta come from a config file only
        takes = {
            "mub-verify": ({"d"}, {"d"}),
            "error-sweep": (windows, windows - {"k", "theta"}),
            "discriminate": (set(fields), set(fields) - {"k", "theta"}),
            "tradeoff": (windows, windows - {"k", "theta"}),
            "defaults": (set(), set()),
        }
        for command, (reads, flags) in takes.items():
            table = {name for name, _, cmds, _ in cli._FIELDS if command in cmds}
            assert table == reads, command
            args = cli.build_parser().parse_args([command])
            assert set(fields) & set(vars(args)) == flags, command


class TestConfigResolution:
    def test_window_defaults_to_four_frames(self):
        cfg = ExperimentConfig(d=8).resolved("error-sweep")
        assert cfg.n_prime == [32]

    @pytest.mark.parametrize(
        "command,r_grid,cutoffs",
        [
            ("error-sweep", DEFAULT_GRID, [32]),
            ("discriminate", [0.95], [32]),
            ("tradeoff", [0.95], [8, 16, 32]),
        ],
    )
    def test_unset_grid_and_cutoffs_depend_on_the_command(
        self, command, r_grid, cutoffs
    ):
        cfg = ExperimentConfig(d=8).resolved(command)
        assert cfg.r_grid == r_grid
        assert cfg.n_prime == cutoffs

    @pytest.mark.parametrize(
        "command,kwargs,match",
        [
            ("error-sweep", dict(d=1), "d must be >= 2 for basis experiments"),
            ("error-sweep", dict(d=2049), "d = 2049 exceeds the size cap 2048"),
            ("error-sweep", dict(r_grid=[1.0]), "r_grid"),
            ("error-sweep", dict(eta=1.5), "eta"),
            ("error-sweep", dict(p_dc=1.0), "p_dc"),
            ("discriminate", dict(n_trials=0), "trials"),
            ("error-sweep", dict(output_format="xml"), "format"),
            ("error-sweep", dict(n_prime=[4], d=8), r"cutoff 4 must lie in \[d"),
            ("error-sweep", dict(k=9, d=8), "k"),
            ("discriminate", dict(master_seed=-1), "seed"),
            ("discriminate", dict(master_seed=2**128), "seed"),
            ("discriminate", dict(n_trials=2**63), "trials"),
        ],
    )
    def test_validation(self, command, kwargs, match):
        with pytest.raises(cli.UsageError, match=match):
            ExperimentConfig(**kwargs).resolved(command)


# Scalars json writes in more than one way, or that the indenting encoder
# and the C encoder could disagree on; the strings hold a raw newline and
# brackets around a separator, the only text that marks a row boundary.
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**63), 2**63 - 1),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308 / 3, 2**63 - 1]),
    st.text(max_size=8),
    st.sampled_from(["},\n      {", "],\n    [", "\n", "{", "]"]),
)
JSON_KEYS = st.one_of(st.text(max_size=6), st.sampled_from(["settings", "}", "\n"]))
JSON_ROWS = st.one_of(
    st.lists(st.dictionaries(JSON_KEYS, JSON_SCALARS, max_size=6), max_size=5),
    st.lists(st.lists(JSON_SCALARS, max_size=4), max_size=5),
    st.lists(st.tuples(JSON_SCALARS, JSON_SCALARS), max_size=3),
)
JSON_REPORTS = st.builds(
    lambda head, rows: {**head, "settings": rows},
    st.dictionaries(JSON_KEYS, JSON_SCALARS, max_size=15),
    JSON_ROWS,
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(JSON_KEYS, inner, max_size=4),
    max_leaves=24,
)


@given(value=st.one_of(JSON_REPORTS, JSON_ROWS, JSON_VALUES))
@example(value={"p_e_empirical": None, "settings": []})
@example(value=[{"a": -0.0, "b": 2**63 - 1, "c": 5e-324}, {"d": None}])
@example(value=[{"a": 1}, {}])
@example(value=[[1], [2, [3]]])
@settings(max_examples=400, deadline=None)
def test_json_text_is_the_indenting_encoders(value):
    assert emit_json(value) == json.dumps(value, indent=2) + "\n"


class TestRoundTrip:
    def test_csv_round_trips_exactly(self):
        config = ExperimentConfig(d=4, r_grid=[0.3, 0.77], n_prime=[12]).resolved(
            "error-sweep"
        )
        rows = compute_sweep(config)
        parsed = parse_sweep(emit_csv(rows, SWEEP_COLUMNS), "csv")
        assert parsed == rows

    def test_json_round_trips_exactly(self):
        config = ExperimentConfig(d=4, r_grid=[0.3, 0.77], n_prime=[12]).resolved(
            "error-sweep"
        )
        rows = compute_sweep(config)
        parsed = parse_sweep(emit_json(rows, SWEEP_COLUMNS), "json")
        assert parsed == rows

    def test_csv_header_is_the_documented_column_order(self):
        text = emit_csv([], SWEEP_COLUMNS)
        assert text.splitlines()[0] == (
            "r_sq,p_e_analytic,p_e_closed_form,p_d2,p_e_observed,accepted_probability"
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_tradeoff_round_trips_exactly(self, fmt):
        config = ExperimentConfig(
            d=4, r_grid=[0.8], p_dc=1e-4, n_prime=[4, 8, 16]
        ).resolved("tradeoff")
        rows = cli.compute_tradeoff(config)
        emit = emit_csv if fmt == "csv" else emit_json
        assert parse_tradeoff(emit(rows, TRADEOFF_COLUMNS), fmt) == rows


class TestOneKernelPass:
    """Every analytic column of a sweep row, a tradeoff or a report comes
    from one kernel pass."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        kernel = cavity.cutoff_acceptances

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        for module in (cavity, cli):
            monkeypatch.setattr(module, "cutoff_acceptances", counted)
        return calls

    def test_once_per_sweep_row(self, kernel_calls):
        config = ExperimentConfig(
            d=4, r_grid=[0.3, 0.6, 0.9], k=1, eta=0.97, p_dc=1e-4, n_prime=[12]
        ).resolved("error-sweep")
        rows = compute_sweep(config)
        assert len(kernel_calls) == len(rows) == 3

    def test_once_per_tradeoff(self, kernel_calls):
        config = ExperimentConfig(
            d=4, r_grid=[0.5], p_dc=1e-4, n_prime=[4, 8, 16]
        ).resolved("tradeoff")
        assert len(cli.compute_tradeoff(config)) == 3
        assert len(kernel_calls) == 1

    def test_once_per_report(self, kernel_calls):
        config = ExperimentConfig(
            d=4, r_grid=[0.6], eta=0.97, p_dc=1e-4, n_trials=1000
        ).resolved("discriminate")
        cli.discrimination_report(config)
        assert len(kernel_calls) == 1

    @pytest.mark.parametrize("d", [2, 3, 16, 61])
    def test_columns_equal_the_library_functions(self, d):
        k, n_prime = d // 2, 3 * d
        config = ExperimentConfig(
            d=d,
            r_grid=[0.0, 0.3, 0.9, 0.99, 0.999999, 1.0 - 1e-9, 0.5],
            k=k,
            eta=0.97,
            p_dc=1e-4,
            n_prime=[n_prime],
        ).resolved("error-sweep")
        prepared = mub_state(d, k)
        for row in compute_sweep(config):
            r_eff = row.r_sq * config.eta
            cfg = CavityConfig(d, r_eff, r_eff, 0.0, n_prime, config.p_dc)
            actual = CavityConfig(
                d, row.r_sq, row.r_sq, theta_for_outcome(d, k), n_prime
            )
            assert row.p_e_analytic == cli.total_error(cfg, k)
            assert row.p_e_closed_form == total_error_closed_form(r_eff, d)
            assert row.p_d2 == cli.d2_total_probability(
                actual, prepared, include_early=True
            )
            assert row.p_e_observed == observed_error_with_dark_counts(cfg, k)
            assert row.accepted_probability == accepted_event_probability(cfg, k)


class TestMubVerify:
    def test_pass(self, capsys):
        assert run_cli("mub-verify", "--d", "16") == 0
        assert "pass" in capsys.readouterr().out

    def test_invalid_dimension_is_usage_error(self, capsys):
        assert run_cli("mub-verify", "--d", "0") == 1
        assert "error" in capsys.readouterr().err

    def test_detected_violation_exits_two(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "verify_mub", lambda d: 1e-6)
        assert run_cli("mub-verify", "--d", "4") == 2
        assert "FAIL" in capsys.readouterr().out


class TestErrorSweep:
    def test_writes_csv_with_decreasing_error(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "error-sweep",
            "--d", "16",
            "--r-grid", "0.5:0.9:0.1",
            "--n-prime", "40",
            "--out", str(out),
        )
        assert code == 0
        rows = parse_sweep(out.read_text(), "csv")
        assert len(rows) == 5
        p_e = [row.p_e_analytic for row in rows]
        assert all(b < a for a, b in zip(p_e, p_e[1:]))
        p_d2 = [row.p_d2 for row in rows]
        assert all(b < a for a, b in zip(p_d2, p_d2[1:]))

    def test_reruns_are_byte_identical(self, tmp_path):
        args = [
            "error-sweep", "--d", "4", "--r-grid", "0.2:0.8:0.2",
            "--n-prime", "12", "--format", "json",
        ]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(*args, "--out", str(first)) == 0
        assert run_cli(*args, "--out", str(second)) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_single_point_grid(self, tmp_path):
        out = tmp_path / "one.csv"
        assert run_cli(
            "error-sweep", "--d", "4", "--r-grid", "0.5", "--out", str(out)
        ) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2

    def test_larger_dimension_has_larger_error(self, tmp_path):
        rows = {}
        for d in (16, 64):
            out = tmp_path / f"d{d}.csv"
            assert run_cli(
                "error-sweep", "--d", str(d), "--r-grid", "0.9",
                "--n-prime", str(2 * d), "--out", str(out),
            ) == 0
            rows[d] = parse_sweep(out.read_text(), "csv")[0]
        assert rows[64].p_e_analytic > rows[16].p_e_analytic

    def test_brute_force_and_closed_form_columns_agree(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(
            "error-sweep", "--d", "8", "--r-grid", "0:0.9:0.15", "--out", str(out)
        ) == 0
        for row in parse_sweep(out.read_text(), "csv"):
            assert abs(row.p_e_analytic - row.p_e_closed_form) < 1e-10

    @pytest.mark.parametrize("d", [2, 16, 64])
    def test_round_trip_factor_near_one(self, d, tmp_path):
        out = tmp_path / "sweep.csv"
        grid = ",".join(repr(1.0 - x) for x in (1e-8, 1e-10, 1e-12))
        argv = ["--d", str(d), "--r-grid", grid, "--out", str(out)]
        assert run_cli("error-sweep", *argv) == 0
        for row in parse_sweep(out.read_text(), "csv"):
            assert 0.0 <= row.p_e_analytic <= 1e-10
            assert 0.0 <= row.p_e_closed_form <= 1e-10

    def test_detection_probability_never_exceeds_one(self, capsys):
        # Without recirculation the d entry masses are (1/sqrt d)^2 each,
        # and their rounded sum can land one ulp above 1 (d = 3).
        for d in range(2, 65):
            argv = ["--d", str(d), "--r-grid", "0,1e-300", "--format", "json"]
            assert run_cli("error-sweep", *argv) == 0
            rows = parse_sweep(capsys.readouterr().out, "json")
            assert [row.r_sq for row in rows] == [0.0, 1e-300]
            for row in rows:
                assert 0.0 <= row.p_d2 <= 1.0

    def test_closed_form_disagreement_exits_two(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "total_error_closed_form", lambda r, d: 0.5)
        assert run_cli("error-sweep", "--d", "4", "--r-grid", "0.3") == 2
        assert "invariant" in capsys.readouterr().err

    def test_unwritable_output_path(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "sweep.csv"
        assert run_cli(
            "error-sweep", "--d", "4", "--r-grid", "0.5", "--out", str(target)
        ) == 1
        assert capsys.readouterr() == (
            "",
            f"error: cannot write output file {target}: "
            f"[Errno 2] No such file or directory: '{target}'\n",
        )

    def test_stdout_when_no_output_path(self, capsys):
        assert run_cli("error-sweep", "--d", "4", "--r-grid", "0.5") == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("r_sq,")


class TestDiscriminate:
    def test_report_is_reproducible(self, tmp_path):
        args = [
            "discriminate", "--d", "2", "--r-grid", "0.5",
            "--n-prime", "4", "--trials", "20000", "--seed", "7",
        ]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(*args, "--out", str(first)) == 0
        assert run_cli(*args, "--out", str(second)) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_report_without_dark_counts_keeps_its_bytes(self, tmp_path):
        # Without dark counts the frame law is the table row: the stream
        # reads the setting counts, then the photon ranges. The committed
        # report was written before the sampler drew dark counts from the
        # law; it also pins numpy's multinomial algorithm.
        out = tmp_path / "mc0.json"
        assert run_cli(
            "discriminate", "--d", "16", "--r-grid", "0.9", "--p-dc", "0",
            "--trials", "200000", "--seed", "5", "--format", "json",
            "--out", str(out),
        ) == 0  # fmt: skip
        committed = Path(__file__).parent / "data" / "mc0_report.json"
        assert out.read_bytes() == committed.read_bytes()

    def test_report_contents(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli(
            "discriminate", "--d", "2", "--r-grid", "0.5",
            "--n-prime", "4", "--trials", "50000", "--seed", "3",
            "--out", str(out),
        ) == 0
        report = json.loads(out.read_text())
        assert report["d"] == 2
        assert len(report["settings"]) == 2
        assert abs(report["p_e_empirical"] - 0.1) < 0.02
        assert abs(report["p_e_z_score"]) < 5.0
        for entry in report["settings"]:
            assert abs(entry["z"]) < 5.0

    def test_tiny_dark_rate_runs_clean(self, capsys):
        code = run_cli(
            "discriminate", "--d", "2", "--r-grid", "0.5", "--trials", "1000",
            "--p-dc", "1e-17",
        )  # fmt: skip
        assert code == 0
        assert json.loads(capsys.readouterr().out)["dark_clicks"] == 0

    @pytest.mark.parametrize("seed", [-1, 2**128, 2**128 + 1])
    def test_seed_outside_philox_key_range_is_usage_error(self, seed, capsys):
        code = run_cli(
            "discriminate", "--d", "2", "--r-grid", "0.5", "--trials", "100",
            "--seed", str(seed),
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "seed must lie in [0, 2**128)" in captured.err
        assert captured.out == ""

    def test_largest_seed_runs(self, capsys):
        code = run_cli(
            "discriminate", "--d", "2", "--r-grid", "0.5", "--trials", "100",
            "--seed", str(2**128 - 1),
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["master_seed"] == 2**128 - 1

    def test_zero_trials_is_usage_error(self, capsys):
        code = run_cli(
            "discriminate", "--d", "2", "--r-grid", "0.5", "--trials", "0"
        )
        assert code == 1
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", [2**63, 10**30])
    def test_trials_beyond_int64_is_usage_error(self, trials, monkeypatch, capsys):
        # numpy counts frames in int64; such a run used to go on without end
        monkeypatch.setattr(cli, "discrimination_report", _must_not_run)
        monkeypatch.setattr(cli, "mub_state", _must_not_run)
        code = run_cli(
            "discriminate", "--d", "2", "--r-grid", "0.5", "--trials", str(trials)
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "trials must lie in [1, 2**63 - 1]" in captured.err
        assert captured.out == ""

    def test_largest_trials_run_at_once(self, capsys):
        code = run_cli(
            "discriminate", "--d", "64", "--r-grid", "0.9", "--seed", "1",
            "--trials", str(2**63 - 1),
        )  # fmt: skip
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert sum(s["frames"] for s in report["settings"]) == 2**63 - 1

    def test_csv_flag_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "discrimination_report", _must_not_run)
        out = tmp_path / "report.csv"
        code = run_cli(
            "discriminate", "--d", "2", "--r-grid", "0.5", "--trials", "100",
            "--seed", "1", "--format", "csv", "--out", str(out),
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "takes no --format csv" in captured.err
        assert captured.out == "" and not out.exists()

    def test_csv_from_config_file_still_runs(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        data = {"d": 2, "r_grid": [0.5], "n_trials": 100, "output_format": "csv"}
        path.write_text(json.dumps(data))
        assert run_cli("discriminate", "--config", str(path)) == 0
        assert json.loads(capsys.readouterr().out)["n_trials"] == 100


class TestTradeoff:
    def test_clean_detectors_constant_error_column(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli(
            "tradeoff", "--d", "8", "--r-grid", "0.9",
            "--n-prime", "8,16,32", "--out", str(out),
        ) == 0
        rows = parse_tradeoff(out.read_text(), "csv")
        errors = [row.observed_error for row in rows]
        assert max(errors) - min(errors) < 1e-12
        accepted = [row.accepted_probability for row in rows]
        assert accepted[0] < accepted[1] < accepted[2]

    def test_dark_counts_penalize_long_windows(self, tmp_path):
        out = tmp_path / "t.json"
        assert run_cli(
            "tradeoff", "--d", "16", "--r-grid", "0.99", "--p-dc", "1e-5",
            "--n-prime", "21,36,66", "--format", "json", "--out", str(out),
        ) == 0
        rows = parse_tradeoff(out.read_text(), "json")
        assert rows[0].observed_error < rows[1].observed_error < rows[2].observed_error

    def test_unset_cutoffs_are_d_2d_and_4d(self, capsys):
        assert run_cli("tradeoff", "--d", "8", "--r-grid", "0.9") == 0
        rows = parse_tradeoff(capsys.readouterr().out, "csv")
        assert [row.n_prime for row in rows] == [8, 16, 32]

    def test_one_cutoff_from_the_flag(self, capsys):
        # one value is a list of one cutoff
        argv = ["tradeoff", "--d", "16", "--r-grid", "0.9", "--n-prime"]
        assert run_cli(*argv, "32") == 0
        captured = capsys.readouterr()
        assert captured.out == (
            "n_prime,observed_error,accepted_probability\n"
            "32,0.18379127246930158,0.016253554844243463\n"
        )
        assert captured.err == ""
        assert run_cli(*argv, "32,64") == 0
        assert capsys.readouterr().out.splitlines()[1] == captured.out.splitlines()[1]

    def test_empty_cutoff_list_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_prime": []}))
        assert run_cli("tradeoff", "--config", str(path)) == 1
        assert "tradeoff needs a list of cutoffs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["error-sweep", "discriminate"])
    def test_cutoff_list_outside_tradeoff_is_usage_error(
        self, tmp_path, capsys, command
    ):
        out = tmp_path / "out.txt"
        argv = ["--d", "2", "--r-grid", "0.5"]
        if command == "discriminate":
            argv += ["--trials", "1000", "--seed", "1"]
        assert run_cli(command, *argv, "--n-prime", "4,40", "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert "only tradeoff takes a comma list" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_cutoff_before_window_is_usage_error(self):
        assert run_cli(
            "tradeoff", "--d", "8", "--r-grid", "0.9", "--n-prime", "4,16"
        ) == 1


class TestOneRValue:
    """discriminate and tradeoff run at one r² value; only error-sweep
    takes a grid."""

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["discriminate", "tradeoff"])
    def test_grid_is_usage_error(self, tmp_path, capsys, command, source):
        out = tmp_path / "out.txt"
        n_prime = "4,8" if command == "tradeoff" else "8"
        argv = [command, "--d", "4", "--n-prime", n_prime]
        if command == "discriminate":
            argv += ["--trials", "100"]
        grid_size = {"flag": 2, "config": 3}[source]
        if source == "flag":
            argv += ["--r-grid", "0.5,0.9"]
        elif source == "config":
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"r_grid": [0.5, 0.7, 0.9]}))
            argv += ["--config", str(path)]
        for to_file in (False, True):
            assert run_cli(*argv, *(["--out", str(out)] if to_file else [])) == 1
            captured = capsys.readouterr()
            assert captured.err == (
                f"error: {command} takes one --r-grid value, got {grid_size}; "
                "only error-sweep takes a grid\n"
            )
            assert captured.out == "" and not out.exists()


def _must_not_run(*args, **kwargs):
    raise AssertionError("oversized input reached the computation")


class TestSizeCaps:
    def test_mub_dimension_cap(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "verify_mub", _must_not_run)
        assert run_cli("mub-verify", "--d", str(cli.MAX_MUB_DIM + 1)) == 1
        assert "size cap" in capsys.readouterr().err

    def test_window_cap_boundary(self):
        d = 4
        n_prime = cli.MAX_WINDOW_CELLS // d - d  # d * (n' + d) = cap
        ExperimentConfig(d=d, n_prime=[n_prime]).resolved("discriminate")
        with pytest.raises(cli.UsageError, match="size cap"):
            ExperimentConfig(d=d, n_prime=[n_prime + 1]).resolved("discriminate")

    @pytest.mark.parametrize("d", [64, 256, 915])
    def test_default_window_is_accepted(self, d):
        ExperimentConfig(d=d).resolved("discriminate")

    def test_default_window_cap_starts_at_d_916(self):
        with pytest.raises(cli.UsageError, match="size cap"):
            ExperimentConfig(d=916).resolved("discriminate")

    @pytest.mark.parametrize(
        "command,flags,target,stub",
        [
            ("error-sweep", ["--d", "256"], "compute_sweep", []),
            ("discriminate", ["--d", "256"], "discrimination_report", {}),
            # the analytic commands cap d, not the window
            (
                "error-sweep",
                ["--d", str(cli.MAX_ANALYTIC_DIM), "--n-prime", str(cli.MAX_CUTOFF)],
                "compute_sweep",
                [],
            ),
            (
                "tradeoff",
                ["--d", str(cli.MAX_ANALYTIC_DIM), "--n-prime", f"2048,{2**53}"],
                "compute_tradeoff",
                [],
            ),
        ],
    )
    def test_sizes_under_the_cap_reach_the_computation(
        self, monkeypatch, command, flags, target, stub
    ):
        monkeypatch.setattr(cli, target, lambda config: stub)
        assert run_cli(command, *flags) == 0

    def test_cutoff_list_cap(self, monkeypatch, capsys):
        d = cli.MAX_ANALYTIC_DIM
        n_cutoffs = cli.MAX_WINDOW_CELLS // d  # cutoffs x d = the cap

        def reached(cfg, k, cutoffs):
            raise cli.UsageError(f"kernel reached with {len(cutoffs)} cutoffs")

        at_cap = f"reached with {n_cutoffs} cutoffs"
        for extra, message in ((0, at_cap), (1, "size cap")):
            monkeypatch.setattr(
                cli, "cutoff_acceptances", _must_not_run if extra else reached
            )
            cutoffs = ",".join([str(d)] * (n_cutoffs + extra))
            argv = ["--d", str(d), "--r-grid", "0.5", "--n-prime", cutoffs]
            assert run_cli("tradeoff", *argv) == 1
            captured = capsys.readouterr()
            assert message in captured.err and captured.out == ""

    def test_analytic_cap_admits_every_window_the_cell_cap_did(self):
        # d = 1448 was the largest d with 2 d^2 cells under MAX_WINDOW_CELLS
        assert 2 * 1448**2 <= cli.MAX_WINDOW_CELLS < 2 * 1449**2
        assert cli.MAX_ANALYTIC_DIM >= 1448

    @pytest.mark.parametrize(
        "command,window",
        [
            ("error-sweep", ["--n-prime", "2097151"]),
            ("tradeoff", ["--n-prime", "2,1000,2097151,1000000000000"]),
        ],
    )
    def test_window_is_no_longer_capped(self, capsys, command, window):
        # d * (n' + d) used to exceed the cell cap here
        flags = ["--d", "2", "--r-grid", "0.999999", *window, "--format", "json"]
        assert run_cli(command, *flags) == 0
        rows = json.loads(capsys.readouterr().out)
        for row in rows:
            for name, value in row.items():
                if name not in ("r_sq", "n_prime"):
                    assert 0.0 <= value <= 1.0, (name, value)

    def test_largest_window_of_the_cell_cap_runs(self, capsys):
        assert run_cli("error-sweep", "--d", "1448", "--n-prime", "1448") == 0
        assert len(parse_sweep(capsys.readouterr().out, "csv")) == 10

    @pytest.mark.parametrize(
        "command,flags,target,match",
        [
            (
                "error-sweep",
                ["--d", str(cli.MAX_ANALYTIC_DIM + 1)],
                "compute_sweep",
                "size cap",
            ),
            (
                "tradeoff",
                ["--d", str(cli.MAX_ANALYTIC_DIM + 1), "--n-prime", "4000,5000"],
                "compute_tradeoff",
                "size cap",
            ),
            *(
                ("error-sweep", ["--d", "4", "--n-prime", n], "compute_sweep", "2**53")
                for n in (str(2**53 + 1), str(10**400))
            ),
            (
                "tradeoff",
                ["--d", "4", "--n-prime", f"4,{10**400}"],
                "compute_tradeoff",
                "2**53",
            ),
            ("discriminate", ["--d", "100000"], "discrimination_report", "size cap"),
        ],
    )
    def test_commands_reject_huge_sizes(
        self, monkeypatch, capsys, command, flags, target, match
    ):
        monkeypatch.setattr(cli, target, _must_not_run)
        monkeypatch.setattr(cli, "mub_state", _must_not_run)
        assert run_cli(command, *flags) == 1
        captured = capsys.readouterr()
        assert match in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "spec,match",
        [
            ("0:inf:1", "[0, 1)"),
            ("nan:0.5:0.1", "[0, 1)"),
            ("0:0.5:nan", "step > 0"),
            ("0:0.99:1e-9", "size cap"),
            ("0:0.5:5e-324", "size cap"),
        ],
    )
    def test_r_grid_spec_rejected_before_the_grid_is_built(
        self, monkeypatch, capsys, spec, match
    ):
        monkeypatch.setattr(cli, "compute_sweep", _must_not_run)
        assert run_cli("error-sweep", "--d", "2", "--r-grid", spec) == 1
        err = capsys.readouterr().err
        assert "bad r-grid spec" in err and match in err


class TestDarkModelDomain:
    """W p_dc = 7 * 0.5 puts the first-order dark model above probability 1."""

    @pytest.mark.parametrize(
        "command,flags,stage",
        [
            ("discriminate", ["--trials", "1000"], "run_discrimination"),
            ("error-sweep", [], "emit_csv"),
            ("tradeoff", ["--n-prime", "2,8"], "emit_csv"),
        ],
    )
    def test_rejected_before_any_output(
        self, monkeypatch, capsys, tmp_path, command, flags, stage
    ):
        monkeypatch.setattr(cli, stage, _must_not_run)
        out = tmp_path / "out.txt"
        argv = [command, "--d", "2", "--p-dc", "0.5", "--r-grid", "0.5"]
        assert run_cli(*argv, *flags, "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert "exceeds 1" in captured.err and "dark-count model" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("discriminate", ["--n-prime", "2", "--trials", "100", "--seed", "1"]),
            ("error-sweep", ["--n-prime", "2"]),
            ("tradeoff", ["--n-prime", "2,2"]),
        ],
    )
    def test_largest_setting_is_checked(self, capsys, command, flags):
        # Here P(0|0) + W p_dc = 1.04005 although the mean over the two
        # settings, the accepted probability, is 0.959.
        argv = [command, "--d", "2", "--r-grid", "0.1", "--p-dc", "0.55", *flags]
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert "largest P(m|k) + W p_dc over settings" in captured.err
        assert "= 1.04005" in captured.err and "exceeds 1" in captured.err
        assert captured.out == ""

    def test_inputs_inside_the_domain_still_run(self, capsys):
        argv = ["--d", "2", "--p-dc", "0.01", "--r-grid", "0.5"]
        assert run_cli("discriminate", *argv, "--trials", "1000") == 0
        assert run_cli("error-sweep", *argv) == 0
        assert run_cli("tradeoff", *argv, "--n-prime", "2,8") == 0


# One invocation of each output kind: sweep and trade-off tables as CSV and
# JSON, and the discrimination report.
SWEEP_RUN = ["error-sweep", "--d", "16", "--r-grid", "0.5:0.99:0.1"]
TRADEOFF_RUN = [
    "tradeoff", "--d", "16", "--r-grid", "0.99", "--p-dc", "1e-5",
    "--n-prime", "21,36,66",
]  # fmt: skip
OUTPUT_RUNS = [
    SWEEP_RUN,
    SWEEP_RUN + ["--format", "json"],
    TRADEOFF_RUN,
    TRADEOFF_RUN + ["--format", "json"],
    ["discriminate", "--d", "2", "--r-grid", "0.5", "--trials", "10000", "--seed", "42"],
]  # fmt: skip


class TestOutputFile:
    @pytest.mark.parametrize("argv", OUTPUT_RUNS, ids=lambda argv: " ".join(argv))
    def test_file_holds_the_stdout_bytes(self, tmp_path, capsys, argv):
        # the file is written as bytes, stdout through the text stream
        assert run_cli(*argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 0
        assert out.read_bytes() == printed.encode("utf-8")
        assert capsys.readouterr().out.startswith("wrote ")


class TestCost:
    """A call opens its config and output files itself: pathlib's path
    parsing and a text stream stay off the per-call path."""

    @pytest.mark.parametrize("command", cli._WINDOWS)
    def test_window_commands_do_not_use_pathlib(
        self, tmp_path, monkeypatch, capsys, command
    ):
        config, out = tmp_path / "config.json", tmp_path / "out"
        config.write_text(json.dumps({"d": 4, "r_grid": [0.5], "n_trials": 1000}))

        def forbidden(*args, **kwargs):
            raise AssertionError("pathlib on the per-call path")

        with monkeypatch.context() as patch:
            for name in ("open", "read_text", "write_text"):
                patch.setattr(Path, name, forbidden)
            rc = run_cli(command, "--config", str(config), "--out", str(out))
        assert rc == 0
        assert capsys.readouterr().out.endswith(f" to {out}\n")
        assert out.read_bytes()


class TestDefaults:
    def test_prints_every_config_key(self, capsys):
        assert run_cli("defaults") == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "d", "r_grid", "k", "theta", "n_prime",
            "eta", "p_dc", "n_trials", "master_seed",
            "output_path", "output_format",
        }


class TestConfigFile:
    def test_file_values_are_used(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"d": 4, "r_grid": [0.5], "n_prime": [12]}))
        assert run_cli("error-sweep", "--config", str(path)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2

    def test_flags_override_file(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"d": 4, "r_grid": [0.5, 0.6], "n_prime": [12]}))
        assert run_cli("error-sweep", "--config", str(path), "--r-grid", "0.7") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[0]) == 0.7

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dd": 4}))
        assert run_cli("error-sweep", "--config", str(path)) == 1

    @pytest.mark.parametrize(
        "command,data",
        [
            ("discriminate", {"k": 1.0}),
            ("discriminate", {"master_seed": "x"}),
            ("discriminate", {"n_prime": 40}),
            ("tradeoff", {"d": "16"}),
            ("tradeoff", {"r_grid": 0.5}),
            ("tradeoff", {"n_prime": [8, True]}),
        ],
    )
    def test_wrong_value_type_exits_one(
        self, tmp_path, monkeypatch, capsys, command, data
    ):
        for stage in ("compute_tradeoff", "discrimination_report"):
            monkeypatch.setattr(cli, stage, _must_not_run)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert run_cli(command, "--config", str(path)) == 1
        (key,) = data
        assert f"config key {key!r} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("theta", [math.nan, math.inf])
    def test_non_finite_theta_exits_one(self, tmp_path, capsys, theta):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"theta": theta, "d": 4, "r_grid": [0.5]}))
        assert run_cli("error-sweep", "--config", str(path)) == 1
        assert "theta must be finite" in capsys.readouterr().err

    def test_ints_as_floats_and_nulls_are_accepted(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        data = {"d": 4, "r_grid": [0, 0.5], "eta": 1, "theta": None, "n_prime": None}
        path.write_text(json.dumps(data))
        assert run_cli("error-sweep", "--config", str(path)) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    @pytest.mark.parametrize(
        "command", ["mub-verify", "error-sweep", "discriminate", "tradeoff"]
    )
    def test_defaults_output_runs_every_command(self, tmp_path, capsys, command):
        assert run_cli("defaults") == 0
        path = tmp_path / "config.json"
        path.write_text(capsys.readouterr().out)
        assert run_cli(command, "--config", str(path)) == 0
        from_file = capsys.readouterr().out
        assert run_cli(command) == 0
        assert capsys.readouterr().out == from_file

    @pytest.mark.parametrize(
        "command,r_grid,cutoffs",
        [
            ("mub-verify", DEFAULT_GRID, None),
            ("error-sweep", DEFAULT_GRID, None),
            ("discriminate", [0.95], None),
            ("tradeoff", [0.95], [16, 32, 64]),
        ],
    )
    def test_command_without_flags_runs_its_default_config(
        self, tmp_path, capsys, command, r_grid, cutoffs
    ):
        # each command's unset grid and cutoffs, written out
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"r_grid": r_grid, "n_prime": cutoffs}))
        assert run_cli(command, "--config", str(path)) == 0
        want = capsys.readouterr()
        assert run_cli(command) == 0
        assert capsys.readouterr() == want and want.out

    def test_tradeoff_reads_the_file_cutoffs(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"d": 16, "r_grid": [0.9], "n_prime": [32]}))
        assert run_cli("tradeoff", "--config", str(path)) == 0
        from_file = capsys.readouterr()
        argv = ["--d", "16", "--r-grid", "0.9", "--n-prime", "32"]
        assert run_cli("tradeoff", *argv) == 0
        assert capsys.readouterr() == from_file
        assert from_file.out == (
            "n_prime,observed_error,accepted_probability\n"
            "32,0.18379127246930158,0.016253554844243463\n"
        )

    def test_one_cutoff_is_a_list_in_the_file(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"d": 16, "r_grid": [0.9], "n_prime": 32}))
        assert run_cli("tradeoff", "--config", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "error: config key 'n_prime' must be list of int, got 32\n"
        )

    def test_keys_error_sweep_does_not_read_change_nothing(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_trials": 0, "master_seed": -1}))
        argv = ["error-sweep", "--d", "4", "--r-grid", "0.5"]
        assert run_cli(*argv) == 0
        want = capsys.readouterr()
        assert run_cli(*argv, "--config", str(path)) == 0
        assert capsys.readouterr() == want and want.out

    def test_mub_verify_reads_d_alone(self, tmp_path, capsys):
        # every other key holds a value a window command rejects
        path = tmp_path / "config.json"
        data = {
            "d": 16, "r_grid": [1.0], "k": -1, "theta": math.nan, "n_prime": [],
            "eta": 2.0, "p_dc": 1.0, "n_trials": 0, "master_seed": -1,
            "output_path": str(tmp_path / "out.txt"), "output_format": "xml",
        }  # fmt: skip
        path.write_text(json.dumps(data))
        assert run_cli("mub-verify", "--d", "16") == 0
        want = capsys.readouterr()
        assert run_cli("mub-verify", "--config", str(path)) == 0
        assert capsys.readouterr() == want and want.out
        assert not (tmp_path / "out.txt").exists()

    def test_defaults_takes_no_command(self, capsys):
        assert run_cli("defaults", "tradeoff") == 1
        captured = capsys.readouterr()
        assert captured.err == "error: unrecognized arguments: tradeoff\n"
        assert captured.out == ""

    def test_file_that_is_not_text_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe{")
        assert run_cli("error-sweep", "--config", str(path)) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "nonexistent.json"
        assert run_cli("error-sweep", "--config", str(path)) == 1
        assert capsys.readouterr() == (
            "",
            f"error: cannot read config file {path}: "
            f"[Errno 2] No such file or directory: '{path}'\n",
        )

    def test_directory_rejected(self, tmp_path, capsys):
        assert run_cli("error-sweep", "--config", str(tmp_path)) == 1
        assert capsys.readouterr() == (
            "",
            f"error: cannot read config file {tmp_path}: "
            f"[Errno 21] Is a directory: '{tmp_path}'\n",
        )

    def test_utf8_bom_rejected(self, tmp_path, capsys):
        # json.loads would take the bytes with their BOM; the file is
        # decoded as UTF-8 first, so the BOM stays an error
        path = tmp_path / "config.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps({"d": 4}).encode())
        assert run_cli("error-sweep", "--config", str(path)) == 1
        assert capsys.readouterr().err == (
            f"error: config file {path} is not valid JSON: Unexpected UTF-8 BOM "
            "(decode using utf-8-sig): line 1 column 1 (char 0)\n"
        )

    @pytest.mark.parametrize("encoding", ["utf-16", "utf-32"])
    def test_utf16_and_utf32_rejected(self, tmp_path, capsys, encoding):
        # json.loads would detect either encoding in bytes
        data = json.dumps({"d": 4}).encode(encoding)  # BOM first
        path = tmp_path / "config.json"
        path.write_bytes(data)
        assert run_cli("error-sweep", "--config", str(path)) == 1
        assert capsys.readouterr().err == (
            f"error: config file {path} is not valid JSON: 'utf-8' codec can't "
            f"decode byte {data[0]:#x} in position 0: invalid start byte\n"
        )

    def test_bad_flag_exits_one(self):
        assert run_cli("error-sweep", "--bogus") == 1

    @pytest.mark.parametrize(
        "argv,dropped",
        [
            (
                ["mub-verify", "--d", "4", "--out", "f", "--p-dc", "7"],
                "--out f --p-dc 7",
            ),
            (["defaults", "--d"], "--d"),
            (["defaults", "--d", "32"], "--d 32"),
            (["error-sweep", "--trials", "9", "--seed", "3"], "--trials 9 --seed 3"),
            (["tradeoff", "--n-prime", "16,32", "--trials", "9"], "--trials 9"),
        ],
    )
    def test_flag_the_command_does_not_read_exits_one(
        self, tmp_path, monkeypatch, capsys, argv, dropped
    ):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: unrecognized arguments: {dropped}\n"
        assert captured.out == "" and not (tmp_path / "f").exists()


def test_tradeoff_columns_constant():
    assert TRADEOFF_COLUMNS == ("n_prime", "observed_error", "accepted_probability")


def test_sweep_row_field_order_matches_contract():
    assert SWEEP_COLUMNS == (
        "r_sq",
        "p_e_analytic",
        "p_e_closed_form",
        "p_d2",
        "p_e_observed",
        "accepted_probability",
    )


# -- the CLI contract, over random commands, flags and config-file values ----

# Every output field that is a probability (or, like r_sq and p_dc, an
# input echoed from [0, 1)).
PROBABILITY_FIELDS = {
    "r_sq", "r_effective", "p_dc", "d2_window_frequency", "p_e_analytic",
    "p_e_empirical", "p_e_closed_form", "p_d2", "p_e_observed",
    "accepted_probability", "observed_error", "p_hat", "p_analytic",
}  # fmt: skip

# Small sizes only: d <= 16, windows near d, at most 2000 trials. Each
# field has valid values and values the CLI must reject with exit 1.
R_SQ = st.one_of(
    st.sampled_from([0.0, 5e-324, 1 - 2**-53]), st.floats(0.0, 1.0, exclude_max=True)
)
BAD_R_SQ = st.sampled_from([math.nan, 1.0, -0.1, math.inf])


def cli_values(d, command):
    """Per config field, (valid values, rejected values) at dimension d.

    Only error-sweep takes a grid and only tradeoff more than one cutoff;
    the other commands take one r² value and one cutoff.
    """
    window = st.integers(d, d + 24)
    grid_size = 3 if command == "error-sweep" else 1
    cutoffs = 3 if command == "tradeoff" else 1
    return {
        "d": (st.just(d), st.integers(-1, 1)),
        "r_grid": (
            st.lists(R_SQ, min_size=1, max_size=grid_size),
            st.lists(st.one_of(R_SQ, BAD_R_SQ), max_size=3).filter(
                lambda grid: not grid
                or len(grid) > grid_size
                or not all(0.0 <= r < 1.0 for r in grid)
            ),
        ),
        "n_prime": (
            st.lists(window, min_size=1, max_size=cutoffs),
            st.lists(st.one_of(window, st.integers(0, d - 1)), max_size=3).filter(
                lambda values: not values or len(values) > cutoffs or min(values) < d
            ),
        ),
        "k": (st.integers(0, d - 1), st.sampled_from([-1, d, 16])),
        "theta": (
            st.one_of(st.none(), st.floats(-10.0, 10.0)),
            st.sampled_from([math.nan, math.inf]),
        ),
        "eta": (st.floats(0.0, 1.0), st.sampled_from([-0.1, 1.1, math.nan])),
        "p_dc": (
            st.one_of(st.sampled_from([0.0, 5e-324, 1e-6]), st.floats(0.0, 0.9)),
            st.sampled_from([-0.1, 1.0, math.nan]),
        ),
        "n_trials": (st.integers(1, 2000), st.integers(-1, 0)),
        "master_seed": (st.integers(0, 2**128 - 1), st.sampled_from([-1, 2**128])),
        "output_format": (st.sampled_from(["csv", "json"]), st.just("xml")),
    }


# Config field -> the flag that overrides it, for the fields that have one.
CLI_FLAGS = {
    "d": "--d", "r_grid": "--r-grid", "n_prime": "--n-prime", "eta": "--eta",
    "p_dc": "--p-dc", "n_trials": "--trials", "master_seed": "--seed",
    "output_format": "--format",
}  # fmt: skip
# The fields of cli_values each command reads. A config key of any other
# field must change nothing, whatever its value.
WINDOW_FIELDS = {"d", "r_grid", "n_prime", "k", "theta", "eta", "p_dc", "output_format"}
READS = {
    "mub-verify": {"d"},
    "error-sweep": WINDOW_FIELDS,
    "discriminate": WINDOW_FIELDS | {"n_trials", "master_seed"},
    "tradeoff": WINDOW_FIELDS,
}


def flag_text(value):
    if isinstance(value, list):
        return ",".join(repr(v) for v in value)
    return str(value)


@st.composite
def invocations(draw):
    """(command, flag values, config-file values, write to --out, unread).

    At most one field the command reads takes a rejected value, and none in
    at least a quarter of the runs. The drawn d is always set. ``unread`` is
    a config key of a field the command does not read, with a valid or a
    rejected value, or None for discriminate, which reads every field.
    """
    command = draw(st.sampled_from(sorted(READS)))
    values = cli_values(draw(st.integers(2, 16)), command)
    broken = draw(st.sampled_from([None] * 4 + sorted(READS[command])))
    needed = {"d", broken}
    flags, data = {}, {}
    for name in sorted(READS[command]):
        good, bad = values[name]
        where = draw(st.sampled_from(["unset", "file", "flag"]))
        # a command takes the flag of every field it reads that has one
        if where == "flag" and name not in CLI_FLAGS or (
            where == "unset" and name in needed
        ):
            where = "file"
        if where != "unset":
            value = draw(bad if name == broken else good)
            (data if where == "file" else flags)[name] = value
    unread = None
    if command != "discriminate":
        name = draw(st.sampled_from(sorted(set(values) - READS[command])))
        unread = {name: draw(st.one_of(*values[name]))}
    to_file = command != "mub-verify" and draw(st.booleans())  # it takes no --out
    return command, flags, data, to_file, unread


def probability_values(command, text):
    """Every probability field of one output, parsed back."""
    if command == "discriminate" or text.startswith("["):
        out = json.loads(text)
        records = out if isinstance(out, list) else [out, *out["settings"]]
    else:
        records = [
            {k: float(v) for k, v in row.items()}
            for row in csv.DictReader(io.StringIO(text))
        ]
    assert records
    return [
        (key, value)
        for record in records
        for key, value in record.items()
        if key in PROBABILITY_FIELDS
    ]


def command_line(command, flags, data, tmp, out_path):
    """The argv of one run; a nonempty ``data`` is written to a config file."""
    argv = [command]
    for name, value in flags.items():
        argv += [CLI_FLAGS[name], flag_text(value)]
    if data:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(data))
        argv += ["--config", str(config)]
    if out_path is not None:
        argv += ["--out", str(out_path)]
    return argv


def run_captured(argv, out_path):
    """(exit code, stdout, stderr, --out bytes or None) of one in-process run."""
    if out_path is not None and out_path.exists():
        out_path.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
    written = None
    if out_path is not None and out_path.exists():
        written = out_path.read_bytes()
    return code, stdout.getvalue(), stderr.getvalue(), written


@given(case=invocations())
@example(  # two rows' CDF rounds above 1 at the window's lower edge
    case=("discriminate", {"d": 6, "r_grid": [1 - 2**-53], "n_trials": 1000,
          "master_seed": 1}, {}, False, None)
)  # fmt: skip
@settings(max_examples=300, deadline=None)
def test_cli_contract_holds_for_any_input(case):
    command, flags, data, to_file, unread = case
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "out.txt" if to_file else None
        argv = command_line(command, flags, data, tmp, out_path)
        code, stdout, stderr, written = first = run_captured(argv, out_path)
        assert code in (0, 1, 2)
        assert "Traceback" not in stderr
        if code == 1:
            assert stdout == "" and written is None
            assert stderr.startswith("error: ")
        if code == 0 and command == "mub-verify":
            line = r"d=\d+: max \|overlap\^2 - 1/d\| = \S+ \(pass at 1e-12\)\n"
            assert re.fullmatch(line, stdout)
        elif code == 0:
            text = stdout if out_path is None else written.decode()
            report = probability_values(command, text)
            if command == "discriminate" and json.loads(text)["accepted_total"] == 0:
                # no accepted click: the error estimate is undefined, not 0
                assert ("p_e_empirical", None) in report
                report.remove(("p_e_empirical", None))
            for key, value in report:
                assert isinstance(value, float) and 0.0 <= value <= 1.0, (key, value)
        assert run_captured(argv, out_path) == first
        if unread is not None:  # a key the command does not read changes nothing
            argv = command_line(command, flags, {**data, **unread}, tmp, out_path)
            assert run_captured(argv, out_path) == first


@st.composite
def seed_pairs(draw):
    """Two distinct seeds in [0, 2**128), often one Philox key word apart."""
    seed = draw(st.integers(0, 2**128 - 1))
    offset = draw(
        st.one_of(st.sampled_from([1, 2**32, 2**64]), st.integers(1, 2**128 - 1))
    )
    return seed, (seed + offset) % 2**128


@given(pair=seed_pairs())
@example(pair=(5, 5 + 2**32))
@example(pair=(5, 5 + 2**64))
@example(pair=(0, 2**128 - 1))
@settings(max_examples=200, deadline=None)
def test_distinct_seeds_give_distinct_streams(pair):
    # the seed is the whole 128-bit Philox key: no two seeds share a stream
    a, b = (montecarlo._generator(seed).random(4) for seed in pair)
    assert (a != b).all()


@given(seed=st.integers(0, 2**128 - 2**64 - 1))
@example(seed=0)
@settings(max_examples=10, deadline=None)
def test_seeds_a_key_word_apart_give_distinct_reports(seed):
    argv = [
        "discriminate", "--d", "16", "--r-grid", "0.9", "--p-dc", "1e-3",
        "--trials", "20000", "--format", "json",
    ]  # fmt: skip
    first, second = (
        run_captured([*argv, "--seed", str(s)], None) for s in (seed, seed + 2**64)
    )
    assert first[0] == second[0] == 0
    assert json.loads(first[1])["settings"] != json.loads(second[1])["settings"]
