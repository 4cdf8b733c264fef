"""Command-line interface: subcommands, exit codes, file formats."""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extorus
from extorus import acceptance, cli
from extorus.acceptance import RunManifest
from extorus.cli import _read_records, main
from extorus.simulate import ExperimentConfig
from _reference import read_records_rowwise, records_of


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTheory:
    def test_cat_map_q1(self, capsys):
        code, out, _ = run_cli(
            capsys, "theory", "--matrix", "2,1,1,1", "--q", "1", "--metric", "euclidean",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["theta"] == pytest.approx(0.535440945602460, abs=1e-12)
        assert payload["pi"][0] == pytest.approx(0.476884622876, abs=1e-9)

    def test_not_hyperbolic_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "theory", "--matrix", "1,1,0,1", "--q", "1")
        assert code == 2
        assert "NotHyperbolic" in err

    def test_nonperiodic_theta_one(self, capsys):
        code, out, _ = run_cli(capsys, "theory", "--q", "0", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["theta"] == 1.0
        assert payload["pi"][0] == 1.0
        assert all(p == 0.0 for p in payload["pi"][1:])

    def test_q_derived_from_zeta(self, capsys):
        code, out, _ = run_cli(capsys, "theory", "--zeta", "1/2,1/2", "--json")
        assert code == 0
        assert json.loads(out)["q"] == 3

    def test_human_table(self, capsys):
        code, out, _ = run_cli(capsys, "theory", "--q", "1")
        assert code == 0
        assert "theta" in out and "u_n" in out and "pi[1]" in out

    def test_bad_zeta_exits_2_even_with_q(self, capsys):
        code, _, err = run_cli(capsys, "theory", "--q", "1", "--zeta", "bogus")
        assert code == 2
        assert "zeta" in err

    def test_values_starting_with_dash(self, capsys):
        # -2,1,1,-1 is symmetric with lam < 0
        spaced = run_cli(capsys, "theory", "--matrix", "-2,1,1,-1", "--zeta", "-1/3,1/2", "--json")
        joined = run_cli(capsys, "theory", "--matrix=-2,1,1,-1", "--zeta=-1/3,1/2", "--json")
        assert spaced[0] == 0
        assert spaced == joined
        assert json.loads(spaced[1])["lambda"] < 0


class TestEuclideanNeedsSymmetricMatrix:
    """theory and estimate refuse the |lam|-only Euclidean law where it is wrong."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("symmetric")
        for matrix in ("3,1,2,1", "-3,1,-1,0", "2,1,1,1", "5,2,2,1"):
            argv = ["simulate", f"--matrix={matrix}", "--n", "3000", "--trials", "200",
                    "--seed", "3", "--out", str(root / matrix)]
            assert main(argv) == 0
        return root

    @pytest.mark.parametrize("matrix", ["3,1,2,1", "-3,1,-1,0"])
    def test_non_symmetric_exits_2(self, runs, capsys, matrix):
        code, out, err = run_cli(capsys, "theory", f"--matrix={matrix}", "--json")
        assert (code, out) == (2, "")
        assert "need a symmetric matrix (b == c)" in err
        code, out, err = run_cli(capsys, "estimate", "--in", str(runs / matrix))
        assert (code, out) == (2, "")
        assert "need a symmetric matrix (b == c)" in err
        assert not (runs / matrix / "multiplicity.tsv").exists()

    @pytest.mark.parametrize("matrix", ["3,1,2,1", "-3,1,-1,0"])
    def test_non_symmetric_still_runs_where_the_law_holds(self, capsys, matrix):
        # the adapted metric, and the Euclidean metric at a non-periodic centre
        assert run_cli(capsys, "theory", f"--matrix={matrix}", "--metric", "adapted")[0] == 0
        assert run_cli(capsys, "theory", f"--matrix={matrix}", "--q", "0")[0] == 0

    @pytest.mark.parametrize("matrix", ["2,1,1,1", "5,2,2,1"])
    def test_symmetric_runs(self, runs, capsys, matrix):
        code, out, _ = run_cli(capsys, "theory", f"--matrix={matrix}", "--json")
        assert code == 0 and json.loads(out)["q"] == 1
        code, out, _ = run_cli(capsys, "estimate", "--in", str(runs / matrix), "--mc-samples", "0")
        assert code == 0 and "theta (formula)" in out


class TestSimulate:
    def test_smoke_and_headers(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(
            capsys, "simulate", "--n", "1000", "--trials", "10", "--seed", "5",
            "--out", str(out_dir),
        )
        assert code == 0
        exc = (out_dir / "exceedances.csv").read_text().splitlines()
        assert exc[0] == "trial,time,value"
        maxima = (out_dir / "block_maxima.csv").read_text().splitlines()
        assert maxima[0] == "trial,maximum"
        assert len(maxima) == 11
        manifest = RunManifest.from_json((out_dir / "manifest.json").read_text())
        assert manifest.config["n"] == 1000

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        args = ["simulate", "--n", "1500", "--trials", "20", "--seed", "9"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, *args, "--out", str(a))[0] == 0
        assert run_cli(capsys, *args, "--out", str(b))[0] == 0
        for name in ("exceedances.csv", "block_maxima.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, command):
        code, _, err = run_cli(capsys, command, "--workers", "0", "--out", str(tmp_path / "x"))
        assert code == 2
        assert "worker count" in err

    @pytest.mark.parametrize("command", ["simulate", "theory"])
    @pytest.mark.parametrize("tau", ["nan", "inf"])
    def test_non_finite_tau_exits_2(self, tmp_path, capsys, command, tau):
        extra = ["--out", str(tmp_path / "x")] if command == "simulate" else []
        code, _, err = run_cli(capsys, command, "--tau", tau, "--n", "100", *extra)
        assert code == 2
        assert f"tau must be finite and positive, got {tau}" in err
        assert not (tmp_path / "x").exists()

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("a file, not a directory")
        code, out, err = run_cli(capsys, "simulate", "--n", "100", "--out", str(tmp_path / "taken"))
        assert (code, out) == (3, "")
        assert err.startswith("error: I/O failure: ")

    def test_radius_too_large_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--tau", "99", "--n", "100", "--out", str(tmp_path / "x")
        )
        assert code == 2
        assert "RadiusTooLarge" in err

    def test_csv_round_trip_recovers_records(self, tmp_path, capsys):
        from extorus import ExperimentConfig, run_experiment
        from extorus.cli import _read_records

        out_dir = tmp_path / "rt"
        code, _, _ = run_cli(
            capsys, "simulate", "--zeta", "0/1,0/1", "--n", "5000", "--trials", "50",
            "--seed", "21", "--out", str(out_dir),
        )
        assert code == 0
        cfg, records = _read_records(out_dir)
        assert cfg == ExperimentConfig(zeta=cfg.zeta, n=5000, trials=50, seed=21)
        assert records == run_experiment(cfg, workers=1)

    @pytest.mark.parametrize(
        "flag, value", [("--matrix", "-1000,-999,-1,-1"), ("--zeta", "-1/3,1/2")]
    )
    def test_value_starting_with_dash_same_bytes(self, tmp_path, capsys, flag, value):
        args = ["simulate", "--n", "2000", "--trials", "5", "--tau", "5", "--seed", "3"]
        spaced, joined = tmp_path / "spaced", tmp_path / "joined"
        assert run_cli(capsys, *args, flag, value, "--out", str(spaced))[0] == 0
        assert run_cli(capsys, *args, f"{flag}={value}", "--out", str(joined))[0] == 0
        for name in ("exceedances.csv", "block_maxima.csv"):
            assert (spaced / name).read_bytes() == (joined / name).read_bytes()
        config = RunManifest.from_json((spaced / "manifest.json").read_text()).config
        assert config == RunManifest.from_json((joined / "manifest.json").read_text()).config
        assert config[flag[2:]] == ([-1000, -999, -1, -1] if flag == "--matrix" else "2/3,1/2")

    def test_config_file_with_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 800\ntrials = 5\nseed = 3\n# comment\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(cfg), "--trials", "7", "--out", str(out_dir)
        )
        assert code == 0
        manifest = RunManifest.from_json((out_dir / "manifest.json").read_text())
        assert manifest.config["n"] == 800  # from file
        assert manifest.config["trials"] == 7  # flag wins

    @pytest.mark.parametrize("command", ["simulate", "theory"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--n", "abc", "--n: invalid literal for int() with base 10: 'abc'"),
            ("--tau", "1,5", "--tau: could not convert string to float: '1,5'"),
            ("--matrix", "2,1,1", "--matrix: matrix needs four comma-separated integers"),
            ("--metric", "taxicab", "--metric: metric must be 'euclidean' or 'adapted'"),
            ("--zeta", "1/0,0", "--zeta: Fraction(1, 0)"),
            ("--zeta", "inf,0", "--zeta: cannot convert Infinity to integer ratio"),
        ],
        ids=["n", "tau", "matrix", "metric", "zeta-1/0", "zeta-inf"],
    )
    def test_bad_flag_value_names_the_flag(self, tmp_path, capsys, command, flag, value, message):
        extra = ["--out", str(tmp_path / "x")] if command == "simulate" else []
        code, out, err = run_cli(capsys, command, f"{flag}={value}", *extra)
        assert (code, out) == (2, "")
        assert f"error: ValueError: {message}" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flags", [[], ["--n", "900"]], ids=["file", "file-under-flag"])
    def test_bad_config_file_value_names_path_line_and_key(self, tmp_path, capsys, flags):
        # a bad file value is an error even where a flag overrides it
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials = 5\nn = abc\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(cfg), *flags, "--out", str(tmp_path / "out")
        )
        assert code == 2
        assert f"{cfg}:2: n: invalid literal for int() with base 10: 'abc'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "where, message",
        [
            (["--trials", "0"], "error: ValueError: --trials: trials must be >= 1"),
            ("trials = 0\n", "error: ValueError: {cfg}:1: trials: trials must be >= 1"),
            ("seed = 2\nmatrix = 1,1,0,1\n", "error: NotHyperbolic: {cfg}:2: matrix: |trace| = 2 <= 2"),
            ("matrix = 2,1,1,2\n", "error: DeterminantNotOne: {cfg}:1: matrix: determinant is 3, must be 1"),
            (["--n", "0"], "error: ValueError: --n: n must be >= 1"),
            ("tau = -1\n", "error: ValueError: {cfg}:1: tau: tau must be finite and positive, got -1.0"),
        ],
        ids=["trials-flag", "trials-file", "matrix-file", "determinant-file", "n-flag", "tau-file"],
    )
    def test_value_failing_its_field_check_names_its_source(self, tmp_path, capsys, where, message):
        # the value parses, but ExperimentConfig's check of that one field rejects it
        cfg = tmp_path / "run.cfg"
        if isinstance(where, list):
            argv = where
        else:
            cfg.write_text(where, encoding="utf-8")
            argv = ["--config", str(cfg)]
        code, out, err = run_cli(capsys, "simulate", *argv, "--out", str(tmp_path / "out"))
        assert (code, out) == (2, "")
        assert err == message.format(cfg=cfg) + "\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n = 800\ntrails = 7\n", "unknown key 'trails'"),
            ("n = 800\n# comment\nn = 900\n", "duplicate key 'n'"),
        ],
    )
    def test_config_file_bad_key_exit_2(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text, encoding="utf-8")
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "out")
        )
        assert code == 2
        assert f"{cfg}:{len(text.splitlines())}:" in err and message in err
        assert not (tmp_path / "out").exists()


class TestEstimate:
    @pytest.fixture(scope="class")
    def sim_run(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("estimate") / "sim"
        argv = ["simulate", "--zeta", "0/1,0/1", "--n", "20000", "--trials", "400",
                "--seed", "12", "--out", str(out_dir)]
        assert main(argv) == 0
        return out_dir

    @pytest.fixture()
    def sim_dir(self, sim_run, tmp_path):
        # one simulation per class, copied per test: some tests edit the files
        return shutil.copytree(sim_run, tmp_path / "sim")

    def test_pipeline(self, sim_dir, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--in", str(sim_dir), "--mc-samples", "50000")
        assert code == 0
        assert "theta_hat (clusters)" in out
        assert "theta_hat (ratio)" in out
        table = (sim_dir / "multiplicity.tsv").read_text().splitlines()
        assert table[0] == "kappa\tempirical\ttheory"
        assert len(table) >= 11

    def test_theta_override_forwarded(self, sim_dir, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--in", str(sim_dir), "--mc-samples", "0",
            "--theta-override", "0.25",
        )
        assert code == 0
        assert "Exp(0.25)" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["estimate", "--mc-samples", "-5"], "--mc-samples: mc_samples must be 0 or >= 1000, got -5"),
            (["estimate", "--mc-samples", "500"], "--mc-samples: mc_samples must be 0 or >= 1000, got 500"),
            (["estimate", "--mc-samples", "999"], "--mc-samples: mc_samples must be 0 or >= 1000, got 999"),
            (["estimate", "--theta-override", "nan"],
             "--theta-override: theta_override must lie in (0, 1], got nan"),
            (["estimate", "--theta-override", "inf"],
             "--theta-override: theta_override must lie in (0, 1], got inf"),
            (["estimate", "--theta-override", "-2"],
             "--theta-override: theta_override must lie in (0, 1], got -2.0"),
            (["estimate", "--theta-override", "0"],
             "--theta-override: theta_override must lie in (0, 1], got 0.0"),
            (["estimate", "--theta-override", "1.5"],
             "--theta-override: theta_override must lie in (0, 1], got 1.5"),
            (["theory", "--kmax", "-3"], "--kmax: kmax must be >= 1, got -3"),
            (["theory", "--kmax", "0"], "--kmax: kmax must be >= 1, got 0"),
            (["theory", "--q", "-1"], "--q: q must be >= 0, got -1"),
        ],
        ids=["mc-negative", "mc-500", "mc-999", "theta-nan", "theta-inf", "theta-negative",
             "theta-zero", "theta-above-one", "kmax-negative", "kmax-zero", "q-negative"],
    )
    def test_flag_outside_the_run_schema_rejected_before_output(self, sim_dir, capsys, argv, message):
        # flags that are not ExperimentConfig fields are checked too, and named the same way
        command, *flags = argv
        where = ["--in", str(sim_dir)] if command == "estimate" else []
        code, out, err = run_cli(capsys, command, *where, *flags)
        assert (code, out, err) == (2, "", f"error: ValueError: {message}\n")
        assert not (sim_dir / "multiplicity.tsv").exists()

    def test_empty_exceedances_exit_4(self, tmp_path, capsys):
        out_dir = tmp_path / "quiet"
        code, _, _ = run_cli(
            capsys, "simulate", "--zeta", "0.21,0.83", "--tau", "0.0001", "--n", "1000",
            "--trials", "20", "--seed", "4", "--out", str(out_dir),
        )
        assert code == 0
        code, _, err = run_cli(capsys, "estimate", "--in", str(out_dir))
        assert code == 4
        assert "NoExceedances" in err

    def test_ratio_out_of_local_range_is_skipped(self, tmp_path, capsys):
        # at |trace| 19602 one image of the threshold ball wraps the torus:
        # the ratio oracle cannot run, every other estimator still can
        out_dir = tmp_path / "wide"
        code, _, _ = run_cli(
            capsys, "simulate", "--matrix", "1,140,140,19601", "--n", "7000", "--trials", "5",
            "--tau", "40", "--seed", "4", "--out", str(out_dir),
        )
        assert code == 0
        code, out, err = run_cli(capsys, "estimate", "--in", str(out_dir))
        assert code == 0, err
        lines = out.splitlines()
        assert lines[4].startswith("theta_hat (clusters)")
        assert lines[5].startswith("theta_hat (ratio)     skipped (OutOfLocalRange: lam^(1q)")
        assert lines[6].startswith("P(M_n <= u_n)")
        assert lines[-1].startswith("wrote multiplicity table")

    def test_malformed_csv_exit_2(self, sim_dir, capsys):
        path = sim_dir / "exceedances.csv"
        lines = path.read_text().splitlines()
        lines.insert(2, "oops,not,a,row")
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "estimate", "--in", str(sim_dir))
        assert code == 2
        assert ":3:" in err  # first offending line is named


class TestEstimateRejectsBadRecords:
    """Every inconsistent CSV fails loudly with a line number, and a bad manifest config
    with the manifest's name (exit 2)."""

    TRIALS = 20

    @pytest.fixture()
    def run_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        code, _, _ = run_cli(
            capsys, "simulate", "--zeta", "0/1,0/1", "--n", "2000", "--trials", str(self.TRIALS),
            "--seed", "3", "--out", str(out_dir),
        )
        assert code == 0
        return out_dir

    @staticmethod
    def edit(path, change):
        lines = path.read_text().splitlines()
        change(lines)
        path.write_text("\n".join(lines) + "\n")
        return len(lines)

    def estimate_error(self, run_dir, capsys):
        code, _, err = run_cli(capsys, "estimate", "--in", str(run_dir), "--mc-samples", "0")
        assert code == 2
        return err

    def test_exceedance_without_block_maximum(self, run_dir, capsys):
        n = self.edit(run_dir / "exceedances.csv", lambda lines: lines.append("999,5,9.5"))
        err = self.estimate_error(run_dir, capsys)
        assert f"exceedances.csv:{n}:" in err and "no block maximum" in err

    def test_non_finite_value(self, run_dir, capsys):
        def to_nan(lines):
            trial, t, _ = lines[1].split(",")
            lines[1] = f"{trial},{t},nan"

        self.edit(run_dir / "exceedances.csv", to_nan)
        err = self.estimate_error(run_dir, capsys)
        assert "exceedances.csv:2:" in err and "non-finite" in err

    @staticmethod
    def u_n(run_dir):
        return json.loads((run_dir / "manifest.json").read_text())["config"]["derived"]["u_n"]

    def set_first_value(self, run_dir, value):
        def change(lines):
            trial, t, _ = lines[1].split(",")
            lines[1] = f"{trial},{t},{value!r}"

        self.edit(run_dir / "exceedances.csv", change)

    def test_value_not_above_threshold(self, run_dir, capsys):
        self.set_first_value(run_dir, self.u_n(run_dir))
        err = self.estimate_error(run_dir, capsys)
        assert "exceedances.csv:2:" in err and "not above u_n" in err

    def test_value_just_above_threshold_prints_same_bytes(self, run_dir, capsys):
        # estimate reads exceedance times, not values, so a valid value
        # at the boundary leaves every printed byte unchanged
        argv = ("estimate", "--in", str(run_dir), "--mc-samples", "0")
        code, before, _ = run_cli(capsys, *argv)
        assert code == 0
        self.set_first_value(run_dir, math.nextafter(self.u_n(run_dir), math.inf))
        code, after, _ = run_cli(capsys, *argv)
        assert code == 0 and after == before

    def test_duplicate_trial(self, run_dir, capsys):
        n = self.edit(run_dir / "block_maxima.csv", lambda lines: lines.append("0,3.5"))
        err = self.estimate_error(run_dir, capsys)
        assert f"block_maxima.csv:{n}:" in err and "duplicate trial 0" in err

    def test_trial_count_differs_from_manifest(self, run_dir, capsys):
        self.edit(run_dir / "block_maxima.csv", lambda lines: lines.pop())
        err = self.estimate_error(run_dir, capsys)
        assert f"block_maxima.csv:{self.TRIALS + 1}:" in err and "manifest" in err
        self.edit(run_dir / "block_maxima.csv", lambda lines: lines.extend(["19,1.5", "20,1.5"]))
        err = self.estimate_error(run_dir, capsys)
        assert f"block_maxima.csv:{self.TRIALS + 2}:" in err and "manifest" in err


    def test_trial_outside_manifest_range(self, run_dir, capsys):
        def rename_first(lines):
            _, maximum = lines[1].split(",")
            lines[1] = f"777,{maximum}"

        self.edit(run_dir / "block_maxima.csv", rename_first)
        err = self.estimate_error(run_dir, capsys)
        assert f"block_maxima.csv:2: trial 777 is not in the manifest's 0..{self.TRIALS - 1}" in err

    @pytest.mark.parametrize("time", [-5, 2000, 999999])
    def test_time_outside_orbit(self, run_dir, capsys, time):
        def move_first(lines):
            trial, _, value = lines[1].split(",")
            lines[1] = f"{trial},{time},{value}"

        self.edit(run_dir / "exceedances.csv", move_first)
        err = self.estimate_error(run_dir, capsys)
        assert f"exceedances.csv:2: time {time} is not in the manifest's [0, 2000)" in err

    def test_repeated_row(self, run_dir, capsys):
        path = run_dir / "exceedances.csv"
        trial, time, _ = path.read_text().splitlines()[1].split(",")
        n = self.edit(path, lambda lines: lines.append(lines[1]))
        err = self.estimate_error(run_dir, capsys)
        assert f"exceedances.csv:{n}: repeated time {time} of trial {trial}" in err

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda config: config.pop("seed"), "config lacks seed"),
            (lambda config: config.update(trails=config.pop("trials")), "config lacks trials"),
            (lambda config: config.update(n="many"), "bad config: n: invalid literal for int()"),
            (lambda config: config.update(zeta=5), "bad config: zeta: zeta needs two"),
            (lambda config: config.update(n=None), "bad config: n: invalid literal for int() with base 10: 'None'"),
            (lambda config: config.update(n=2000.5), "bad config: n: invalid literal"),
            (lambda config: config.update(zeta="-1/1,1"), "bad config: zeta is '-1/1,1', not '0,0'"),
            (lambda config: config.update(trials=0), "bad config: trials: trials must be >= 1"),
            (lambda config: config.update(tua=5), "bad config: unknown key tua"),
            (lambda config: config["derived"].update(u_n=123.0), "bad config: derived.u_n is 123.0, not "),
            (lambda config: config["derived"].pop("g_n"), "config lacks derived.g_n"),
            (lambda config: config["derived"].update(q=True), "bad config: derived.q is True, not 1"),
            (lambda config: config["derived"].update(extra=1), "bad config: unknown key derived.extra"),
            # a manifest written before the grid and the run gap left the run schema
            (lambda config: config.update(modulus_bits=61, run_gap=None),
             "bad config: unknown key modulus_bits, run_gap"),
            (lambda config: config["derived"].update(run_gap_effective=config["derived"].pop("run_gap")),
             "bad config: unknown key derived.run_gap_effective"),
            # a file that is not a config object inside an object: these return the whole text
            (lambda config: json.dumps([{"config": config}]), "not a JSON object holding a config object"),
            (lambda config: json.dumps({"config": list(config.items())}),
             "not a JSON object holding a config object"),
            (lambda config: json.dumps({"version": "0"}), "not a JSON object holding a config object"),
            (lambda config: json.dumps({"config": config})[:-1], "Expecting ',' delimiter"),
        ],
        ids=["missing", "misspelled", "mistyped-n", "mistyped-zeta", "null-n", "float-n",
             "unreduced-zeta", "no-trials", "unknown-key", "derived-value", "derived-missing",
             "derived-bool", "derived-unknown", "old-fields", "old-derived", "list", "config-list",
             "no-config", "not-json"],
    )
    def test_bad_manifest_config(self, run_dir, capsys, change, message):
        path = run_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        text = change(manifest["config"])
        path.write_text(text if isinstance(text, str) else json.dumps(manifest))
        err = self.estimate_error(run_dir, capsys)
        assert f"{path}:" in err and message in err

    @pytest.mark.parametrize(
        "change",
        [lambda manifest: manifest.pop("version"), lambda manifest: manifest["criteria"].append({"tua": 5})],
        ids=["no-version", "unknown-criterion-key"],
    )
    def test_manifest_read_for_its_config_alone(self, run_dir, capsys, change):
        # estimate reads the config; the rest of the manifest is simulate's record of the run
        path = run_dir / "manifest.json"
        before = run_cli(capsys, "estimate", "--in", str(run_dir), "--mc-samples", "0")
        manifest = json.loads(path.read_text())
        change(manifest)
        path.write_text(json.dumps(manifest))
        after = run_cli(capsys, "estimate", "--in", str(run_dir), "--mc-samples", "0")
        assert before[0] == 0 and after == before


class TestCliSurface:
    """Each subcommand's flags, and one set of names for the run schema."""

    FLAGS = {
        "theory": {"--matrix", "--zeta", "--metric", "--tau", "--n", "--q", "--kmax", "--json"},
        "simulate": {
            "--matrix", "--zeta", "--metric", "--tau", "--n", "--trials", "--seed",
            "--config", "--workers", "--out",
        },
        "estimate": {"--in", "--out", "--theta-override", "--mc-samples"},
        "validate": {"--quick", "--out", "--workers"},
    }
    FILE_VALUES = {
        "matrix": "5,2,2,1", "zeta": "1/2,1/2", "metric": "adapted", "tau": "2.5", "n": "3000",
        "trials": "4", "seed": "9",
    }

    def test_flags_of_each_subcommand(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {
            name: {flag for action in p._actions for flag in action.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert flags == self.FLAGS

    def test_fields_flags_config_keys_and_manifest_keys_are_one_set(self, tmp_path, capsys):
        fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert list(cli._FIELDS) == fields
        assert set(self.FILE_VALUES) == set(fields)
        schema_flags = self.FLAGS["simulate"] - {"--config", "--workers", "--out"}
        assert {flag[2:].replace("-", "_") for flag in schema_flags} == set(fields)
        # every field is a config-file key, and the manifest echoes each one back
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in self.FILE_VALUES.items()))
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        assert code == 0, err
        config = RunManifest.from_json((out / "manifest.json").read_text()).config
        assert set(config) - {"derived"} == set(fields)
        echoed = {
            k: ",".join(map(str, v)) if isinstance(v, list) else str(v)
            for k, v in config.items()
            if k != "derived"
        }
        assert echoed == self.FILE_VALUES
        # the same values as flags give the same run
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in self.FILE_VALUES.items()]
        assert run_cli(capsys, "simulate", *flags, "--out", str(tmp_path / "flags"))[0] == 0
        assert _read_records(out) == _read_records(tmp_path / "flags")


def test_import_leaves_scipy_unloaded():
    # scipy.special is imported by the two estimators that use it, not at start-up
    src = str(Path(extorus.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import extorus.cli, sys; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


RT_CONFIG = ExperimentConfig(zeta=(Fraction(0), Fraction(0)), n=1000, trials=1, seed=1)
# (exceedance times, values above u_n) and a block maximum, any finite floats
RT_TRIAL = st.tuples(
    st.lists(
        st.tuples(
            st.integers(0, RT_CONFIG.n - 1),
            st.floats(min_value=RT_CONFIG.u_n, exclude_min=True, allow_infinity=False),
        ),
        max_size=6,
        unique_by=lambda pair: pair[0],
    ),
    st.floats(allow_nan=False, allow_infinity=False),
)
BAD_ROWS = [
    lambda fields: fields[:-1],  # a field short
    lambda fields: [*fields, "1"],  # a field too many
    lambda fields: [*fields[:-1], ""],
    lambda fields: [*fields[:-1], "nan"],
    lambda fields: [*fields[:-1], "-inf"],
    lambda fields: ["x", *fields[1:]],
    lambda fields: [fields[0] + ".5", *fields[1:]],  # a non-integer trial id
]


class TestRecordsCsvRoundTrip:
    """simulate's CSV writer and estimate's reader are inverses on any valid records."""

    @staticmethod
    def write(trials, out_dir):
        records = records_of(
            [([t for t, _ in sorted(hits)], [v for _, v in sorted(hits)], m) for hits, m in trials]
        )
        argv = ["simulate", "--zeta", "0/1,0/1", "--n", str(RT_CONFIG.n), "--seed", "1",
                "--trials", str(len(records)), "--workers", "1", "--out", str(out_dir)]
        with pytest.MonkeyPatch.context() as mp, redirect_stdout(io.StringIO()):
            mp.setattr(cli, "run_experiment", lambda cfg, workers: records)
            assert main(argv) == 0
        return records

    @settings(max_examples=40, deadline=None)
    @given(trials=st.lists(RT_TRIAL, min_size=1, max_size=5))
    def test_lossless(self, trials):
        with tempfile.TemporaryDirectory() as tmp:
            records = self.write(trials, Path(tmp))
            cfg, back = _read_records(Path(tmp))
        assert cfg == replace(RT_CONFIG, trials=len(records))
        assert back == records

    @settings(max_examples=40, deadline=None)
    @given(
        trials=st.lists(RT_TRIAL, min_size=1, max_size=5),
        name=st.sampled_from(["exceedances.csv", "block_maxima.csv"]),
        row=st.integers(0, 100),
        mutate=st.sampled_from(BAD_ROWS),
    )
    def test_malformed_row_exit_2_with_line(self, trials, name, row, mutate):
        with tempfile.TemporaryDirectory() as tmp:
            self.write(trials, Path(tmp))
            path = Path(tmp) / name
            lines = path.read_text().splitlines()
            if len(lines) == 1:  # no exceedances: mutate a block maximum
                path = Path(tmp) / "block_maxima.csv"
                lines = path.read_text().splitlines()
            lineno = 2 + row % (len(lines) - 1)
            lines[lineno - 1] = ",".join(mutate(lines[lineno - 1].split(",")))
            path.write_text("\n".join(lines) + "\n")
            err = io.StringIO()
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                code = main(["estimate", "--in", tmp, "--mc-samples", "0"])
        assert code == 2
        assert f"{path}:{lineno}:" in err.getvalue()


def read_outcome(reader, run_dir):
    """("ok", records) or ("error", message) of one reader on a simulate directory."""
    try:
        return "ok", reader(run_dir)[1]
    except ValueError as exc:
        return "error", str(exc)


class TestReaderMatchesRowwiseReference:
    """NumPy reads what int() and float() read, and rejects with the same path:line message.

    The exception: NumPy does not take digit separators (1_0) or non-ASCII
    digits, which int() and float() do; such a row is malformed now.
    """

    TRIALS = 6

    @pytest.fixture(scope="class")
    def sim_run(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("reader") / "sim"
        argv = ["simulate", "--zeta", "0/1,0/1", "--n", "2000", "--trials", str(self.TRIALS),
                "--tau", "10", "--seed", "3", "--out", str(out_dir)]
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return out_dir

    @pytest.fixture()
    def run_dir(self, sim_run, tmp_path):
        return shutil.copytree(sim_run, tmp_path / "sim")

    edit = staticmethod(TestEstimateRejectsBadRecords.edit)

    def test_unedited_run_reads_the_same(self, run_dir):
        ours, theirs = read_outcome(_read_records, run_dir), read_outcome(read_records_rowwise, run_dir)
        assert ours[0] == "ok" and len(ours[1].time) > 20
        assert ours == theirs

    @pytest.mark.parametrize(
        "name, line, text, message",
        [
            # loadtxt skips empty lines, and '#' lines unless comments=None: both stay malformed
            ("exceedances.csv", 3, "", "malformed row ''"),
            ("exceedances.csv", -1, "", "malformed row ''"),
            ("block_maxima.csv", 2, "   ", "malformed row '   '"),
            ("exceedances.csv", 2, "# a comment", "malformed row '# a comment'"),
            ("block_maxima.csv", 4, "#2,9.5", "malformed row '#2,9.5'"),
            ("block_maxima.csv", 2, "5.0,9.5", "malformed row '5.0,9.5'"),
            ("exceedances.csv", 2, "0,5,9.5,1", "malformed row '0,5,9.5,1'"),
            ("exceedances.csv", 2, "0,5", "malformed row '0,5'"),
            ("exceedances.csv", 2, "0,0x10,9.5", "malformed row '0,0x10,9.5'"),
            ("exceedances.csv", 2, "0,5,inf", "non-finite value in '0,5,inf'"),
            # beyond int64: NumPy cannot read them, int() can, and the range check says why
            ("exceedances.csv", 2, "9223372036854775808,5,9.5",
             "trial 9223372036854775808 has no block maximum"),
            ("exceedances.csv", 2, "0,-99999999999999999999,9.5",
             "time -99999999999999999999 is not in the manifest's [0, 2000)"),
            ("block_maxima.csv", 3, "18446744073709551616,9.5",
             "trial 18446744073709551616 is not in the manifest's 0..5"),
        ],
    )
    def test_rejected_rows(self, run_dir, name, line, text, message):
        """line: the line replaced by text, or -1 to append text as the last line."""

        def put(lines):
            if line > 0:
                lines[line - 1] = text
            else:
                lines.append(text)

        self.edit(run_dir / name, put)
        lineno = line if line > 0 else len((run_dir / name).read_text().splitlines())
        expected = ("error", f"{run_dir / name}:{lineno}: {message}")
        assert read_outcome(read_records_rowwise, run_dir) == expected
        assert read_outcome(_read_records, run_dir) == expected

    @pytest.mark.parametrize(
        "change",
        [
            lambda trial, time, value: f"+{trial},{time},{value}",
            lambda trial, time, value: f"  {trial}, {time}\t,{value}  ",
            lambda trial, time, value: f"{trial},{time},{float(value):.3e}",
            lambda trial, time, value: f"0{trial},+{time},+{value}",
        ],
        ids=["plus", "spaces", "exponent", "leading-zero"],
    )
    def test_accepted_spellings(self, run_dir, change):
        def respell(lines):
            lines[1:] = [change(*line.split(",")) for line in lines[1:]]

        self.edit(run_dir / "exceedances.csv", respell)
        ours = read_outcome(_read_records, run_dir)
        assert ours[0] == "ok"
        assert ours == read_outcome(read_records_rowwise, run_dir)

    def test_unsorted_rows_read_sorted(self, run_dir):
        in_order = read_outcome(_read_records, run_dir)

        def reverse(lines):
            lines[1:] = lines[:0:-1]

        self.edit(run_dir / "exceedances.csv", reverse)
        ours = read_outcome(_read_records, run_dir)
        assert ours[0] == "ok"
        assert ours == in_order == read_outcome(read_records_rowwise, run_dir)

    @pytest.mark.parametrize(
        "name, field, respell",
        [
            ("block_maxima.csv", 0, lambda text: "0_" + text),
            ("exceedances.csv", 1, lambda text: "0_" + text),
            ("exceedances.csv", 2, lambda text: "0_" + text),
            # the last digit as an ARABIC-INDIC DIGIT
            ("exceedances.csv", 1, lambda text: text[:-1] + chr(0x660 + int(text[-1]))),
        ],
        ids=["trial-separator", "time-separator", "value-separator", "time-arabic-indic"],
    )
    def test_separators_and_non_ascii_digits_now_malformed(self, run_dir, name, field, respell):
        path = run_dir / name

        def put(lines):
            fields = lines[2].split(",")
            fields[field] = respell(fields[field])
            lines[2] = ",".join(fields)

        self.edit(path, put)
        line = path.read_text().splitlines()[2]
        assert read_outcome(read_records_rowwise, run_dir)[0] == "ok"
        assert read_outcome(_read_records, run_dir) == ("error", f"{path}:3: malformed row {line!r}")

    TOKENS = st.sampled_from(
        ["", " ", "#", "-", "+", "0", "1", "5", "19", "1999", "2000", "-1", "+1", " 1", "1 ",
         "5.0", "1e3", "9.5", "25.0", "nan", "inf", "-inf", "1e400", "0x1", "1_0", "\u0665",
         "9223372036854775808", "-9223372036854775809", "18446744073709551616"]
    )

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(["exceedances.csv", "block_maxima.csv"]),
        edits=st.lists(
            st.tuples(st.integers(1, 10**6), st.one_of(st.integers(0, 3), st.none()), TOKENS),
            min_size=1, max_size=4,
        ),
    )
    def test_same_outcome_as_rowwise_reader(self, sim_run, name, edits):
        """Edits: a field replaced by a token, a row replaced (None) or a row repeated."""
        with tempfile.TemporaryDirectory() as tmp:
            run_dir = shutil.copytree(sim_run, Path(tmp) / "sim")
            path = run_dir / name
            lines = path.read_text().splitlines()
            for row, field, token in edits:
                i = 1 + row % (len(lines) - 1)
                fields = lines[i].split(",")
                if field is None:
                    lines[i] = token
                elif field < len(fields):
                    fields[field] = token
                    lines[i] = ",".join(fields)
                else:
                    lines.append(lines[i])
            path.write_text("\n".join(lines) + "\n")
            ours = read_outcome(_read_records, run_dir)
            theirs = read_outcome(read_records_rowwise, run_dir)
        if ours != theirs:
            # the one difference: a separator or a non-ASCII digit, on the line named
            assert ours[0] == "error" and "malformed row" in ours[1]
            line = ours[1].split("malformed row ", 1)[1]
            assert "_" in line or "\u0665" in line


class TestValidate:
    @pytest.fixture(autouse=True)
    def fewer_samples(self, monkeypatch):
        # 2% of the published sample counts: the same verdicts, in a second
        monkeypatch.setattr(acceptance, "_ORACLE_SAMPLES", 200_000)
        monkeypatch.setattr(acceptance, "_SEPARATION_SAMPLES", 20_000)

    def test_quick_run_reports_known_failure(self, tmp_path, capsys):
        manifest_path = tmp_path / "manifest.json"
        code, out, err = run_cli(capsys, "validate", "--quick", "--out", str(manifest_path))
        # the nested-set tail bound is expected to fail as configured
        assert code == 1
        assert "oracle-equivalence" in err
        manifest = RunManifest.from_json(manifest_path.read_text())
        assert [c.cid for c in manifest.criteria] == list(range(1, 9))
        by_id = {c.cid: c for c in manifest.criteria}
        assert by_id[1].passed is True
        assert by_id[2].passed is False
        assert by_id[2].measured["oracle_equivalence_ok"] is True
        assert by_id[2].measured["tail_bound_ok"] is False
        assert by_id[3].passed is True
        assert all(by_id[cid].passed is None for cid in range(4, 9))
        # manifest round-trips losslessly
        assert RunManifest.from_json(manifest.to_json()).to_dict() == manifest.to_dict()

    def test_injected_theta_error_fails_criterion_1(self, tmp_path, capsys, monkeypatch):
        theta = acceptance.extremal_index
        monkeypatch.setattr(acceptance, "extremal_index", lambda *args: theta(*args) + 0.1)
        manifest_path = tmp_path / "manifest.json"
        code, _, err = run_cli(capsys, "validate", "--quick", "--out", str(manifest_path))
        assert code == 1
        assert "formula-identities" in err
        manifest = RunManifest.from_json(manifest_path.read_text())
        assert manifest.criteria[0].passed is False
