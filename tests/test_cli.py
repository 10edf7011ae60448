"""Command-line interface: subcommands, exit codes, file outputs."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from maxacc import cli, errors, lingauss, model_hash, parse_model_file, validate_report
from maxacc.cli import run_command

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"
SRC_DIR = MODELS_DIR.parent / "src"
TWOSTATE = str(MODELS_DIR / "twostate.json")
CONSTANT_OBS = str(MODELS_DIR / "constant_obs.json")
KS_EXAMPLE = str(MODELS_DIR / "ks_example.json")

# Documented exit code of every MaxaccError subclass: 1 invalid input,
# 2 undecided, 3 numerical failure.
EXIT_CODES = {
    "ParseError": 1,
    "SchemaError": 1,
    "ModelInvariantError": 1,
    "NotRateMatrix": 1,
    "NotUniqueStationary": 1,
    "DimensionMismatch": 1,
    "RankDeficientDorH": 1,
    "NotDetectableOrStabilizable": 1,
    "NotDetectable": 1,
    "ZeroSupport": 1,
    "InvalidInput": 1,
    "IllConditionedPencil": 2,
    "DegenerateWeight": 3,
    "NotStable": 3,
    "SingularShift": 3,
    "NoStabilizingSolution": 3,
}
PREFIXES = {1: "error:", 2: "undecided:", 3: "numerical failure:"}
SVG = "{http://www.w3.org/2000/svg}"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_finite_true_verdict(self, capsys):
        code, out, _ = run(capsys, "analyze", "--model", TWOSTATE)
        assert code == 0
        bundle = json.loads(out)
        validate_report(bundle)
        assert bundle["verdict"]["kind"] == "finite"
        assert bundle["verdict"]["maximal_accuracy"] is True
        assert bundle["model_hash"] == model_hash(parse_model_file(TWOSTATE))

    def test_lg_false_verdict(self, capsys):
        code, out, _ = run(capsys, "analyze", "--model", KS_EXAMPLE)
        assert code == 0
        bundle = json.loads(out)
        assert bundle["verdict"]["maximal_accuracy"] is False

    def test_integral_float_d_accepted(self, capsys, tmp_path):
        """JSON Schema counts 2.0 as an integer, so the builder must too."""
        doc = json.loads(Path(TWOSTATE).read_text())
        doc["finite"]["d"] = 2.0
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", "--model", str(path))
        assert code == 0 and err == ""
        assert json.loads(out)["model_hash"] == model_hash(parse_model_file(TWOSTATE))

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "verdict.json"
        code, out, _ = run(capsys, "analyze", "--model", TWOSTATE, "--out", str(target))
        assert code == 0
        assert out == ""
        validate_report(json.loads(target.read_text()))


class TestZeros:
    def test_ks_example_zero_at_two(self, capsys):
        code, out, _ = run(capsys, "zeros", "--model", KS_EXAMPLE)
        assert code == 0
        bundle = json.loads(out)
        validate_report(bundle)
        (zero,) = bundle["zero_report"]["zeros"]
        assert zero["re"] == pytest.approx(2.0, abs=1e-8)
        assert zero["im"] == pytest.approx(0.0, abs=1e-8)
        assert zero["classification"] == "OPEN_RIGHT"

    @staticmethod
    def unstable_ks_example(tmp_path) -> str:
        doc = json.loads(Path(KS_EXAMPLE).read_text())
        doc["linear_gaussian"]["A"] = [["1.0", "0.0"], ["0.0", "-4.0"]]
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_unstable_model_is_reduced_with_a_note(self, capsys, tmp_path):
        code, out, err = run(capsys, "zeros", "--model", self.unstable_ks_example(tmp_path))
        assert code == 0
        validate_report(json.loads(out))
        assert err == "note: unstable A reduced by output injection\n"

    @pytest.mark.parametrize("name", ["ks_example", "ks_minimum_phase", "ks_boundary_zero", "unstable"])
    def test_zero_report_is_the_verdicts(self, capsys, tmp_path, name):
        path = self.unstable_ks_example(tmp_path) if name == "unstable" else str(MODELS_DIR / f"{name}.json")
        code, zeros, _ = run(capsys, "zeros", "--model", path)
        assert code == 0
        code, analyze, _ = run(capsys, "analyze", "--model", path)
        assert code == 0
        assert json.loads(zeros)["zero_report"] == json.loads(analyze)["verdict"]["zero_report"]

    @pytest.mark.parametrize("command", ["analyze", "zeros"])
    def test_uncertifiable_candidate_is_undecided(self, capsys, monkeypatch, command):
        """A candidate zero inside the certification band exits 2 with no report."""
        monkeypatch.setattr(lingauss, "CERT_ACCEPT", 0.0)
        monkeypatch.setattr(lingauss, "CERT_REJECT", 1.0)
        code, out, err = run(capsys, command, "--model", KS_EXAMPLE)
        assert (code, out) == (2, "")
        assert err.startswith("undecided: candidate ")
        assert err.endswith(" falls between the accept (0) and reject (1) thresholds\n")

    def test_finite_model_rejected(self, capsys):
        code, _, err = run(capsys, "zeros", "--model", TWOSTATE)
        assert code == 1
        assert "linear_gaussian" in err


class TestReverse:
    def test_symmetric_chain_is_self_reverse(self, capsys):
        code, out, _ = run(capsys, "reverse", "--model", TWOSTATE)
        assert code == 0
        assert out == "-1.0 1.0\n1.0 -1.0\n"

    def test_json_bundle(self, capsys):
        code, out, _ = run(capsys, "reverse", "--model", TWOSTATE, "--json")
        assert code == 0
        bundle = json.loads(out)
        validate_report(bundle)
        assert bundle["lambda_tilde"] == [["-1.0", "1.0"], ["1.0", "-1.0"]]

    def test_lg_model_rejected(self, capsys):
        code, _, err = run(capsys, "reverse", "--model", KS_EXAMPLE)
        assert code == 1
        assert "finite" in err


class TestSweepFinite:
    def test_uninformative_observations_plateau_exactly(self, capsys):
        """Constant h: the filter never moves off the stationary law, so the
        error equals the stationary variance with zero spread; the sim block
        supplies kappas, trials, and horizon."""
        code, out, err = run(capsys, "sweep", "--model", CONSTANT_OBS)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "kappa,estimate,std_error,trials,horizon,dt,burn_in,flag"
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[1] == "0.25"
            assert cells[2] == "0.0"
            assert cells[3] == "8"
            assert cells[7] == "CONSISTENT"
        assert "sweep flag" not in err

    def test_single_kappa_is_undecided(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--model", TWOSTATE, "--kappa", "0.5",
            "--trials", "4", "--horizon", "20",
        )
        assert code == 2
        assert len(out.splitlines()) == 2
        assert "UNDECIDED" in err

    def test_flag_overrides_beat_sim_block(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--model", CONSTANT_OBS, "--kappa", "0.7",
            "--trials", "3", "--horizon", "10",
        )
        assert code == 2  # single kappa: trend cannot be classified
        cells = out.splitlines()[1].split(",")
        assert cells[0] == "0.7"
        assert cells[3] == "3"
        assert cells[4] == "10.0"

    def test_two_runs_are_byte_identical(self, capsys, tmp_path, monkeypatch):
        argv = [
            "sweep", "--model", TWOSTATE, "--kappa", "0.5,0.2",
            "--trials", "8", "--horizon", "30", "--seed", "3",
        ]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run_command(argv + ["--out", str(first)]) in (0, 2)
        monkeypatch.setenv("MAXACC_THREADS", "2")
        assert run_command(argv + ["--out", str(second)]) in (0, 2)
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_json_bundle_written(self, capsys, tmp_path):
        bundle_path = tmp_path / "bundle.json"
        code, out, _ = run(
            capsys, "sweep", "--model", CONSTANT_OBS, "--json", str(bundle_path),
        )
        assert code == 0
        bundle = json.loads(bundle_path.read_text())
        validate_report(bundle)
        assert bundle["model_hash"] == model_hash(parse_model_file(CONSTANT_OBS))
        assert bundle["verdict"]["maximal_accuracy"] is False
        assert len(bundle["sweep"]["rows"]) == 2
        assert bundle["provenance"]["seed"] == 1  # from the sim block

    def test_cached_parser_keeps_no_state_between_calls(self, capsys, tmp_path):
        """Flags of one run_command call do not leak into the next one."""
        doc = json.loads(Path(TWOSTATE).read_text())
        doc["sim"] = {"kappas": ["0.5", "0.4"], "trials": 4, "horizon": "10", "seed": 2}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert cli._build_parser() is cli._build_parser()
        bundle = tmp_path / "bundle.json"
        run(capsys, "sweep", "--model", str(path), "--kappa", "0.6", "--trials", "3",
            "--horizon", "5", "--seed", "5", "--f", "identity", "--json", str(bundle))
        bundle.unlink()
        code, second, err = run(capsys, "sweep", "--model", str(path))
        cli._build_parser.cache_clear()
        assert run(capsys, "sweep", "--model", str(path)) == (code, second, err)
        rows = [line.split(",") for line in second.splitlines()[1:]]
        assert [(r[0], r[3], r[4]) for r in rows] == [("0.5", "4", "10.0"), ("0.4", "4", "10.0")]
        assert not bundle.exists()

    @pytest.mark.parametrize("spec", ["identity", "indicator:1", "0.0,1.0"])
    def test_test_function_forms(self, capsys, spec):
        code, _, _ = run(
            capsys, "sweep", "--model", TWOSTATE, "--kappa", "0.5,0.4",
            "--trials", "2", "--horizon", "5", "--f", spec,
        )
        assert code in (0, 2)

    @pytest.mark.parametrize(
        "spec", ["indicator:9", "indicator:x", "1.0", "nope", "1.0,2.0,3.0", "nan,1", "inf,0"]
    )
    def test_bad_test_function_is_usage_error(self, capsys, spec):
        code, _, err = run(
            capsys, "sweep", "--model", TWOSTATE, "--kappa", "0.5", "--f", spec,
        )
        assert code == 1
        assert "usage error" in err


    @pytest.mark.parametrize("spec, rule", [
        ("nan,1", "test function must be a finite 1-d value vector"),
        ("inf,0", "test function must be a finite 1-d value vector"),
        ("1,2,3", "test function needs 2 values, got shape (3,)"),
        ("indicator:2", "indicator index 2 outside 0..1"),
    ])
    def test_test_function_rule_is_named_after_the_flag(self, capsys, spec, rule):
        code, out, err = run(capsys, "sweep", "--model", TWOSTATE, "--kappa", "0.5", "--f", spec)
        assert (code, out, err) == (1, "", f"usage error: --f: {rule}\n")

    def test_test_function_whose_squared_errors_overflow_is_usage_error(self, capsys):
        code, out, err = run(capsys, "sweep", "--model", TWOSTATE, "--f", "1e308,-1e308",
                             "--kappa", "0.5,0.2", "--trials", "2", "--horizon", "8")
        assert (code, out) == (1, "")
        assert err == "usage error: --f: test function values must be at most 1e+70 in absolute value, got 1e+308\n"

    @pytest.mark.parametrize("model, flags, kappas", [
        (TWOSTATE, ["--trials", "2", "--horizon", "3", "--burn-in", "0"], cli.DEFAULT_KAPPAS_FINITE),
        (KS_EXAMPLE, [], cli.DEFAULT_KAPPAS_LG),
    ])
    def test_default_kappas_without_a_sim_block(self, capsys, tmp_path, model, flags, kappas):
        doc = json.loads(Path(model).read_text())
        del doc["sim"]
        path = tmp_path / "nosim.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "sweep", "--model", str(path), *flags)
        assert code in (0, 2)
        assert [float(line.split(",")[0]) for line in out.splitlines()[1:]] == kappas

    def test_failed_smallest_kappa_row_is_undecided(self, capsys):
        """dt 5 cannot resolve kappa 0.02; the two rows left read as a plateau on a maximally accurate chain."""
        code, out, err = run(capsys, "sweep", "--model", TWOSTATE, "--dt", "5", "--trials", "16",
                             "--horizon", "100")
        assert code == 2
        assert [line.split(",")[1] != "" for line in out.splitlines()[1:]] == [True, True, False]
        assert {line.rsplit(",", 1)[1] for line in out.splitlines()[1:]} == {"UNDECIDED"}
        assert err == (
            "note: kappa=0.02: error: DegenerateWeight: all likelihood weights underflowed; "
            "dt too large for this kappa\n"
            "sweep flag: UNDECIDED (trend 'undecided')\n"
        )


class TestSweepLinearGaussian:
    @pytest.mark.parametrize("name", ["ks_example", "ks_minimum_phase", "ks_boundary_zero"])
    def test_riccati_sweep_consistent(self, capsys, name):
        code, out, err = run(capsys, "sweep", "--model", str(MODELS_DIR / f"{name}.json"))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5  # header + sim-block kappas
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[2] == "" and cells[3] == "" and cells[4] == ""
            assert cells[7] == "CONSISTENT"

    def test_simulation_flags_noted_as_ignored(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--model", KS_EXAMPLE, "--trials", "4",
        )
        assert code == 0
        assert "--trials ignored" in err

    def test_perturbed_lyapunov_solve_fails_its_row_without_a_warning(self, tmp_path):
        """scipy's RuntimeWarning for a perturbed Lyapunov solve ends the Newton walk, so
        under the interpreter's default warning filters nothing but the sweep's notes
        reaches stderr."""
        doc = json.loads(Path(KS_EXAMPLE).read_text())
        doc["linear_gaussian"] = {"A": [["0.0", "1.0"], ["-2.0", "-3.0"]], "D": [["0.0"], ["1.0"]],
                                  "H": [["1.0", "0.0"]]}
        (tmp_path / "r2.json").write_text(json.dumps(doc))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "maxacc.cli", "sweep", "--model", "r2.json",
                               "--kappa", "1e-8,1e-10,1e-12"], env=env, cwd=tmp_path, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 2
        rows = proc.stdout.splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [
            ["1e-08", "0.0001413613722412823"], ["1e-10", "1.4141537905772725e-05"], ["1e-12", ""]]
        assert proc.stderr == (
            "note: kappa=1e-12: error: NoStabilizingSolution: "
            "Newton continuation lost the stabilizing branch at kappa=1e-11\n"
            "sweep flag: UNDECIDED (trend 'undecided')\n"
        )

    def test_seed_noted_as_ignored(self, capsys):
        code, plain, _ = run(capsys, "sweep", "--model", KS_EXAMPLE)
        code_seeded, seeded, err = run(capsys, "sweep", "--model", KS_EXAMPLE, "--seed", "5")
        assert code == code_seeded == 0
        assert seeded == plain
        assert err == "note: --seed ignored for linear_gaussian sweeps\n"


class TestErrors:
    def test_missing_model_file(self, capsys):
        code, _, err = run(capsys, "analyze", "--model", "/nonexistent.json")
        assert code == 1
        assert "error:" in err

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ nope")
        code, _, err = run(capsys, "analyze", "--model", str(bad))
        assert code == 1
        assert "line 1" in err

    def test_an_unlisted_exception_keeps_its_traceback(self, monkeypatch):
        """A failure whose class EXITS does not list is a bug: run_command re-raises it."""
        def bug(model):
            raise RuntimeError("not an input error")

        monkeypatch.setattr(cli, "finite_verdict", bug)
        with pytest.raises(RuntimeError, match="^not an input error$"):
            run_command(["analyze", "--model", TWOSTATE])

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "sweep")
        assert code == 1
        assert "usage error" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "bogus")
        assert code == 1
        assert "usage error" in err

    def test_bad_kappa_list(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--model", TWOSTATE, "--kappa", "abc",
        )
        assert code == 1
        assert "usage error" in err

    def test_empty_kappa_list(self, capsys):
        code, out, err = run(capsys, "sweep", "--model", TWOSTATE, "--kappa", ",")
        assert (code, out) == (1, "")
        assert err == "usage error: --kappa grid is empty; a sweep needs at least one kappa\n"

    @pytest.mark.parametrize("flag, message", [
        ("--kappa", "--kappa grid is empty; a sweep needs at least one kappa"),
        ("--f", "--f: expected 'identity', 'indicator:K', or a comma-separated vector, got ''"),
    ])
    def test_empty_flag_is_refused_not_defaulted(self, capsys, flag, message):
        code, out, err = run(capsys, "sweep", "--model", TWOSTATE, flag, "")
        assert (code, out, err) == (1, "", f"usage error: {message}\n")

    def test_negative_kappa(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--model", TWOSTATE, "--kappa", "0.5,-0.1",
        )
        assert code == 1
        assert "positive" in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--trials", "0"), ("--trials", "-3"), ("--horizon", "0"), ("--horizon", "-1"),
         ("--dt", "0"), ("--burn-in", "-5"), ("--horizon", "inf"), ("--horizon", "nan"),
         ("--burn-in", "inf"), ("--dt", "nan"), ("--kappa", "nan"), ("--kappa", "inf,0.5"),
         ("--seed", "-1")],
    )
    def test_out_of_range_simulation_flag_is_usage_error(self, capsys, flag, value):
        code, out, err = run(
            capsys, "sweep", "--model", TWOSTATE, "--kappa", "0.5,0.4", flag, value,
        )
        assert code == 1
        assert "usage error" in err and flag in err
        assert out == ""

    @pytest.mark.parametrize("field, value", [("horizon", "0"), ("dt", "-1"), ("burn_in", "-5")])
    def test_out_of_range_sim_field_names_the_field(self, capsys, tmp_path, field, value):
        doc = json.loads(Path(TWOSTATE).read_text())
        doc["sim"][field] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "sweep", "--model", str(path), "--kappa", "0.5")
        assert code == 1
        assert f"sim.{field}" in err and "usage error" not in err
        assert out == ""

    def test_trials_over_the_work_cap_fail_per_row(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--model", TWOSTATE, "--kappa", "0.5,0.4", "--horizon", "10",
            "--trials", "1000000000000",
        )
        assert code == 2
        assert "Traceback" not in err
        for kappa in ("0.5", "0.4"):
            assert f"note: kappa={kappa}: error: ValueError: trials 1000000000000 " in err
        assert [line.split(",")[1] for line in out.splitlines()[1:]] == ["", ""]

    def test_trials_over_the_trial_cap_fail_per_row_at_once(self, capsys):
        """Ten grid steps per trial sit exactly at the trial-step budget; the trial cap still refuses."""
        start = time.perf_counter()
        code, out, err = run(
            capsys, "sweep", "--model", TWOSTATE, "--kappa", "0.5", "--horizon", "1.25",
            "--burn-in", "0", "--trials", "1000000000",
        )
        assert time.perf_counter() - start < 10.0
        assert code == 2
        assert "Traceback" not in err
        assert "note: kappa=0.5: error: ValueError: trials 1000000000 over the cap of " in err
        assert [line.split(",")[1] for line in out.splitlines()[1:]] == [""]

    def test_overflowing_grid_fails_per_row(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--model", TWOSTATE, "--kappa", "0.5", "--horizon", "1e300",
            "--dt", "1e-10",
        )
        assert code == 2
        assert "Traceback" not in err
        assert "note: kappa=0.5: error: ValueError: dt 1e-10 needs inf grid steps per trial" in err
        assert [line.split(",")[1] for line in out.splitlines()[1:]] == [""]

    def test_grid_without_steps_fails_per_row(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--model", TWOSTATE, "--kappa", "0.5", "--dt", "5", "--horizon", "1",
        )
        assert code == 2
        assert "Traceback" not in err
        assert "note: kappa=0.5: error: ValueError: horizon 1 rounds to 0 grid steps of dt 5" in err
        assert [line.split(",")[1] for line in out.splitlines()[1:]] == [""]

    @pytest.mark.parametrize("burn_in, shown", [("100", "100.0"), ("1e308", "1e+308")])
    def test_burn_in_past_the_horizon_fails_per_row(self, capsys, burn_in, shown):
        """A burn-in whose step count overflows to inf reads like any other past the horizon."""
        code, out, err = run(
            capsys, "sweep", "--model", TWOSTATE, "--burn-in", burn_in, "--dt", "0.001",
            "--kappa", "0.5", "--trials", "2", "--horizon", "5",
        )
        assert code == 2
        assert "Traceback" not in err
        assert f"note: kappa=0.5: error: ValueError: horizon 5.0 leaves no samples after burn-in {shown}" in err
        assert [line.split(",")[1] for line in out.splitlines()[1:]] == [""]

    @pytest.mark.parametrize("argv, message", [
        (["zeros", "--model", TWOSTATE], "zeros requires a linear_gaussian model"),
        (["reverse", "--model", KS_EXAMPLE], "reverse requires a finite model"),
        (["report", "{tmp}/missing.csv"],
         "cannot read {tmp}/missing.csv: [Errno 2] No such file or directory: '{tmp}/missing.csv'"),
        (["report", "{tmp}/bad.csv"], "{tmp}/bad.csv is not a sweep CSV: "
                                      "could not convert string to float: 'abc'"),
        (["report", "{tmp}/empty.csv"], "{tmp}/empty.csv has no plottable rows"),
        (["report", "{tmp}/ab.csv"], "{tmp}/ab.csv is not a sweep CSV: no 'kappa' column"),
        (["report", "{tmp}/noest.csv"], "{tmp}/noest.csv is not a sweep CSV: no 'estimate' column"),
        (["report", "{tmp}/latin1.csv"], "cannot read {tmp}/latin1.csv: 'utf-8' codec can't decode "
                                         "byte 0xe9 in position 29: invalid continuation byte"),
        (["analyze", "--model", "{tmp}/latin1.json"], "cannot read {tmp}/latin1.json: 'utf-8' codec "
                                                      "can't decode byte 0xe9 in position 13: invalid "
                                                      "continuation byte"),
        (["analyze", "--model", TWOSTATE, "--out", "{tmp}/missing/x.json"],
         "cannot write {tmp}/missing/x.json: [Errno 2] No such file or directory: '{tmp}/missing/x.json'"),
        (["sweep", "--model", KS_EXAMPLE, "--json", "{tmp}/missing/x.json"],
         "cannot write {tmp}/missing/x.json: [Errno 2] No such file or directory: '{tmp}/missing/x.json'"),
        (["report", "{tmp}/kappa0.csv"], "{tmp}/kappa0.csv line 3: kappa must be positive and finite, got 0"),
        (["report", "{tmp}/kappanan.csv"], "{tmp}/kappanan.csv line 3: kappa must be positive and finite, got nan"),
        (["report", "{tmp}/estinf.csv"], "{tmp}/estinf.csv line 3: estimate must be finite, got inf"),
        (["report", "{tmp}/seneg.csv"],
         "{tmp}/seneg.csv line 3: std_error must be empty, nan, or finite and >= 0, got -1"),
        (["report", "{tmp}/seinf.csv"],
         "{tmp}/seinf.csv line 3: std_error must be empty, nan, or finite and >= 0, got inf"),
        (["report", "{tmp}/huge.csv"],
         "{tmp}/huge.csv is not a sweep CSV: field larger than field limit (131072)"),
    ], ids=["zeros-on-finite", "reverse-on-lg", "report-unreadable", "report-not-sweep-csv",
            "report-no-rows", "report-no-kappa-column", "report-no-estimate-column",
            "report-not-utf8", "analyze-not-utf8", "analyze-out-unwritable", "sweep-json-unwritable",
            "report-kappa-zero", "report-kappa-nan", "report-estimate-inf", "report-std-error-negative",
            "report-std-error-inf", "report-field-too-large"])
    def test_command_input_errors_exit_through_run_command(self, capsys, tmp_path, argv, message):
        """Each command raises; run_command alone prints the prefix and picks the code."""
        (tmp_path / "latin1.csv").write_bytes(b"kappa,estimate,flag\n0.1,1,caf\xe9\n")
        (tmp_path / "latin1.json").write_bytes(b'{"type": "caf\xe9"}')
        (tmp_path / "bad.csv").write_text("kappa,estimate\nabc,1\n")
        (tmp_path / "empty.csv").write_text("kappa,estimate,std_error,flag\n0.1,,,UNDECIDED\n")
        (tmp_path / "ab.csv").write_text("a,b\n1,2\n")
        (tmp_path / "noest.csv").write_text("kappa,flag\n0.1,CONSISTENT\n")
        for name, row in [("kappa0", "0,1,"), ("kappanan", "nan,1,"), ("estinf", "0.1,inf,"),
                          ("seneg", "0.1,1,-1"), ("seinf", "0.1,1,inf")]:
            (tmp_path / f"{name}.csv").write_text(f"kappa,estimate,std_error\n0.2,1,0.1\n{row}\n")
        (tmp_path / "huge.csv").write_text("kappa,estimate\n0.1," + "9" * 200_000 + "\n")
        code, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
        assert code == 1
        assert out == ""
        assert err == f"error: {message.format(tmp=tmp_path)}\n"

    def test_every_error_class_has_a_documented_code(self):
        classes = {
            name for name, cls in vars(errors).items()
            if isinstance(cls, type) and issubclass(cls, errors.MaxaccError)
            and cls is not errors.MaxaccError
        }
        assert classes == set(EXIT_CODES)

    def test_exits_names_invalid_input_once(self):
        """InvalidInput's entry covers every subclass, so a new input error cannot be left out."""
        assert [cls for cls in cli.EXITS if issubclass(cls, errors.InvalidInput)] == [errors.InvalidInput]

    def test_every_exit_1_class_is_invalid_input(self):
        assert [name for name, code in EXIT_CODES.items()
                if code == 1 and not issubclass(getattr(errors, name), errors.InvalidInput)] == []

    @pytest.mark.parametrize("name", sorted(EXIT_CODES))
    def test_error_exit_code_and_prefix(self, capsys, monkeypatch, name):
        cls = getattr(errors, name)

        def fail(path):
            raise cls("boom")

        monkeypatch.setattr("maxacc.cli.parse_model_file", fail)
        code, _, err = run(capsys, "analyze", "--model", TWOSTATE)
        assert code == EXIT_CODES[name]
        assert err == f"{PREFIXES[code]} boom\n"

    @pytest.mark.parametrize("cls, expected", [(ValueError, 1), (np.linalg.LinAlgError, 3)])
    def test_non_package_error_exit_codes(self, capsys, monkeypatch, cls, expected):
        def fail(path):
            raise cls("boom")

        monkeypatch.setattr("maxacc.cli.parse_model_file", fail)
        code, _, err = run(capsys, "analyze", "--model", TWOSTATE)
        assert code == expected
        assert err == f"{PREFIXES[expected]} boom\n"


class TestLocale:
    """Model files and sweep CSVs are read as UTF-8 whatever the locale says."""

    def stderr(self, tmp_path, utf8: bool, *argv: str) -> bytes:
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="1" if utf8 else "0",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "maxacc.cli", *argv], env=env, cwd=tmp_path,
                              capture_output=True, timeout=120)
        assert proc.returncode == 1
        return proc.stderr

    def test_undecodable_file_reads_the_same_under_the_c_locale(self, tmp_path):
        (tmp_path / "latin1.json").write_bytes(b'{"type": "caf\xe9"}')
        (tmp_path / "latin1.csv").write_bytes(b"kappa,estimate,flag\n0.1,1,caf\xe9\n")
        for argv in (["analyze", "--model", "latin1.json"], ["report", "latin1.csv"]):
            err = self.stderr(tmp_path, True, *argv)
            assert err.startswith(b"error: cannot read latin1.")
            assert self.stderr(tmp_path, False, *argv) == err

    def test_non_ascii_entry_gets_the_schema_message_under_the_c_locale(self, tmp_path):
        doc = json.loads(Path(TWOSTATE).read_text())
        doc["finite"]["lambda"][0][1] = "\u0661.5"
        (tmp_path / "digit.json").write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        utf8 = self.stderr(tmp_path, True, "analyze", "--model", "digit.json").decode("utf-8")
        assert utf8.startswith("error: $.finite.lambda[0][1]: '\u0661.5' does not match ")
        # An ASCII stderr escapes the digit; the message is otherwise the same.
        c_locale = self.stderr(tmp_path, False, "analyze", "--model", "digit.json").decode("ascii")
        assert c_locale == utf8.encode("ascii", "backslashreplace").decode("ascii")

    def test_report_of_a_non_ascii_csv_name_under_the_c_locale(self, tmp_path):
        """The SVG is UTF-8 and its title is the CSV's name, whatever the locale."""
        assert run_command(["sweep", "--model", KS_EXAMPLE, "--out", str(tmp_path / "caf\u00e9.csv")]) == 0
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "maxacc.cli", "report", "caf\u00e9.csv"], env=env,
                              cwd=tmp_path, capture_output=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")
        title = ET.parse(tmp_path / "caf\u00e9.svg").getroot().find(f"{SVG}text")
        assert title.text == "caf\u00e9.csv"


class TestReport:
    def render(self, capsys, tmp_path, model: str, *sweep_args: str) -> Path:
        csv_path = tmp_path / "sweep.csv"
        assert run_command(
            ["sweep", "--model", model, *sweep_args, "--out", str(csv_path)]
        ) in (0, 2)
        svg_path = tmp_path / "sweep.svg"
        code = run_command(["report", str(csv_path), "--out", str(svg_path)])
        capsys.readouterr()
        assert code == 0
        return svg_path

    def test_monte_carlo_csv_renders(self, capsys, tmp_path):
        svg = self.render(
            capsys, tmp_path, TWOSTATE,
            "--kappa", "0.5,0.2", "--trials", "4", "--horizon", "20",
        )
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")

    def test_riccati_csv_renders(self, capsys, tmp_path):
        """Exact rows leave std_error empty; the chart must cope."""
        svg = self.render(capsys, tmp_path, KS_EXAMPLE)
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")

    def test_default_output_is_sibling_svg(self, capsys, tmp_path):
        csv_path = tmp_path / "s.csv"
        run_command(["sweep", "--model", KS_EXAMPLE, "--out", str(csv_path)])
        code = run_command(["report", str(csv_path)])
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "s.svg").exists()

    def test_missing_csv(self, capsys):
        code, _, err = run(capsys, "report", "/nonexistent.csv")
        assert code == 1

    @pytest.mark.parametrize(
        "row", ["0.1,1e308,", "0.1,1,1e308", "0.1,-1e308,1e308", "1e308,1,", "5e-324,5e-324,5e-324"]
    )
    def test_extreme_finite_rows_render(self, capsys, tmp_path, row):
        """Any finite row fits the chart; the std_error nan that sweep --trials 1 writes draws no whisker."""
        csv_path = tmp_path / "s.csv"
        csv_path.write_text(f"kappa,estimate,std_error,flag\n0.2,0.5,nan,UNDECIDED\n{row},UNDECIDED\n")
        code, out, err = run(capsys, "report", str(csv_path))
        assert (code, out, err) == (0, "", "")
        root = ET.parse(tmp_path / "s.svg").getroot()
        se = float(row.split(",")[2] or 0)
        assert len(root.findall(f"{SVG}line[@stroke='#c33']")) == (se > 0)
        assert len(root.findall(f"{SVG}circle")) == 2

    def test_markup_in_the_flag_is_escaped(self, capsys, tmp_path):
        csv_path = tmp_path / "s.csv"
        csv_path.write_text("kappa,estimate,std_error,flag\n0.1,0.5,,<A & B>\n")
        assert run(capsys, "report", str(csv_path)) == (0, "", "")
        texts = [t.text for t in ET.parse(tmp_path / "s.svg").getroot().iter(f"{SVG}text")]
        assert texts[:2] == ["s.csv", "<A & B>"]

    _CELL = st.one_of(
        st.just(""),
        st.sampled_from([0.0, -0.0, -1.0, 1e308, -1e308, 5e-324, -5e-324, 2.2e-308]).map(repr),
        st.floats().map(repr),
    )

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(_CELL, _CELL, _CELL), min_size=1, max_size=4))
    def test_report_never_raises_past_run_command(self, capsys, tmp_path, rows):
        """Whatever floats a sweep CSV holds, report draws a chart or names the bad value."""
        csv_path = tmp_path / "prop.csv"
        svg_path = tmp_path / "prop.svg"
        svg_path.unlink(missing_ok=True)
        lines = ["kappa,estimate,std_error,flag", *(",".join((*cells, "UNDECIDED")) for cells in rows)]
        csv_path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "report", str(csv_path))
        assert out == ""
        if code == 0:
            assert err == ""
            assert ET.parse(svg_path).getroot().tag == f"{SVG}svg"
        else:
            assert code == 1
            assert err.startswith("error: ") and err.count("\n") == 1


class TestEndToEnd:
    def test_two_state_sweep_decays_consistently(self, capsys):
        """Full pipeline on the bundled two-state chain: three noise levels,
        64 trials each; estimates must fall monotonically and the flag must
        come out CONSISTENT with the algebraic true verdict."""
        code, out, err = run(
            capsys, "sweep", "--model", TWOSTATE,
            "--kappa", "0.5,0.1,0.02", "--trials", "64", "--seed", "7",
        )
        assert code == 0, err
        lines = out.splitlines()
        assert len(lines) == 4
        estimates = [float(line.split(",")[1]) for line in lines[1:]]
        assert estimates[0] > estimates[1] > estimates[2]
        assert all(line.split(",")[7] == "CONSISTENT" for line in lines[1:])
