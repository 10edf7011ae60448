"""Command-line interface: subcommands, exit codes, file outputs."""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from maxacc import cli, errors, model_hash, parse_model_file, validate_report
from maxacc.cli import run_command

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"
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
    "IllConditionedPencil": 2,
    "EmptySupport": 3,
    "DegenerateWeight": 3,
    "NotStable": 3,
    "SingularShift": 3,
    "NoStabilizingSolution": 3,
}
PREFIXES = {1: "error:", 2: "undecided:", 3: "numerical failure:"}


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
        "spec", ["indicator:9", "indicator:x", "1.0", "nope", "1.0,2.0,3.0"]
    )
    def test_bad_test_function_is_usage_error(self, capsys, spec):
        code, _, err = run(
            capsys, "sweep", "--model", TWOSTATE, "--kappa", "0.5", "--f", spec,
        )
        assert code == 1
        assert "usage error" in err


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

    def test_every_error_class_has_a_documented_code(self):
        classes = {
            name for name, cls in vars(errors).items()
            if isinstance(cls, type) and issubclass(cls, errors.MaxaccError)
            and cls is not errors.MaxaccError
        }
        assert classes == set(EXIT_CODES)

    @pytest.mark.parametrize("name", sorted(EXIT_CODES))
    def test_error_exit_code_and_prefix(self, capsys, monkeypatch, name):
        cls = getattr(errors, name)
        assert cls.exit_code == EXIT_CODES[name]

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
