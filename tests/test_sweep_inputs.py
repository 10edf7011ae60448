"""A sweep's inputs: one kappa-grid rule, one settings carrier, one thread setting.

The kappa grid is checked as a whole before any row, wherever it comes from
(--kappa, sim.kappas, or a library sweep); the model file's settings are a
SimParams that the CLI's flags replace field by field; MAXACC_THREADS is a
setting whose bad value fails the sweep, not each row.
"""

from __future__ import annotations

import ast
import json
import os
from pathlib import Path

import numpy as np
import pytest

from maxacc import (
    FiniteStateModel,
    LinearGaussianModel,
    estimate_stationary_error,
    kappa_sweep_finite,
    kappa_sweep_lg,
    lingauss,
    model_hash,
    parse_model_dict,
    parse_model_file,
    reduce_support,
    serialize_model,
    time_reverse,
    wonham,
)
from maxacc.cli import run_command
from maxacc.errors import ModelInvariantError
from maxacc.verdicts import check_kappas
from maxacc.wonham import SimParams

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"
SRC_DIR = MODELS_DIR.parent / "src" / "maxacc"
TWOSTATE = str(MODELS_DIR / "twostate.json")
REPEATED = "kappa 0.1 is repeated; a sweep has one row per kappa"
SIM_REPEATED = "sim.kappas 0.1 is repeated; a sweep has one row per kappa"
EMPTY = "kappa grid is empty; a sweep needs at least one kappa"
FINITE_DOC = {
    "schema_version": 1,
    "type": "finite",
    "finite": {"d": 2, "lambda": [["-1", "1"], ["1", "-1"]], "h": [["0"], ["1"]]},
}
ABSORBING_DOC = {
    "schema_version": 1,
    "type": "finite",
    "finite": {"d": 3, "lambda": [["-1", "1", "0"], ["0", "-2", "2"], ["0", "0", "0"]],
               "h": [["0"], ["1"], ["2"]]},
}
# model_hash of each bundled model: the sim block never enters it.
BUNDLED_HASHES = {
    "constant_obs": "a08eeda40c060ca03788befe797b9f1b21d4a3d449f0201ae637afcbc252e6b6",
    "ks_boundary_zero": "e7db661a25adc9a15e77eee65245193cf050460a898131424f5836cd7fee075f",
    "ks_example": "d11179d4bc0e1a129554d6f64be4950b2c4553938763307614f6d9b648f65ea2",
    "ks_minimum_phase": "417c463ddf314b01c6e58477b820d56afd4e26a51684fb752431e02a39b3f639",
    "threestate": "f419c989d6f3f850392d601e4b2650b54252eb7a36eafb76587fec9c13cd4436",
    "twostate": "ceb3b0238bd9c01d39425689edf2e0ef374a2dba3fb10bc68183de614618915b",
}


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_model(tmp_path: Path, doc: dict) -> str:
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


def two_state() -> FiniteStateModel:
    return FiniteStateModel(np.array([[-1.0, 1.0], [1.0, -1.0]]), np.array([[0.0], [1.0]]))


def lg_model() -> LinearGaussianModel:
    return LinearGaussianModel(np.diag([-1.0, -4.0]), np.array([[1.0], [1.0]]), np.array([[1.0, -2.0]]))


@pytest.fixture
def no_rows(monkeypatch):
    """Fail the test if either sweep reaches a row."""
    def row(*args, **kwargs):
        raise AssertionError("a row ran")

    monkeypatch.setattr(wonham, "estimate_stationary_error", row)
    monkeypatch.setattr(lingauss, "riccati_stationary", row)


class TestKappaGridRule:
    def test_repeated_flag_kappa_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "sweep", "--model", TWOSTATE, "--kappa", "0.5,0.1,0.1",
                             "--trials", "8", "--horizon", "20")
        assert (code, out, err) == (1, "", f"usage error: --{REPEATED}\n")

    def test_repeated_sim_kappa_names_the_sim_field(self, capsys, tmp_path):
        doc = dict(FINITE_DOC, sim={"kappas": ["0.5", "0.1", "0.10"]})
        with pytest.raises(ModelInvariantError) as info:
            parse_model_dict(doc)
        assert str(info.value) == SIM_REPEATED
        code, out, err = run(capsys, "sweep", "--model", write_model(tmp_path, doc))
        assert (code, out, err) == (1, "", f"error: {SIM_REPEATED}\n")

    @pytest.mark.parametrize("kappas, message", [
        ([0.5, 0.1, 0.1], REPEATED), ([0.1, 0.5, 0.1], REPEATED), ([], EMPTY),
        ([0.5, 0.0], "kappa must be positive and finite, got 0"),
    ])
    def test_library_sweeps_refuse_the_grid_before_any_row(self, no_rows, kappas, message):
        with pytest.raises(ValueError) as finite:
            kappa_sweep_finite(two_state(), np.array([0.0, 1.0]), kappas, SimParams(trials=2))
        with pytest.raises(ValueError) as lg:
            kappa_sweep_lg(lg_model(), kappas)
        assert str(finite.value) == str(lg.value) == message

    def test_a_valid_grid_is_returned_as_given(self):
        assert check_kappas((0.5, 0.02, 0.1)) == [0.5, 0.02, 0.1]


class TestOneCarrier:
    @pytest.mark.parametrize("name", sorted(BUNDLED_HASHES))
    def test_serialize_is_a_fixpoint_and_the_hash_is_kept(self, name):
        parsed = parse_model_file(MODELS_DIR / f"{name}.json")
        doc = serialize_model(parsed)
        again = parse_model_dict(doc)
        assert serialize_model(again) == doc
        assert (again.kappas, again.sim) == (parsed.kappas, parsed.sim)
        assert model_hash(parsed) == model_hash(again) == BUNDLED_HASHES[name]

    def test_settings_equal_to_the_defaults_are_left_out(self):
        doc = serialize_model(parse_model_file(TWOSTATE))
        assert doc["sim"] == {"kappas": ["0.5", "0.1", "0.02"], "horizon": "150.0", "seed": 7}
        bare = serialize_model(parse_model_dict(dict(FINITE_DOC, sim={"trials": 32, "dt": None})))
        assert "sim" not in bare

    def test_flag_then_sim_block_then_default(self, capsys, tmp_path):
        doc = dict(FINITE_DOC, sim={"kappas": ["0.5", "0.4"], "trials": 4, "horizon": "12", "seed": 2})
        path = write_model(tmp_path, doc)
        bundle = tmp_path / "bundle.json"
        code, out, _ = run(capsys, "sweep", "--model", path, "--trials", "3", "--json", str(bundle))
        assert code in (0, 2)
        rows = [line.split(",") for line in out.splitlines()[1:]]
        # kappas, horizon and seed from the sim block, trials from the flag,
        # dt and burn_in from the SimParams default (derived from the model).
        model = parse_model_dict(FINITE_DOC).model
        assert [r[0] for r in rows] == ["0.5", "0.4"]
        assert {(r[3], r[4], r[6]) for r in rows} == {("3", "12.0", repr(float(wonham.auto_burn_in(model))))}
        assert [float(r[5]) for r in rows] == [wonham.auto_dt(model, k) for k in (0.5, 0.4)]
        assert json.loads(bundle.read_text())["provenance"]["seed"] == 2
        code, out, _ = run(capsys, "sweep", "--model", path, "--kappa", "0.6", "--horizon", "9")
        row = out.splitlines()[1].split(",")
        assert (row[0], row[3], row[4]) == ("0.6", "4", "9.0")


class TestThreadSetting:
    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_a_bad_value_fails_the_sweep_with_exit_1(self, capsys, monkeypatch, value):
        monkeypatch.setenv("MAXACC_THREADS", value)
        code, out, err = run(capsys, "sweep", "--model", TWOSTATE, "--kappa", "0.5,0.2",
                             "--trials", "4", "--horizon", "10")
        assert (code, out) == (1, "")
        assert err == f"error: MAXACC_THREADS must be a positive integer, got {value!r}\n"

    def test_the_sweep_reads_it_before_any_row(self, monkeypatch, no_rows):
        monkeypatch.setenv("MAXACC_THREADS", "abc")
        with pytest.raises(ValueError, match="^MAXACC_THREADS must be a positive integer, got 'abc'$"):
            kappa_sweep_finite(two_state(), np.array([0.0, 1.0]), [0.5], SimParams(trials=2))

    def test_the_estimator_refuses_it_too(self, monkeypatch):
        monkeypatch.setenv("MAXACC_THREADS", "0")
        with pytest.raises(ValueError, match="^MAXACC_THREADS must be a positive integer, got '0'$"):
            estimate_stationary_error(two_state(), np.array([0.0, 1.0]), 0.5, trials=2, horizon=10.0)

    @pytest.mark.parametrize("value, threads", [(None, 3), ("", 3), ("1", 1), ("12", 12)])
    def test_unset_or_empty_means_the_cpu_count(self, monkeypatch, value, threads):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        if value is None:
            monkeypatch.delenv("MAXACC_THREADS", raising=False)
        else:
            monkeypatch.setenv("MAXACC_THREADS", value)
        assert wonham._pool_threads() == threads


class TestNoNegativeZero:
    def test_a_state_with_no_exits_gets_a_positive_zero(self):
        model = parse_model_dict(ABSORBING_DOC).model
        reduced = reduce_support(model)
        assert reduced.Lambda.tolist() == [[0.0]]
        assert not np.signbit(reduced.Lambda).any()
        assert not np.signbit(time_reverse(reduced)).any()

    def test_reverse_prints_no_negative_zero(self, capsys, tmp_path):
        path = write_model(tmp_path, ABSORBING_DOC)
        assert run(capsys, "reverse", "--model", path) == (0, "0.0\n", "")
        code, out, _ = run(capsys, "reverse", "--model", path, "--json")
        assert (code, json.loads(out)["lambda_tilde"]) == (0, [["0.0"]])


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC_DIR / f"{name}.py").read_text(encoding="utf-8"))


def test_lingauss_imports_no_finite_state_module():
    """The linear-Gaussian family takes its rules from verdicts, not from the Monte-Carlo side."""
    found = []
    for node in ast.walk(_tree("lingauss")):
        if isinstance(node, ast.ImportFrom):
            found.append(node.module or "")
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
    assert not [m for m in found if m.split(".")[-1] in ("wonham", "markov", "finite_analysis")]


def test_the_input_rules_are_defined_only_in_verdicts():
    rules = {"check_positive", "check_kappa", "check_kappas"}
    defined = sorted(
        (path.stem, node.name)
        for path in SRC_DIR.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name in rules
    )
    assert defined == [("verdicts", name) for name in sorted(rules)]


def test_every_bundle_takes_its_schema_version_from_modelfile():
    versions = [
        value for node in ast.walk(_tree("cli")) if isinstance(node, ast.Dict)
        for key, value in zip(node.keys, node.values)
        if isinstance(key, ast.Constant) and key.value == "schema_version"
    ]
    assert versions and all(isinstance(v, ast.Name) and v.id == "SCHEMA_VERSION" for v in versions)
