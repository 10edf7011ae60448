"""Report bundles: one encoding (verdicts.to_json), strict JSON, a pinned key order.

A field added to a result dataclass changes the bundle format on purpose,
and the key-order table here with it.
"""

from __future__ import annotations

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from maxacc import cli, lingauss
from maxacc.cli import run_command
from maxacc.errors import NoStabilizingSolution
from maxacc.verdicts import (
    LEFT,
    InvertibilityReport,
    ReconstructibilityReport,
    Verdict,
    Zero,
    to_json,
)

ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = ROOT / "src"
MODELS_DIR = ROOT / "models"
TWOSTATE = str(MODELS_DIR / "twostate.json")
KS_EXAMPLE = str(MODELS_DIR / "ks_example.json")


def strict_loads(text: str):
    """json.loads that refuses NaN and Infinity, which are not JSON (RFC 8259)."""
    def refuse(name: str):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=refuse)


def bundle_of(capsys, tmp_path, *argv: str) -> tuple[int, dict]:
    """Exit code and strictly parsed report bundle of one command that writes it to a file."""
    path = tmp_path / "bundle.json"
    flag = "--json" if argv[0] == "sweep" else "--out"
    code = run_command([*argv, flag, str(path)])
    capsys.readouterr()
    return code, strict_loads(path.read_text(encoding="utf-8"))


class TestStrictJson:
    def test_single_trial_sweep_writes_null_std_error(self, capsys, tmp_path):
        code, bundle = bundle_of(capsys, tmp_path, "sweep", "--model", TWOSTATE, "--kappa", "0.5,0.3",
                                 "--trials", "1", "--horizon", "10")
        assert code == 2  # two rows of one trial each decide nothing
        rows = bundle["sweep"]["rows"]
        assert [r["std_error"] for r in rows] == [None, None]
        assert all(r["status"] == "ok" and r["estimate"] > 0 for r in rows)

    def test_unstable_sweep_whose_rows_all_fail_writes_null_base_variance(self, capsys, tmp_path, monkeypatch):
        """Without a stable A the base variance is the first good row's error; with none it is NaN."""
        doc = json.loads(Path(KS_EXAMPLE).read_text())
        doc["linear_gaussian"]["A"] = [["1.0", "0.0"], ["0.0", "-4.0"]]
        model = tmp_path / "unstable.json"
        model.write_text(json.dumps(doc))

        def fails(model, kappa, warm=None):
            raise NoStabilizingSolution(f"no branch at kappa={kappa:g}")

        monkeypatch.setattr(lingauss, "riccati_stationary", fails)
        code, bundle = bundle_of(capsys, tmp_path, "sweep", "--model", str(model))
        assert code == 2
        sweep = bundle["sweep"]
        assert sweep["base_variance"] is None
        assert len(sweep["rows"]) == 4
        assert all(r["estimate"] is None and r["status"].startswith("error: NoStabilizingSolution")
                   for r in sweep["rows"])

    def test_a_non_finite_value_past_to_json_fails_the_command(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "to_json", lambda result: {**to_json(result), "scale": math.nan})
        assert run_command(["analyze", "--model", TWOSTATE]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Out of range float values are not JSON compliant")


# Section -> (command, path from the bundle to the section, its keys in order).
KEY_ORDER = {
    "finite verdict": (
        ["analyze", "--model", TWOSTATE], ["verdict"],
        ["kind", "maximal_accuracy", "invertibility", "reconstructibility", "reduced_dim", "notes"],
    ),
    "linear-Gaussian verdict": (
        ["analyze", "--model", KS_EXAMPLE], ["verdict"],
        ["kind", "maximal_accuracy", "zero_report", "notes"],
    ),
    "zero report": (
        ["zeros", "--model", KS_EXAMPLE], ["zero_report"],
        ["zeros", "normal_rank", "structural_fail", "scale", "notes"],
    ),
    "zero": (
        ["zeros", "--model", KS_EXAMPLE], ["zero_report", "zeros", 0],
        ["re", "im", "classification", "sigma_min", "multiplicity"],
    ),
    "sweep": (
        ["sweep", "--model", KS_EXAMPLE], ["sweep"],
        ["rows", "base_variance", "trend", "flag", "verdict"],
    ),
    "sweep row": (
        ["sweep", "--model", TWOSTATE, "--kappa", "0.5,0.3", "--trials", "2", "--horizon", "10"],
        ["sweep", "rows", 0],
        ["kappa", "estimate", "std_error", "trials", "horizon", "dt", "burn_in", "status"],
    ),
}


@pytest.mark.parametrize("section", list(KEY_ORDER))
def test_bundle_section_key_order(capsys, tmp_path, section):
    argv, where, keys = KEY_ORDER[section]
    _code, node = bundle_of(capsys, tmp_path, *argv)
    for step in where:
        node = node[step]
    assert list(node) == keys


class TestEncodingRules:
    def test_arrays_and_tuples_become_lists_and_non_finite_floats_null(self):
        report = ReconstructibilityReport(True, 2, np.array([[1.0, np.nan], [-np.inf, 0.5]]))
        assert to_json(report)["basis"] == [[1.0, None], [None, 0.5]]
        assert to_json(ReconstructibilityReport(True, 1, np.array([[0.25]])))["basis"] == [[0.25]]
        assert to_json(InvertibilityReport(False, [("pair", 0, 1)]))["violations"] == [["pair", 0, 1]]
        assert to_json(np.float64(np.inf)) is None and type(to_json(np.float64(2.5))) is float

    def test_a_complex_field_is_written_as_re_and_im_in_its_place(self):
        zero = Zero(np.complex128(-1.5 + 0.25j), LEFT, 1e-12, 2)
        assert list(to_json(zero).items()) == [
            ("re", -1.5), ("im", 0.25), ("classification", LEFT), ("sigma_min", 1e-12), ("multiplicity", 2),
        ]

    def test_a_verdict_leaves_out_its_none_sections(self):
        assert to_json(Verdict("linear_gaussian", True, notes=["n"])) == {
            "kind": "linear_gaussian", "maximal_accuracy": True, "notes": ["n"],
        }


def _source(name: str) -> ast.Module:
    return ast.parse((SRC_DIR / "maxacc" / name).read_text(encoding="utf-8"))


def test_no_class_defines_its_own_to_dict():
    """Every result reaches a bundle through verdicts.to_json, the one encoding."""
    found = [
        f"{path.name}: {node.name}"
        for path in sorted((SRC_DIR / "maxacc").glob("*.py"))
        for node in ast.walk(_source(path.name))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == "to_dict" for item in node.body)
    ]
    assert found == []


def test_every_json_dump_in_cli_refuses_nan():
    calls = [
        node for node in ast.walk(_source("cli.py"))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "dumps"
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
    ]
    assert calls, "no json.dumps call found in cli"
    lax = [ast.unparse(call) for call in calls
           if not any(kw.arg == "allow_nan" and isinstance(kw.value, ast.Constant) and kw.value.value is False
                      for kw in call.keywords)]
    assert lax == []
