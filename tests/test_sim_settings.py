"""One rule for simulation settings: SimParams, the kappa rule, and the row-failure rule."""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

from maxacc import (
    FiniteStateModel,
    LinearGaussianModel,
    estimate_stationary_error,
    kappa_sweep_finite,
    kappa_sweep_lg,
    parse_model_dict,
)
from maxacc import lingauss, wonham
from maxacc.cli import run_command
from maxacc.errors import DegenerateWeight, ModelInvariantError, NoStabilizingSolution
from maxacc.verdicts import to_json
from maxacc.wonham import SimParams, check_kappa

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"
TWOSTATE = str(MODELS_DIR / "twostate.json")
KS_EXAMPLE = str(MODELS_DIR / "ks_example.json")
FINITE_DOC = {
    "schema_version": 1,
    "type": "finite",
    "finite": {"d": 2, "lambda": [["-1", "1"], ["1", "-1"]], "h": [["0"], ["1"]]},
}
NAN, INF = math.nan, math.inf

# (field, bad value): every out-of-range setting the rule names.
BAD_SETTINGS = [
    *[(name, value) for name in ("horizon", "dt") for value in (0, -1, NAN, INF)],
    ("burn_in", -5), ("burn_in", INF), ("trials", 0), ("seed", -1), ("kappa", 0), ("kappa", NAN),
]


def two_state() -> FiniteStateModel:
    return FiniteStateModel(np.array([[-1.0, 1.0], [1.0, -1.0]]), np.array([[0.0], [1.0]]))


def lg_model() -> LinearGaussianModel:
    return LinearGaussianModel(np.diag([-1.0, -4.0]), np.array([[1.0], [1.0]]), np.array([[1.0, -2.0]]))


def estimator_message(field: str, value) -> str:
    kwargs = {"kappa": 0.5, "horizon": 10.0}
    kwargs[field] = value
    with pytest.raises(ValueError) as info:
        estimate_stationary_error(two_state(), np.zeros(2), **kwargs)
    return str(info.value)


def after(prefix: str, message: str) -> str:
    assert message.startswith(prefix + " "), message
    return message[len(prefix) + 1:]


class TestOneRule:
    @pytest.mark.parametrize("field, value", BAD_SETTINGS)
    def test_three_entry_points_share_the_rule_text(self, capsys, field, value):
        rule = after(field, estimator_message(field, value))
        assert rule.startswith("must be ")

        flag = "--" + field.replace("_", "-")
        argv = ["sweep", "--model", TWOSTATE, "--kappa", "0.5", flag, str(value)]
        if field == "kappa":
            argv = argv[:3] + [flag, str(value)]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert after(f"usage error: {flag}", captured.err) == rule + "\n"

        sim = {"kappas": [value]} if field == "kappa" else {field: value}
        name = "sim.kappas" if field == "kappa" else f"sim.{field}"
        with pytest.raises(ModelInvariantError) as info:
            parse_model_dict(dict(FINITE_DOC, sim=sim))
        assert after(name, str(info.value)) == rule

    @pytest.mark.parametrize("field, value", [b for b in BAD_SETTINGS if b[0] != "kappa"])
    def test_simparams_names_the_field_first(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be "):
            SimParams(**{field: value})

    @pytest.mark.parametrize("value", [0, -0.5, NAN, INF, -INF])
    def test_kappa_rule(self, value):
        with pytest.raises(ValueError, match="^kappa must be positive and finite, got "):
            check_kappa(value)

    def test_boundary_values_pass(self):
        assert check_kappa(1e-300) == 1e-300
        SimParams(trials=1, horizon=1e-9, dt=1e-12, burn_in=0.0, seed=0)

    def test_burn_in_beyond_horizon_is_left_to_the_row(self):
        params = SimParams(horizon=10.0, burn_in=20.0)
        with pytest.raises(ValueError, match="leaves no samples"):
            estimate_stationary_error(two_state(), np.zeros(2), 0.5, **dataclasses.asdict(params))

    def test_settings_cannot_bypass_the_rule_after_construction(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SimParams().trials = 0

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--trials", "0"), ("--dt", "nan")])
    def test_flags_are_checked_on_linear_gaussian_models_too(self, capsys, flag, value):
        assert run_command(["sweep", "--model", KS_EXAMPLE, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage error: {flag} must be ")


class TestIntegerSettings:
    @pytest.mark.parametrize("field", ["trials", "seed"])
    @pytest.mark.parametrize("value", [2.5, 3.0, np.float64(3.0), True, np.bool_(True), "3"])
    def test_non_integers_are_refused_by_name(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got "):
            SimParams(**{field: value})
        assert after(field, estimator_message(field, value)).startswith("must be an integer, got ")

    def test_numpy_integers_are_stored_as_int(self):
        params = SimParams(trials=np.int64(3), seed=np.uint8(7))
        assert (type(params.trials), type(params.seed)) == (int, int)
        assert params == SimParams(trials=3, seed=7)

    @pytest.mark.parametrize("seed", [2.5, 3.0, True, np.bool_(True), "3", -1])
    def test_bundle_refuses_the_seeds_the_estimator_refuses(self, seed):
        """simulate_bundle(seed=s) is trial 0 of estimate_stationary_error(seed=s): one seed rule."""
        with pytest.raises(ValueError) as info:
            wonham.simulate_bundle(two_state(), 10.0, 0.5, 0.1, seed=seed)
        assert str(info.value) == estimator_message("seed", seed)

    def test_bundle_takes_a_numpy_seed(self):
        bundle = wonham.simulate_bundle(two_state(), 10.0, 0.5, 0.1, seed=np.uint8(7))
        plain = wonham.simulate_bundle(two_state(), 10.0, 0.5, 0.1, seed=7)
        assert type(bundle.seed) is int
        assert np.array_equal(bundle.obs_increments, plain.obs_increments)

    def test_float_trials_refused_before_a_sweep_runs(self):
        with pytest.raises(ValueError, match="^trials must be an integer, got 2.5"):
            kappa_sweep_finite(two_state(), [0, 1], [0.5], SimParams(trials=2.5, horizon=20.0, burn_in=1.0))

    def test_numpy_trials_reach_the_csv_as_an_integer(self):
        params = SimParams(trials=np.int64(3), horizon=20.0, burn_in=1.0)
        result = kappa_sweep_finite(two_state(), [0, 1], [0.5], params)
        assert result.to_csv().splitlines()[1].split(",")[3] == "3"


class TestRealSettings:
    def sweep(self, **settings):
        return kappa_sweep_finite(two_state(), [0, 1], [0.5], SimParams(trials=2, **settings))

    def test_equal_settings_write_equal_bytes(self):
        """horizon, dt and burn_in are stored as float: an int setting writes what its float does."""
        as_int, as_float = self.sweep(horizon=20, burn_in=5), self.sweep(horizon=20.0, burn_in=5.0)
        assert as_int.to_csv() == as_float.to_csv()
        assert json.dumps(to_json(as_int)) == json.dumps(to_json(as_float))

    def test_numpy_float_settings_encode(self):
        params = SimParams(horizon=np.float32(20.0), dt=np.float32(0.125), burn_in=np.float16(5.0))
        assert (type(params.horizon), type(params.dt), type(params.burn_in)) == (float, float, float)
        result = self.sweep(horizon=np.float32(20.0), dt=np.float32(0.125), burn_in=np.float16(5.0))
        plain = self.sweep(horizon=20.0, dt=0.125, burn_in=5.0)
        assert result.to_csv() == plain.to_csv()
        assert json.dumps(to_json(result)) == json.dumps(to_json(plain))


class TestDefaults:
    def test_estimator_defaults_are_the_simparams_defaults(self):
        params = inspect.signature(estimate_stationary_error).parameters
        for f in dataclasses.fields(SimParams):
            assert params[f.name].default == f.default

    def test_cli_falls_back_to_the_simparams_defaults(self, capsys, tmp_path):
        doc = json.loads(Path(TWOSTATE).read_text())
        del doc["sim"]
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(doc))
        run_command(["sweep", "--model", str(path), "--kappa", "0.5,0.4"])
        cells = capsys.readouterr().out.splitlines()[1].split(",")
        defaults = SimParams()
        assert (int(cells[3]), float(cells[4])) == (defaults.trials, defaults.horizon)

    def test_flag_then_sim_block_then_default(self):
        spec = parse_model_dict(dict(FINITE_DOC, sim={"trials": 4, "horizon": "12"})).sim
        assert spec == SimParams(trials=4, horizon=12.0)
        assert dataclasses.replace(spec, trials=2, seed=3) == SimParams(trials=2, horizon=12.0, seed=3)


class TestOneResolver:
    def test_sweep_rows_report_what_the_estimator_resolved(self, monkeypatch):
        seen = []

        def spy(model, f, kappa, **settings):
            seen.append(SimParams(**settings).resolve(model, kappa))
            return 0.1, 0.01

        monkeypatch.setattr(wonham, "estimate_stationary_error", spy)
        params = SimParams(trials=2, horizon=10.0, seed=1)
        result = kappa_sweep_finite(two_state(), np.array([0.0, 1.0]), [0.5, 0.1, 0.3], params)
        assert seen == [(r.dt, r.burn_in) for r in result.rows]
        assert [r.dt for r in result.rows] == [wonham.auto_dt(two_state(), k) for k in (0.5, 0.3, 0.1)]

    def test_explicit_settings_win(self):
        dt, burn_in = SimParams(dt=0.01, burn_in=0.0).resolve(two_state(), 0.5)
        assert (dt, burn_in) == (0.01, 0.0)


class TestRowFailureRule:
    @pytest.mark.parametrize(
        "exc", [DegenerateWeight("mass"), NoStabilizingSolution("branch"), ValueError("bad"),
                np.linalg.LinAlgError("singular")],
    )
    def test_both_sweeps_keep_the_failure_in_its_row(self, monkeypatch, exc):
        def finite_fails(*args, **kwargs):
            raise exc

        def lg_fails(model, kappa, warm=None):
            if kappa == 0.01:
                raise exc
            return lingauss.RiccatiSolution(kappa, np.eye(2) * kappa)

        monkeypatch.setattr(wonham, "estimate_stationary_error", finite_fails)
        monkeypatch.setattr(lingauss, "riccati_stationary", lg_fails)
        finite = kappa_sweep_finite(two_state(), np.array([0.0, 1.0]), [0.5, 0.1], SimParams(trials=2))
        lg = kappa_sweep_lg(lg_model(), [0.1, 0.01])
        expected = f"error: {type(exc).__name__}: {exc}"
        assert [r.status for r in finite.rows] == [expected, expected]
        assert [r.status for r in lg.rows] == ["ok", expected]

    def test_other_exceptions_escape_both_sweeps(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(wonham, "estimate_stationary_error", reached)
        monkeypatch.setattr(lingauss, "riccati_stationary", reached)
        with pytest.raises(Reached):
            kappa_sweep_finite(two_state(), np.array([0.0, 1.0]), [0.5])
        with pytest.raises(Reached):
            kappa_sweep_lg(lg_model(), [0.1])

    def test_estimator_called_by_module_name_once_per_row(self, monkeypatch):
        calls = []
        original = wonham.estimate_stationary_error

        def counted(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(wonham, "estimate_stationary_error", counted)
        params = SimParams(trials=2, horizon=5.0, seed=3)
        kappa_sweep_finite(two_state(), np.array([0.0, 1.0]), [0.5, 0.4], params)
        assert calls == [0.5, 0.4]
