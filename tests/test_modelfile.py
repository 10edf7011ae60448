"""Model files: schema validation, bit-exact round trips, hashing, bundles."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxacc import (
    FiniteStateModel,
    LinearGaussianModel,
    model_file_json,
    model_hash,
    parse_model_dict,
    parse_model_file,
    serialize_model,
    validate_report,
)
from maxacc.errors import ModelInvariantError, ParseError, SchemaError
from maxacc.modelfile import ParsedModelFile, SimSpec

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"

FINITE_DOC = {
    "schema_version": 1,
    "type": "finite",
    "finite": {"d": 2, "lambda": [["-1", "1"], ["1", "-1"]], "h": [["0"], ["1"]]},
}


def lg_doc(**overrides) -> dict:
    doc = {
        "schema_version": 1,
        "type": "linear_gaussian",
        "linear_gaussian": {
            "A": [["-1", "0"], ["0", "-4"]],
            "D": [["1"], ["1"]],
            "H": [["1", "-2"]],
        },
    }
    doc.update(overrides)
    return doc


class TestParsing:
    @pytest.mark.parametrize("name", ["twostate", "threestate", "constant_obs", "ks_example"])
    def test_bundled_models_parse(self, name):
        parsed = parse_model_file(MODELS_DIR / f"{name}.json")
        expected_kind = "linear_gaussian" if name == "ks_example" else "finite"
        assert parsed.kind == expected_kind
        assert parsed.sim.kappas is not None

    def test_bundled_sim_defaults(self):
        parsed = parse_model_file(MODELS_DIR / "twostate.json")
        sim = parsed.sim
        assert sim.kappas == [0.5, 0.1, 0.02]
        assert sim.trials == 32
        assert sim.horizon == 150.0
        assert sim.seed == 7

    def test_plain_numbers_accepted(self):
        doc = {
            "schema_version": 1,
            "type": "finite",
            "finite": {"d": 2, "lambda": [[-1, 1], [1, -1]], "h": [[0], [1]]},
        }
        parsed = parse_model_dict(doc)
        assert np.array_equal(parsed.model.Lambda, [[-1.0, 1.0], [1.0, -1.0]])

    def test_missing_sim_block_gives_empty_spec(self):
        parsed = parse_model_dict(FINITE_DOC)
        assert parsed.sim == SimSpec()


class TestSchemaRejections:
    def test_both_families_rejected(self):
        doc = lg_doc(finite=FINITE_DOC["finite"])
        with pytest.raises(SchemaError, match="exactly the"):
            parse_model_dict(doc)

    def test_family_not_matching_type_rejected(self):
        doc = dict(FINITE_DOC, type="linear_gaussian")
        with pytest.raises(SchemaError, match="exactly the"):
            parse_model_dict(doc)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(SchemaError, match="extra"):
            parse_model_dict(dict(FINITE_DOC, extra=1))

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(SchemaError, match="schema_version"):
            parse_model_dict(dict(FINITE_DOC, schema_version=99))

    def test_non_numeric_matrix_entry_rejected(self):
        doc = json.loads(json.dumps(FINITE_DOC))
        doc["finite"]["lambda"][0][0] = "not-a-number"
        with pytest.raises(SchemaError):
            parse_model_dict(doc)

    def test_boolean_matrix_entry_rejected(self):
        doc = json.loads(json.dumps(FINITE_DOC))
        doc["finite"]["h"][0][0] = True
        with pytest.raises(SchemaError):
            parse_model_dict(doc)
        # The coercion helper also refuses bool on its own (bool is an int
        # subclass, so this needs an explicit guard).
        from maxacc.modelfile import _to_float

        with pytest.raises(SchemaError, match="boolean"):
            _to_float(True, "x")

    def test_nan_literal_rejected(self):
        text = json.dumps(FINITE_DOC).replace('"-1"', "NaN", 1)
        with pytest.raises(SchemaError, match="non-finite"):
            parse_model_dict(json.loads(text))

    def test_ragged_matrix_rejected(self):
        doc = json.loads(json.dumps(FINITE_DOC))
        doc["finite"]["lambda"][1] = ["1"]
        with pytest.raises(SchemaError, match="ragged"):
            parse_model_dict(doc)

    def test_shape_not_matching_d_rejected(self):
        doc = json.loads(json.dumps(FINITE_DOC))
        doc["finite"]["d"] = 3
        with pytest.raises(SchemaError, match="does not match d"):
            parse_model_dict(doc)

    def test_h_rows_not_matching_d_rejected(self):
        doc = json.loads(json.dumps(FINITE_DOC))
        doc["finite"]["h"] = [["0"], ["1"], ["2"]]
        with pytest.raises(SchemaError, match="rows do not match"):
            parse_model_dict(doc)


class TestModelInvariants:
    def test_negative_off_diagonal_named(self):
        doc = json.loads(json.dumps(FINITE_DOC))
        doc["finite"]["lambda"] = [["-1", "-1"], ["1", "-1"]]
        with pytest.raises(ModelInvariantError, match=r"finite\.lambda\[0\]\[1\]"):
            parse_model_dict(doc)

    def test_bad_row_sum_reported_as_rate_matrix_failure(self):
        doc = json.loads(json.dumps(FINITE_DOC))
        doc["finite"]["lambda"] = [["-1", "2"], ["1", "-1"]]
        with pytest.raises(ModelInvariantError, match=r"finite\.lambda"):
            parse_model_dict(doc)

    def test_lg_dependent_noise_columns(self):
        doc = lg_doc()
        doc["linear_gaussian"] = {
            "A": [["-1", "0"], ["0", "-2"]],
            "D": [["1", "2"], ["2", "4"]],
            "H": [["1", "0"]],
        }
        with pytest.raises(ModelInvariantError, match="linear_gaussian"):
            parse_model_dict(doc)

    def test_lg_undetectable_unstable(self):
        doc = lg_doc()
        doc["linear_gaussian"] = {
            "A": [["1", "0"], ["0", "-1"]],
            "D": [["0"], ["1"]],
            "H": [["0", "1"]],
        }
        with pytest.raises(ModelInvariantError, match="linear_gaussian"):
            parse_model_dict(doc)

    def test_nonpositive_sweep_kappa_rejected(self):
        doc = dict(FINITE_DOC, sim={"kappas": ["0.1", "0"]})
        with pytest.raises(ModelInvariantError, match="positive"):
            parse_model_dict(doc)

    @pytest.mark.parametrize(
        "field, value",
        [("horizon", "0"), ("horizon", "-1"), ("dt", "0"), ("dt", -0.5), ("burn_in", "-5")],
    )
    def test_out_of_range_sim_field_names_the_field(self, field, value):
        doc = dict(FINITE_DOC, sim={field: value})
        with pytest.raises(ModelInvariantError, match=rf"^sim\.{field} must be"):
            parse_model_dict(doc)

    def test_zero_burn_in_accepted(self):
        assert parse_model_dict(dict(FINITE_DOC, sim={"burn_in": "0"})).sim.burn_in == 0.0


class TestFileLevelErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            parse_model_file(tmp_path / "absent.json")

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "schema_version": 1,,\n}\n')
        with pytest.raises(ParseError, match=r"line 2, column"):
            parse_model_file(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(SchemaError, match="top level"):
            parse_model_file(path)


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["twostate", "threestate", "constant_obs", "ks_example"])
    def test_serialize_is_a_fixpoint(self, name):
        parsed = parse_model_file(MODELS_DIR / f"{name}.json")
        doc = serialize_model(parsed)
        assert serialize_model(parse_model_dict(doc)) == doc

    def test_awkward_values_survive_bit_exact(self):
        third = 1.0 / 3.0
        model = FiniteStateModel(
            Lambda=np.array([[-third, third], [0.1, -0.1]]),
            h=np.array([[1e-17], [2.0 + 1e-9]]),
        )
        parsed = ParsedModelFile(kind="finite", model=model, sim=SimSpec(kappas=[0.1 + 0.2]))
        again = parse_model_dict(json.loads(model_file_json(parsed)))
        assert np.array_equal(again.model.Lambda, model.Lambda)
        assert np.array_equal(again.model.h, model.h)
        assert again.sim.kappas == [0.1 + 0.2]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            # Moderate spread: extreme rate ratios make the stationary law
            # numerically non-unique, which is a model concern, not a
            # serialization one.
            st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
            min_size=2,
            max_size=5,
        ),
        st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=2, max_size=5),
    )
    def test_random_rates_round_trip(self, rates, obs):
        """repr() strings preserve every bit of every finite double."""
        d = min(len(rates), len(obs))
        L = np.zeros((d, d))
        for i in range(d):
            L[i, (i + 1) % d] = rates[i]
            L[i, i] = -rates[i]
        model = FiniteStateModel(Lambda=L, h=np.array(obs[:d])[:, None])
        parsed = ParsedModelFile(kind="finite", model=model, sim=SimSpec())
        again = parse_model_dict(serialize_model(parsed))
        assert np.array_equal(again.model.Lambda, model.Lambda)
        assert np.array_equal(again.model.h, model.h)

    def test_lg_round_trip_bit_exact(self):
        parsed = parse_model_dict(lg_doc())
        again = parse_model_dict(serialize_model(parsed))
        for attr in ("A", "D", "H"):
            assert np.array_equal(getattr(again.model, attr), getattr(parsed.model, attr))


class TestModelHash:
    def test_sim_block_does_not_change_identity(self):
        bare = parse_model_dict(FINITE_DOC)
        with_sim = parse_model_dict(dict(FINITE_DOC, sim={"kappas": ["0.5"], "trials": 4}))
        assert model_hash(bare) == model_hash(with_sim)

    def test_matrix_perturbation_changes_hash(self):
        doc = json.loads(json.dumps(FINITE_DOC))
        doc["finite"]["h"] = [["0"], ["1.0000000000000002"]]
        assert model_hash(parse_model_dict(doc)) != model_hash(parse_model_dict(FINITE_DOC))

    def test_hash_is_hex_sha256(self):
        digest = model_hash(parse_model_dict(FINITE_DOC))
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")


class TestReportBundles:
    def good_bundle(self) -> dict:
        return {
            "schema_version": 1,
            "model_hash": "0" * 64,
            "provenance": {
                "tool": "maxacc",
                "version": "0.1.0",
                "timestamp": "2026-01-01T00:00:00Z",
                "seed": 7,
            },
        }

    def test_minimal_bundle_valid(self):
        bundle = self.good_bundle()
        assert validate_report(bundle) is bundle

    def test_verdict_section_optional_but_typed(self):
        bundle = self.good_bundle()
        bundle["verdict"] = {"kind": "finite", "maximal_accuracy": True}
        validate_report(bundle)
        bundle["verdict"] = {"kind": "finite", "maximal_accuracy": "yes"}
        with pytest.raises(SchemaError, match="maximal_accuracy"):
            validate_report(bundle)

    def test_missing_provenance_rejected(self):
        bundle = self.good_bundle()
        del bundle["provenance"]
        with pytest.raises(SchemaError, match="provenance"):
            validate_report(bundle)

    def test_malformed_hash_rejected(self):
        bundle = self.good_bundle()
        bundle["model_hash"] = "xyz"
        with pytest.raises(SchemaError, match="model_hash"):
            validate_report(bundle)
