"""Model files: schema validation, bit-exact round trips, hashing, bundles."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxacc import (
    FiniteStateModel,
    LinearGaussianModel,
    model_hash,
    parse_model_dict,
    parse_model_file,
    serialize_model,
    validate_report,
)
from maxacc import modelfile
from maxacc.cli import run_command
from maxacc.errors import MaxaccError, ModelInvariantError, ParseError, SchemaError
from maxacc.modelfile import MODEL_FILE_SCHEMA, REPORT_SCHEMA, ParsedModelFile, SimParams
from oracles import ANYOF_MODEL_FILE_SCHEMA, ANYOF_REPORT_SCHEMA

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"
SRC_DIR = MODELS_DIR.parent / "src"

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
        assert parsed.kappas is not None

    def test_bundled_sim_defaults(self):
        parsed = parse_model_file(MODELS_DIR / "twostate.json")
        sim = parsed.sim
        assert parsed.kappas == [0.5, 0.1, 0.02]
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

    def test_integral_float_d_accepted(self):
        """JSON Schema counts 2.0 as an integer, so the builder must too."""
        doc = json.loads(json.dumps(FINITE_DOC))
        doc["finite"]["d"] = 2.0
        parsed = parse_model_dict(doc)
        assert parsed.model.d == 2
        assert model_hash(parsed) == model_hash(parse_model_dict(FINITE_DOC))

    def test_missing_sim_block_gives_empty_spec(self):
        parsed = parse_model_dict(FINITE_DOC)
        assert (parsed.kappas, parsed.sim) == (None, SimParams())

    def test_numpy_reals_the_schema_admits_convert(self):
        """jsonschema counts every numbers.Real as a number, and the parser converts what it admits."""
        doc = _changed(FINITE_DOC, "finite.lambda", [[np.float32(-1.5), np.float32(1.5)], [np.int64(2), np.int64(-2)]])
        doc["sim"] = {"kappas": [np.float32(0.5)], "horizon": np.int64(12)}
        parsed = parse_model_dict(doc)
        assert np.array_equal(parsed.model.Lambda, [[-1.5, 1.5], [2.0, -2.0]])
        assert parsed.kappas == [0.5] and parsed.sim.horizon == 12.0
        assert type(parsed.kappas[0]) is float and type(parsed.sim.horizon) is float

    @pytest.mark.parametrize("entry, name", [(Decimal("1.5"), "Decimal"), (1.5 + 0j, "complex")])
    def test_numbers_that_are_not_real_keep_their_message(self, entry, name):
        """jsonschema admits any numbers.Number; the parser refuses one that is not real by name."""
        with pytest.raises(SchemaError, match=rf"^finite\.lambda\[0\]\[1\]: expected a number, got {name}$"):
            parse_model_dict(_changed(FINITE_DOC, "finite.lambda.0.1", entry))

    @pytest.mark.parametrize("integer", [np.int64, np.uint8])
    def test_numpy_integers_parse_as_plain_ints(self, integer):
        """The schema's integer type admits numpy integers, as check_integer does."""
        plain = dict(FINITE_DOC, sim={"trials": 4, "seed": 7})
        doc = dict(FINITE_DOC, finite=dict(FINITE_DOC["finite"], d=integer(2)),
                   sim={"trials": integer(4), "seed": integer(7)})
        parsed, want = parse_model_dict(doc), parse_model_dict(plain)
        assert serialize_model(parsed) == serialize_model(want)
        assert (parsed.kind, parsed.kappas, parsed.sim) == (want.kind, want.kappas, want.sim)
        assert type(parsed.model.d) is type(parsed.sim.trials) is type(parsed.sim.seed) is int
        assert model_hash(parsed) == model_hash(want)

    @pytest.mark.parametrize("doc, path", [
        (dict(FINITE_DOC, finite=dict(FINITE_DOC["finite"], d=np.bool_(True))), "finite.d"),
        (dict(FINITE_DOC, sim={"trials": np.bool_(True)}), "sim.trials"),
        (dict(FINITE_DOC, sim={"seed": np.bool_(False)}), "sim.seed"),
    ])
    def test_numpy_bool_is_not_an_integer(self, doc, path):
        with pytest.raises(SchemaError, match=rf"^\$\.{path}: .+ is not of type 'integer'$"):
            parse_model_dict(doc)


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

    def test_non_number_entry_names_the_allowed_types(self):
        with pytest.raises(SchemaError) as info:
            parse_model_dict(_changed(FINITE_DOC, "finite.h.1.0", True))
        assert str(info.value) == "$.finite.h[1][0]: True is not of type 'number', 'string'"

    @pytest.mark.parametrize("text", ["\u0661.5", "1\n"])
    def test_decimal_string_is_ascii_without_trailing_newline(self, text):
        """float() reads both, so only the pattern stops them, as an ECMA-262 validator does."""
        assert float(text) in (1.5, 1.0)
        with pytest.raises(SchemaError, match=r"^\$\.finite\.lambda\[0\]\[1\]: .* does not match "):
            parse_model_dict(_changed(FINITE_DOC, "finite.lambda.0.1", text))

    def test_nan_literal_rejected(self):
        text = json.dumps(FINITE_DOC).replace('"-1"', "NaN", 1)
        with pytest.raises(SchemaError, match="non-finite"):
            parse_model_dict(json.loads(text))

    def test_integer_beyond_double_range_rejected(self):
        text = json.dumps(FINITE_DOC).replace('"-1"', "1" + "0" * 400, 1)
        with pytest.raises(SchemaError, match=r"^finite\.lambda\[0\]\[0\]: integer too large"):
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


def _changed(doc: dict, path: str, value) -> dict:
    """Deep copy of doc with the entry at a dotted path replaced (None deletes it)."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path.split(".")
    node = doc
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    if value is None:
        del node[last]
    else:
        node[int(last) if isinstance(node, list) else last] = value
    return doc


GOOD_BUNDLE = {
    "schema_version": 1,
    "model_hash": "0" * 64,
    "provenance": {"tool": "maxacc", "version": "0.1.0", "timestamp": "t", "seed": 7},
}
INVALID_MODEL_DOCS = [
    {},
    _changed(FINITE_DOC, "schema_version", 2),
    _changed(FINITE_DOC, "type", "bogus"),
    _changed(FINITE_DOC, "extra", 1),
    _changed(FINITE_DOC, "finite.d", 0),
    _changed(FINITE_DOC, "finite.d", 1.5),
    _changed(FINITE_DOC, "finite.d", "2"),
    _changed(FINITE_DOC, "finite.lambda.0.1", "abc"),
    _changed(FINITE_DOC, "finite.lambda", []),
    _changed(FINITE_DOC, "finite.h.1.0", True),
    _changed(FINITE_DOC, "finite.h", None),
    dict(FINITE_DOC, sim={"horizon": True}),
    dict(FINITE_DOC, sim={"seed": -1, "kappas": []}),
    dict(FINITE_DOC, sim={"horizon": "long"}),
    _changed(lg_doc(), "linear_gaussian.H", None),
    _changed(lg_doc(), "linear_gaussian.D.0", "1"),
]
INVALID_BUNDLES = [
    {},
    _changed(GOOD_BUNDLE, "provenance", None),
    _changed(GOOD_BUNDLE, "provenance.seed", None),
    _changed(GOOD_BUNDLE, "model_hash", "xyz"),
    _changed(GOOD_BUNDLE, "schema_version", 0),
    _changed(GOOD_BUNDLE, "extra", []),
    dict(GOOD_BUNDLE, verdict={"kind": "finite", "maximal_accuracy": "yes"}),
    dict(GOOD_BUNDLE, verdict={"kind": "other", "maximal_accuracy": True}),
    dict(GOOD_BUNDLE, verdict={"kind": "finite", "maximal_accuracy": True, "notes": [1]}),
    dict(GOOD_BUNDLE, lambda_tilde=[[]]),
    dict(GOOD_BUNDLE, sweep=[]),
]


class TestSchemaValidators:
    """The validators built once per process report what jsonschema.validate would."""

    @pytest.mark.parametrize("schema", [MODEL_FILE_SCHEMA, REPORT_SCHEMA])
    def test_schema_is_valid_for_its_draft(self, schema):
        cls = jsonschema.validators.validator_for(schema)
        assert cls is jsonschema.Draft202012Validator
        cls.check_schema(schema)

    @pytest.mark.parametrize("doc", INVALID_MODEL_DOCS)
    def test_model_file_message_matches_validate(self, doc):
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(doc, MODEL_FILE_SCHEMA)
        e = expected.value
        with pytest.raises(SchemaError) as got:
            parse_model_dict(doc)
        assert str(got.value) == f"{e.json_path}: {e.message}"

    @pytest.mark.parametrize("bundle", INVALID_BUNDLES)
    def test_report_message_matches_validate(self, bundle):
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(bundle, REPORT_SCHEMA)
        e = expected.value
        with pytest.raises(SchemaError) as got:
            validate_report(bundle)
        assert str(got.value) == f"report bundle invalid at {e.json_path}: {e.message}"


_JSON_LEAF = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
_JSON = st.recursive(
    _JSON_LEAF,
    lambda kids: st.lists(kids, max_size=2) | st.dictionaries(st.text(max_size=4), kids, max_size=2),
    max_leaves=4,
)
# Entries the schema accepts but the builders must still survive: NaN, inf,
# huge and tiny magnitudes, integers too large for a float, decimal strings.
_NUMBER = st.one_of(
    st.floats(-4.0, 4.0),
    st.integers(-3, 3),
    st.floats(),
    st.sampled_from(["1", "-0.5", "2.5e3", ".5", "+1.", "1e400", "-1e-400", 10**400, 2**63]),
)


@st.composite
def _model_docs(draw) -> dict:
    """Model documents near the schema: right shapes, odd numbers, sometimes damaged."""

    def matrix(rows: int, cols: int):
        if draw(st.integers(0, 9)) == 0:
            return draw(_JSON)
        entry = _NUMBER if draw(st.integers(0, 4)) else st.one_of(_NUMBER, _JSON_LEAF)
        return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))

    kind = draw(st.sampled_from(["finite", "linear_gaussian"]))
    p = draw(st.integers(1, 4))
    if kind == "finite":
        d = draw(st.sampled_from([p, p, float(p), p + 1, 0, -1, "2", True, None]))
        L = matrix(p, p)
        if draw(st.booleans()):  # a generator: nonnegative rates, rows summing to 0
            L = draw(st.lists(st.lists(st.floats(0.0, 1e6) | st.floats(0.0), min_size=p, max_size=p),
                              min_size=p, max_size=p))
            for i, row in enumerate(L):
                row[i] = -sum(row[:i] + row[i + 1:])
        family = {"d": d, "lambda": L, "h": matrix(p, draw(st.integers(1, 2)))}
    else:
        m, n = draw(st.integers(1, p)), draw(st.integers(1, p))
        family = {"A": matrix(p, p), "D": matrix(p, m), "H": matrix(n, p)}
    doc = {"schema_version": 1, "type": kind, kind: family}
    if draw(st.booleans()):
        doc["sim"] = draw(st.fixed_dictionaries({}, optional={
            "kappas": st.lists(_NUMBER, max_size=3),
            "trials": st.one_of(st.integers(-1, 10**20), st.floats()),
            "horizon": _NUMBER | st.none(),
            "dt": _NUMBER | st.none(),
            "burn_in": _NUMBER | st.none(),
            "seed": st.one_of(st.integers(-1, 10**30), st.floats()),
        }))
    if draw(st.integers(0, 9)) == 0:  # damage: drop, replace or add one top-level key
        key = draw(st.sampled_from(["schema_version", "type", "finite", "linear_gaussian", "sim", "x"]))
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(_JSON)
    return doc


class TestParseFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_model_docs())
    def test_parse_returns_model_or_maxacc_error(self, doc):
        """Any document either parses or fails with a package error."""
        try:
            parsed = parse_model_dict(doc)
        except MaxaccError:
            return
        assert parsed.kind == doc["type"]


# Every JSON leaf type, decimal-like strings valid or not, and strings that
# float() reads but the pattern must refuse.
_ENTRY = st.one_of(
    _JSON,
    _NUMBER,
    st.from_regex(r"[+-]?[0-9]{0,3}(\.[0-9]{0,2})?([eE][+-]?[0-9]{0,3})?\n?", fullmatch=True),
    st.sampled_from(["\u0661.5", "\u0661", "1\n", " 1", "1_0", "nan", "inf", "0x10"]),
)
_SHIPPED = {"model": jsonschema.Draft202012Validator(MODEL_FILE_SCHEMA),
            "report": jsonschema.Draft202012Validator(REPORT_SCHEMA)}
_ANYOF = {"model": jsonschema.Draft202012Validator(ANYOF_MODEL_FILE_SCHEMA),
          "report": jsonschema.Draft202012Validator(ANYOF_REPORT_SCHEMA)}


class TestNumberEncoding:
    """The shipped type-list number entries accept exactly what the anyOf form accepts."""

    @pytest.mark.parametrize("schema", [MODEL_FILE_SCHEMA, REPORT_SCHEMA])
    def test_no_anyof_left(self, schema):
        assert "anyOf" not in json.dumps(schema)

    @pytest.mark.parametrize("schema", [ANYOF_MODEL_FILE_SCHEMA, ANYOF_REPORT_SCHEMA])
    def test_oracle_schemas_use_anyof(self, schema):
        jsonschema.Draft202012Validator.check_schema(schema)
        assert "anyOf" in json.dumps(schema)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_model_docs())
    def test_model_docs_agree(self, doc):
        assert _SHIPPED["model"].is_valid(doc) == _ANYOF["model"].is_valid(doc)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_ENTRY)
    def test_every_entry_agrees_at_each_number_site(self, entry):
        for name, group in _number_site_docs(entry).items():
            for doc in group:
                assert _SHIPPED[name].is_valid(doc) == _ANYOF[name].is_valid(doc), doc


def _number_site_docs(entry) -> dict:
    """Documents that hold entry where each schema expects a number."""
    return {
        "model": [
            dict(FINITE_DOC, finite=dict(FINITE_DOC["finite"], h=[["0"], [entry]])),
            dict(FINITE_DOC, sim={"horizon": entry}),
        ],
        "report": [dict(GOOD_BUNDLE, lambda_tilde=[["1", entry]])],
    }


def _via_json(doc):
    return json.loads(json.dumps(doc))


class TestCompiledCheck:
    """The compiled schema checks accept only what jsonschema accepts, and every valid model file."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_model_docs())
    def test_model_docs(self, doc):
        doc = _via_json(doc)
        assert modelfile._accepts("model")(doc) == _SHIPPED["model"].is_valid(doc)
        assert not modelfile._accepts("report")(doc) or _SHIPPED["report"].is_valid(doc)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_JSON)
    def test_any_json(self, doc):
        doc = _via_json(doc)
        for name, validator in _SHIPPED.items():
            assert not modelfile._accepts(name)(doc) or validator.is_valid(doc)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_ENTRY)
    def test_every_entry_at_each_number_site(self, entry):
        for name, group in _number_site_docs(entry).items():
            for doc in map(_via_json, group):
                assert modelfile._accepts(name)(doc) == _SHIPPED[name].is_valid(doc), doc

    @pytest.mark.parametrize("schema", [
        {"type": "integer", "maximum": 3},
        {"type": "object", "properties": {"x": {"items": {"format": "date"}}}},
        {"type": "object", "additionalProperties": {"type": "string"}},
    ])
    def test_unknown_keyword_does_not_compile(self, schema):
        with pytest.raises(ValueError, match="no compiled check"):
            modelfile._compile(schema)

    def test_valid_documents_never_reach_jsonschema(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(jsonschema.exceptions, "best_match", calls.append)
        for path in sorted(MODELS_DIR.glob("*.json")):
            assert run_command(["analyze", "--model", str(path)]) == 0
        validate_report(GOOD_BUNDLE)
        capsys.readouterr()
        assert calls == []

    def test_import_builds_no_check(self):
        code = ("import maxacc.cli, maxacc.modelfile as m; "
                "print(m._validator.cache_info().currsize, m._accepts.cache_info().currsize)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        assert proc.stdout == "0 0\n"


class TestModelInvariants:
    def test_negative_off_diagonal_named(self):
        doc = json.loads(json.dumps(FINITE_DOC))
        doc["finite"]["lambda"] = [["-1", "-1"], ["1", "-1"]]
        with pytest.raises(ModelInvariantError, match=r"finite\.lambda: negative off-diagonal rate at \(0, 1\)"):
            parse_model_dict(doc)

    def test_tiny_negative_rate_refused(self, capsys, tmp_path):
        """A rate just under zero fails the library's generator rule, named after the file's field."""
        lam = [[-1.0, 1.0], [-5e-13, 5e-13]]
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({**FINITE_DOC, "finite": {"d": 2, "lambda": lam, "h": [[0], [1]]}}))
        assert run_command(["analyze", "--model", str(path)]) == 1
        assert capsys.readouterr() == (
            "", "error: finite.lambda: negative off-diagonal rate at (1, 0): -5e-13\n")

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

    def test_deep_nesting_is_a_parse_error(self, capsys, tmp_path):
        """Nesting past the recursion limit, met by the decoder or by the schema check, exits 1 with no traceback."""
        path = tmp_path / "deep.json"
        path.write_text("[" * 1000 + "]" * 1000)
        assert run_command(["analyze", "--model", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: nested too deeply to parse\n")
        limit = sys.getrecursionlimit()
        for depth in range(limit - 150, limit + 10):
            lam = "[" * depth + "]" * depth
            path.write_text(f'{{"schema_version": 1, "type": "finite", "finite": '
                            f'{{"d": 2, "lambda": {lam}, "h": [[0], [1]]}}}}')
            assert run_command(["analyze", "--model", str(path)]) == 1  # RecursionError would propagate
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ")


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
        parsed = ParsedModelFile(kind="finite", model=model, kappas=[0.1 + 0.2])
        again = parse_model_dict(json.loads(json.dumps(serialize_model(parsed))))
        assert np.array_equal(again.model.Lambda, model.Lambda)
        assert np.array_equal(again.model.h, model.h)
        assert again.kappas == [0.1 + 0.2]

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
        parsed = ParsedModelFile(kind="finite", model=model)
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
