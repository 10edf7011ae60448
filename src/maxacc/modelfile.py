"""Model-file parsing, serialization, hashing, and report-bundle schemas.

Model files are JSON with one model family per file. Matrix entries are
decimal strings (plain JSON numbers are also accepted on input) and are
always written back as repr() strings, so a parse/serialize round trip is
bit-exact and immune to locale surprises. An optional "sim" block carries
sweep defaults that command-line flags can override: a kappa grid, and the
SimParams settings that differ from SimParams().
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
import re
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .deferred import DeferredModule
from .errors import InvalidInput, ModelInvariantError, ParseError, SchemaError
from .lingauss import LinearGaussianModel
from .lingauss import validate_model  # noqa: F401 (bench/spans.py wraps this name)
from .markov import FiniteStateModel
from .verdicts import check_kappas
from .wonham import SimParams

# Imported by the first rejected document; bench/spans.py wraps this name.
jsonschema = DeferredModule("jsonschema")

SCHEMA_VERSION = 1

# An ASCII decimal string. It means the same under Python's re and ECMA-262,
# the dialect JSON Schema names: [0-9] rather than \d, which Python lets match
# any Unicode digit, and (?!\n) because Python's $ also matches before a
# trailing newline.
DECIMAL = r"^[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?$(?!\n)"
# One type list rather than an anyOf: "pattern" applies only to strings, so
# these accept what anyOf [number, decimal string] accepts, but jsonschema
# checks each entry once instead of against two subschemas with an error
# context for each.
_NUMBER = {"type": ["number", "string"], "pattern": DECIMAL}
_NUMBER_OR_NULL = {"type": ["number", "string", "null"], "pattern": DECIMAL}
_MATRIX = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 1, "items": _NUMBER},
}

MODEL_FILE_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "maxacc model file",
    "type": "object",
    "required": ["schema_version", "type"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "type": {"enum": ["finite", "linear_gaussian"]},
        "finite": {
            "type": "object",
            "required": ["d", "lambda", "h"],
            "additionalProperties": False,
            "properties": {
                "d": {"type": "integer", "minimum": 1},
                "lambda": _MATRIX,
                "h": _MATRIX,
            },
        },
        "linear_gaussian": {
            "type": "object",
            "required": ["A", "D", "H"],
            "additionalProperties": False,
            "properties": {"A": _MATRIX, "D": _MATRIX, "H": _MATRIX},
        },
        "sim": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kappas": {"type": "array", "minItems": 1, "items": _NUMBER},
                "trials": {"type": "integer"},
                "horizon": _NUMBER_OR_NULL,
                "dt": _NUMBER_OR_NULL,
                "burn_in": _NUMBER_OR_NULL,
                "seed": {"type": "integer"},
            },
        },
    },
}

REPORT_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "maxacc report bundle",
    "type": "object",
    "required": ["schema_version", "model_hash", "provenance"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "model_hash": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "verdict": {
            "type": "object",
            "required": ["kind", "maximal_accuracy"],
            "properties": {
                "kind": {"enum": ["finite", "linear_gaussian"]},
                "maximal_accuracy": {"type": "boolean"},
                "notes": {"type": "array", "items": {"type": "string"}},
            },
        },
        "sweep": {"type": "object"},
        "zero_report": {"type": "object"},
        "lambda_tilde": _MATRIX,
        "provenance": {
            "type": "object",
            "required": ["tool", "version", "timestamp", "seed"],
        },
    },
}


_SCHEMAS = {"model": MODEL_FILE_SCHEMA, "report": REPORT_SCHEMA}


@functools.cache
def _validator(name: str):
    """Validator for MODEL_FILE_SCHEMA ("model") or REPORT_SCHEMA ("report").

    Built on first use and kept for the process. Both schemas are constants:
    tests/test_modelfile.py checks them against their draft's metaschema. The
    integer type also admits numpy integers (np.bool_ is not one), as
    check_integer does; the number type already admits numpy numbers.
    """
    schema = _SCHEMAS[name]
    cls = jsonschema.validators.validator_for(schema)
    json_types = cls.TYPE_CHECKER
    types = json_types.redefine(
        "integer", lambda _, x: isinstance(x, np.integer) or json_types.is_type(x, "integer"))
    return jsonschema.validators.extend(cls, type_checker=types)(schema)


# The keywords _compile knows. Any other raises, so that a schema edit cannot
# quietly widen what the compiled check accepts.
_KEYWORDS = frozenset({
    "$schema", "title", "type", "const", "enum", "required", "properties",
    "additionalProperties", "items", "minItems", "minimum", "pattern",
})
_JSON_TYPES = {
    "object": (dict,), "array": (list,), "string": (str,), "number": (int, float),
    "integer": (int,), "boolean": (bool,), "null": (type(None),),
}
_SCALARS = (str, int, float)


def _compile(schema: dict):
    """A predicate that holds only for plain JSON documents the schema accepts.

    It is sound, not complete: False means "ask jsonschema", never "invalid".
    Values are tested with type(x) is, so a bool is never a number, and a
    numpy scalar, a tuple or a dict subclass is always left to jsonschema.
    Integral floats count as integers, as in draft 6 and later.
    """
    unknown = schema.keys() - _KEYWORDS
    if unknown:
        raise ValueError(f"no compiled check for schema keywords {sorted(unknown)}")
    if schema.get("additionalProperties", False) is not False:
        raise ValueError("no compiled check for additionalProperties other than false")
    names = schema.get("type", list(_JSON_TYPES))
    names = [names] if isinstance(names, str) else names
    types = frozenset(t for name in names for t in _JSON_TYPES[name])
    integral = "integer" in names and "number" not in names

    checks = [lambda x: type(x) in types or (integral and type(x) is float and x.is_integer())]
    for keyword in ("const", "enum"):
        if keyword in schema:
            values = [schema["const"]] if keyword == "const" else schema["enum"]
            if any(type(v) not in _SCALARS for v in values):
                raise ValueError(f"no compiled check for {keyword} {values!r}")
            checks.append(lambda x, values=values: type(x) in _SCALARS and x in values)
    if "pattern" in schema:
        search = re.compile(schema["pattern"]).search  # re.search, as jsonschema does
        checks.append(lambda x: type(x) is not str or search(x) is not None)
    if "minimum" in schema:
        low = schema["minimum"]
        checks.append(lambda x: type(x) not in (int, float) or x >= low)
    if "minItems" in schema:
        size = schema["minItems"]
        checks.append(lambda x: type(x) is not list or len(x) >= size)
    if "items" in schema:
        item = _compile(schema["items"])
        checks.append(lambda x: type(x) is not list or all(map(item, x)))
    if "required" in schema:
        required = frozenset(schema["required"])
        checks.append(lambda x: type(x) is not dict or x.keys() >= required)
    if "properties" in schema or "additionalProperties" in schema:
        properties = {key: _compile(sub) for key, sub in schema.get("properties", {}).items()}
        closed = "additionalProperties" in schema

        def members_ok(x) -> bool:
            if type(x) is not dict:
                return True
            for key, value in x.items():
                check = properties.get(key)
                if check is None:
                    if closed:
                        return False
                elif not check(value):
                    return False
            return True

        checks.append(members_ok)

    def accepts(x) -> bool:
        for check in checks:
            if not check(x):
                return False
        return True

    return accepts


@functools.cache
def _accepts(name: str):
    """The compiled check of MODEL_FILE_SCHEMA ("model") or REPORT_SCHEMA ("report")."""
    return _compile(_SCHEMAS[name])


def _schema_error(name: str, doc: dict):
    """The error jsonschema.validate(doc, schema) would raise, or None.

    A document the compiled check accepts is valid and never reaches
    jsonschema; jsonschema judges every other one, so every message is its own.
    """
    if _accepts(name)(doc):
        return None
    return jsonschema.exceptions.best_match(_validator(name).iter_errors(doc))


@dataclass
class ParsedModelFile:
    kind: str
    model: FiniteStateModel | LinearGaussianModel
    kappas: list[float] | None = None  # the sim block's kappa grid; None: the command's default
    sim: SimParams = SimParams()  # the sim block's settings


def _to_float(node, path: str, finite: bool = True) -> float:
    """A real number or DECIMAL string that the schema admitted, as a float.

    The schema decides what is a number; this converts. SimParams range-checks sim values (finite=False).
    """
    if isinstance(node, bool):
        raise SchemaError(f"{path}: boolean is not a number")
    if not isinstance(node, (int, float, str)) and not isinstance(node, numbers.Real):
        raise SchemaError(f"{path}: expected a number, got {type(node).__name__}")
    try:
        value = float(node)
    except OverflowError as exc:  # an integer literal beyond the double range
        raise SchemaError(f"{path}: integer too large for a double") from exc
    if finite and not math.isfinite(value):
        raise SchemaError(f"{path}: non-finite value {node!r}")
    return value


def _to_matrix(node: list, path: str) -> np.ndarray:
    width = len(node[0])
    rows = []
    for i, row in enumerate(node):
        if len(row) != width:
            raise SchemaError(f"{path}[{i}]: ragged matrix, expected {width} columns")
        rows.append([_to_float(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(rows, dtype=float)


def parse_model_dict(doc: dict) -> ParsedModelFile:
    """Validate a decoded model document and build the model it describes."""
    error = _schema_error("model", doc)
    if error is not None:
        raise SchemaError(f"{error.json_path}: {error.message}") from error
    families = [f for f in ("finite", "linear_gaussian") if f in doc]
    if families != [doc["type"]]:
        raise SchemaError(
            f"exactly the {doc['type']!r} family must be populated, found {families}"
        )
    if doc["type"] == "finite":
        model = _build_finite(doc["finite"])
    else:
        model = _build_linear_gaussian(doc["linear_gaussian"])
    return ParsedModelFile(doc["type"], model, *_build_sim(doc.get("sim", {})))


def _build_finite(node: dict) -> FiniteStateModel:
    d = int(node["d"])  # the schema also admits integral floats such as 2.0
    L = _to_matrix(node["lambda"], "finite.lambda")
    h = _to_matrix(node["h"], "finite.h")
    if L.shape != (d, d):
        raise SchemaError(f"finite.lambda: shape {L.shape} does not match d = {d}")
    if h.shape[0] != d:
        raise SchemaError(f"finite.h: {h.shape[0]} rows do not match d = {d}")
    try:
        return FiniteStateModel(L, h)
    except InvalidInput as exc:
        raise ModelInvariantError(f"finite.lambda: {exc}") from exc


def _build_linear_gaussian(node: dict) -> LinearGaussianModel:
    A = _to_matrix(node["A"], "linear_gaussian.A")
    D = _to_matrix(node["D"], "linear_gaussian.D")
    H = _to_matrix(node["H"], "linear_gaussian.H")
    try:
        return LinearGaussianModel(A, D, H)
    except InvalidInput as exc:
        raise ModelInvariantError(f"linear_gaussian: {exc}") from exc


def _build_sim(node: dict) -> tuple[list[float] | None, SimParams]:
    """The sim block's kappa grid and settings, checked by check_kappas and SimParams under its sim. names."""
    kappas = node.get("kappas")
    settings = {name: int(node[name]) for name in ("trials", "seed") if name in node}
    settings.update((name, _to_float(node[name], f"sim.{name}", False))
                    for name in ("horizon", "dt", "burn_in") if node.get(name) is not None)
    try:
        if kappas is not None:
            kappas = check_kappas([_to_float(v, f"sim.kappas[{i}]", False) for i, v in enumerate(kappas)])
        return kappas, SimParams(**settings)
    except ValueError as exc:
        field, _, rule = str(exc).partition(" ")
        raise ModelInvariantError(f"sim.{'kappas' if field == 'kappa' else field} {rule}") from exc


def parse_model_file(path: str | Path) -> ParsedModelFile:
    """Read, decode, and validate a model file from disk."""
    try:
        text = Path(path).read_text(encoding="utf-8")  # JSON text is UTF-8 (RFC 8259)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise SchemaError(f"{path}: top level must be an object")
        return parse_model_dict(doc)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:  # the decoder and the schema check recurse once per level of nesting
        raise ParseError(f"{path}: nested too deeply to parse") from exc


def _fmt(x: float) -> str:
    return repr(float(x))


def _matrix_strings(M: np.ndarray) -> list[list[str]]:
    return [[_fmt(v) for v in row] for row in np.atleast_2d(M)]


def serialize_model(parsed: ParsedModelFile) -> dict:
    """Model document with matrices as repr() decimal strings (bit-exact)."""
    doc: dict = {"schema_version": SCHEMA_VERSION, "type": parsed.kind}
    model = parsed.model
    if parsed.kind == "finite":
        doc["finite"] = {
            "d": model.d,
            "lambda": _matrix_strings(model.Lambda),
            "h": _matrix_strings(model.h),
        }
    else:
        doc["linear_gaussian"] = {
            "A": _matrix_strings(model.A),
            "D": _matrix_strings(model.D),
            "H": _matrix_strings(model.H),
        }
    block = {} if parsed.kappas is None else {"kappas": [_fmt(k) for k in parsed.kappas]}
    for f in fields(SimParams):
        value = getattr(parsed.sim, f.name)
        if value != f.default:
            block[f.name] = value if isinstance(value, int) else _fmt(value)
    if block:
        doc["sim"] = block
    return doc


def model_hash(parsed: ParsedModelFile) -> str:
    """Hash of the model content only; sweep defaults do not change identity."""
    doc = serialize_model(parsed)
    doc.pop("sim", None)
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def validate_report(bundle: dict) -> dict:
    """Check an outgoing report bundle against the published schema."""
    error = _schema_error("report", bundle)
    if error is not None:
        raise SchemaError(f"report bundle invalid at {error.json_path}: {error.message}") from error
    return bundle
