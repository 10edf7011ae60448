"""Model-file parsing, serialization, hashing, and report-bundle schemas.

Model files are JSON with one model family per file. Matrix entries are
decimal strings (plain JSON numbers are also accepted on input) and are
always written back as repr() strings, so a parse/serialize round trip is
bit-exact and immune to locale surprises. An optional "sim" block carries
sweep defaults that command-line flags can override.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np

from .errors import (
    DimensionMismatch,
    ModelInvariantError,
    NotDetectableOrStabilizable,
    NotRateMatrix,
    NotUniqueStationary,
    ParseError,
    RankDeficientDorH,
    SchemaError,
)
from .lingauss import LinearGaussianModel, validate_model
from .markov import FiniteStateModel
from .wonham import SimParams, check_kappa

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


@functools.cache
def _validator(name: str):
    """Validator for MODEL_FILE_SCHEMA ("model") or REPORT_SCHEMA ("report").

    Built on first use and kept for the process, so the schema is checked
    against its draft's metaschema once rather than once per document.
    """
    schema = {"model": MODEL_FILE_SCHEMA, "report": REPORT_SCHEMA}[name]
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _schema_error(name: str, doc: dict):
    """The error jsonschema.validate(doc, schema) would raise, or None."""
    return jsonschema.exceptions.best_match(_validator(name).iter_errors(doc))


@dataclass
class SimSpec:
    """Sweep defaults from a model file; every field may be absent."""

    kappas: list[float] | None = None
    trials: int | None = None
    horizon: float | None = None
    dt: float | None = None
    burn_in: float | None = None
    seed: int | None = None

    def params(self, **flags) -> SimParams:
        """SimParams from the flags that are set, then this block, then the SimParams defaults."""
        merged = {name: value for name, value in vars(self).items() if name != "kappas"}
        merged.update((name, value) for name, value in flags.items() if value is not None)
        return SimParams(**{name: value for name, value in merged.items() if value is not None})


@dataclass
class ParsedModelFile:
    kind: str
    model: FiniteStateModel | LinearGaussianModel
    sim: SimSpec


def _to_float(node, path: str, finite: bool = True) -> float:
    """Number or decimal string to float; SimParams range-checks sim values (finite=False)."""
    if isinstance(node, bool):
        raise SchemaError(f"{path}: boolean is not a number")
    if isinstance(node, (int, float)):
        try:
            value = float(node)
        except OverflowError as exc:  # an integer literal beyond the double range
            raise SchemaError(f"{path}: integer too large for a double") from exc
    elif isinstance(node, str):
        try:
            value = float(node)
        except ValueError as exc:
            raise SchemaError(f"{path}: {node!r} is not a decimal number") from exc
    else:
        raise SchemaError(f"{path}: expected a number, got {type(node).__name__}")
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
    return ParsedModelFile(kind=doc["type"], model=model, sim=_build_sim(doc.get("sim", {})))


def _build_finite(node: dict) -> FiniteStateModel:
    d = int(node["d"])  # the schema also admits integral floats such as 2.0
    L = _to_matrix(node["lambda"], "finite.lambda")
    h = _to_matrix(node["h"], "finite.h")
    if L.shape != (d, d):
        raise SchemaError(f"finite.lambda: shape {L.shape} does not match d = {d}")
    if h.shape[0] != d:
        raise SchemaError(f"finite.h: {h.shape[0]} rows do not match d = {d}")
    for i in range(d):
        for j in range(d):
            if i != j and L[i, j] < 0:
                raise ModelInvariantError(
                    f"finite.lambda[{i}][{j}]: negative off-diagonal rate {L[i, j]}"
                )
    try:
        return FiniteStateModel(L, h)
    except (NotRateMatrix, NotUniqueStationary) as exc:
        raise ModelInvariantError(f"finite.lambda: {exc}") from exc


def _build_linear_gaussian(node: dict) -> LinearGaussianModel:
    A = _to_matrix(node["A"], "linear_gaussian.A")
    D = _to_matrix(node["D"], "linear_gaussian.D")
    H = _to_matrix(node["H"], "linear_gaussian.H")
    try:
        model = LinearGaussianModel(A, D, H)
        validate_model(model)
    except (DimensionMismatch, RankDeficientDorH, NotDetectableOrStabilizable) as exc:
        raise ModelInvariantError(f"linear_gaussian: {exc}") from exc
    return model


def _build_sim(node: dict) -> SimSpec:
    """The sim block, checked by the SimParams and kappa rules under its sim. names."""
    spec = SimSpec()
    if "kappas" in node:
        spec.kappas = [_to_float(v, f"sim.kappas[{i}]", False) for i, v in enumerate(node["kappas"])]
    for name in ("trials", "seed"):
        if name in node:
            setattr(spec, name, int(node[name]))
    for name in ("horizon", "dt", "burn_in"):
        if node.get(name) is not None:
            setattr(spec, name, _to_float(node[name], f"sim.{name}", False))
    try:
        for kappa in spec.kappas or ():
            check_kappa(kappa)
        spec.params()
    except ValueError as exc:
        field, _, rule = str(exc).partition(" ")
        raise ModelInvariantError(f"sim.{'kappas' if field == 'kappa' else field} {rule}") from exc
    return spec


def parse_model_file(path: str | Path) -> ParsedModelFile:
    """Read, decode, and validate a model file from disk."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")
    return parse_model_dict(doc)


def _fmt(x: float) -> str:
    return repr(float(x))


def _matrix_strings(M: np.ndarray) -> list[list[str]]:
    return [[_fmt(v) for v in row] for row in np.atleast_2d(M)]


def serialize_model(parsed: ParsedModelFile) -> dict:
    """Model document with matrices as repr() decimal strings (bit-exact)."""
    doc: dict = {"schema_version": SCHEMA_VERSION, "type": parsed.kind}
    if parsed.kind == "finite":
        model = parsed.model
        doc["finite"] = {
            "d": model.d,
            "lambda": _matrix_strings(model.Lambda),
            "h": _matrix_strings(model.h),
        }
    else:
        model = parsed.model
        doc["linear_gaussian"] = {
            "A": _matrix_strings(model.A),
            "D": _matrix_strings(model.D),
            "H": _matrix_strings(model.H),
        }
    block = {name: value for name, value in vars(parsed.sim).items() if value is not None}
    if "kappas" in block:
        block["kappas"] = [_fmt(k) for k in block["kappas"]]
    for name in ("horizon", "dt", "burn_in"):
        if name in block:
            block[name] = _fmt(block[name])
    if block:
        doc["sim"] = block
    return doc


def model_file_json(parsed: ParsedModelFile) -> str:
    return json.dumps(serialize_model(parsed), indent=2) + "\n"


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
