"""JSON encoding of matrices, states, models, and measures, and the
scenario config schema.

A complex matrix serializes as {"dim": n, "matrix": [[re, im], ...]} with
n*n entries in row-major order; a pure state as {"dim": n, "pure": [[re,
im], ...]} with n entries.  Real matrices (Pauli rates) are plain nested
lists.  ``CONFIG_SCHEMA`` both checks and parses a scenario: ``decode_config``
checks it, then decodes its matrices and integers by a walk of the schema.
Each block decoder takes a block so decoded; states and measures need the
model and a seed, so they are decoded where they are used.
``field_path`` is the one way a semantic error names its field.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import fields

import numpy as np

from . import composite as cp
from . import ensemble as en
from . import equilibrium as eq
from . import integrate as ig
from . import lindblad as lb
from . import operators as op
from . import sea
from . import states as st
from .errors import ConfigError, DimensionMismatchError, SeaqtError
from .operators import UnitSystem


def _object(properties: dict, *required: str) -> dict:
    """A closed object schema: fields outside ``properties`` are rejected."""
    return {"type": "object", "properties": properties, "required": list(required),
            "additionalProperties": False}


def _array(items: dict) -> dict:
    return {"type": "array", "items": items}


NUMBER = {"type": "number"}
POSITIVE = {"type": "number", "exclusiveMinimum": 0}
DIM = {"type": "integer", "minimum": 1}
ENTRIES = _array({"type": "array", "items": NUMBER, "minItems": 2, "maxItems": 2})
MATRIX = {"$ref": "#/$defs/matrix"}
STATE = {"$ref": "#/$defs/state"}
STATE_KINDS = ("matrix", "pure", "gibbs", "random", "mix")

# one property per IntegratorConfig field, typed from its annotation
INTEGRATOR_SCHEMA = {
    f.name: {"enum": list(ig.METHODS)} if f.name == "method"
    else {"enum": list(ig.PROJECTION_MODES)} if f.name == "projection"
    else {"type": ["number", "null"]} if f.type == "float | None"
    else NUMBER
    for f in fields(ig.IntegratorConfig)
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "seaqt scenario configuration",
    "$defs": {
        "matrix": {**_object({"dim": DIM, "matrix": ENTRIES}, "dim", "matrix"),
                   "description": "complex matrix, row-major [re, im] pairs"},
        "state": {
            **_object({"dim": DIM, "matrix": ENTRIES, "pure": ENTRIES,
                       "gibbs": _object({"multipliers": _array(NUMBER)}, "multipliers"),
                       "random": _object({"dim": DIM,
                                          "seed": {"type": "integer", "minimum": 0},
                                          "min_eig": {"type": "number", "minimum": 0}}),
                       "mix": _object({"state": STATE, "epsilon": NUMBER},
                                      "state", "epsilon")}),
            "dependentRequired": {"matrix": ["dim"], "pure": ["dim"]},
            "description": f"exactly one of {', '.join(STATE_KINDS)}; "
                           "random needs a seed here or from --seed"},
    },
    **_object({
        "units": _object({"hbar": POSITIVE, "k_B": POSITIVE, "c_stat": POSITIVE}),
        "system": {
            **_object({
                "single": _object({"H": MATRIX, "generators": _array(MATRIX),
                                   "tau": POSITIVE}, "H", "tau"),
                "composite": _object({
                    "constituents": _array(_object({"dim": DIM,
                                                    "generators": _array(MATRIX),
                                                    "tau": POSITIVE}, "dim", "tau")),
                    "H": MATRIX}, "constituents", "H")}),
            "minProperties": 1, "maxProperties": 1},
        "initial": STATE,
        "dynamics": {
            **_object({
                "sea": _object({"equilibrium_detection":
                                {"enum": ["full", "dissipative"]}}),
                "lindblad": _object({"B": MATRIX, "jumps": _array(MATRIX)}, "B"),
                "pauli": _object({"w": _array(_array(NUMBER)),
                                  "energies": _array(NUMBER)}, "w", "energies"),
                "double_commutator": _object({"F": MATRIX, "tau": POSITIVE},
                                             "F", "tau")}),
            "minProperties": 1,
            "description": "one block for simulate/validate/ensemble; 'sea' plus "
                           "one linear block for compare"},
        "integrator": _object(INTEGRATOR_SCHEMA),
        "outputs": _object({name: {"type": "string"} for name in (
            "trajectory_csv", "states_jsonl", "summary_json", "result_json",
            "report_json", "series_csv", "measure_json")}),
        "constants": {**_array(MATRIX), "description": "equilibrium subcommand"},
        "targets": _array(NUMBER),
        "multipliers": _array(NUMBER),
        "measure": {**_object({"support": {**_array(_object({"w": NUMBER, "state": STATE},
                                                             "w", "state")),
                                           "minItems": 1}}, "support"),
                    "description": "ensemble subcommand: weighted support"},
        "maxent": _object({"states": {**_array(STATE), "minItems": 1},
                           "target_energy": NUMBER}, "states", "target_energy"),
    }),
}

_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float),
          "integer": int, "null": type(None)}


def _has_type(value, name: str) -> bool:
    if isinstance(value, bool):    # JSON true/false is no number
        return False
    if name == "integer" and isinstance(value, float):
        return value.is_integer()
    return isinstance(value, _TYPES[name])


def _check_size(n: int, lo: int, hi, field: str, noun: str) -> None:
    if n < lo or (hi is not None and n > hi):
        bound = lo if lo == hi else f"at least {lo}" if hi is None else f"{lo} to {hi}"
        raise ConfigError(f"expected {bound} {noun}, got {n}", field)


def _join(path: str, field: str) -> str:
    """``path`` and the ``field`` inside it as one path; an index joins undotted."""
    return f"{path}.{field}" if path and field[:1] not in ("", "[") else path + field


def _check(value, schema: dict, path: str) -> None:
    if "$ref" in schema:
        schema = CONFIG_SCHEMA["$defs"][schema["$ref"].removeprefix("#/$defs/")]
    field = path or "config"
    if isinstance(value, float) and not np.isfinite(value):
        raise ConfigError(f"expected a finite number, got {value!r}", field)
    if "type" in schema:
        types = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not any(_has_type(value, t) for t in types):
            raise ConfigError(f"expected {' or '.join(types)}, "
                              f"got {type(value).__name__}", field)
    if "enum" in schema and value not in schema["enum"]:
        raise ConfigError(f"{value!r} is not one of {schema['enum']}", field)
    if "minimum" in schema and value < schema["minimum"]:
        raise ConfigError(f"must be >= {schema['minimum']}, got {value!r}", field)
    if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
        raise ConfigError(f"must be > {schema['exclusiveMinimum']}, got {value!r}",
                          field)
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for name, item in value.items():
            if name in properties:
                _check(item, properties[name], _join(path, name))
            elif schema.get("additionalProperties") is False:
                raise ConfigError("unknown field", _join(path, name))
        needed = [*schema.get("required", ()),
                  *(need for name, needs in schema.get("dependentRequired", {}).items()
                    if name in value for need in needs)]
        for name in needed:
            if name not in value:
                raise ConfigError("required field missing", _join(path, name))
        _check_size(len(value), schema.get("minProperties", 0),
                    schema.get("maxProperties"), field, "field(s)")
    if isinstance(value, list):
        _check_size(len(value), schema.get("minItems", 0), schema.get("maxItems"),
                    field, "item(s)")
        for i, item in enumerate(value):
            _check(item, schema.get("items", {}), f"{path}[{i}]")


def check_config(config) -> None:
    """Check a decoded scenario against ``CONFIG_SCHEMA``, covering exactly
    the keywords it uses; raise ``ConfigError`` naming the dotted path of the
    first offending field, such as ``system.single.generators[0].dim``.
    Stricter than jsonschema in one place: it rejects NaN and +-Infinity,
    which ``json.load`` parses though JSON has no such tokens."""
    _check(config, CONFIG_SCHEMA, "")


@contextmanager
def field_path(path: str):
    """Name ``path``, the dotted path of the block built inside, in its errors
    as a schema error names its field.  A ``SeaqtError`` keeps its type (so
    its exit code) with ``path`` prefixed to its field; a ``ValueError``, a
    constructor's argument error, becomes a ``ConfigError`` naming ``path``."""
    try:
        yield
    except SeaqtError as exc:
        exc.field = _join(path, exc.field)
        exc.args = (f"{exc.field}: {exc.message}",)
        raise
    except ValueError as exc:
        raise ConfigError(str(exc), path) from exc


def _decode(value, schema: dict, path: str):
    """``value``, which ``schema`` admits, with each ``$ref: matrix`` a
    complex array and each integer an ``int``; all else as JSON gave it."""
    if schema.get("$ref") == MATRIX["$ref"]:
        with field_path(path):
            return decode_matrix(value)
    if "$ref" in schema:
        schema = CONFIG_SCHEMA["$defs"][schema["$ref"].removeprefix("#/$defs/")]
    if schema.get("type") == "integer":
        return int(value)
    if isinstance(value, dict):
        return {name: _decode(item, schema["properties"][name], _join(path, name))
                for name, item in value.items()}
    if isinstance(value, list):
        return [_decode(item, schema["items"], f"{path}[{i}]")
                for i, item in enumerate(value)]
    return value


def decode_config(config) -> dict:
    """``check_config``, then the config with its matrices and integers
    decoded; a malformed matrix in any block raises ``ConfigError`` naming
    its dotted path, such as ``constants[0].matrix``."""
    check_config(config)
    return _decode(config, CONFIG_SCHEMA, "")


def encode_matrix(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"dim": m.shape[0],
            "matrix": [[float(v.real), float(v.imag)] for v in m.ravel()]}


def decode_matrix(obj) -> np.ndarray:
    dim = int(obj["dim"])
    entries = obj["matrix"]
    if len(entries) != dim * dim:
        raise ConfigError(f"dim {dim} needs {dim * dim} entries, got {len(entries)}",
                          "matrix")
    flat = np.array([complex(re, im) for re, im in entries])
    return flat.reshape(dim, dim)


def decode_vector(obj) -> np.ndarray:
    dim = int(obj["dim"])
    entries = obj["pure"]
    if len(entries) != dim:
        raise ConfigError(f"dim {dim} needs {dim} entries, got {len(entries)}", "pure")
    return np.array([complex(re, im) for re, im in entries])


def encode_state(rho: st.StateOperator) -> dict:
    return encode_matrix(rho.matrix)


def decode_units(obj) -> UnitSystem:
    return UnitSystem(**obj)


def decode_single_model(obj, units: UnitSystem) -> sea.SingleConstituentModel:
    return sea.validate_model(sea.SingleConstituentModel(**obj, units=units))


def decode_composite_model(obj, units: UnitSystem) -> cp.CompositeModel:
    constituents = tuple(cp.Constituent(**c) for c in obj["constituents"])
    return cp.validate_model(cp.CompositeModel(constituents, obj["H"], units))


def decode_state(obj, model, seed_override: int | None = None) -> st.StateOperator:
    """The state ``obj`` describes, held to the dimension of ``model``'s system."""
    rho = _decode_state(obj, model, seed_override)
    if rho.dim != model.dim:
        raise DimensionMismatchError(f"state has dim {rho.dim}, but the system "
                                     f"has dim {model.dim}")
    return rho


def _decode_state(obj, model, seed_override: int | None) -> st.StateOperator:
    kinds = [kind for kind in STATE_KINDS if kind in obj]
    if len(kinds) != 1:
        raise ConfigError(f"a state needs exactly one of {', '.join(STATE_KINDS)}; "
                          f"got {kinds or 'none'}")
    kind = kinds[0]
    if kind == "matrix":
        return st.validate(decode_matrix(obj))
    if kind == "pure":
        psi = decode_vector(obj)
        with field_path("pure"):
            return st.pure_state(psi)
    spec = obj[kind]
    if kind == "gibbs":
        multipliers = spec["multipliers"]
        ops = [model.H, *model.generators]
        if len(multipliers) != len(ops):
            raise ConfigError(f"expected {len(ops)} (H plus generators), "
                              f"got {len(multipliers)}", "gibbs.multipliers")
        constants = eq.constant_set(ops, units=model.units)
        return eq.gibbs_state(constants, eq.MultiplierVector.from_array(multipliers))
    if kind == "random":
        seed = seed_override if seed_override is not None else spec.get("seed")
        if seed is None:
            raise ConfigError("required field missing; give it here or pass --seed",
                              "random.seed")
        with field_path("random.min_eig"):
            return st.random_full_rank(spec.get("dim", model.dim), seed=seed,
                                       min_eig=spec.get("min_eig", op.RANDOM_MIN_EIG))
    # kind == "mix"
    with field_path("mix.state"):
        inner = _decode_state(spec["state"], model, seed_override)
    with field_path("mix.epsilon"):
        return st.mix_with_identity(inner, spec["epsilon"])


def decode_lindblad(obj, units: UnitSystem) -> lb.LindbladModel:
    return lb.lindblad_model(obj["B"], obj.get("jumps", ()), units)


def decode_pauli(obj, units: UnitSystem) -> lb.PauliRates:
    return lb.pauli_rates(obj["w"], obj["energies"], units)


def decode_measure(obj, model,
                   seed_override: int | None = None) -> en.StatisticalWeightMeasure:
    pairs = []
    for i, point in enumerate(obj["support"]):
        with field_path(f"support[{i}].state"):
            pairs.append((point["w"], decode_state(point["state"], model, seed_override)))
    return en.measure(pairs)


def encode_measure(mu: en.StatisticalWeightMeasure) -> dict:
    return {"support": [{"w": float(w), "state": encode_state(s)}
                        for w, s in mu.support]}
