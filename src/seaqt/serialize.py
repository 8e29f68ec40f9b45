"""JSON encoding of matrices, states, models, and measures.

A complex matrix serializes as {"dim": n, "matrix": [[re, im], ...]} with
n*n entries in row-major order; a pure state as {"dim": n, "pure": [[re,
im], ...]} with n entries.  Real matrices (Pauli rates) are plain nested
lists.
"""

from __future__ import annotations

import numpy as np

from . import composite as cp
from . import ensemble as en
from . import equilibrium as eq
from . import lindblad as lb
from . import sea
from . import states as st
from .errors import ConfigError
from .operators import UnitSystem


def encode_matrix(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"dim": m.shape[0],
            "matrix": [[float(v.real), float(v.imag)] for v in m.ravel()]}


def decode_matrix(obj, field: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict) or "dim" not in obj or field not in obj:
        raise ConfigError(f"matrix object needs 'dim' and '{field}' fields")
    dim = int(obj["dim"])
    entries = obj[field]
    if len(entries) != dim * dim:
        raise ConfigError(f"matrix with dim {dim} needs {dim * dim} entries, "
                          f"got {len(entries)}")
    flat = np.array([complex(re, im) for re, im in entries])
    return flat.reshape(dim, dim)


def decode_vector(obj) -> np.ndarray:
    dim = int(obj["dim"])
    entries = obj["pure"]
    if len(entries) != dim:
        raise ConfigError(f"pure vector with dim {dim} needs {dim} entries")
    return np.array([complex(re, im) for re, im in entries])


def encode_state(rho: st.StateOperator) -> dict:
    return encode_matrix(rho.matrix)


def decode_units(obj) -> UnitSystem:
    if obj is None:
        return UnitSystem()
    try:
        return UnitSystem(hbar=float(obj.get("hbar", 1.0)),
                          k_B=float(obj.get("k_B", 1.0)),
                          c_stat=float(obj.get("c_stat", 1.0)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"units: {exc}") from exc


def decode_single_model(obj, units: UnitSystem) -> sea.SingleConstituentModel:
    if "H" not in obj:
        raise ConfigError("single system needs 'H'")
    if "tau" not in obj:
        raise ConfigError("single system needs 'tau'")
    h = decode_matrix(obj["H"])
    gens = tuple(decode_matrix(g) for g in obj.get("generators", []))
    model = sea.SingleConstituentModel(H=h, generators=gens,
                                       tau=float(obj["tau"]), units=units)
    return sea.validate_model(model)


def decode_composite_model(obj, units: UnitSystem) -> cp.CompositeModel:
    if "constituents" not in obj or "H" not in obj:
        raise ConfigError("composite system needs 'constituents' and 'H'")
    constituents = []
    for i, c in enumerate(obj["constituents"]):
        if "dim" not in c:
            raise ConfigError(f"constituent {i} needs 'dim'")
        if "tau" not in c:
            raise ConfigError(f"constituent {i} needs 'tau'")
        gens = tuple(decode_matrix(g) for g in c.get("generators", []))
        constituents.append(cp.Constituent(dim=int(c["dim"]), generators=gens,
                                           tau=float(c["tau"])))
    model = cp.CompositeModel(constituents=tuple(constituents),
                              H=decode_matrix(obj["H"]), units=units)
    return cp.validate_model(model)


def decode_state(obj, model=None, seed_override: int | None = None) -> st.StateOperator:
    if not isinstance(obj, dict):
        raise ConfigError("initial state must be an object")
    if "matrix" in obj:
        return st.validate(decode_matrix(obj))
    if "pure" in obj:
        return st.pure_state(decode_vector(obj))
    if "gibbs" in obj:
        spec = obj["gibbs"]
        if model is None:
            raise ConfigError("gibbs initial state needs a system block")
        multipliers = spec.get("multipliers")
        if multipliers is None:
            raise ConfigError("gibbs initial state needs 'multipliers'")
        ops = [model.H]
        gens = getattr(model, "generators", ())
        ops.extend(gens)
        if len(multipliers) != len(ops):
            raise ConfigError(
                f"gibbs needs {len(ops)} multipliers (H plus generators), "
                f"got {len(multipliers)}")
        constants = eq.constant_set(ops, units=model.units)
        m = eq.MultiplierVector(beta=float(multipliers[0]),
                                gammas=tuple(float(v) for v in multipliers[1:]))
        return eq.gibbs_state(constants, m)
    if "random" in obj:
        spec = obj["random"]
        dim = spec.get("dim")
        if dim is None:
            if model is None:
                raise ConfigError("random initial state needs 'dim' or a system block")
            dim = model.H.shape[0]
        seed = seed_override if seed_override is not None else spec.get("seed")
        if seed is None:
            raise ConfigError("random initial state needs 'seed'")
        return st.random_full_rank(int(dim), seed=int(seed),
                                   min_eig=float(spec.get("min_eig", 1e-4)))
    if "mix" in obj:
        spec = obj["mix"]
        for name in ("state", "epsilon"):
            if not isinstance(spec, dict) or name not in spec:
                raise ConfigError(f"mix initial state needs '{name}'")
        inner = decode_state(spec["state"], model=model, seed_override=seed_override)
        return st.mix_with_identity(inner, float(spec["epsilon"]))
    raise ConfigError("initial state needs one of: matrix, pure, gibbs, random, mix")


def decode_lindblad(obj, units: UnitSystem) -> lb.LindbladModel:
    if "B" not in obj:
        raise ConfigError("lindblad block needs 'B'")
    return lb.lindblad_model(decode_matrix(obj["B"]),
                             jump_ops=tuple(decode_matrix(a)
                                            for a in obj.get("jumps", [])),
                             units=units)


def decode_pauli(obj, units: UnitSystem) -> lb.PauliRates:
    if "w" not in obj or "energies" not in obj:
        raise ConfigError("pauli block needs 'w' and 'energies'")
    return lb.pauli_rates(np.asarray(obj["w"], dtype=float),
                          np.asarray(obj["energies"], dtype=float), units=units)


def decode_measure(obj, model=None,
                   seed_override: int | None = None) -> en.StatisticalWeightMeasure:
    if "support" not in obj:
        raise ConfigError("measure needs 'support'")
    pairs = []
    for i, point in enumerate(obj["support"]):
        if "w" not in point or "state" not in point:
            raise ConfigError(f"support point {i} needs 'w' and 'state'")
        pairs.append((float(point["w"]),
                      decode_state(point["state"], model=model,
                                   seed_override=seed_override)))
    return en.measure(pairs)


def encode_measure(mu: en.StatisticalWeightMeasure) -> dict:
    return {"support": [{"w": float(w), "state": encode_state(s)}
                        for w, s in mu.support]}
