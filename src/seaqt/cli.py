"""Scenario-driven command line: parse a JSON config, dispatch to the
dynamics/equilibrium/ensemble machinery, and emit data files plus
machine-readable reports.

Subcommands: simulate, equilibrium, compare, validate, ensemble.
Exit codes: 0 success, 2 config parse error, 3 validation error,
4 integration failure, 5 infeasible target.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import composite as cp
from . import ensemble as en
from . import equilibrium as eq
from . import integrate as ig
from . import lindblad as lb
from . import sea
from . import serialize as sz
from . import states as st
from .errors import (ConfigError, NoConvergenceError, SeaqtError,
                     StateInvalidError, StepUnderflowError,
                     TargetInfeasibleError)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_INTEGRATION = 4
EXIT_INFEASIBLE = 5


def _fail(kind: str, message: str) -> None:
    print(f"ERROR {kind}: {message}", file=sys.stderr)


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"config is not valid JSON: {exc.msg}",
                                   exc.doc, exc.pos) from exc
    if not isinstance(config, dict):
        raise json.JSONDecodeError("config top level must be an object", "", 0)
    return config


def build_system(config: dict, units):
    system = config.get("system")
    if not isinstance(system, dict):
        raise ConfigError("scenario needs a 'system' object")
    if "single" in system:
        return "single", sz.decode_single_model(system["single"], units)
    if "composite" in system:
        return "composite", sz.decode_composite_model(system["composite"], units)
    raise ConfigError("system needs 'single' or 'composite'")


def build_integrator(config: dict) -> ig.IntegratorConfig:
    spec = config.get("integrator", {})
    if not isinstance(spec, dict):
        raise ConfigError("'integrator' must be an object")
    unknown = set(spec) - set(INTEGRATOR_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown integrator fields: {sorted(unknown)}")
    try:
        return ig.IntegratorConfig(**spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"integrator: {exc}") from exc


def build_dynamics(kind: str, model, name: str, block: dict, units):
    """Return (rhs, observables, eq_norm) for one dynamics block."""
    k_B = units.k_B
    if name == "sea":
        if kind == "single":
            def rhs(m):
                return sea.sea_rhs(m, model)

            def g_rate(m):
                return sea.entropy_production_rate(m, model)

            def diss_norm(m):
                d = sea.dissipator_anticommutator(m, model)
                return model.tau / units.hbar**2 * float(np.linalg.norm(d, ord="fro"))

            gen_ops = model.generators
        else:
            def rhs(m):
                return cp.composite_rhs(m, model)

            def g_rate(m):
                return cp.composite_entropy_production(m, model)[0]

            def diss_norm(m):
                return float(np.linalg.norm(cp.dissipative_term(m, model), ord="fro"))

            gen_ops = tuple(model.lifted_generator(j, x)
                            for j, c in enumerate(model.constituents)
                            for x in c.generators)
        eq_norm = diss_norm if block.get("equilibrium_detection") == "dissipative" else None
        obs = ig.Observables(energy_op=model.H, generator_ops=gen_ops,
                             g_rate=g_rate, k_B=k_B)
        return rhs, obs, eq_norm
    if kind != "single":
        raise ConfigError(f"dynamics '{name}' requires a single system")
    h = model.H
    if name == "lindblad":
        lmodel = sz.decode_lindblad(block, units)
        if lmodel.dim != h.shape[0]:
            raise ConfigError("lindblad operators do not match the system dimension")

        def rhs(m):
            return lb.kl_rhs(m, lmodel)

        def g_rate(m):
            try:
                return lb.kl_entropy_production(m, lmodel)
            except SeaqtError:
                return float("nan")

        obs = ig.Observables(energy_op=h, generator_ops=model.generators,
                             g_rate=g_rate, k_B=k_B)
        return rhs, obs, None
    if name == "pauli":
        rates = sz.decode_pauli(block, units)
        if rates.dim != h.shape[0]:
            raise ConfigError("pauli rates do not match the system dimension")
        lmodel = lb.as_lindblad(rates)

        def rhs(m):
            return lb.pauli_rhs(m, rates)

        def g_rate(m):
            try:
                return lb.kl_entropy_production(m, lmodel)
            except SeaqtError:
                return float("nan")

        obs = ig.Observables(energy_op=np.diag(rates.energies).astype(complex),
                             generator_ops=model.generators, g_rate=g_rate, k_B=k_B)
        return rhs, obs, None
    if name == "double_commutator":
        if "F" not in block or "tau" not in block:
            raise ConfigError("double_commutator block needs 'F' and 'tau'")
        f = sz.decode_matrix(block["F"])
        tau = float(block["tau"])

        def rhs(m):
            return lb.double_commutator_rhs(m, f, tau, h, units=units)

        def g_rate(m):
            rho = st.as_state(m)
            if rho.spectral.eigenvalues[-1] < st.LOG_FLOOR:
                return float("nan")
            return -k_B * float(np.trace(rhs(m) @ st.log_operator(rho)).real)

        obs = ig.Observables(energy_op=h, generator_ops=(f,), g_rate=g_rate, k_B=k_B)
        return rhs, obs, None
    raise ConfigError(f"unknown dynamics '{name}'")


DYNAMICS_NAMES = ("sea", "lindblad", "pauli", "double_commutator")


def parse_dynamics_block(config: dict) -> dict:
    dyn = config.get("dynamics")
    if not isinstance(dyn, dict) or not dyn:
        raise ConfigError("scenario needs a 'dynamics' object")
    unknown = set(dyn) - set(DYNAMICS_NAMES)
    if unknown:
        raise ConfigError(f"unknown dynamics blocks: {sorted(unknown)}")
    return dyn


def write_states_jsonl(path: Path, traj: ig.Trajectory) -> None:
    with open(path, "w") as fh:
        for s in traj.samples:
            fh.write(json.dumps({"t": s.t, "state": sz.encode_matrix(s.rho)}) + "\n")


def summarize(traj: ig.Trajectory, wall: float) -> dict:
    final = traj.final
    return {
        "termination": traj.termination,
        "final_time": final.t,
        "final_entropy": final.entropy,
        "final_energy": final.energy,
        "final_purity": final.purity,
        "final_min_eigenvalue": final.min_eig,
        "samples": len(traj.samples),
        "wall_time_s": wall,
    }


def cmd_simulate(config: dict, out_dir: Path, seed: int | None) -> int:
    units = sz.decode_units(config.get("units"))
    kind, model = build_system(config, units)
    dyn = parse_dynamics_block(config)
    if len(dyn) != 1:
        raise ConfigError("simulate needs exactly one dynamics block")
    (name, block), = dyn.items()
    rhs, obs, eq_norm = build_dynamics(kind, model, name, block or {}, units)
    rho0 = sz.decode_state(config.get("initial", {}), model=model, seed_override=seed)
    if kind == "composite":
        cp.composite_rhs(rho0, model)  # pre-flight: strict domain check
    int_config = build_integrator(config)
    outputs = config.get("outputs", {})
    start = time.perf_counter()
    traj = ig.integrate(rho0, rhs, int_config, observables=obs, eq_norm=eq_norm)
    wall = time.perf_counter() - start
    csv_path = out_dir / outputs.get("trajectory_csv", "trajectory.csv")
    csv_path.write_text(traj.to_csv())
    if outputs.get("states_jsonl"):
        write_states_jsonl(out_dir / outputs["states_jsonl"], traj)
    summary_path = out_dir / outputs.get("summary_json", "summary.json")
    summary_path.write_text(json.dumps(summarize(traj, wall), indent=2) + "\n")
    print(f"wrote {csv_path} ({len(traj.samples)} samples, "
          f"termination: {traj.termination})")
    return EXIT_OK


def cmd_equilibrium(config: dict, out_dir: Path, seed: int | None) -> int:
    units = sz.decode_units(config.get("units"))
    raw_constants = config.get("constants")
    if not raw_constants:
        raise ConfigError("equilibrium config needs 'constants'")
    constants = eq.constant_set([sz.decode_matrix(c) for c in raw_constants],
                                units=units)
    if "multipliers" in config:
        values = [float(v) for v in config["multipliers"]]
        if len(values) != len(constants):
            raise ConfigError(f"expected {len(constants)} multipliers")
        m = eq.MultiplierVector(beta=values[0], gammas=tuple(values[1:]))
    elif "targets" in config:
        m = eq.solve_multipliers(constants, [float(v) for v in config["targets"]])
    else:
        raise ConfigError("equilibrium config needs 'targets' or 'multipliers'")
    rho = eq.gibbs_state(constants, m)
    result = {
        "multipliers": list(m.as_array()),
        "log_z": eq.log_partition_function(constants, m),
        "entropy": st.entropy(rho, k=units.k_B),
        "means": [st.mean(c, rho) for c in constants.operators],
        "identity_residual": eq.gibbs_identity_residual(constants, m),
        "state": sz.encode_state(rho),
    }
    text = json.dumps(result, indent=2) + "\n"
    outputs = config.get("outputs", {})
    if outputs.get("result_json"):
        (out_dir / outputs["result_json"]).write_text(text)
    print(text, end="")
    return EXIT_OK


def _divergence_probe(kind: str, model, linear_g, units) -> dict | None:
    if kind != "single":
        return None
    dim = model.H.shape[0]
    occupations = [1e-4, 1e-6, 1e-8]
    linear_rates = []
    sea_rates = []
    for p_min in occupations:
        diag = np.full(dim, p_min / max(dim - 1, 1))
        diag[-1] = 1.0 - p_min
        rho = st.StateOperator(np.diag(diag).astype(complex))
        linear_rates.append(float(linear_g(rho.matrix)))
        sea_rates.append(sea.entropy_production_rate(rho, model))
    _, slope, residual = lb.log_divergence_fit(occupations, linear_rates)
    return {
        "p_min": occupations,
        "linear_rates": linear_rates,
        "sea_rates": sea_rates,
        "linear_log_slope": slope,
        "linear_log_fit_residual": residual,
    }


def cmd_compare(config: dict, out_dir: Path, seed: int | None) -> int:
    units = sz.decode_units(config.get("units"))
    kind, model = build_system(config, units)
    dyn = parse_dynamics_block(config)
    if "sea" not in dyn or len(dyn) != 2:
        raise ConfigError("compare needs a 'sea' block plus one linear dynamics block")
    rho0 = sz.decode_state(config.get("initial", {}), model=model, seed_override=seed)
    int_config = build_integrator(config)
    if int_config.sample_dt is None and int_config.method != "rk4":
        # pointwise diffs need a shared time grid; pin the sample boundaries
        int_config = replace(int_config, sample_dt=int_config.t_max / 256.0)
    trajectories = {}
    observables = {}
    for name in dyn:
        rhs, obs, eq_norm = build_dynamics(kind, model, name, dyn[name] or {}, units)
        traj = ig.integrate(rho0, rhs, int_config, observables=obs, eq_norm=eq_norm)
        trajectories[name] = traj
        observables[name] = obs
        csv_path = out_dir / f"{name}_trajectory.csv"
        csv_path.write_text(traj.to_csv())
    (linear_name,) = [n for n in dyn if n != "sea"]
    t_sea = trajectories["sea"]
    t_lin = trajectories[linear_name]
    n = min(len(t_sea.samples), len(t_lin.samples))
    distances = [float(np.linalg.norm(t_sea.samples[i].rho - t_lin.samples[i].rho,
                                      ord="fro")) for i in range(n)]
    linear_g = observables[linear_name].g_rate
    def finite_max(values):
        finite = values[np.isfinite(values)]
        return float(finite.max()) if finite.size else None

    report = {
        "linear_dynamics": linear_name,
        "max_state_distance": max(distances),
        "final_state_distance": distances[-1],
        "sea_entropy_production_max": finite_max(t_sea.column("g_rate")),
        "linear_entropy_production_max": finite_max(t_lin.column("g_rate")),
        "singular_divergence": _divergence_probe(kind, model, linear_g, units),
    }
    report_path = out_dir / "compare_report.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {report_path} (max state distance "
          f"{report['max_state_distance']:.3e})")
    return EXIT_OK


def _check(name: str, tolerance: float, measured: float) -> dict:
    return {"check": name, "tolerance": tolerance, "measured": measured,
            "passed": bool(measured <= tolerance)}


def cmd_validate(config: dict, out_dir: Path, seed: int | None) -> int:
    units = sz.decode_units(config.get("units"))
    kind, model = build_system(config, units)
    dyn = parse_dynamics_block(config)
    if len(dyn) == 1:
        (name, block), = dyn.items()
    elif "sea" in dyn:
        name, block = "sea", dyn["sea"]
    else:
        raise ConfigError("validate needs one dynamics block (or a 'sea' block)")
    rhs, obs, _ = build_dynamics(kind, model, name, block or {}, units)
    rho0 = sz.decode_state(config.get("initial", {}), model=model, seed_override=seed)
    checks = []
    rhs0 = rhs(rho0.matrix)
    h = obs.energy_op
    checks.append(_check("trace_conservation", 1e-10, float(abs(np.trace(rhs0)))))
    checks.append(_check("energy_conservation", 1e-8 * max(1.0, float(np.linalg.norm(h))),
                         abs(float(np.trace(h @ rhs0).real))))
    for i, x in enumerate(obs.generator_ops):
        checks.append(_check(f"generator_{i}_conservation", 1e-8,
                             abs(float(np.trace(x @ rhs0).real))))
    if name == "sea":
        dim = rho0.dim
        worst_g = 0.0
        g_fn = obs.g_rate
        for probe_seed in range(100):
            probe = st.random_full_rank(dim, seed=probe_seed)
            worst_g = max(worst_g, -float(g_fn(probe.matrix)))
        worst_g = max(worst_g, -float(g_fn(rho0.matrix)))
        checks.append(_check("entropy_production_nonnegative", 1e-12,
                             max(0.0, worst_g)))
        if kind == "single":
            report = sea.is_equilibrium(rho0, model)
            if report.is_equilibrium:
                checks.append(_check("fixed_point_rhs_norm", 1e-9,
                                     float(np.linalg.norm(rhs0, ord="fro"))))
    s0 = st.entropy(rho0, k=units.k_B)
    bound = units.k_B * np.log(rho0.dim)
    checks.append(_check("entropy_lower_bound", 1e-12, max(0.0, -s0)))
    checks.append(_check("entropy_upper_bound", 1e-12, max(0.0, s0 - bound)))
    int_config = build_integrator(config)
    traj = ig.integrate(rho0, rhs, int_config, observables=obs)
    entropy_drop = float(np.max(np.maximum(-np.diff(traj.column("entropy")), 0.0),
                                initial=0.0))
    if name == "sea":
        checks.append(_check("entropy_monotone_along_trajectory", 1e-10, entropy_drop))
    e = traj.column("energy")
    checks.append(_check("energy_drift_along_trajectory", 1e-7,
                         float(np.abs(e - e[0]).max())))
    checks.append(_check("trace_error_along_trajectory", 1e-9,
                         float(np.abs(traj.column("trace_err")).max())))
    checks.append(_check("min_eigenvalue_along_trajectory", 1e-10,
                         max(0.0, -float(traj.column("min_eig").min()))))
    all_passed = all(c["passed"] for c in checks)
    report = {"checks": checks, "all_passed": all_passed}
    outputs = config.get("outputs", {})
    report_path = out_dir / outputs.get("report_json", "validate_report.json")
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    for c in checks:
        status = "pass" if c["passed"] else "FAIL"
        print(f"{status}  {c['check']}: measured {c['measured']:.3e} "
              f"(tolerance {c['tolerance']:.3e})")
    if not all_passed:
        _fail("ValidationFailed", "one or more invariant checks failed")
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_ensemble(config: dict, out_dir: Path, seed: int | None) -> int:
    units = sz.decode_units(config.get("units"))
    kind, model = build_system(config, units)
    outputs = config.get("outputs", {})
    if "maxent" in config:
        spec = config["maxent"]
        if "states" not in spec or "target_energy" not in spec:
            raise ConfigError("maxent block needs 'states' and 'target_energy'")
        states = [sz.decode_state(s, model=model, seed_override=seed)
                  for s in spec["states"]]
        mu = en.maxent_known_spectrum(states, float(spec["target_energy"]), model.H)
        result = {
            "weights": [float(w) for w in mu.weights],
            "statistical_uncertainty": en.statistical_uncertainty(mu, c=units.c_stat),
            "expected_entropy": en.expected_entropy(mu, k=units.k_B),
            "expected_energy": en.mean_observable(mu, model.H),
            "measure": sz.encode_measure(mu),
        }
        text = json.dumps(result, indent=2) + "\n"
        if outputs.get("result_json"):
            (out_dir / outputs["result_json"]).write_text(text)
        print(text, end="")
        return EXIT_OK
    if "measure" not in config:
        raise ConfigError("ensemble config needs 'measure' or 'maxent'")
    mu = sz.decode_measure(config["measure"], model=model, seed_override=seed)
    dyn = parse_dynamics_block(config)
    (name, block), = dyn.items()
    rhs, obs, _ = build_dynamics(kind, model, name, block or {}, units)
    int_config = build_integrator(config)
    if int_config.method != "rk4":
        dt = min(int_config.dt_init, int_config.dt_max)
        int_config = replace(int_config, method="rk4", dt_init=dt, dt_min=dt,
                             dt_max=dt, equilibrium_norm_tol=0.0)
    trajectories = [ig.integrate(s, rhs, int_config, observables=obs)
                    for _, s in mu.support]
    n = min(len(t.samples) for t in trajectories)
    weights = mu.weights
    lines = ["t,statistical_uncertainty,expected_entropy,expected_energy"]
    i_mu = en.statistical_uncertainty(mu, c=units.c_stat)
    for i in range(n):
        t = trajectories[0].samples[i].t
        s_mean = float(sum(w * traj.samples[i].entropy
                           for w, traj in zip(weights, trajectories)))
        e_mean = float(sum(w * traj.samples[i].energy
                           for w, traj in zip(weights, trajectories)))
        lines.append(",".join(repr(float(v)) for v in (t, i_mu, s_mean, e_mean)))
    series_path = out_dir / outputs.get("series_csv", "ensemble_series.csv")
    series_path.write_text("\n".join(lines) + "\n")
    evolved = en.measure([(w, st.validate(traj.final.rho))
                          for w, traj in zip(weights, trajectories)])
    measure_path = out_dir / outputs.get("measure_json", "measure_evolved.json")
    measure_path.write_text(json.dumps(sz.encode_measure(evolved), indent=2) + "\n")
    summary = {
        "statistical_uncertainty": i_mu,
        "expected_entropy_initial": en.expected_entropy(mu, k=units.k_B),
        "expected_entropy_final": en.expected_entropy(evolved, k=units.k_B),
        "expected_energy_initial": en.mean_observable(mu, obs.energy_op),
        "expected_energy_final": en.mean_observable(evolved, obs.energy_op),
        "support_size": len(evolved),
    }
    summary_path = out_dir / outputs.get("summary_json", "ensemble_summary.json")
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {series_path}, {measure_path}, {summary_path}")
    return EXIT_OK


def print_schema() -> None:
    print(json.dumps(CONFIG_SCHEMA, indent=2))


MATRIX_SCHEMA = {
    "type": "object",
    "description": "complex matrix, row-major [re, im] pairs",
    "properties": {
        "dim": {"type": "integer", "minimum": 1},
        "matrix": {"type": "array",
                   "items": {"type": "array", "items": {"type": "number"},
                             "minItems": 2, "maxItems": 2}},
    },
    "required": ["dim", "matrix"],
}

STATE_SCHEMA = {
    "type": "object",
    "description": "one of: {dim, matrix}, {dim, pure}, {gibbs: {multipliers}}, "
                   "{random: {dim?, seed, min_eig?}}, {mix: {state, epsilon}}",
}

# one property per IntegratorConfig field, typed from its annotation
INTEGRATOR_SCHEMA = {
    f.name: {"enum": list(ig.METHODS)} if f.name == "method"
    else {"enum": list(ig.PROJECTION_MODES)} if f.name == "projection"
    else {"type": "integer", "minimum": 1} if f.type == "int"
    else {"type": "number"}
    for f in fields(ig.IntegratorConfig)
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "seaqt scenario configuration",
    "type": "object",
    "properties": {
        "units": {"type": "object",
                  "properties": {"hbar": {"type": "number"},
                                 "k_B": {"type": "number"},
                                 "c_stat": {"type": "number"}}},
        "system": {
            "type": "object",
            "properties": {
                "single": {"type": "object",
                           "properties": {"H": MATRIX_SCHEMA,
                                          "generators": {"type": "array",
                                                         "items": MATRIX_SCHEMA},
                                          "tau": {"type": "number",
                                                  "exclusiveMinimum": 0}},
                           "required": ["H", "tau"]},
                "composite": {"type": "object",
                              "properties": {
                                  "constituents": {"type": "array", "items": {
                                      "type": "object",
                                      "properties": {"dim": {"type": "integer"},
                                                     "generators": {"type": "array",
                                                                    "items": MATRIX_SCHEMA},
                                                     "tau": {"type": "number"}},
                                      "required": ["dim", "tau"]}},
                                  "H": MATRIX_SCHEMA},
                              "required": ["constituents", "H"]},
            },
        },
        "initial": STATE_SCHEMA,
        "dynamics": {
            "type": "object",
            "description": "one block for simulate/validate/ensemble; 'sea' plus "
                           "one linear block for compare",
            "properties": {
                "sea": {"type": "object",
                        "properties": {"equilibrium_detection":
                                       {"enum": ["full", "dissipative"]}}},
                "lindblad": {"type": "object",
                             "properties": {"B": MATRIX_SCHEMA,
                                            "jumps": {"type": "array",
                                                      "items": MATRIX_SCHEMA}},
                             "required": ["B"]},
                "pauli": {"type": "object",
                          "properties": {"w": {"type": "array"},
                                         "energies": {"type": "array"}},
                          "required": ["w", "energies"]},
                "double_commutator": {"type": "object",
                                      "properties": {"F": MATRIX_SCHEMA,
                                                     "tau": {"type": "number"}},
                                      "required": ["F", "tau"]},
            },
        },
        "integrator": {"type": "object", "properties": INTEGRATOR_SCHEMA},
        "outputs": {"type": "object",
                    "properties": {"trajectory_csv": {"type": "string"},
                                   "states_jsonl": {"type": "string"},
                                   "summary_json": {"type": "string"},
                                   "result_json": {"type": "string"},
                                   "report_json": {"type": "string"},
                                   "series_csv": {"type": "string"},
                                   "measure_json": {"type": "string"}}},
        "constants": {"type": "array", "items": MATRIX_SCHEMA,
                      "description": "equilibrium subcommand"},
        "targets": {"type": "array", "items": {"type": "number"}},
        "multipliers": {"type": "array", "items": {"type": "number"}},
        "measure": {"type": "object",
                    "description": "ensemble subcommand: weighted support",
                    "properties": {"support": {"type": "array", "items": {
                        "type": "object",
                        "properties": {"w": {"type": "number"},
                                       "state": STATE_SCHEMA},
                        "required": ["w", "state"]}}}},
        "maxent": {"type": "object",
                   "properties": {"states": {"type": "array",
                                             "items": STATE_SCHEMA},
                                  "target_energy": {"type": "number"}}},
    },
}


COMMANDS = {
    "simulate": cmd_simulate,
    "equilibrium": cmd_equilibrium,
    "compare": cmd_compare,
    "validate": cmd_validate,
    "ensemble": cmd_ensemble,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="seaqt",
        description="Nonlinear entropy-ascent quantum dynamics toolkit")
    parser.add_argument("--print-schema", action="store_true",
                        help="emit the scenario JSON schema and exit")
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's random seed")
        p.add_argument("--print-schema", action="store_true",
                       help="emit the scenario JSON schema and exit")
    args = parser.parse_args(argv)
    if args.print_schema:
        print_schema()
        return EXIT_OK
    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG
    try:
        config = load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](config, out_dir, args.seed)
    except json.JSONDecodeError as exc:
        _fail("ConfigParse", str(exc))
        return EXIT_CONFIG
    except TargetInfeasibleError as exc:
        _fail("TargetInfeasible", str(exc))
        return EXIT_INFEASIBLE
    except (StepUnderflowError, StateInvalidError, NoConvergenceError) as exc:
        _fail(type(exc).__name__.removesuffix("Error"), str(exc))
        return EXIT_INTEGRATION
    except SeaqtError as exc:
        _fail(type(exc).__name__.removesuffix("Error"), str(exc))
        return EXIT_VALIDATION
    except (ValueError, KeyError, TypeError) as exc:
        _fail(type(exc).__name__, str(exc))
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
