"""Scenario-driven command line: parse a JSON config, dispatch to the
dynamics/equilibrium/ensemble machinery, and emit data files plus
machine-readable reports.

Subcommands: simulate, equilibrium, compare, validate, ensemble.  Every
config is first checked against ``serialize.CONFIG_SCHEMA``, which
``--print-schema`` prints, and then decoded by a walk of the same schema
(``serialize.decode_config``).  ``load_scenario`` then builds the units,
the system, every dynamics block and the integrator before any integration
or output, so a config error leaves no partial output.

Exit codes: 0 success; 2 no subcommand, a usage error, or a config that
is not valid JSON or not a JSON object; 3 every ConfigError (a missing
config file; a field the schema rejects, named by its dotted path; a
failed semantic check) and every other validation error; 4 integration
or multiplier-solve failure; 5 infeasible target.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path
from typing import NamedTuple

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
    return sz.decode_config(config)


class Scenario(NamedTuple):
    """A decoded scenario: every block a subcommand may use, checked."""

    kind: str            # "single" or "composite"
    model: object
    dynamics: dict       # block name -> build_dynamics' (rhs, observables, eq_norm)
    integrator: ig.IntegratorConfig
    seed: int | None


def load_scenario(config: dict, seed: int | None) -> Scenario:
    """Build the units, the system, every dynamics block and the integrator
    from a decoded config, in that order, so that a config error exits
    before any work or output."""
    units = sz.decode_units(config.get("units", {}))
    if "system" not in config:
        raise ConfigError("scenario needs a 'system' object")
    (kind, spec), = config["system"].items()
    decode = sz.decode_single_model if kind == "single" else sz.decode_composite_model
    model = decode(spec, units)
    dynamics = {name: build_dynamics(kind, model, name, block, units)
                for name, block in config.get("dynamics", {}).items()}
    return Scenario(kind, model, dynamics, build_integrator(config), seed)


def build_initial(config: dict, scenario: Scenario) -> st.StateOperator:
    with sz.field_path("initial"):
        rho0 = sz.decode_state(config.get("initial", {}), model=scenario.model,
                               seed_override=scenario.seed)
    preflight(scenario, rho0)
    return rho0


def preflight(scenario: Scenario, rho: st.StateOperator) -> None:
    """Hold the state or stack a subcommand integrates on a composite system
    to the documented domain: ``composite_rhs`` on a StateOperator is strict."""
    if scenario.kind == "composite":
        cp.composite_rhs(rho, scenario.model)


def build_integrator(config: dict) -> ig.IntegratorConfig:
    try:
        return ig.IntegratorConfig(**config.get("integrator", {}))
    except ValueError as exc:
        raise ConfigError(f"integrator: {exc}") from exc


def build_dynamics(kind: str, model, name: str, block: dict, units):
    """Return (rhs, observables, eq_norm) for one dynamics block.  The rhs,
    g_rate and eq_norm (one value per member) take a (..., d, d) stack.  A
    linear block's g_rate is -k Tr(rhs ln rho), nan on singular states."""
    k_B = units.k_B
    if name == "sea":
        if kind == "single":
            def rhs(m):
                return sea.sea_rhs(m, model)

            def g_rate(m):
                return sea.entropy_production_rate(m, model)

            def diss_norm(m):
                d = sea.dissipator_anticommutator(m, model)
                return model.tau / units.hbar**2 * np.linalg.norm(d, axis=(-2, -1))

            gen_ops = model.generators
        else:
            def rhs(m):
                return cp.composite_rhs(m, model)

            def g_rate(m):
                return cp.composite_entropy_production(m, model)[0]

            def diss_norm(m):
                return np.linalg.norm(cp.dissipative_term(m, model), axis=(-2, -1))

            gen_ops = tuple(model.lifted_generator(j, x)
                            for j, c in enumerate(model.constituents)
                            for x in c.generators)
        eq_norm = diss_norm if block.get("equilibrium_detection") == "dissipative" else None
        obs = ig.Observables(energy_op=model.H, generator_ops=gen_ops,
                             g_rate=g_rate, k_B=k_B)
        return rhs, obs, eq_norm
    if kind != "single":
        raise ConfigError(f"dynamics '{name}' requires a single system")
    energy_op, gen_ops = model.H, model.generators
    if name == "lindblad":
        lmodel = sz.decode_lindblad(block, units)
        dim = lmodel.dim
        rhs = partial(lb.kl_rhs, model=lmodel)
    elif name == "pauli":
        rates = sz.decode_pauli(block, units)
        dim, energy_op = rates.dim, np.diag(rates.energies).astype(complex)
        rhs = partial(lb.pauli_rhs, rates=rates)
    else:   # double_commutator, the one block the schema admits beyond these
        f = block["F"]
        dim, gen_ops = len(f), (f,)
    if dim != len(model.H):
        raise ConfigError(f"{name} operators do not match the system dimension")
    if name == "double_commutator":   # validates [F, H] = 0 once, after the dim check
        rhs = lb.double_commutator(f, block["tau"], model.H, units=units)

    def g_rate(m):
        rho = st.as_state(m)
        rate = -k_B * np.trace(rhs(m) @ st.log_operator(rho), axis1=-2, axis2=-1).real
        return np.where(rho.spectral.eigenvalues[..., -1] < st.LOG_FLOOR, np.nan, rate)[()]

    obs = ig.Observables(energy_op=energy_op, generator_ops=gen_ops, g_rate=g_rate, k_B=k_B)
    return rhs, obs, None


def write_result(config: dict, out_dir: Path, result: dict) -> int:
    """Print a result and write it to ``outputs.result_json`` if named."""
    text = json.dumps(result, indent=2) + "\n"
    name = config.get("outputs", {}).get("result_json")
    if name:
        (out_dir / name).write_text(text)
    print(text, end="")
    return EXIT_OK


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
        "stats": traj.stats,
        "wall_time_s": wall,
    }


def cmd_simulate(config: dict, out_dir: Path, seed: int | None) -> int:
    scenario = load_scenario(config, seed)
    if len(scenario.dynamics) != 1:
        raise ConfigError("simulate needs exactly one dynamics block")
    (rhs, obs, eq_norm), = scenario.dynamics.values()
    rho0 = build_initial(config, scenario)
    outputs = config.get("outputs", {})
    start = time.perf_counter()
    traj = ig.integrate(rho0, rhs, scenario.integrator, observables=obs, eq_norm=eq_norm)
    wall = time.perf_counter() - start
    csv_path = out_dir / outputs.get("trajectory_csv", "trajectory.csv")
    csv_path.write_text(traj.to_csv())
    if outputs.get("states_jsonl"):
        with open(out_dir / outputs["states_jsonl"], "w") as fh:
            for s in traj.samples:
                fh.write(json.dumps({"t": s.t, "state": sz.encode_matrix(s.rho)}) + "\n")
    summary_path = out_dir / outputs.get("summary_json", "summary.json")
    summary_path.write_text(json.dumps(summarize(traj, wall), indent=2) + "\n")
    print(f"wrote {csv_path} ({len(traj.samples)} samples, "
          f"termination: {traj.termination})")
    return EXIT_OK


def cmd_equilibrium(config: dict, out_dir: Path, seed: int | None) -> int:
    units = sz.decode_units(config.get("units", {}))
    if not config.get("constants"):
        raise ConfigError("equilibrium config needs 'constants'")
    if "targets" in config and "multipliers" in config:
        raise ConfigError("equilibrium takes 'targets' or 'multipliers', not both")
    constants = eq.constant_set(config["constants"], units=units)
    if "multipliers" in config:
        values = config["multipliers"]
        if len(values) != len(constants):
            raise ConfigError(f"expected {len(constants)} (one per constant), "
                              f"got {len(values)}", "multipliers")
        m = eq.MultiplierVector.from_array(values)
    elif "targets" in config:
        m = eq.solve_multipliers(constants, config["targets"])
    else:
        raise ConfigError("equilibrium config needs 'targets' or 'multipliers'")
    rho = eq.gibbs_state(constants, m)
    return write_result(config, out_dir, {
        "multipliers": list(m.as_array()),
        "log_z": eq.log_partition_function(constants, m),
        "entropy": st.entropy(rho, k=units.k_B),
        "means": [st.mean(c, rho) for c in constants.operators],
        "identity_residual": eq.gibbs_identity_residual(constants, m),
        "state": sz.encode_state(rho),
    })


def _divergence_probe(model, linear_g) -> dict:
    occupations = [1e-4, 1e-6, 1e-8]
    probes = lb.divergence_probes(model.dim, occupations)
    linear_rates = [float(linear_g(rho.matrix)) for rho in probes]
    _, slope, residual = lb.log_divergence_fit(occupations, linear_rates)
    return {
        "p_min": occupations,
        "linear_rates": linear_rates,
        "sea_rates": [sea.entropy_production_rate(rho, model) for rho in probes],
        "linear_log_slope": slope,
        "linear_log_fit_residual": residual,
    }


def cmd_compare(config: dict, out_dir: Path, seed: int | None) -> int:
    scenario = load_scenario(config, seed)
    dyn = scenario.dynamics
    if "sea" not in dyn or len(dyn) != 2:
        raise ConfigError("compare needs a 'sea' block plus one linear dynamics block")
    rho0 = build_initial(config, scenario)
    int_config = scenario.integrator
    if int_config.sample_dt is None and int_config.method != "rk4":
        # pointwise diffs need shared sample times; rk45 interpolates them
        # and keeps its own steps (the report records the settings that ran)
        int_config = replace(int_config, sample_dt=int_config.t_max / 256.0)
    trajectories = {name: ig.integrate(rho0, rhs, int_config, observables=obs,
                                       eq_norm=eq_norm)
                    for name, (rhs, obs, eq_norm) in dyn.items()}
    for name, traj in trajectories.items():
        (out_dir / f"{name}_trajectory.csv").write_text(traj.to_csv())
    (linear_name,) = [n for n in dyn if n != "sea"]
    t_sea = trajectories["sea"]
    t_lin = trajectories[linear_name]
    distances = [float(np.linalg.norm(a.rho - b.rho, ord="fro"))
                 for a, b in zip(t_sea.samples, t_lin.samples)]
    linear_g = dyn[linear_name][1].g_rate
    def finite_max(values):
        finite = values[np.isfinite(values)]
        return float(finite.max()) if finite.size else None

    report = {
        "linear_dynamics": linear_name,
        "max_state_distance": max(distances),
        "final_state_distance": distances[-1],
        "sea_entropy_production_max": finite_max(t_sea.column("g_rate")),
        "linear_entropy_production_max": finite_max(t_lin.column("g_rate")),
        "singular_divergence": _divergence_probe(scenario.model, linear_g),
        "integrator": asdict(int_config),
        "stats": {name: traj.stats for name, traj in trajectories.items()},
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
    scenario = load_scenario(config, seed)
    kind, model, dyn = scenario.kind, scenario.model, scenario.dynamics
    if len(dyn) != 1 and "sea" not in dyn:
        raise ConfigError("validate needs one dynamics block (or a 'sea' block)")
    name = "sea" if "sea" in dyn else next(iter(dyn))
    rhs, obs, _ = dyn[name]
    rho0 = build_initial(config, scenario)
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
        probes = np.stack([st.random_full_rank(rho0.dim, seed=s).matrix for s in range(100)])
        g_probes = obs.g_rate(probes)
        worst_g = max(0.0, -float(np.min(g_probes)), -float(obs.g_rate(rho0.matrix)))
        checks.append(_check("entropy_production_nonnegative", 1e-12, worst_g))
        if kind == "single":
            report = sea.is_equilibrium(rho0, model)
            if report.is_equilibrium:
                checks.append(_check("fixed_point_rhs_norm", 1e-9,
                                     float(np.linalg.norm(rhs0, ord="fro"))))
    s0 = st.entropy(rho0, k=model.units.k_B)
    bound = model.units.k_B * np.log(rho0.dim)
    checks.append(_check("entropy_lower_bound", 1e-12, max(0.0, -s0)))
    checks.append(_check("entropy_upper_bound", 1e-12, max(0.0, s0 - bound)))
    traj = ig.integrate(rho0, rhs, scenario.integrator, observables=obs)
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
    report = {"checks": checks, "all_passed": all_passed, "stats": traj.stats}
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
    scenario = load_scenario(config, seed)
    model = scenario.model
    if "maxent" in config and "measure" in config:
        raise ConfigError("ensemble takes 'maxent' or 'measure', not both")
    if "maxent" in config:
        spec = config["maxent"]
        states = []
        for i, s in enumerate(spec["states"]):
            with sz.field_path(f"maxent.states[{i}]"):
                states.append(sz.decode_state(s, model=model, seed_override=seed))
        mu = en.maxent_known_spectrum(states, spec["target_energy"], model.H)
        return write_result(config, out_dir, {
            "weights": [float(w) for w in mu.weights],
            "statistical_uncertainty": en.statistical_uncertainty(mu, c=model.units.c_stat),
            "expected_entropy": en.expected_entropy(mu, k=model.units.k_B),
            "expected_energy": en.mean_observable(mu, model.H),
            "measure": sz.encode_measure(mu),
        })
    if "measure" not in config:
        raise ConfigError("ensemble config needs 'measure' or 'maxent'")
    with sz.field_path("measure"):
        mu = sz.decode_measure(config["measure"], model=model, seed_override=seed)
    if len(scenario.dynamics) != 1:
        raise ConfigError("ensemble needs exactly one dynamics block")
    (rhs, obs, eq_norm), = scenario.dynamics.values()
    preflight(scenario, st.StateOperator(np.stack([s.matrix for s in mu.states])))
    outputs = config.get("outputs", {})
    # the support states advance as one stack on the user's settings; the
    # series needs no entropy production rate
    traj = en.integrate_support(mu, rhs, scenario.integrator, replace(obs, g_rate=None),
                                eq_norm)
    weights = mu.weights
    i_mu = en.statistical_uncertainty(mu, c=model.units.c_stat)
    lines = ["t,statistical_uncertainty,expected_entropy,expected_energy"]
    for s in traj.samples:
        lines.append(",".join(repr(float(v)) for v in (
            s.t, i_mu, weights @ s.entropy, weights @ s.energy)))
    series_path = out_dir / outputs.get("series_csv", "ensemble_series.csv")
    series_path.write_text("\n".join(lines) + "\n")
    evolved = en.measure(zip(weights, traj.final.rho))
    measure_path = out_dir / outputs.get("measure_json", "measure_evolved.json")
    measure_path.write_text(json.dumps(sz.encode_measure(evolved), indent=2) + "\n")
    summary = {
        "statistical_uncertainty": i_mu,
        "expected_entropy_initial": en.expected_entropy(mu, k=model.units.k_B),
        "expected_entropy_final": en.expected_entropy(evolved, k=model.units.k_B),
        "expected_energy_initial": en.mean_observable(mu, obs.energy_op),
        "expected_energy_final": en.mean_observable(evolved, obs.energy_op),
        "support_size": len(evolved),
        "termination": traj.termination,
        "integrator": asdict(scenario.integrator),
        "stats": traj.stats,
    }
    summary_path = out_dir / outputs.get("summary_json", "ensemble_summary.json")
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {series_path}, {measure_path}, {summary_path}")
    return EXIT_OK


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
        print(json.dumps(sz.CONFIG_SCHEMA, indent=2))
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
