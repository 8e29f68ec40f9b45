"""The benchmark's workloads: inputs made from the seed, the timed
operations of one round, and the checks applied to their outputs.

Every workload is built once per process (its set-up) and then runs whole
rounds of the same operations, so the share of failed operations is the
same in every run.  An operation is one trajectory, one ensemble member,
one maximum-entropy solve or one CLI subcommand.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks as ck

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# The pure-state operations and the CLI equilibrium scenario use fixed
# inputs, independent of --seed, so that their failed share cannot vary by
# seed: today every pure-state operation fails (pure states are not evolved
# unitarily under the default integrator settings), and the multiplier solve
# of the equilibrium scenario stalls on some inputs (see CHANGES.md).
FIXED_SEED = 20050916
PURE_COUNT = 6

CHILD_TIMEOUT_S = 170.0


@dataclass
class Op:
    """``count`` operations of one kind, timed together."""

    kind: str
    count: int
    seconds: float
    failed: bool
    error: str = ""


@dataclass
class Round:
    ops: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    failed_checks: list = field(default_factory=list)  # checks of failed ops
    extra: dict = field(default_factory=dict)          # outside timings
    child_stats: list = field(default_factory=list)    # traces of child processes

    @property
    def wall_s(self) -> float:
        """Time of the operations counted in wall_s (failed ones excluded)."""
        return sum(o.seconds for o in self.ops if not o.failed and o.kind != "pure")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def random_density(rng, d: int, min_eig: float = 1e-3) -> np.ndarray:
    """Seeded full-rank density matrix with every eigenvalue >= min_eig."""
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = x @ x.conj().T
    m /= np.trace(m).real
    m = (1.0 - d * min_eig) * m + min_eig * np.eye(d)
    return ck.herm(m)


def embed(ops: dict, n: int) -> np.ndarray:
    return ck.kron_all([ops.get(j, np.eye(2, dtype=complex)) for j in range(n)])


def xy_chain(fields, couplings) -> np.ndarray:
    """sum_j (h_j/2) Z_j + sum_b J_b (X_b X_b+1 + Y_b Y_b+1) on len(fields) qubits."""
    n = len(fields)
    h = sum(0.5 * f * embed({j: SZ}, n) for j, f in enumerate(fields))
    for b, c in enumerate(couplings):
        h = h + c * (embed({b: SX, b + 1: SX}, n) + embed({b: SY, b + 1: SY}, n))
    return h


def traced(tracer, seaqt):
    return tracer.installed(seaqt) if tracer is not None else nullcontext()


def timed(fn):
    """(result, seconds, error) of one call; an exception is a failure."""
    t0 = perf_counter()
    try:
        out = fn()
    except Exception as exc:  # an operation that raises counts as failed
        return None, perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    return out, perf_counter() - t0, ""


def checked(prefix: str, fn, *args) -> list:
    """The checks ``fn(*args)`` makes, or one failed check under ``prefix``
    when making them raises: a reference that cannot be computed from an
    output (a singular state, a missing file or column) fails the output."""
    try:
        return fn(*args)
    except Exception as exc:
        return [ck.Check(f"{prefix}.check_raised.{type(exc).__name__}", 0.0, float("inf"))]


def csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(text.splitlines()))


# ---------------------------------------------------------------------------
# single_sweep
# ---------------------------------------------------------------------------

class SingleSweep:
    """SEA relaxation of single constituents at d = 16, 32, 64."""

    WARM_UP = True

    DIMS = (16, 32, 64)
    T_MAX = 2.0
    # a fixed, evenly spaced energy ladder: the seed makes the generator and
    # the initial state, so that step counts vary little by seed
    ENERGY_SPAN = 4.0

    def __init__(self, seed: int, out_dir=None):
        import seaqt
        from seaqt import integrate as ig
        from seaqt import sea
        from seaqt import states as st
        self.seaqt, self.ig, self.sea = seaqt, ig, sea
        rng = np.random.default_rng([seed, 1])
        self.cases = []
        for d in self.DIMS:
            e = np.linspace(0.0, self.ENERGY_SPAN, d)
            x = rng.uniform(-1.0, 1.0, d)
            model = sea.validate_model(sea.SingleConstituentModel(
                H=np.diag(e).astype(complex),
                generators=(np.diag(x).astype(complex),), tau=1.0))
            rho0 = st.validate(random_density(rng, d))
            self.cases.append((d, e, x, model, rho0))
        self.config = ig.IntegratorConfig(t_max=self.T_MAX, sample_dt=self.T_MAX / 4)

    def run_round(self, tracer=None) -> Round:
        ig, sea = self.ig, self.sea
        rnd = Round()
        for d, e, x, model, rho0 in self.cases:
            obs = ig.Observables(
                energy_op=model.H, generator_ops=model.generators,
                g_rate=lambda m, model=model: sea.entropy_production_rate(m, model))

            def op(model=model, rho0=rho0, obs=obs):
                traj = ig.integrate(rho0, lambda m: sea.sea_rhs(m, model),
                                    self.config, observables=obs)
                return traj, traj.to_csv()
            with traced(tracer, self.seaqt):
                out, secs, err = timed(op)
            rnd.ops.append(Op("trajectory", 1, secs, bool(err), err))
            if not err:
                prefix = f"single.d{d}"
                rnd.checks += checked(prefix, self.check, prefix, out[0], out[1],
                                      e, x, model, rho0)
        return rnd

    def check(self, prefix, traj, text, e, x, model, rho0):
        states = [s.rho for s in traj.samples]
        out, s = ck.trajectory_invariants(prefix, states, [model.H, *model.generators])
        out.append(ck.nonnegative(f"{prefix}.g_nonnegative", traj.column("g_rate")))
        for i in sorted({0, len(states) // 2, len(states) - 1}):
            sample = traj.samples[i]
            out.append(ck.rate_identity(f"{prefix}.rate_identity", sample.g_rate,
                                        self.sea.sea_rhs(sample.rho, model), sample.rho))
        s_max = ck.maxent_entropy([e, x], [ck.mean(model.H, rho0.matrix),
                                           ck.mean(model.generators[0], rho0.matrix)])
        out += ck.entropy_bounds(prefix, s[0], s[-1], s_max)
        out.append(ck.Check(f"{prefix}.csv_rows", 0, abs(len(csv_rows(text)) - len(states))))
        return out


# ---------------------------------------------------------------------------
# composite_chain
# ---------------------------------------------------------------------------

class CompositeChain:
    """5-qubit XY chain with a tau per qubit, plus a 3-qubit free chain."""

    WARM_UP = True

    T_CHAIN = 0.5
    T_FREE = 2.0
    # fixed Hamiltonians and relaxation times: the seed makes the initial
    # states, so that step counts, and with them wall_s, vary little by seed
    FIELDS = (1.0, 1.15, 0.9, 1.3, 0.8)
    COUPLINGS = (0.5, 0.4, 0.6, 0.45)
    TAUS = (0.6, 1.6, 1.0, 2.0, 0.8)

    def __init__(self, seed: int, out_dir=None):
        import seaqt
        from seaqt import composite as cp
        from seaqt import integrate as ig
        from seaqt import states as st
        self.seaqt, self.ig, self.cp = seaqt, ig, cp
        rng = np.random.default_rng([seed, 2])
        self.systems = []
        for name, n, coupled, t_max in (("chain5", 5, True, self.T_CHAIN),
                                        ("free3", 3, False, self.T_FREE)):
            h = xy_chain(self.FIELDS[:n], self.COUPLINGS[:n - 1] if coupled else [])
            taus = self.TAUS[:n]
            model = cp.validate_model(cp.CompositeModel(
                tuple(cp.Constituent(2, (), float(t)) for t in taus), h))
            if coupled:
                rho0 = st.validate(random_density(rng, 2 ** n))
            else:
                rho0 = st.validate(ck.kron_all(
                    [random_density(rng, 2, min_eig=0.05) for _ in range(n)]))
            self.systems.append((name, n, model, rho0, ig.IntegratorConfig(t_max=t_max)))

    def run_round(self, tracer=None) -> Round:
        ig, cp = self.ig, self.cp
        rnd = Round()
        for name, n, model, rho0, config in self.systems:
            per_constituent = []

            def g_rate(m, model=model, per=per_constituent):
                total, per_j = cp.composite_entropy_production(m, model)
                per.append(per_j)
                return total

            obs = ig.Observables(energy_op=model.H, g_rate=g_rate)

            def op(model=model, rho0=rho0, obs=obs, config=config):
                traj = ig.integrate(rho0, lambda m: cp.composite_rhs(m, model),
                                    config, observables=obs)
                return traj, traj.to_csv()
            with traced(tracer, self.seaqt):
                out, secs, err = timed(op)
            rnd.ops.append(Op("trajectory", 1, secs, bool(err), err))
            if not err:
                prefix = f"composite.{name}"
                rnd.checks += checked(prefix, self.check, prefix, n, out[0], out[1],
                                      model, rho0, per_constituent)
        return rnd

    def check(self, prefix, n, traj, text, model, rho0, per_constituent):
        states = [s.rho for s in traj.samples]
        out, s = ck.trajectory_invariants(prefix, states, [model.H])
        out.append(ck.nonnegative(f"{prefix}.g_nonnegative", traj.column("g_rate")))
        out.append(ck.nonnegative(f"{prefix}.gJ_nonnegative", np.ravel(per_constituent)))
        for i in sorted({0, len(states) // 2, len(states) - 1}):
            sample = traj.samples[i]
            out.append(ck.rate_identity(f"{prefix}.rate_identity", sample.g_rate,
                                        self.cp.composite_rhs(sample.rho, model),
                                        sample.rho))
        energies = np.linalg.eigvalsh(ck.herm(model.H))
        s_max = ck.maxent_entropy([energies], [ck.mean(model.H, rho0.matrix)])
        out += ck.entropy_bounds(prefix, s[0], s[-1], s_max)
        if prefix.endswith("free3"):
            out.append(ck.product_distance(f"{prefix}.product_distance", states, [2] * n))
        out.append(ck.Check(f"{prefix}.csv_rows", 0, abs(len(csv_rows(text)) - len(states))))
        return out


# ---------------------------------------------------------------------------
# ensemble_small
# ---------------------------------------------------------------------------

class EnsembleSmall:
    """24-member measure of mixed d = 4 states, a maxent solve, and six pure
    d = 4 states through integrate() with the default config."""

    WARM_UP = True

    MEMBERS = 24
    T_MAX = 3.0

    def __init__(self, seed: int, out_dir=None):
        import seaqt
        from seaqt import ensemble as en
        from seaqt import integrate as ig
        from seaqt import sea
        from seaqt import states as st
        self.seaqt, self.ig, self.sea, self.en = seaqt, ig, sea, en
        rng = np.random.default_rng([seed, 3])
        self.e = np.linspace(0.0, 2.0, 4)
        self.x = rng.uniform(-1.0, 1.0, 4)
        self.model = sea.validate_model(sea.SingleConstituentModel(
            H=np.diag(self.e).astype(complex),
            generators=(np.diag(self.x).astype(complex),), tau=1.0))
        members = [st.validate(random_density(rng, 4)) for _ in range(self.MEMBERS)]
        w = rng.uniform(0.5, 1.5, self.MEMBERS)
        self.mu = en.measure(list(zip(w / w.sum(), members)))
        energies = np.array([ck.mean(self.model.H, s.matrix) for s in self.mu.states])
        lo, hi = energies.min(), energies.max()
        self.target = float(lo + (0.25 + 0.5 * rng.uniform()) * (hi - lo))
        self.energies = energies
        # fixed pure-state inputs (see FIXED_SEED)
        prng = np.random.default_rng(FIXED_SEED)
        self.pure_model = sea.validate_model(sea.SingleConstituentModel(
            H=np.diag(np.sort(2.0 * prng.normal(size=4))).astype(complex),
            generators=(np.diag(prng.normal(size=4)).astype(complex),), tau=1.0))
        self.pure = []
        for _ in range(PURE_COUNT):
            v = prng.normal(size=4) + 1j * prng.normal(size=4)
            self.pure.append(st.pure_state(v))
        self.pure_config = ig.IntegratorConfig()

    def run_round(self, tracer=None) -> Round:
        ig, sea, en = self.ig, self.sea, self.en
        model, pure_model = self.model, self.pure_model
        rnd = Round()
        with traced(tracer, self.seaqt):
            evolved, secs, err = timed(lambda: en.evolve_measure(
                self.mu, lambda m: sea.sea_rhs(m, model), t_max=self.T_MAX))
        rnd.ops.append(Op("member", len(self.mu), secs, bool(err), err))
        if not err:
            rnd.checks += checked("ensemble.evolve", self.check_evolved, evolved)
        with traced(tracer, self.seaqt):
            mu_q, secs, err = timed(lambda: en.maxent_known_spectrum(
                self.mu.states, self.target, model.H))
        rnd.ops.append(Op("maxent", 1, secs, bool(err), err))
        if not err:
            rnd.checks += checked("ensemble.maxent", ck.maxent_weights, "ensemble.maxent",
                                  mu_q.weights, self.energies, self.target)
        pure_s = 0.0
        for i, rho0 in enumerate(self.pure):
            with traced(tracer, self.seaqt):
                traj, secs, err = timed(lambda rho0=rho0: ig.integrate(
                    rho0, lambda m: sea.sea_rhs(m, pure_model), self.pure_config))
            pure_s += secs
            failed = bool(err)
            if not failed:
                prefix = f"ensemble.pure{i}"
                found = checked(prefix, ck.unitary_motion, prefix, traj.times,
                                [s.rho for s in traj.samples], rho0.matrix, pure_model.H)
                failed = not all(c.passed for c in found)
                err = "not unitary" if failed else ""
                (rnd.failed_checks if failed else rnd.checks).extend(found)
            rnd.ops.append(Op("pure", 1, secs, failed, err))
        rnd.extra["pure_ops_s"] = pure_s
        return rnd

    def check_evolved(self, evolved):
        mu, h, x = self.mu, self.model.H, self.model.generators[0]
        out = ck.ensemble_evolution("ensemble.evolve", mu.weights,
                                    [s.matrix for s in mu.states], evolved.weights,
                                    [s.matrix for s in evolved.states], [h, x])
        for a, b in zip(mu.states, evolved.states):
            s_max = ck.maxent_entropy([self.e, self.x],
                                      [ck.mean(h, a.matrix), ck.mean(x, a.matrix)])
            out += ck.entropy_bounds("ensemble.member", ck.entropy(a.matrix),
                                     ck.entropy(b.matrix), s_max)
        return out


# ---------------------------------------------------------------------------
# cli_scenarios
# ---------------------------------------------------------------------------

SUBCOMMANDS = ("simulate", "compare", "validate", "equilibrium", "ensemble")


def child_env() -> dict:
    env = dict(os.environ)
    prev = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + prev if prev else "")
    return env


def run_child(argv, log_path: Path) -> tuple[float, int]:
    """Run a child process to completion: (wall seconds, exit code).  A child
    still running after CHILD_TIMEOUT_S is killed and the run ends."""
    with open(log_path, "wb") as log:
        t0 = perf_counter()
        code = subprocess.run(argv, env=child_env(), cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S).returncode
        return perf_counter() - t0, code


def encode(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"dim": m.shape[0], "matrix": [[float(v.real), float(v.imag)] for v in m.ravel()]}


def decode(obj) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in obj["matrix"]])
    return flat.reshape(obj["dim"], obj["dim"])


def make_scenarios(seed: int) -> dict:
    """The five CLI scenarios, as JSON-ready dicts, made from the seed (the
    equilibrium scenario from FIXED_SEED)."""
    rng = np.random.default_rng([seed, 4])

    def single(d, gens):
        e = np.sort(rng.uniform(0.0, 2.0, d))
        xs = [rng.uniform(-1.0, 1.0, d) for _ in range(gens)]
        block = {"H": encode(np.diag(e)), "tau": 1.0}
        if xs:
            block["generators"] = [encode(np.diag(x)) for x in xs]
        return {"single": block}

    simulate = {
        "system": single(4, 1), "initial": encode(random_density(rng, 4)),
        "dynamics": {"sea": {}},
        "integrator": {"t_max": 5.0, "sample_dt": 0.25},
        "outputs": {"trajectory_csv": "trajectory.csv", "summary_json": "summary.json",
                    "states_jsonl": "states.jsonl"}}
    compare_sys = single(3, 0)
    h3 = decode(compare_sys["single"]["H"])
    rates = rng.uniform(0.2, 0.6, 2)
    jumps = []
    for (r, s), rate in zip(((0, 2), (1, 2)), rates):
        a = np.zeros((3, 3), dtype=complex)
        a[r, s] = np.sqrt(rate)
        jumps.append(encode(a))
    compare = {
        "system": compare_sys, "initial": encode(random_density(rng, 3)),
        "dynamics": {"sea": {}, "lindblad": {"B": encode(-h3), "jumps": jumps}},
        "integrator": {"t_max": 2.0}}
    validate = {
        "system": single(4, 1), "initial": encode(random_density(rng, 4)),
        "dynamics": {"sea": {}}, "integrator": {"t_max": 2.0},
        "outputs": {"report_json": "validate_report.json"}}
    # targets are the means of a Gibbs state the benchmark builds itself
    erng = np.random.default_rng([FIXED_SEED, 5])
    h8 = np.diag(np.sort(erng.uniform(0.0, 2.0, 8)))
    c8 = np.diag(erng.uniform(-1.0, 1.0, 8))
    gibbs = ck.gibbs_from_multipliers([h8, c8], [erng.uniform(0.2, 1.5),
                                                 erng.uniform(-1.0, 1.0)])
    equilibrium = {
        "constants": [encode(h8), encode(c8)],
        "targets": [ck.mean(h8, gibbs), ck.mean(c8, gibbs)],
        "outputs": {"result_json": "result.json"}}
    omega = rng.uniform(0.5, 1.5)
    w = rng.uniform(0.5, 1.5, 3)
    w = w / w.sum()
    ensemble = {
        "system": {"single": {"H": encode(np.diag([0.0, omega])), "tau": 1.0}},
        "measure": {"support": [{"w": float(wi), "state": encode(
            random_density(rng, 2, min_eig=0.05))} for wi in w]},
        "dynamics": {"sea": {}}, "integrator": {"t_max": 0.25}}
    return {"simulate": simulate, "compare": compare, "validate": validate,
            "equilibrium": equilibrium, "ensemble": ensemble}


def write_scenarios(seed: int, directory: Path) -> tuple[dict, dict]:
    directory.mkdir(parents=True, exist_ok=True)
    scenarios = make_scenarios(seed)
    paths = {}
    for name, scenario in scenarios.items():
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps(scenario, indent=1) + "\n")
    return scenarios, paths


class CliScenarios:
    """One fresh ``seaqt`` process per subcommand on small scenarios."""

    WARM_UP = False  # every subcommand is a fresh process

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir
        self.scenarios, self.paths = write_scenarios(seed, out_dir / "scenarios")
        self.rounds = 0

    def run_round(self, tracer=None) -> Round:
        rnd = Round()
        self.rounds += 1
        for sub in SUBCOMMANDS:
            out = self.out_dir / f"round{self.rounds}" / sub
            out.mkdir(parents=True)
            args = [sub, "--config", str(self.paths[sub]), "--out", str(out)]
            if tracer is None:
                argv = [sys.executable, "-m", "seaqt.cli", *args]
            else:
                stats_path = out / "trace.json"
                argv = [sys.executable, str(BENCH / "cli_child.py"), str(stats_path), *args]
            wall, code = run_child(argv, out / "log.txt")
            failed = code != 0
            rnd.ops.append(Op("subcommand", 1, wall, failed,
                              f"exit {code}" if failed else ""))
            rnd.extra[f"cli.{sub}_s"] = wall
            if tracer is not None and stats_path.is_file():
                rnd.child_stats.append(json.loads(stats_path.read_text()))
            if not failed:
                rnd.checks += checked(f"cli.{sub}", getattr(self, f"check_{sub}"),
                                      self.scenarios[sub], out)
        return rnd

    def check_simulate(self, sc, out):
        h = decode(sc["system"]["single"]["H"])
        x = decode(sc["system"]["single"]["generators"][0])
        lines = (out / "states.jsonl").read_text().splitlines()
        states = [decode(json.loads(line)["state"]) for line in lines]
        checks, s = ck.trajectory_invariants("cli.simulate", states, [h, x])
        rho0 = decode(sc["initial"])
        s_max = ck.maxent_entropy([np.diag(h).real, np.diag(x).real],
                                  [ck.mean(h, rho0), ck.mean(x, rho0)])
        checks += ck.entropy_bounds("cli.simulate", ck.entropy(rho0), s[-1], s_max)
        rows = csv_rows((out / "trajectory.csv").read_text())
        checks.append(ck.nonnegative("cli.simulate.g_nonnegative",
                                     [float(r["g_rate"]) for r in rows]))
        checks.append(ck.Check("cli.simulate.csv_rows", 0, abs(len(rows) - len(states))))
        return checks

    def check_compare(self, sc, out):
        h = decode(sc["system"]["single"]["H"])
        sea_rows = csv_rows((out / "sea_trajectory.csv").read_text())
        lin_rows = csv_rows((out / "lindblad_trajectory.csv").read_text())

        def col(rows, name):
            return np.array([float(r[name]) for r in rows])
        same_grid = len(sea_rows) == len(lin_rows) and \
            np.array_equal(col(sea_rows, "t"), col(lin_rows, "t"))
        return [ck.conserved("cli.compare.sea_energy_conserved",
                             col(sea_rows, "energy"), ck.mean_tol(h)),
                ck.nondecreasing("cli.compare.sea_entropy_nondecreasing",
                                 col(sea_rows, "entropy")),
                ck.nonnegative("cli.compare.sea_g_nonnegative", col(sea_rows, "g_rate")),
                ck.Check("cli.compare.linear_trace_error", 1e-9,
                         float(np.abs(col(lin_rows, "trace_err")).max())),
                ck.Check("cli.compare.shared_time_grid", 0, 0 if same_grid else 1)]

    def check_validate(self, sc, out):
        report = json.loads((out / "validate_report.json").read_text())
        failed = sum(not c["passed"] for c in report["checks"])
        return [ck.Check("cli.validate.report_passes", 0, failed)]

    def check_equilibrium(self, sc, out):
        result = json.loads((out / "result.json").read_text())
        constants = [decode(c) for c in sc["constants"]]
        return ck.equilibrium_result("cli.equilibrium", constants, sc["targets"],
                                     result["multipliers"], result["means"],
                                     decode(result["state"]))

    def check_ensemble(self, sc, out):
        h = decode(sc["system"]["single"]["H"])
        w0 = [p["w"] for p in sc["measure"]["support"]]
        s0 = [decode(p["state"]) for p in sc["measure"]["support"]]
        evolved = json.loads((out / "measure_evolved.json").read_text())["support"]
        w1 = [p["w"] for p in evolved]
        s1 = [decode(p["state"]) for p in evolved]
        checks = ck.ensemble_evolution("cli.ensemble", w0, s0, w1, s1, [h])
        summary = json.loads((out / "ensemble_summary.json").read_text())
        own = -float(np.sum(np.array(w0) * np.log(w0)))
        checks.append(ck.Check("cli.ensemble.reported_uncertainty", ck.WEIGHT_TOL,
                               abs(summary["statistical_uncertainty"] - own)))
        rows = csv_rows((out / "ensemble_series.csv").read_text())
        checks.append(ck.conserved("cli.ensemble.series_energy_conserved",
                                   [float(r["expected_energy"]) for r in rows],
                                   ck.mean_tol(h)))
        checks.append(ck.conserved("cli.ensemble.series_uncertainty_constant",
                                   [float(r["statistical_uncertainty"]) for r in rows], 0.0))
        for a, b in zip(s0, s1):
            e = np.diag(h).real
            s_max = ck.maxent_entropy([e], [ck.mean(h, a)])
            checks += ck.entropy_bounds("cli.ensemble.member", ck.entropy(a),
                                        ck.entropy(b), s_max)
        return checks


WORKLOADS = {
    "single_sweep": SingleSweep,
    "composite_chain": CompositeChain,
    "ensemble_small": EnsembleSmall,
    "cli_scenarios": CliScenarios,
}
