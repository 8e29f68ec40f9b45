"""Each benchmark check passes on a correct output of the program and
rejects a deliberately corrupted copy of it.

    python3 -m pytest bench/test_checks.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks as ck  # noqa: E402
import workloads  # noqa: E402
from seaqt import composite as cp  # noqa: E402
from seaqt import ensemble as en  # noqa: E402
from seaqt import equilibrium as eq  # noqa: E402
from seaqt import integrate as ig  # noqa: E402
from seaqt import sea  # noqa: E402
from seaqt import states as st  # noqa: E402


def all_pass(found):
    return all(c.passed for c in found)


def named(found, suffix):
    (c,) = [c for c in found if c.name.endswith(suffix)]
    return c


@pytest.fixture(scope="module")
def single():
    rng = np.random.default_rng(0)
    e = np.array([0.0, 0.7, 1.5])
    x = rng.uniform(-1, 1, 3)
    model = sea.validate_model(sea.SingleConstituentModel(
        H=np.diag(e).astype(complex), generators=(np.diag(x).astype(complex),)))
    rho0 = st.validate(workloads.random_density(rng, 3))
    obs = ig.Observables(energy_op=model.H, generator_ops=model.generators,
                         g_rate=lambda m: sea.entropy_production_rate(m, model))
    traj = ig.integrate(rho0, lambda m: sea.sea_rhs(m, model),
                        ig.IntegratorConfig(t_max=3.0), observables=obs)
    return e, x, model, rho0, traj


def test_trajectory_invariants(single):
    e, x, model, rho0, traj = single
    states = [s.rho for s in traj.samples]
    found, _ = ck.trajectory_invariants("t", states, [model.H, model.generators[0]])
    assert all_pass(found)
    # drift the energy of the last sample, keep it a valid state
    shifted = list(states)
    shifted[-1] = states[-1] + 1e-6 * (model.H - np.trace(model.H) / 3 * np.eye(3))
    found, _ = ck.trajectory_invariants("t", shifted, [model.H])
    assert not named(found, "mean0_conserved").passed
    scaled = list(states)
    scaled[-1] = states[-1] * (1 + 1e-8)
    found, _ = ck.trajectory_invariants("t", scaled, [model.H])
    assert not named(found, "trace_conserved").passed
    # swap two samples: the entropy then drops once
    swapped = list(states)
    swapped[1], swapped[-1] = swapped[-1], swapped[1]
    found, _ = ck.trajectory_invariants("t", swapped, [])
    assert not named(found, "entropy_nondecreasing").passed


def test_nonnegative_g(single):
    g = single[4].column("g_rate")
    assert ck.nonnegative("g", g).passed
    bad = g.copy()
    bad[len(bad) // 2] = -1e-9
    assert not ck.nonnegative("g", bad).passed


def test_rate_identity(single):
    e, x, model, rho0, traj = single
    s = traj.samples[1]
    rhs = sea.sea_rhs(s.rho, model)
    assert ck.rate_identity("r", s.g_rate, rhs, s.rho).passed
    assert not ck.rate_identity("r", s.g_rate * (1 + 1e-6) + 1e-7, rhs, s.rho).passed


def test_entropy_bounds(single):
    e, x, model, rho0, traj = single
    s0 = ck.entropy(rho0.matrix)
    s1 = ck.entropy(traj.final.rho)
    s_max = ck.maxent_entropy([e, x], [ck.mean(model.H, rho0.matrix),
                                       ck.mean(model.generators[0], rho0.matrix)])
    assert all_pass(ck.entropy_bounds("b", s0, s1, s_max))
    assert not named(ck.entropy_bounds("b", s0, s0, s_max), "entropy_rises").passed
    assert not named(ck.entropy_bounds("b", s0, s_max + 1e-6, s_max),
                     "entropy_below_max").passed


def test_maxent_entropy_reference():
    # with no constraint beyond normalisation the maximum is ln(levels)
    assert abs(ck.maxent_entropy([np.zeros(5)], [0.0]) - np.log(5)) < 1e-12
    # a Gibbs distribution is its own maximum-entropy state
    e = np.array([0.0, 0.4, 1.1, 2.0])
    p = np.exp(-0.8 * e)
    p /= p.sum()
    assert abs(ck.maxent_entropy([e], [p @ e]) + np.sum(p * np.log(p))) < 1e-10


def test_product_distance():
    rng = np.random.default_rng(1)
    h = workloads.xy_chain([1.0, 0.8], [])
    model = cp.validate_model(cp.CompositeModel(
        (cp.Constituent(2, (), 1.0), cp.Constituent(2, (), 0.5)), h))
    rho0 = st.validate(ck.kron_all([workloads.random_density(rng, 2, 0.05)
                                    for _ in range(2)]))
    traj = ig.integrate(rho0, lambda m: cp.composite_rhs(m, model),
                        ig.IntegratorConfig(t_max=1.0))
    states = [s.rho for s in traj.samples]
    assert ck.product_distance("p", states, [2, 2]).passed
    entangled = list(states)
    bell = np.zeros((4, 4), dtype=complex)
    bell[[0, 0, 3, 3], [0, 3, 0, 3]] = 0.5
    entangled[-1] = 0.999 * states[-1] + 0.001 * bell
    assert not ck.product_distance("p", entangled, [2, 2]).passed


def test_unitary_motion():
    h = np.diag([0.0, 1.0]).astype(complex)
    rho0 = np.outer([0.6, 0.8], [0.6, 0.8]).astype(complex)
    times = np.linspace(0.0, 2.0, 5)
    exact = [ck.unitary(h, t) @ rho0 @ ck.unitary(h, t).conj().T for t in times]
    assert all_pass(ck.unitary_motion("u", times, exact, rho0, h))
    impure = [0.99 * m + 0.005 * np.eye(2) for m in exact]
    assert not named(ck.unitary_motion("u", times, impure, rho0, h), "purity_deficit").passed
    late = [ck.unitary(h, t + 1e-3) @ rho0 @ ck.unitary(h, t + 1e-3).conj().T for t in times]
    assert not named(ck.unitary_motion("u", times, late, rho0, h), "unitary_gap").passed


def test_equilibrium_result():
    h = np.diag([0.0, 0.5, 1.0, 1.7])
    c = np.diag([1.0, -0.5, 0.2, 0.3])
    m = eq.MultiplierVector(0.9, (0.4,))
    constants = eq.constant_set([h, c])
    state = eq.gibbs_state(constants, m).matrix
    means = [ck.mean(h, state), ck.mean(c, state)]
    assert all_pass(ck.equilibrium_result("e", [h, c], means, m.as_array(), means, state))
    wrong = m.as_array() + np.array([1e-6, 0.0])
    assert not named(ck.equilibrium_result("e", [h, c], means, wrong, means, state),
                     "gibbs_rebuilt").passed
    assert not named(ck.equilibrium_result("e", [h, c], means, m.as_array(),
                                           [means[0] + 1e-7, means[1]], state),
                     "means_match").passed
    assert not named(ck.equilibrium_result("e", [h, c], [means[0] + 1e-7, means[1]],
                                           m.as_array(), means, state),
                     "meets_targets").passed


def test_ensemble_checks():
    rng = np.random.default_rng(2)
    h = np.diag([0.0, 0.6, 1.3, 2.0]).astype(complex)
    model = sea.validate_model(sea.SingleConstituentModel(H=h))
    states = [st.validate(workloads.random_density(rng, 4)) for _ in range(3)]
    mu = en.measure([(0.2, states[0]), (0.3, states[1]), (0.5, states[2])])
    evolved = en.evolve_measure(mu, lambda m: sea.sea_rhs(m, model), t_max=1.0)
    s0 = [s.matrix for s in mu.states]
    s1 = [s.matrix for s in evolved.states]
    assert all_pass(ck.ensemble_evolution("m", mu.weights, s0, evolved.weights, s1, [h]))
    moved = evolved.weights + np.array([1e-6, -1e-6, 0.0])
    found = ck.ensemble_evolution("m", mu.weights, s0, moved, s1, [h])
    assert not named(found, "weights_unchanged").passed
    assert not named(found, "uncertainty_unchanged").passed
    heated = [s1[0] + 1e-6 * (h - np.trace(h) / 4 * np.eye(4)), s1[1], s1[2]]
    found = ck.ensemble_evolution("m", mu.weights, s0, evolved.weights, heated, [h])
    assert not named(found, "expected_mean0_conserved").passed

    energies = np.array([ck.mean(h, s) for s in s0])
    target = float(0.5 * (energies.min() + energies.max()))
    q = en.maxent_known_spectrum(mu.states, target, h).weights
    assert all_pass(ck.maxent_weights("q", q, energies, target))
    skewed = q * np.array([1.0 + 1e-6, 1.0, 1.0])
    skewed /= skewed.sum()
    assert not named(ck.maxent_weights("q", skewed, energies, target), "log_linear").passed
    assert not named(ck.maxent_weights("q", q, energies, target + 1e-6), "meets_target").passed


def test_scenarios_follow_the_seed():
    a = workloads.make_scenarios(3)
    assert a == workloads.make_scenarios(3)
    assert a != workloads.make_scenarios(4)


def test_reference_that_raises_fails_the_output():
    singular = np.diag([1.0, 0.0]).astype(complex)
    (c,) = workloads.checked("r", ck.rate_identity, "r", 0.0, singular, singular)
    assert c.name == "r.check_raised.ValueError" and not c.passed
    (c,) = workloads.checked("f", lambda: {}["missing"])
    assert c.name == "f.check_raised.KeyError" and not c.passed


def test_equilibrium_scenario_is_fixed_and_feasible():
    a = workloads.make_scenarios(3)["equilibrium"]
    assert a == workloads.make_scenarios(4)["equilibrium"]
    constants = [workloads.decode(c) for c in a["constants"]]
    m = eq.solve_multipliers(eq.constant_set(constants), a["targets"])
    state = eq.gibbs_state(eq.constant_set(constants), m).matrix
    means = [ck.mean(c, state) for c in constants]
    assert all_pass(ck.equilibrium_result("e", constants, a["targets"], m.as_array(),
                                          means, state))
