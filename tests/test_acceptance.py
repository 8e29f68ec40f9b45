"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (run with `pytest tests/test_acceptance.py -s` to see the
lines as they print)."""

import numpy as np
import pytest

from references import gibbs_seed, is_dirac, thinned
from seaqt import composite as cp
from seaqt import ensemble as en
from seaqt import equilibrium as eq
from seaqt import integrate as ig
from seaqt import lindblad as lb
from seaqt import operators as op
from seaqt import sea
from seaqt import states as st

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def _report(label: str, passed: bool) -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if passed else 'FAIL'}")
    assert passed, label


def single_model(h, gens=(), tau=1.0):
    return sea.validate_model(sea.SingleConstituentModel(
        H=np.asarray(h, dtype=complex), generators=tuple(gens), tau=tau))


def test_01_pure_state_reduction():
    # pure qubit under the nonlinear law stays pure and follows the unitary
    model = single_model(SZ, tau=1.0)
    psi = np.array([np.cos(0.4), np.sin(0.4) * np.exp(0.3j)])
    rho0 = st.pure_state(psi)
    cfg = ig.IntegratorConfig(t_max=10.0, rel_tol=1e-12, abs_tol=1e-13,
                              dt_max=0.1)
    traj = thinned(ig.integrate(rho0, lambda m: sea.sea_rhs(m, model), cfg), 10)
    max_deficit = max(1.0 - s.purity for s in traj.samples)
    u = np.diag(np.exp(-1j * np.diag(SZ) * traj.final.t))
    want = u @ rho0.matrix @ u.conj().T
    gap = float(np.linalg.norm(traj.final.rho - want, ord="fro"))
    _report("01 pure-state reduction (purity deficit <= 1e-9, "
            "unitary match <= 1e-6)",
            max_deficit <= 1e-9 and gap <= 1e-6)


@pytest.mark.filterwarnings("ignore::seaqt.sea.GramConditionWarning")
def test_02_conservation_suite():
    # 20 seeded random full-rank states across dims and generator sets; on a
    # qubit the extra diagonal generator is necessarily affine in {I, H}, so
    # that cell also exercises the degenerate-Gram fallback
    ok = True
    cases = []
    seed = 0
    extra = {2: np.diag([1.0, -1.0]), 3: np.diag([1.0, -1.0, 0.5]),
             4: np.diag([1.0, -1.0, 0.5, 0.25])}
    for dim in (2, 3, 4):
        h = np.diag(np.linspace(0.0, dim - 1.0, dim))
        for gens in ((), (extra[dim],)):
            count = 4 if dim == 2 else 3
            for _ in range(count):
                cases.append((dim, h, gens, seed))
                seed += 1
    assert len(cases) == 20
    cfg = ig.IntegratorConfig(t_max=20.0, dt_max=2.0, rel_tol=1e-10,
                              abs_tol=1e-12)
    for dim, h, gens, s in cases:
        model = single_model(h, gens=gens)
        rho0 = st.random_full_rank(dim, seed=s)
        obs = ig.Observables(energy_op=model.H, generator_ops=model.generators)
        traj = thinned(ig.integrate(rho0, lambda m, _mod=model: sea.sea_rhs(m, _mod),
                                    cfg, observables=obs), 10)
        e = traj.column("energy")
        ok &= bool(np.abs(traj.column("trace_err")).max() <= 1e-9)
        ok &= bool(np.abs(e - e[0]).max() <= 1e-7)
        ok &= bool(np.abs(traj.column("herm_err")).max() <= 1e-10)
        for k in range(len(model.generators)):
            g = np.array([samp.generator_means[k] for samp in traj.samples])
            ok &= bool(np.abs(g - g[0]).max() <= 1e-7)
    _report("02 conservation suite (trace 1e-9, energy/generators 1e-7, "
            "hermiticity 1e-10)", ok)


def test_03_entropy_monotonicity_and_rate_identity():
    h = np.diag([0.0, 0.8, 2.0])
    model = single_model(h, tau=1.2)
    # pointwise identity on random full-rank states
    identity_ok = True
    for seed in range(20):
        rho = st.random_full_rank(3, seed=seed)
        rate = sea.entropy_production_rate(rho, model)
        pairing = sea.entropy_rate_pairing(rho, model)
        identity_ok &= abs(pairing - rate) <= 1e-8 * max(abs(rate), 1e-12)
    # trajectory: monotone entropy and finite-difference consistency
    rho0 = st.random_full_rank(3, seed=77)
    dt = 0.002
    cfg = ig.IntegratorConfig(method="rk4", t_max=3.0, dt_init=dt, dt_min=dt,
                              dt_max=dt)
    obs = ig.Observables(energy_op=h,
                         g_rate=lambda m: sea.entropy_production_rate(m, model))
    traj = ig.integrate(rho0, lambda m: sea.sea_rhs(m, model), cfg, obs)
    s = traj.column("entropy")
    g = traj.column("g_rate")
    t = traj.times
    monotone = bool(np.all(np.diff(s) >= -1e-10))
    fd_ok = True
    for i in range(1, len(t) - 1):
        fd = (s[i + 1] - s[i - 1]) / (t[i + 1] - t[i - 1])
        if g[i] > 1e-7:
            fd_ok &= abs(fd - g[i]) <= 1e-3 * g[i]
    _report("03 entropy monotone (-1e-10/step), pairing identity (rel 1e-8), "
            "finite-difference rate (rel 1e-3)",
            identity_ok and monotone and fd_ok)


@pytest.mark.filterwarnings("ignore::seaqt.sea.GramConditionWarning")
def test_04_gram_positivity():
    worst = 0.0
    rng = np.random.default_rng(4)
    # 10^4 random states across single-constituent models
    for dim in (2, 3, 4):
        h = np.diag(np.linspace(0.0, dim - 1.0, dim))
        extra = np.diag(rng.normal(size=dim))
        for gens in ((), (extra,)):
            model = single_model(h, gens=gens)
            rhos = np.stack([st.random_full_rank(dim, seed=10_000 * dim + i).matrix
                             for i in range(1500)])
            worst = min(worst, float(sea.gram_determinant_g(rhos, model).min()))
    # composite per-constituent g(J) on two-qubit states
    hc = op.kron(SZ, I2) + 0.7 * op.kron(I2, SZ) + 0.3 * op.kron(SZ, SZ)
    cmodel = cp.validate_model(cp.CompositeModel(
        constituents=(cp.Constituent(2, tau=1.0), cp.Constituent(2, tau=0.5)),
        H=hc))
    rhos = st.StateOperator(np.stack([st.random_full_rank(4, seed=50_000 + i).matrix
                                      for i in range(1000)]))
    worst = min(worst, float(cp.composite_entropy_production(rhos, cmodel)[1].min()))
    _report(f"04 Gram positivity across 10^4 states (min g = {worst:.2e} "
            f">= -1e-12)", worst >= -1e-12)


def test_05_relaxation_to_stable_equilibrium():
    h = np.diag([0.0, 1.0, 2.3])
    model = single_model(h, tau=1.0)
    constants = eq.constant_set([h])
    cfg = ig.IntegratorConfig(t_max=300.0, dt_max=10.0, rel_tol=1e-12,
                              abs_tol=1e-13, equilibrium_norm_tol=1e-10)
    ok = True
    for seed in range(10):
        rho0 = st.random_full_rank(3, seed=seed)
        traj = thinned(ig.integrate(rho0, lambda m: sea.sea_rhs(m, model), cfg), 50)
        rhs_norm = float(np.linalg.norm(sea.sea_rhs(traj.final.rho, model), ord="fro"))
        m = eq.solve_multipliers(constants, [st.mean(h, rho0)])
        target = eq.gibbs_state(constants, m)
        gap = float(np.abs(np.linalg.eigvalsh(traj.final.rho - target.matrix)).sum())
        ok &= traj.termination == "equilibrium"
        ok &= rhs_norm <= 1e-10
        ok &= gap <= 1e-6
    _report("05 relaxation to the unique stable equilibrium "
            "(rhs <= 1e-10, trace-norm gap <= 1e-6)", ok)


def test_06_fixed_point_suite():
    h = np.diag([0.0, 1.0, 2.0])
    model = single_model(h)
    ok = True
    for beta in (-0.7, 0.0, 1.3):
        rho = gibbs_seed(beta, h)
        ok &= float(np.linalg.norm(sea.sea_rhs(rho, model), ord="fro")) <= 1e-9
    for level in range(3):
        vec = np.zeros(3)
        vec[level] = 1.0
        rho = st.pure_state(vec)
        ok &= float(np.linalg.norm(sea.sea_rhs(rho, model), ord="fro")) <= 1e-9
    perturbed = st.validate(np.array(
        [[0.7, 0.1, 0.0], [0.1, 0.3, 0.0], [0.0, 0.0, 0.0]], dtype=complex))
    ok &= float(np.linalg.norm(sea.sea_rhs(perturbed, model), ord="fro")) > 1e-6
    _report("06 fixed points (Gibbs and eigenprojectors <= 1e-9, "
            "coherence-perturbed state is not)", ok)


def test_07_dual_solver():
    ok = True
    # closed form: two-level target 0.25 gives beta = ln 3
    two = eq.constant_set([np.diag([0.0, 1.0])])
    m = eq.solve_multipliers(two, [0.25])
    ok &= abs(m.beta - np.log(3)) <= 1e-10
    ok &= eq.gibbs_identity_residual(two, m) <= 1e-8
    rng = np.random.default_rng(7)
    for dim in (2, 3, 4):
        h = np.diag(np.linspace(0.0, dim - 1.0, dim))
        if dim == 2:
            # no diagonal qubit operator is independent of {I, H}: the
            # complete constant set is H alone
            constants = eq.constant_set([h])
            n_gammas = 0
        else:
            constants = eq.constant_set([h, np.diag(rng.normal(size=dim))])
            n_gammas = 1
        for _ in range(5):
            m_true = eq.MultiplierVector(
                beta=float(rng.uniform(-1.5, 1.5)),
                gammas=tuple(float(rng.uniform(-1, 1)) for _ in range(n_gammas)))
            targets = eq.means_at(constants, m_true)
            m_rec = eq.solve_multipliers(constants, targets)
            ok &= bool(np.abs(m_rec.as_array() - m_true.as_array()).max() <= 1e-8)
            ok &= eq.gibbs_identity_residual(constants, m_rec) <= 1e-8
    _report("07 dual solver (round trip 1e-8, beta = ln 3 to 1e-10, "
            "Gibbs identity 1e-8)", ok)


def _two_qubit(coupling=0.0, tau2=0.6):
    h = op.kron(SZ, I2) + 0.7 * op.kron(I2, SZ) + coupling * op.kron(SX, SX)
    return cp.validate_model(cp.CompositeModel(
        constituents=(cp.Constituent(2, tau=1.0), cp.Constituent(2, tau=tau2)),
        H=h))


def test_08_composite_theorems():
    ok = True
    # product rule: composite rhs splits across independent factors
    model0 = _two_qubit(coupling=0.0)
    rho1 = st.random_full_rank(2, seed=1)
    rho2 = st.random_full_rank(2, seed=2)
    rho = st.StateOperator(op.kron(rho1.matrix, rho2.matrix))
    m1 = single_model(SZ, tau=1.0)
    m2 = single_model(0.7 * SZ, tau=0.6)
    want = op.kron(sea.sea_rhs(rho1, m1), rho2.matrix) + \
        op.kron(rho1.matrix, sea.sea_rhs(rho2, m2))
    th14 = float(np.abs(cp.composite_rhs(rho, model0) - want).max()) <= 1e-9
    ok &= th14
    # reduced equation: partial trace of the composite rhs
    model_int = _two_qubit(coupling=0.4)
    th13 = True
    for seed in range(5):
        rho_r = st.random_full_rank(4, seed=100 + seed)
        full = cp.composite_rhs(rho_r, model_int)
        for block in ((0,), (1,)):
            got = cp.reduced_rhs(rho_r, model_int, block)
            want_r = op.partial_trace(full, [2, 2], keep=list(block))
            th13 &= float(np.abs(got - want_r).max()) <= 1e-9
    ok &= th13
    # separable + independent stays product with additive entropy rates
    cfg = ig.IntegratorConfig(t_max=10.0, dt_max=0.5, rel_tol=1e-10,
                              abs_tol=1e-12)
    traj = thinned(ig.integrate(rho, lambda m: cp.composite_rhs(m, model0), cfg), 10)
    th15 = True
    for s in traj.samples:
        _, dist = cp.is_independent_state(s.rho, model0, (0,))
        th15 &= dist <= 1e-6
        total, _ = cp.composite_entropy_production(st.validate(s.rho), model0)
        r1 = st.validate(op.partial_trace(s.rho, [2, 2], keep=[0]))
        r2 = st.validate(op.partial_trace(s.rho, [2, 2], keep=[1]))
        additivity = abs(total - sea.entropy_production_rate(r1, m1)
                         - sea.entropy_production_rate(r2, m2))
        th15 &= additivity <= 1e-6
    ok &= th15
    # pure product start: dissipator off at t = 0, on after entangling
    pure = st.StateOperator(op.kron(st.pure_state([np.cos(0.4), np.sin(0.4)]).matrix,
                                    st.pure_state([np.cos(1.0), 1j * np.sin(1.0)]).matrix))
    at0 = float(np.linalg.norm(cp.dissipative_term(pure, model_int), ord="fro"))
    mixed = st.mix_with_identity(pure, 1e-6)
    cfg8 = ig.IntegratorConfig(t_max=3.0, dt_max=0.2, rel_tol=1e-9,
                               abs_tol=1e-11)
    traj8 = thinned(ig.integrate(mixed, lambda m: cp.composite_rhs(m, model_int), cfg8), 5)
    grown = max(float(np.linalg.norm(cp.dissipative_term(s.rho, model_int), ord="fro"))
                for s in traj8.samples)
    th8 = at0 <= 1e-10 and grown > 1e-6
    ok &= th8
    _report("08 composite dynamics (independence persists 1e-6 + "
            "additivity 1e-6, product rule 1e-9, reduced equation 1e-9, "
            "entanglement onset)", ok)


def test_09_subadditivity():
    model = _two_qubit(coupling=0.0)
    ok = True
    for seed in range(1000):
        rho = st.random_full_rank(4, seed=seed)
        s_total = st.entropy(rho)
        s1 = st.entropy(cp.reduced_state(rho, model, 0))
        s2 = st.entropy(cp.reduced_state(rho, model, 1))
        ok &= s_total <= s1 + s2 + 1e-9
    for seed in range(20):
        a = st.random_full_rank(2, seed=seed)
        b = st.random_full_rank(2, seed=1000 + seed)
        prod = st.StateOperator(op.kron(a.matrix, b.matrix))
        gap = abs(st.entropy(prod) - st.entropy(a) - st.entropy(b))
        ok &= gap <= 1e-9
    _report("09 subadditivity on 10^3 states (<= 1e-9, equality on products)",
            ok)


def test_10_linear_dynamics():
    ok = True
    # Pauli / Kossakowski-Lindblad equivalence
    e3 = np.array([0.0, 0.7, 1.9])
    rng = np.random.default_rng(10)
    w = np.abs(rng.normal(size=(3, 3)))
    rates = lb.pauli_rates(w, e3)
    lmodel = lb.as_lindblad(rates)
    for seed in range(10):
        rho = st.random_full_rank(3, seed=seed)
        gap = float(np.abs(lb.pauli_rhs(rho, rates) - lb.kl_rhs(rho, lmodel)).max())
        ok &= gap <= 1e-12
    # energy-balanced rates conserve mean energy along a trajectory
    e_deg = np.array([0.0, 1.0, 1.0])
    w_bal = np.zeros((3, 3))
    w_bal[1, 2] = w_bal[2, 1] = 0.8
    w_bal[0, 0] = 0.3
    rates_bal = lb.pauli_rates(w_bal, e_deg)
    assert lb.energy_balance_residual(rates_bal) <= 1e-12
    rho0 = st.random_full_rank(3, seed=31)
    cfg = ig.IntegratorConfig(t_max=10.0, dt_max=0.5, rel_tol=1e-10, abs_tol=1e-12)
    obs = ig.Observables(energy_op=np.diag(e_deg).astype(complex))
    traj = ig.integrate(rho0, lambda m: lb.pauli_rhs(m, rates_bal), cfg, obs)
    energy = traj.column("energy")
    ok &= bool(np.abs(energy - energy[0]).max() <= 1e-7)
    # symmetric limit: coherence decay exp(-w t) to relative 1e-3
    h2 = np.diag([0.0, 1.0])
    w_sym = 0.8
    rho_c = st.pure_state(np.array([1.0, 1.0]) / np.sqrt(2))
    cfg_sym = ig.IntegratorConfig(t_max=2.0, dt_max=0.05, rel_tol=1e-10,
                                  abs_tol=1e-12, projection="off")
    sym_model = lb.symmetric_limit(w_sym, h2)
    traj_sym = ig.integrate(rho_c, lambda m: lb.kl_rhs(m, sym_model), cfg_sym)
    c0 = abs(rho_c.matrix[0, 1])
    for s in traj_sym.samples[1:]:
        want = c0 * np.exp(-w_sym * s.t)
        ok &= abs(abs(s.rho[0, 1]) - want) <= 1e-3 * want
    # singular divergence: linear rate grows like -ln p_min, nonlinear bounded
    decay = np.zeros((2, 2), dtype=complex)
    decay[0, 1] = 1.0
    dmodel = lb.lindblad_model(-h2, jump_ops=(decay,))
    occupations = [1e-4, 1e-6, 1e-8]
    linear_rates = lb.singular_divergence_demo(dmodel, occupations, fill_state=1)
    ok &= linear_rates[0] < linear_rates[1] < linear_rates[2]
    _, slope, residual = lb.log_divergence_fit(occupations, linear_rates)
    ok &= slope > 0 and residual <= 0.20
    sea_model = single_model(h2)
    sea_rates = [sea.entropy_production_rate(
        st.validate(np.diag([p, 1.0 - p])), sea_model) for p in occupations]
    ok &= max(sea_rates) < linear_rates[2]
    ok &= max(sea_rates) <= 2.0 * max(sea_rates[0], 1.0)
    _report("10 linear dynamics (Pauli/KL 1e-12, balanced-rate energy 1e-7, "
            "coherence decay rel 1e-3, log divergence within 20%)", ok)


def test_11_ensemble_layer():
    ok = True
    rng = np.random.default_rng(11)
    # bounds and Dirac-iff-zero over 10^3 random measures
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        weights = rng.dirichlet(np.ones(n))
        states = [st.random_full_rank(2, seed=int(rng.integers(1 << 30)))
                  for _ in range(n)]
        mu = en.measure(list(zip(weights, states)))
        i_mu = en.statistical_uncertainty(mu)
        ok &= -1e-12 <= i_mu <= np.log(len(mu)) + 1e-12
        ok &= (i_mu <= 1e-12) == is_dirac(mu)
    # entropy-vs-uncertainty distinction
    mu2 = en.measure([(0.3, st.pure_state([1, 0])), (0.7, st.pure_state([0, 1]))])
    want_i = -(0.3 * np.log(0.3) + 0.7 * np.log(0.7))
    ok &= abs(en.expected_entropy(mu2)) <= 1e-12
    ok &= abs(en.statistical_uncertainty(mu2) - want_i) <= 1e-12
    # maxent weights and optimality
    h = np.diag([0.0, 1.0])
    states2 = [st.pure_state([1, 0]), st.pure_state([0, 1])]
    mu_star = en.maxent_known_spectrum(states2, 0.25, h)
    weights = sorted(mu_star.weights)
    ok &= abs(weights[0] - 0.25) <= 1e-10 and abs(weights[1] - 0.75) <= 1e-10
    h4 = np.diag([0.0, 1.0, 2.0, 3.0])
    states4 = [st.pure_state(v) for v in np.eye(4)]
    target = 1.3
    mu4 = en.maxent_known_spectrum(states4, target, h4)
    i_star = en.statistical_uncertainty(mu4)
    energies = np.arange(4.0)
    found = 0
    while found < 1000:
        qa = rng.dirichlet(np.ones(4))
        qb = rng.dirichlet(np.ones(4))
        ea, eb = qa @ energies, qb @ energies
        if not (min(ea, eb) <= target <= max(ea, eb)) or abs(ea - eb) < 1e-12:
            continue
        lam = (target - eb) / (ea - eb)
        q = lam * qa + (1 - lam) * qb
        if (q <= 0).any():
            continue
        ok &= -float(np.sum(q * np.log(q))) <= i_star + 1e-9
        found += 1
    # expected energy of an evolved measure stays constant
    model = single_model(h)
    mu_dyn = en.measure([(0.4, st.random_full_rank(2, seed=3)),
                         (0.6, st.random_full_rank(2, seed=4))])
    e0 = en.mean_observable(mu_dyn, h)
    evolved = en.evolve_measure(mu_dyn, lambda m: sea.sea_rhs(m, model), t_max=3.0)
    ok &= abs(en.mean_observable(evolved, h) - e0) <= 1e-7
    _report("11 ensemble layer (bounds + Dirac-iff-zero, entropy vs "
            "uncertainty, maxent 1e-10 + optimality 1e-9, energy 1e-7)", ok)


def test_12_oracle_equivalence_and_order():
    from test_sea import sea_rhs_qubit_oracle
    ok = True
    hams = [np.diag([0.0, 1.0]).astype(complex), SZ + 0.4 * SX]
    for h in hams:
        model = single_model(h, tau=0.8)
        for seed in range(50):
            rho = st.random_full_rank(2, seed=seed)
            got = sea.sea_rhs(rho, model)
            want = sea_rhs_qubit_oracle(rho.matrix, model.H, tau=0.8)
            ok &= float(np.abs(got - want).max()) <= 1e-10
    # RK4 order-four convergence on the relaxation scenario
    model = single_model(SZ)
    rho0 = st.validate(np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex))
    ref_cfg = ig.IntegratorConfig(t_max=1.0, rel_tol=1e-13, abs_tol=1e-14,
                                  dt_init=1e-3, dt_max=0.01)
    ref = ig.integrate(rho0, lambda m: sea.sea_rhs(m, model), ref_cfg).final.rho

    def rk4_error(dt):
        cfg = ig.IntegratorConfig(method="rk4", t_max=1.0, dt_init=dt,
                                  dt_min=dt / 4, dt_max=dt, projection="off")
        out = ig.integrate(rho0, lambda m: sea.sea_rhs(m, model), cfg).final.rho
        return float(np.linalg.norm(out - ref, ord="fro"))

    factor = rk4_error(0.05) / rk4_error(0.025)
    ok &= 12.0 <= factor <= 20.0
    _report(f"12 oracle equivalence on 100 qubit states (1e-10) and RK4 "
            f"order factor {factor:.1f} in [12, 20]", ok)
