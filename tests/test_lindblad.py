from functools import partial

import numpy as np
import pytest

from references import kl_dissipator
from seaqt import integrate as ig
from seaqt import lindblad as lb
from seaqt import operators as op
from seaqt import sea
from seaqt import states as st
from seaqt.errors import (NonCommutingGeneratorError, NonPositiveTauError,
                          SingularStateError)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def decay_channel(gamma=1.0, h=None):
    """Jump moving population from level 1 into level 0."""
    a = np.zeros((2, 2), dtype=complex)
    a[0, 1] = np.sqrt(gamma)
    h = np.diag([0.0, 1.0]) if h is None else h
    return lb.lindblad_model(-h, jump_ops=(a,)), h


class TestKlRhs:
    def test_drift_only_is_von_neumann(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        model = lb.lindblad_model(-h)
        rho = st.random_full_rank(2, seed=1)
        got = lb.kl_rhs(rho, model)
        want = -1j * (h @ rho.matrix - rho.matrix @ h)
        assert np.abs(got - want).max() <= 1e-14

    def test_decay_from_excited_state(self):
        model, _ = decay_channel(gamma=0.8)
        rho = st.pure_state([0, 1])
        got = lb.kl_rhs(rho, model)
        want = 0.8 * (np.diag([1.0, -1.0]))
        assert np.abs(got - want).max() <= 1e-14

    def test_ground_state_is_steady(self):
        model, _ = decay_channel()
        got = lb.kl_rhs(st.pure_state([1, 0]), model)
        assert np.abs(got).max() <= 1e-14

    def test_trace_free(self):
        rng = np.random.default_rng(3)
        jump = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        model = lb.lindblad_model(np.diag([0.0, 1.0, 2.0]), jump_ops=(jump,))
        for seed in range(5):
            rho = st.random_full_rank(3, seed=seed)
            assert abs(np.trace(lb.kl_rhs(rho, model))) <= 1e-12

    def test_linearity(self):
        model, _ = decay_channel(gamma=0.5)
        a = st.random_full_rank(2, seed=5).matrix
        b = st.random_full_rank(2, seed=6).matrix
        combo = lb.kl_rhs(0.3 * a + 0.7 * b, model)
        split = 0.3 * lb.kl_rhs(a, model) + 0.7 * lb.kl_rhs(b, model)
        assert np.abs(combo - split).max() <= 1e-12

    @pytest.mark.parametrize("n_jumps", [0, 1, 3])
    def test_jump_stack_matches_the_per_jump_formula(self, n_jumps):
        # J = 0, 1 and d jumps at d = 3, on one state and on a stack
        rng = np.random.default_rng(20 + n_jumps)
        jumps = rng.normal(size=(n_jumps, 3, 3)) + 1j * rng.normal(size=(n_jumps, 3, 3))
        b = np.diag([0.0, 0.6, 1.7])
        model = lb.lindblad_model(b, jump_ops=tuple(jumps))
        rhos = np.stack([st.random_full_rank(3, seed=80 + k).matrix for k in range(4)])
        want = np.stack([1j * (b @ m - m @ b) + kl_dissipator(jumps, m) for m in rhos])
        assert np.abs(lb.kl_rhs(rhos, model) - want).max() <= 1e-13
        assert np.abs(lb.kl_rhs(rhos[0], model) - want[0]).max() <= 1e-13


def energy_drift(model, h) -> float:
    """max |Tr(H kl_rhs(rho))| over seeded full-rank states: the rate of the
    mean energy."""
    return max(abs(float(np.trace(h @ lb.kl_rhs(st.random_full_rank(model.dim, seed=seed),
                                                 model)).real))
               for seed in range(8))


class TestEnergyConservation:
    def test_liouvillian_with_commuting_jumps(self):
        h = np.diag([0.0, 1.0])
        model = lb.lindblad_model(-h, jump_ops=(SZ.astype(complex) * 0.4,))
        assert energy_drift(model, h) <= 1e-12

    def test_decay_channel_violates(self):
        model, h = decay_channel()
        assert energy_drift(model, h) > 0.1
        rho = st.pure_state([0, 1])
        assert abs(np.trace(h @ lb.kl_rhs(rho, model)).real) > 0.1

    def test_balanced_pauli_rates_conserve(self):
        # transitions inside a degenerate pair plus dephasing satisfy the
        # per-level balance condition and conserve energy exactly
        e = np.array([0.0, 1.0, 1.0])
        w = np.zeros((3, 3))
        w[1, 2] = w[2, 1] = 0.8
        w[0, 0] = 0.3
        rates = lb.pauli_rates(w, e)
        assert lb.energy_balance_residual(rates) <= 1e-12
        assert energy_drift(lb.as_lindblad(rates), np.diag(e)) <= 1e-12

    def test_unbalanced_rates_fail_balance(self):
        e = np.array([0.0, 1.0])
        w = np.array([[0.0, 0.7], [0.0, 0.0]])
        rates = lb.pauli_rates(w, e)
        assert lb.energy_balance_residual(rates) > 0.1


class TestEntropyProduction:
    def test_no_jumps_gives_zero(self):
        model = lb.lindblad_model(-np.diag([0.0, 1.0]))
        rho = st.random_full_rank(2, seed=7)
        assert lb.kl_entropy_production(rho, model) == pytest.approx(0.0, abs=1e-13)

    def test_matches_pairing_on_full_rank(self):
        model, _ = decay_channel(gamma=0.6)
        for seed in range(8):
            rho = st.random_full_rank(2, seed=10 + seed)
            p, u = np.linalg.eigh(rho.matrix)
            log_rho = (u * np.log(p)) @ u.conj().T
            pairing = -float(np.trace(lb.kl_rhs(rho, model) @ log_rho).real)
            assert lb.kl_entropy_production(rho, model) == \
                pytest.approx(pairing, abs=1e-10)

    def test_near_fixed_point_rate_vanishes(self):
        model, _ = decay_channel(gamma=1.0)
        rho = st.mix_with_identity(st.pure_state([1, 0]), 1e-9)
        # ground state is the channel fixed point; the regularized rate is tiny
        assert abs(lb.kl_entropy_production(rho, model)) <= 1e-6

    def test_singular_state_raises(self):
        model, _ = decay_channel()
        with pytest.raises(SingularStateError):
            lb.kl_entropy_production(st.pure_state([0, 1]), model)


class TestSingularDivergence:
    def test_rates_increase_and_fit_log(self):
        model, _ = decay_channel(gamma=1.0)
        occupations = [1e-4, 1e-6, 1e-8]
        rates = lb.singular_divergence_demo(model, occupations, fill_state=1)
        assert rates[0] < rates[1] < rates[2]
        _, slope, residual = lb.log_divergence_fit(occupations, rates)
        assert slope > 0
        assert residual <= 0.20

    def test_growth_ratio_near_one(self):
        model, _ = decay_channel(gamma=1.0)
        occupations = [1e-4, 1e-6, 1e-8]
        r = lb.singular_divergence_demo(model, occupations, fill_state=1)
        ratio = (r[2] - r[1]) / (r[1] - r[0])
        assert ratio == pytest.approx(1.0, rel=0.20)

    def test_sea_rate_stays_bounded_at_same_states(self):
        h = np.diag([0.0, 1.0])
        model = sea.validate_model(sea.SingleConstituentModel(H=h, tau=1.0))
        rates = []
        for p_min in (1e-4, 1e-6, 1e-8):
            rho = st.validate(np.diag([p_min, 1.0 - p_min]))
            rates.append(sea.entropy_production_rate(rho, model))
        # nonlinear rate saturates: p (ln p)^2 -> 0, so no divergence
        assert max(rates) <= max(4.0, 2 * rates[0])
        assert rates[2] < rates[1]


class TestPauliMasterEquation:
    def test_matches_kl_with_dyadic_jumps(self):
        e = np.array([0.0, 0.7, 1.9])
        rng = np.random.default_rng(11)
        w = np.abs(rng.normal(size=(3, 3)))
        rates = lb.pauli_rates(w, e)
        model = lb.as_lindblad(rates)
        for seed in range(6):
            rho = st.random_full_rank(3, seed=30 + seed)
            got = lb.pauli_rhs(rho, rates)
            want = lb.kl_rhs(rho, model)
            assert np.abs(got - want).max() <= 1e-12

    def test_diagonal_states_follow_population_equation(self):
        e = np.array([0.0, 1.0])
        w = np.array([[0.0, 0.9], [0.2, 0.0]])
        rates = lb.pauli_rates(w, e)
        p = np.array([0.3, 0.7])
        rho = st.validate(np.diag(p))
        rhs = lb.pauli_rhs(rho, rates)
        # dp_i/dt = sum_r w_ir p_r - p_i sum_r w_ri
        populations = w @ p - w.sum(axis=0) * p
        assert np.abs(np.diag(rhs).real - populations).max() <= 1e-12
        assert abs(np.trace(rhs)) <= 1e-12

    def test_zero_rates_reduce_to_hamiltonian(self):
        e = np.array([0.0, 1.0])
        rates = lb.pauli_rates(np.zeros((2, 2)), e)
        rho = st.random_full_rank(2, seed=40)
        h = np.diag(e)
        want = -1j * (h @ rho.matrix - rho.matrix @ h)
        assert np.abs(lb.pauli_rhs(rho, rates) - want).max() <= 1e-14

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            lb.pauli_rates(np.array([[0.0, -0.1], [0.0, 0.0]]), [0.0, 1.0])

    @pytest.mark.parametrize("w, energies", [([[0.0, np.nan], [1.0, 0.0]], [0.0, 1.0]),
                                             ([[0.0, 1.0], [1.0, 0.0]], [0.0, np.nan])],
                             ids=["rate", "energy"])
    def test_nan_rate_or_energy_rejected(self, w, energies):
        with pytest.raises(ValueError):
            lb.pauli_rates(w, energies)

    def test_symmetric_rates_entropy_production_nonnegative(self):
        e = np.array([0.0, 1.0, 2.0])
        rng = np.random.default_rng(13)
        half = np.abs(rng.normal(size=(3, 3)))
        w = 0.5 * (half + half.T)
        rates = lb.pauli_rates(w, e)
        model = lb.as_lindblad(rates)
        for seed in range(6):
            rho = st.random_full_rank(3, seed=50 + seed)
            assert lb.kl_entropy_production(rho, model) >= -1e-10


class TestSymmetricLimit:
    @pytest.mark.parametrize("w", [-0.5, np.nan])
    def test_negative_or_nan_rate_rejected(self, w):
        with pytest.raises(ValueError):
            lb.symmetric_limit(w, np.diag([0.0, 1.0]))

    def test_diagonal_invariant(self):
        h = np.diag([0.0, 1.0])
        rho = st.random_full_rank(2, seed=60)
        rhs = lb.kl_rhs(rho, lb.symmetric_limit(0.7, h))
        assert np.abs(np.diag(rhs).real).max() <= 1e-13

    def test_energy_conserved(self):
        h = np.diag([0.0, 1.0, 2.0])
        rho = st.random_full_rank(3, seed=61)
        rhs = lb.kl_rhs(rho, lb.symmetric_limit(0.4, h))
        assert abs(np.trace(h @ rhs).real) <= 1e-12

    def test_coherence_decays_exponentially(self):
        h = np.diag([0.0, 1.0])
        w = 0.8
        rho0 = st.pure_state(np.array([1.0, 1.0]) / np.sqrt(2))
        cfg = ig.IntegratorConfig(t_max=2.0, dt_max=0.05, rel_tol=1e-10,
                                  abs_tol=1e-12, projection="off")
        traj = ig.integrate(rho0, partial(lb.kl_rhs, model=lb.symmetric_limit(w, h)), cfg)
        c0 = abs(rho0.matrix[0, 1])
        for s in traj.samples[1:]:
            want = c0 * np.exp(-w * s.t)
            assert abs(s.rho[0, 1]) == pytest.approx(want, rel=1e-3)

    def test_matches_kl_with_projector_jumps(self):
        # dyadic self-jumps sqrt(w)|r><r| realize the same dissipator
        h = np.diag([0.0, 1.0])
        w = 0.5
        rates = lb.pauli_rates(w * np.eye(2), [0.0, 1.0])
        model = lb.as_lindblad(rates)
        rho = st.random_full_rank(2, seed=62)
        assert np.abs(lb.kl_rhs(rho, model) -
                      lb.kl_rhs(rho, lb.symmetric_limit(w, h))).max() <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_dephasing_in_the_h_eigenbasis(self, dim):
        # w (diag(rho) - rho) - i[H, rho], diag taken in the H eigenbasis
        rng = np.random.default_rng(dim)
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h, w = op.hermitize(x), 0.6
        vecs = np.linalg.eigh(h)[1]
        rho = st.random_full_rank(dim, seed=63).matrix
        m_h = vecs.conj().T @ rho @ vecs
        want = (-1j * (h @ rho - rho @ h)
                + w * vecs @ (np.diag(np.diag(m_h)) - m_h) @ vecs.conj().T)
        assert np.abs(lb.kl_rhs(rho, lb.symmetric_limit(w, h)) - want).max() <= 1e-13

    def test_operators_validated_once_when_built(self, monkeypatch):
        calls, in_rhs = [], []

        def counting(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append((name, bool(in_rhs)))
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        rho0 = st.random_full_rank(3, seed=64)
        counting(op, "require_hermitian")
        counting(np.linalg, "eigh")
        model = lb.symmetric_limit(0.5, np.diag([0.0, 1.0, 2.0]))
        assert sorted(calls) == [("eigh", False), ("require_hermitian", False)]

        def rhs(m):
            in_rhs.append(True)
            try:
                return lb.kl_rhs(m, model)
            finally:
                in_rhs.pop()
        traj = ig.integrate(rho0, rhs, ig.IntegratorConfig(t_max=2.0))
        assert traj.stats["rhs_calls"] > 100
        assert [c for c in calls if c[1]] == []


class TestDoubleCommutator:
    def test_coherence_decay_populations_fixed(self):
        rho = st.validate(np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex))
        rhs = lb.kl_rhs(rho, lb.double_commutator(SZ, 0.5, SZ))
        # F = H = sigma_z: comm part cancels on diagonal, coherences damped
        assert np.abs(np.diag(rhs).real).max() <= 1e-13
        # [sz, [sz, rho]] off-diagonal = 4 rho_01
        want_01 = -1j * (SZ @ rho.matrix - rho.matrix @ SZ)[0, 1] - 0.25 * 4 * rho.matrix[0, 1]
        assert rhs[0, 1] == pytest.approx(want_01, abs=1e-13)

    def test_commuting_state_gives_zero_dissipation(self):
        f = np.diag([1.0, -1.0])
        rho = st.validate(np.diag([0.7, 0.3]))
        rhs = lb.kl_rhs(rho, lb.double_commutator(f, 1.0, np.diag([0.0, 1.0])))
        assert np.abs(rhs).max() <= 1e-13

    def test_conserves_f_mean(self):
        f = np.diag([1.0, 2.0, -1.0])
        h = np.diag([0.0, 1.0, 2.0])
        for seed in range(5):
            rho = st.random_full_rank(3, seed=70 + seed)
            rhs = lb.kl_rhs(rho, lb.double_commutator(f, 0.8, h))
            assert abs(np.trace(f @ rhs).real) <= 1e-12
            assert abs(np.trace(h @ rhs).real) <= 1e-12
            assert abs(np.trace(rhs)) <= 1e-13

    def test_non_commuting_f_rejected(self):
        with pytest.raises(NonCommutingGeneratorError, match="F does not commute with H"):
            lb.double_commutator(SX, 1.0, np.diag([0.0, 1.0]))

    @pytest.mark.parametrize("hbar", [1.0, 0.7])
    def test_model_is_the_double_commutator_equation(self, hbar):
        # -(i/hbar)[H, rho] - (tau/2 hbar^2)[F, [F, rho]]
        f, h, tau = np.diag([1.0, 2.0, -1.0]), np.diag([0.0, 1.0, 2.0]), 0.8
        model = lb.double_commutator(f, tau, h, units=op.UnitSystem(hbar=hbar))
        for seed in range(4):
            rho = st.random_full_rank(3, seed=90 + seed).matrix
            want = (-1j / hbar * op.commutator(h, rho)
                    - tau / (2 * hbar**2) * op.commutator(f, op.commutator(f, rho)))
            assert np.abs(lb.kl_rhs(rho, model) - want).max() <= 1e-13

    @pytest.mark.parametrize("tau", [np.nan, -1.0, 0.0])
    def test_nonpositive_or_nan_tau_rejected(self, tau):
        with pytest.raises(NonPositiveTauError):
            lb.double_commutator(SZ, tau, np.diag([0.0, 1.0]))

    def test_operators_validated_once_when_built(self, monkeypatch):
        with pytest.raises(NonCommutingGeneratorError):
            lb.double_commutator(SX, 1.0, np.diag([0.0, 1.0]))
        rho0 = st.random_full_rank(3, seed=75)   # validated before counting
        calls = []

        def counting(name):
            fn = getattr(op, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("require_hermitian", "commutation_check"):
            monkeypatch.setattr(op, name, counting(name))
        f, h = np.diag([1.0, 2.0, -1.0]), np.diag([0.0, 1.0, 2.0])
        rhs = partial(lb.kl_rhs, model=lb.double_commutator(f, 0.8, h))
        traj = ig.integrate(rho0, rhs, ig.IntegratorConfig(t_max=2.0))
        assert traj.stats["rhs_calls"] > 100
        assert sorted(calls) == ["commutation_check"] + ["require_hermitian"] * 2

    def test_entropy_nondecreasing_along_trajectory(self):
        h = np.diag([0.0, 1.0])
        rho0 = st.validate(np.array([[0.6, 0.25], [0.25, 0.4]], dtype=complex))
        cfg = ig.IntegratorConfig(t_max=5.0, dt_max=0.2)
        traj = ig.integrate(rho0, partial(lb.kl_rhs, model=lb.double_commutator(SZ, 1.0, h)),
                            cfg)
        s = traj.column("entropy")
        assert np.all(np.diff(s) >= -1e-10)
