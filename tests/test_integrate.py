import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from seaqt import composite as cp
from seaqt import integrate as ig
from seaqt import lindblad as lb
from seaqt import operators as op
from seaqt import sea
from seaqt import states as st
from seaqt.errors import StateInvalidError

SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def sea_rhs_fn(model):
    return lambda m: sea.sea_rhs(m, model)


@pytest.fixture
def qubit_model():
    return sea.validate_model(
        sea.SingleConstituentModel(H=SZ.copy(), tau=1.0))


class TestProject:
    def test_valid_state_unchanged(self):
        rho = st.random_full_rank(3, seed=1)
        out = ig.project(rho.matrix, "full")
        assert np.abs(out - rho.matrix).max() <= 1e-14

    def test_hermitizes_noise(self):
        rho = st.random_full_rank(2, seed=2)
        noisy = rho.matrix + 1e-12 * np.array([[0, 1], [0, 0]])
        out = ig.project(noisy, "hermitize_only")
        assert np.abs(out - out.conj().T).max() == 0.0

    def test_clamps_round_off_negativity(self):
        m = np.diag([1.0 + 1e-11, -1e-11])
        out = ig.project(m, "full")
        vals = np.linalg.eigvalsh(out)
        assert vals[0] >= 0
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-15)

    def test_rejects_genuine_negativity(self):
        with pytest.raises(StateInvalidError):
            ig.project(np.diag([1.2, -0.2]), "full")


class TestDetectEquilibrium:
    """Detection by the default norm, the rhs Frobenius norm per member."""

    CONFIG = ig.IntegratorConfig(t_max=0.1, equilibrium_norm_tol=1e-9)

    def test_gibbs_state_detected(self, qubit_model):
        rho = st.gibbs_seed(1.0, qubit_model.H)
        traj = ig.integrate(rho, sea_rhs_fn(qubit_model), self.CONFIG)
        assert traj.termination == "equilibrium"
        assert traj.stats["accepted_steps"] == 0

    def test_random_state_not_detected(self, qubit_model):
        rho = st.StateOperator(np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex))
        traj = ig.integrate(rho, sea_rhs_fn(qubit_model), self.CONFIG)
        assert traj.termination == "t_max"

    def test_rotating_pure_state_not_detected(self, qubit_model):
        rho = st.pure_state(np.array([1.0, 1.0]) / np.sqrt(2))
        traj = ig.integrate(rho, sea_rhs_fn(qubit_model), self.CONFIG)
        assert traj.termination == "t_max"


class TestProjectionOff:
    def test_valid_run_records_the_raw_states(self):
        # a trace drift well inside TRACE_TOL: full projection would
        # renormalize it away, projection off keeps it in every sample
        rho0 = st.random_full_rank(2, seed=5).matrix
        drift = 1e-8 * np.eye(2, dtype=complex)
        config = ig.IntegratorConfig(t_max=1.0, projection="off")
        traj = ig.integrate(rho0, lambda m: drift, config)
        assert traj.termination == "t_max"
        assert np.abs(traj.final.rho - (rho0 + drift)).max() <= 1e-15
        for s in traj.samples:
            assert s.trace_err == abs(np.trace(s.rho).real - 1.0)
        assert traj.final.trace_err == pytest.approx(2e-8, rel=1e-6)

    def test_leaving_the_state_set_raises_naming_t_and_member(self):
        kick = np.diag([-10.0, 10.0]).astype(complex)
        config = ig.IntegratorConfig(t_max=1.0, dt_init=0.1, projection="off")
        rho = st.random_full_rank(2, seed=0).matrix
        with pytest.raises(StateInvalidError, match=r"at t = 0\.1 with projection off$"):
            ig.integrate(rho, lambda m: kick, config)

        def rhs(m):
            out = np.zeros_like(m)
            out[1] = kick
            return out

        stack = np.stack([st.random_full_rank(2, seed=s).matrix for s in range(3)])
        with pytest.raises(StateInvalidError,
                           match=r"at t = 0\.1 with projection off \(member 1\)") as info:
            ig.integrate(stack, rhs, config)
        assert info.value.member == 1


class TestIntegrate:
    def test_zero_rhs_stays_constant(self):
        rho0 = st.random_full_rank(2, seed=3)
        config = ig.IntegratorConfig(t_max=1.0, dt_init=0.1, dt_max=0.5)
        traj = ig.integrate(rho0, lambda m: np.zeros_like(m), config)
        assert traj.termination == "t_max"
        assert np.abs(traj.final.rho - rho0.matrix).max() <= 1e-14

    def test_pure_qubit_matches_unitary_rotation(self, qubit_model):
        # analytic oracle: rho(t) = U rho U+ with U = exp(-i H t)
        psi = np.array([np.cos(0.4), np.sin(0.4)], dtype=complex)
        rho0 = st.pure_state(psi)
        t_end = 1.0
        config = ig.IntegratorConfig(t_max=t_end, rel_tol=1e-12, abs_tol=1e-13,
                                     dt_init=1e-3, dt_max=0.1)
        traj = ig.integrate(rho0, sea_rhs_fn(qubit_model), config)
        u = np.diag(np.exp(-1j * np.diag(qubit_model.H) * t_end))
        want = u @ rho0.matrix @ u.conj().T
        assert np.linalg.norm(traj.final.rho - want, ord="fro") <= 1e-8

    def test_entropy_monotone_energy_conserved(self, qubit_model):
        rho0 = st.validate(np.array([[0.6, 0.25], [0.25, 0.4]], dtype=complex))
        config = ig.IntegratorConfig(t_max=20.0, dt_max=2.0, sample_every=1)
        obs = ig.Observables(energy_op=qubit_model.H,
                             g_rate=lambda m: sea.entropy_production_rate(m, qubit_model))
        traj = ig.integrate(rho0, sea_rhs_fn(qubit_model), config, observables=obs)
        s = traj.column("entropy")
        assert np.all(np.diff(s) >= -1e-10)
        e = traj.column("energy")
        assert np.abs(e - e[0]).max() <= 1e-7
        assert np.abs(traj.column("trace_err")).max() <= 1e-9
        assert traj.column("min_eig").min() >= -1e-10

    def test_equilibrium_termination(self, qubit_model):
        # the state hovers near equilibrium at the step-error noise floor, so
        # reaching a 1e-10 rhs norm requires correspondingly tight tolerances
        rho0 = st.validate(np.array([[0.6, 0.25], [0.25, 0.4]], dtype=complex))
        config = ig.IntegratorConfig(t_max=500.0, dt_max=5.0,
                                     rel_tol=1e-12, abs_tol=1e-13,
                                     equilibrium_norm_tol=1e-10)
        traj = ig.integrate(rho0, sea_rhs_fn(qubit_model), config)
        assert traj.termination == "equilibrium"
        final_rhs = sea.sea_rhs(traj.final.rho, qubit_model)
        assert np.linalg.norm(final_rhs, ord="fro") <= 1e-10

    @pytest.mark.parametrize("method", ig.METHODS)
    def test_rhs_never_evaluated_twice_at_one_state(self, qubit_model, method):
        # a rejected retry keeps k1, and equilibrium detection hands the rhs
        # it evaluates at the projected state on as the next step's k1
        seen = []

        def rhs(m):
            seen.append(m.tobytes())
            return sea.sea_rhs(m, qubit_model)

        rho0 = st.validate(np.array([[0.6, 0.25], [0.25, 0.4]], dtype=complex))
        dt = 1.0 if method == "rk45" else 0.05
        config = ig.IntegratorConfig(method=method, t_max=30.0, dt_init=dt,
                                     dt_max=dt, equilibrium_norm_tol=1e-6)
        traj = ig.integrate(rho0, rhs, config)
        assert traj.termination == "equilibrium"
        if method == "rk45":
            assert traj.times[1] < dt   # the first attempt was rejected
        assert len(set(seen)) == len(seen)

    @pytest.mark.parametrize("method", ig.METHODS)
    @pytest.mark.parametrize("detection", ["off", "rhs_norm", "eq_norm"])
    def test_stats_count_what_the_rhs_sees(self, qubit_model, method, detection):
        calls = []

        def rhs(m):
            calls.append(m)
            return sea.sea_rhs(m, qubit_model)

        rho0 = st.validate(np.array([[0.6, 0.25], [0.25, 0.4]], dtype=complex))
        dt = 1.0 if method == "rk45" else 0.05
        config = ig.IntegratorConfig(
            method=method, t_max=30.0, dt_init=dt, dt_max=dt,
            equilibrium_norm_tol=0.0 if detection == "off" else 1e-6)
        eq_norm = (lambda m: np.linalg.norm(sea.sea_rhs(m, qubit_model))) \
            if detection == "eq_norm" else None
        stats = ig.integrate(rho0, rhs, config, eq_norm=eq_norm).stats
        assert stats["rhs_calls"] == len(calls)
        if method == "rk45":
            assert stats["rejected_steps"] > 0
            assert stats["k1_reused"] > 0
        else:
            assert stats["rejected_steps"] == stats["k1_reused"] == 0
        # every attempt evaluates stages 2..s; every accepted step, and the
        # detection by the rhs norm at the start, needs a k1 that is either
        # reused from the last stage or evaluated fresh
        stages = 7 if method == "rk45" else 4
        attempts = stats["accepted_steps"] + stats["rejected_steps"]
        k1_needed = stats["accepted_steps"] + (detection == "rhs_norm")
        assert stats["rhs_calls"] == (stages - 1) * attempts + k1_needed - stats["k1_reused"]

    @pytest.mark.parametrize("case", ["round_off", "trace_drift", "clamp", "small_clamp",
                                      "small_snap"])
    def test_fresh_k1_unless_projection_was_round_off(self, case):
        # one step of a constant rhs: "round_off" leaves every eigenvalue
        # positive, and the last stage is reused as the k1 of the detection
        # norm; "trace_drift" leaves the trace at 1 + 3e-10, and the
        # renormalization moves the state beyond FSAL_MOVE_TOL; "clamp"
        # leaves an eigenvalue at -1e-11, "small_clamp" at -1e-14, and
        # "small_snap" moves 5e-14 of weight off a pure state.  The small
        # repairs move the state by less than FSAL_MOVE_TOL, yet every
        # repair must get a k1 evaluated at the projected state
        mixed = np.diag([0.5, 0.4, 0.1]).astype(complex)
        push = np.diag([0.0, 1.0, -1.0]).astype(complex)
        rho0, dt = {
            "round_off": (np.diag([0.5, 0.3, 0.2]).astype(complex), 0.1 + 1e-11),
            "trace_drift": (np.diag([0.5, 0.3, 0.2]).astype(complex), 0.1),
            "clamp": (mixed, 0.1 + 1e-11),
            "small_clamp": (mixed, 0.1 + 1e-14),
            "small_snap": (np.diag([1.0, 0.0, 0.0]).astype(complex), 0.1),
        }[case]
        if case == "trace_drift":
            push = push + 1e-9 * np.eye(3)
        elif case == "small_snap":
            push = np.diag([-5e-13, 5e-13, 0.0]).astype(complex)
        calls = []

        def rhs(m):
            calls.append(m.copy())
            return push

        config = ig.IntegratorConfig(t_max=dt, dt_init=dt, dt_max=dt,
                                     equilibrium_norm_tol=1e-300)
        traj = ig.integrate(rho0, rhs, config)
        assert traj.stats["accepted_steps"] == 1
        final = traj.final.rho
        if case == "round_off":
            assert traj.stats["k1_reused"] == 1
            assert len(calls) == 7
            assert np.abs(final - calls[-1]).max() <= 1e-15
            return
        raw = calls[-2]   # the 7th stage, at the raw step
        move = np.linalg.norm(final - raw) / np.linalg.norm(raw)
        if case == "trace_drift":
            assert move >= 1e-10
        elif case == "clamp":
            assert np.linalg.eigvalsh(raw)[0] <= -5e-12
        elif case == "small_clamp":
            assert np.linalg.eigvalsh(raw)[0] <= -5e-15
            assert 0 < move <= ig.FSAL_MOVE_TOL
        else:
            assert np.array_equal(final, np.diag([1.0, 0.0, 0.0]))
            assert 0 < move <= ig.FSAL_MOVE_TOL
        assert np.linalg.eigvalsh(final)[0] >= 0.0
        assert traj.stats["k1_reused"] == 0
        assert len(calls) == 8
        assert np.array_equal(calls[-1], final)

    def test_rk4_order_four_convergence(self, qubit_model):
        # global error at t = 1 shrinks ~16x when dt halves
        rho0 = st.validate(np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex))
        ref_cfg = ig.IntegratorConfig(t_max=1.0, rel_tol=1e-13, abs_tol=1e-14,
                                      dt_init=1e-3, dt_max=0.01)
        ref = ig.integrate(rho0, sea_rhs_fn(qubit_model), ref_cfg).final.rho

        def rk4_error(dt):
            cfg = ig.IntegratorConfig(method="rk4", t_max=1.0, dt_init=dt,
                                      dt_min=dt / 4, dt_max=dt,
                                      projection="hermitize_only")
            out = ig.integrate(rho0, sea_rhs_fn(qubit_model), cfg).final.rho
            return np.linalg.norm(out - ref, ord="fro")

        factor = rk4_error(0.05) / rk4_error(0.025)
        assert 12.0 <= factor <= 20.0

    def test_adaptive_and_fixed_agree(self, qubit_model):
        rho0 = st.validate(np.array([[0.55, 0.2], [0.2, 0.45]], dtype=complex))
        rel = 1e-8
        adaptive = ig.integrate(rho0, sea_rhs_fn(qubit_model),
                                ig.IntegratorConfig(t_max=2.0, rel_tol=rel,
                                                    abs_tol=1e-11, dt_max=0.5))
        fixed = ig.integrate(rho0, sea_rhs_fn(qubit_model),
                             ig.IntegratorConfig(method="rk4", t_max=2.0,
                                                 dt_init=1e-3, dt_min=1e-4,
                                                 dt_max=1e-3))
        gap = np.linalg.norm(adaptive.final.rho - fixed.final.rho, ord="fro")
        assert gap <= 10 * rel

    def test_entropy_rate_consistency(self, qubit_model):
        # centered finite difference of entropy matches the recorded g rate
        rho0 = st.validate(np.array([[0.65, 0.22], [0.22, 0.35]], dtype=complex))
        dt = 0.01
        cfg = ig.IntegratorConfig(method="rk4", t_max=2.0, dt_init=dt,
                                  dt_min=dt, dt_max=dt, sample_every=1)
        obs = ig.Observables(energy_op=qubit_model.H,
                             g_rate=lambda m: sea.entropy_production_rate(m, qubit_model))
        traj = ig.integrate(rho0, sea_rhs_fn(qubit_model), cfg, observables=obs)
        t = traj.times
        s = traj.column("entropy")
        g = traj.column("g_rate")
        for i in range(1, len(t) - 1):
            fd = (s[i + 1] - s[i - 1]) / (t[i + 1] - t[i - 1])
            if g[i] > 1e-8:
                assert fd == pytest.approx(g[i], rel=1e-3)


class TestTrajectoryCsv:
    def test_column_order_and_round_trip(self, qubit_model):
        rho0 = st.validate(np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex))
        obs = ig.Observables(energy_op=qubit_model.H, generator_ops=(qubit_model.H,),
                             g_rate=lambda m: sea.entropy_production_rate(m, qubit_model))
        traj = ig.integrate(rho0, sea_rhs_fn(qubit_model),
                            ig.IntegratorConfig(t_max=0.5, dt_max=0.25), obs)
        text = traj.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "t,entropy,energy,g_rate,trace_err,herm_err,purity,min_eig,gen_0"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        # shortest round-trip representation parses back exactly
        assert float(first[1]) == traj.samples[0].entropy


def commuting_model(dim, n_gen, rng):
    """H and n_gen generators diagonal in one random eigenbasis; with
    n_gen >= dim - 1 the generator Gram is exactly singular."""
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u, _ = np.linalg.qr(x)
    h, *gens = [op.hermitize((u * rng.normal(size=dim)) @ u.conj().T)
                for _ in range(n_gen + 1)]
    return sea.SingleConstituentModel(H=h, generators=tuple(gens))


@settings(max_examples=24, deadline=None, database=None, derandomize=True)
@given(seed=hs.integers(0, 2**31 - 1), dim=hs.sampled_from([2, 3, 4, 8]),
       n_gen=hs.integers(0, 2))
def test_fsal_trajectory_keeps_the_invariants(seed, dim, n_gen):
    # the acceptance tolerances of the conservation suite and of entropy
    # monotonicity and Gram positivity, along an rk45 trajectory whose
    # steps reuse their last stage as the next k1
    rng = np.random.default_rng(seed)
    model = commuting_model(dim, n_gen, rng)
    rho0 = st.random_full_rank(dim, seed=int(rng.integers(2**31)))
    obs = ig.Observables(energy_op=model.H, generator_ops=model.generators,
                         g_rate=lambda m: sea.gram_determinant_g(m, model))
    config = ig.IntegratorConfig(t_max=5.0, dt_max=2.0, rel_tol=1e-10, abs_tol=1e-12)
    traj = ig.integrate(rho0, lambda m: sea.sea_rhs(m, model), config, observables=obs)
    assert traj.stats["k1_reused"] > 0
    assert np.abs(traj.column("trace_err")).max() <= 1e-9
    means = np.column_stack([traj.column("energy"),
                             *np.array([s.generator_means for s in traj.samples]).T])
    assert np.abs(means - means[0]).max() <= 1e-7
    assert np.diff(traj.column("entropy")).min(initial=0.0) >= -1e-10
    assert traj.column("g_rate").min() >= -1e-12


class TestSampledGrid:
    """rk45 records the sample_dt grid from the continuous extension of
    its steps and keeps taking the steps its tolerances choose."""

    @staticmethod
    def run(name, **settings):
        h = np.diag([0.0, 0.7, 1.9]).astype(complex)
        if name == "sea":
            model = sea.SingleConstituentModel(
                H=h, generators=(np.diag([1.0, -1.0, 0.2]).astype(complex),))
            obs = ig.Observables(energy_op=h, generator_ops=model.generators,
                                 g_rate=lambda m: sea.gram_determinant_g(m, model))
            return ig.integrate(st.random_full_rank(3, seed=3),
                                lambda m: sea.sea_rhs(m, model),
                                ig.IntegratorConfig(**settings), obs)
        if name == "lindblad":
            a = np.zeros((3, 3), dtype=complex)
            a[0, 2] = 0.6
            lmodel = lb.lindblad_model(-h, jump_ops=(a,))
            return ig.integrate(st.random_full_rank(3, seed=3),
                                lambda m: lb.kl_rhs(m, lmodel),
                                ig.IntegratorConfig(**settings),
                                ig.Observables(energy_op=h))
        model = cp.validate_model(cp.CompositeModel(
            (cp.Constituent(2, (), 1.0), cp.Constituent(2, (), 0.5)),
            op.kron(np.diag([0.0, 1.0]), np.eye(2)) + op.kron(np.eye(2), np.diag([0.0, 1.3]))
            + 0.4 * op.kron(SZ, SZ)))
        return ig.integrate(st.random_full_rank(4, seed=3),
                            lambda m: cp.composite_rhs(m, model),
                            ig.IntegratorConfig(**settings),
                            ig.Observables(energy_op=model.H))

    @pytest.mark.parametrize("name", ["sea", "lindblad", "composite"])
    def test_sampling_leaves_the_steps_alone(self, name):
        # the first step of 0.5 is rejected
        free = self.run(name, t_max=3.0, dt_init=0.5)
        sampled = self.run(name, t_max=3.0, dt_init=0.5, sample_dt=0.07)
        assert free.stats["rejected_steps"] > 0
        counts = ("rhs_calls", "accepted_steps", "rejected_steps", "k1_reused")
        assert {k: sampled.stats[k] for k in counts} == {k: free.stats[k] for k in counts}
        assert np.array_equal(sampled.final.rho, free.final.rho)
        # samples at k sample_dt, each inside a step and interpolated, then t_max
        n = int(3.0 / 0.07)
        assert np.allclose(sampled.times, [*(0.07 * np.arange(n + 1)), 3.0],
                           rtol=0.0, atol=1e-12)
        assert sampled.stats["interpolated_samples"] == n
        assert free.stats["interpolated_samples"] == 0
        stats = sampled.stats
        attempts = stats["accepted_steps"] + stats["rejected_steps"]
        assert stats["rhs_calls"] == 6 * attempts + stats["accepted_steps"] - stats["k1_reused"]

    @pytest.mark.parametrize("name", ["sea", "lindblad", "composite"])
    def test_interpolated_samples_match_a_tight_reference(self, name):
        got = self.run(name, t_max=3.0, sample_dt=0.07)
        ref = self.run(name, t_max=3.0, sample_dt=0.07, rel_tol=1e-12, abs_tol=1e-14)
        assert np.array_equal(got.times, ref.times)
        gap = max(np.abs(a.rho - b.rho).max() for a, b in zip(got.samples, ref.samples))
        assert gap <= 1e-7
        assert np.abs(got.column("trace_err")).max() <= 1e-9
        if name == "lindblad":   # the decay channel changes the energy
            return
        e = got.column("energy")
        assert np.abs(e - e[0]).max() <= 1e-7
        if name == "sea":
            x = got.column("generator_means")[:, 0]
            assert np.abs(x - x[0]).max() <= 1e-7
            assert np.diff(got.column("entropy")).min() >= -1e-10
            assert got.column("g_rate").min() >= -1e-12

    def test_continuous_extension_meets_the_step_and_its_order(self):
        # b(0) = 0 gives y0 and b(1) = B5 the step's endpoint; every theta
        # meets the eight order conditions through order 4
        a = ig._DP_A
        c = a.sum(axis=1)

        def b(theta):
            return ig._DP_P @ theta ** np.arange(1, 5)

        assert not b(0.0).any()
        assert np.abs(b(1.0) - a[6]).max() <= 1e-15
        for theta in (0.1, 0.35, 0.8, 1.0):
            w = b(theta)
            conditions = [
                (w.sum(), theta), (w @ c, theta**2 / 2),
                (w @ c**2, theta**3 / 3), (w @ a @ c, theta**3 / 6),
                (w @ c**3, theta**4 / 4), (w @ (c * (a @ c)), theta**4 / 8),
                (w @ a @ c**2, theta**4 / 12), (w @ a @ a @ c, theta**4 / 24)]
            for got, want in conditions:
                assert got == pytest.approx(want, abs=1e-14)

    def test_rk4_steps_land_on_the_grid(self):
        # fixed steps of 0.2 are clipped at the multiples of 0.3
        sampled = self.run("sea", method="rk4", t_max=1.2, dt_init=0.2, dt_max=0.2,
                           sample_dt=0.3)
        assert sampled.times == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.2], abs=1e-15)
        assert sampled.stats["accepted_steps"] > 6
        assert sampled.stats["rhs_calls"] == 4 * sampled.stats["accepted_steps"]
        assert sampled.stats["interpolated_samples"] == 0

    def test_rk4_goes_back_to_its_step_after_a_clip(self):
        # steps of 0.2 clipped at 0.3, 0.9 (and landing on 0.6, 1.2):
        # 0.2, 0.3 | 0.5, 0.6 | 0.8, 0.9 | 1.1, 1.2 is 8 steps; keeping the
        # clipped 0.1 after the first clip would take 11
        h = np.diag([0.0, 1.0, 2.0]).astype(complex)
        model = sea.SingleConstituentModel(H=h)

        def run(**settings):
            return ig.integrate(st.random_full_rank(3, seed=3),
                                lambda m: sea.sea_rhs(m, model),
                                ig.IntegratorConfig(method="rk4", t_max=1.2, dt_init=0.2,
                                                    dt_max=0.2, **settings))

        sampled = run(sample_dt=0.3)
        assert sampled.stats["accepted_steps"] == 8
        assert sampled.times == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.2], abs=1e-15)
        assert run().stats["accepted_steps"] == 6

    def test_reruns_give_identical_csv(self):
        first = self.run("sea", t_max=3.0, sample_dt=0.07).to_csv()
        assert self.run("sea", t_max=3.0, sample_dt=0.07).to_csv() == first

    @pytest.mark.parametrize("sample_dt", [0.0, -0.5])
    def test_a_grid_needs_a_positive_spacing(self, sample_dt):
        with pytest.raises(ValueError, match="sample_dt"):
            ig.IntegratorConfig(sample_dt=sample_dt)


@pytest.mark.parametrize("field, value, message", [
    ("t_max", np.inf, "t_max must be finite"), ("t_max", np.nan, "t_max must be finite"),
    ("rel_tol", np.nan, "tolerances"), ("abs_tol", np.nan, "tolerances")])
def test_non_finite_settings_are_rejected(field, value, message):
    with pytest.raises(ValueError, match=message):
        ig.IntegratorConfig(**{field: value})
