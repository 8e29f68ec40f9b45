import numpy as np
import pytest

from references import log_operator_kernel, reduced_hamiltonian, reduced_log, thinned
from seaqt import composite as cp
from seaqt import equilibrium as eq
from seaqt import integrate as ig
from seaqt import operators as op
from seaqt import sea
from seaqt import states as st
from seaqt.errors import (DimensionMismatchError, NonCommutingGeneratorError,
                          SingularCompositeStateError)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def two_qubit_model(h1=None, h2=None, coupling=0.0):
    h1 = SZ if h1 is None else h1
    h2 = 0.7 * SZ if h2 is None else h2
    h = op.kron(h1, I2) + op.kron(I2, h2) + coupling * op.kron(SZ, SZ)
    return cp.validate_model(cp.CompositeModel(
        constituents=(cp.Constituent(2, tau=1.0), cp.Constituent(2, tau=0.6)),
        H=h))


def product_state(*factors):
    m = factors[0].matrix if hasattr(factors[0], "matrix") else factors[0]
    for f in factors[1:]:
        m = op.kron(m, f.matrix if hasattr(f, "matrix") else f)
    return st.StateOperator(m)


class TestModelValidation:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(Exception):
            cp.validate_model(cp.CompositeModel(
                constituents=(cp.Constituent(2), cp.Constituent(3)), H=np.eye(4)))

    def test_non_commuting_lifted_generator_rejected(self):
        h = op.kron(SZ, I2) + op.kron(I2, SZ)
        with pytest.raises(NonCommutingGeneratorError):
            cp.validate_model(cp.CompositeModel(
                constituents=(cp.Constituent(2, generators=(SX,)), cp.Constituent(2)),
                H=h))


class TestReducedState:
    def test_product_state(self):
        model = two_qubit_model()
        rho1 = st.random_full_rank(2, seed=1)
        rho2 = st.random_full_rank(2, seed=2)
        rho = product_state(rho1, rho2)
        assert np.abs(cp.reduced_state(rho, model, 0) - rho1.matrix).max() <= 1e-12
        assert np.abs(cp.reduced_state(rho, model, 1) - rho2.matrix).max() <= 1e-12

    def test_bell_state(self):
        model = two_qubit_model()
        bell = st.pure_state(np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert np.abs(cp.reduced_state(bell, model, 0) - I2 / 2).max() <= 1e-12

    def test_trace_one(self):
        model = two_qubit_model(coupling=0.3)
        rho = st.random_full_rank(4, seed=3)
        for j in (0, 1):
            assert np.trace(cp.reduced_state(rho, model, j)).real == \
                pytest.approx(1.0, abs=1e-12)


class TestReducedHamiltonian:
    def test_separable_case(self):
        model = two_qubit_model()
        rho = st.random_full_rank(4, seed=4)
        h2_mean = st.mean(0.7 * SZ, cp.reduced_state(rho, model, 1))
        want = SZ + h2_mean * I2
        got = reduced_hamiltonian(rho, model, 0)
        assert np.abs(got - want).max() <= 1e-10

    def test_coupling_traces_out_at_maximally_mixed(self):
        model = two_qubit_model(coupling=0.5)
        rho = product_state(st.random_full_rank(2, seed=5),
                            st.validate(I2 / 2))
        got = reduced_hamiltonian(rho, model, 0)
        # sigma_z (x) sigma_z against I/2 contributes nothing
        assert np.abs(got - SZ).max() <= 1e-10

    def test_hermitian(self):
        model = two_qubit_model(coupling=0.4)
        rho = st.random_full_rank(4, seed=6)
        for j in (0, 1):
            v = reduced_hamiltonian(rho, model, j)
            assert np.abs(v - v.conj().T).max() <= 1e-12


class TestReducedLog:
    def test_product_state_form(self):
        model = two_qubit_model()
        rho1 = st.random_full_rank(2, seed=7)
        rho2 = st.random_full_rank(2, seed=8)
        rho = product_state(rho1, rho2)
        p, u = np.linalg.eigh(rho1.matrix)
        log_rho1 = (u * np.log(p)) @ u.conj().T
        want = log_rho1 - st.entropy(rho2) * I2
        got = reduced_log(rho, model, 0)
        assert np.abs(got - want).max() <= 1e-10

    def test_maximally_mixed_two_qubits(self):
        # ln rho(1) - sbar(2)/k I = (-ln 2 - ln 2) I = -ln 4 I
        model = two_qubit_model()
        rho = st.validate(np.eye(4) / 4)
        got = reduced_log(rho, model, 0)
        assert np.abs(got - (-np.log(4)) * I2).max() <= 1e-12

    def test_entangled_full_rank_matches_index_oracle(self):
        model = two_qubit_model(coupling=0.3)
        bell = st.pure_state(np.array([1, 0, 0, 1]) / np.sqrt(2))
        rho = st.mix_with_identity(bell, 0.3)
        p, u = np.linalg.eigh(rho.matrix)
        log_full = (u * np.log(p)) @ u.conj().T
        rho2 = op.partial_trace(rho.matrix, [2, 2], keep=[1])
        # explicit index contraction of (I (x) rho(2)) ln rho onto factor 1
        oracle = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for ip in range(2):
                for k in range(2):
                    for kp in range(2):
                        oracle[i, ip] += rho2[k, kp] * log_full[2 * ip + kp, 2 * i + k]
        oracle = oracle.T
        got = reduced_log(rho, model, 0)
        assert np.abs(got - oracle).max() <= 1e-10

    def test_singular_entangled_state_raises(self):
        model = two_qubit_model()
        bell = st.pure_state(np.array([1, 0, 0, 1]) / np.sqrt(2))
        with pytest.raises(SingularCompositeStateError):
            reduced_log(bell, model, 0)


class TestCompositeRhs:
    def test_pure_product_reduces_to_hamiltonian(self):
        model = two_qubit_model(coupling=0.8)
        rho = product_state(st.pure_state([np.cos(0.3), np.sin(0.3)]),
                            st.pure_state([1 / np.sqrt(2), 1j / np.sqrt(2)]))
        rhs = cp.composite_rhs(rho, model)
        ham = -1j * op.commutator(model.H, rho.matrix)
        assert np.abs(rhs - ham).max() == 0.0

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_pure_product_stays_pure_under_default_settings(self):
        # the law gives the start an exact-zero dissipator, but Runge-Kutta
        # stages leave the pure-product set and the floored-log law then
        # acts at a singular state that is no pure product: purity falls to
        # 0.27 by t = 5
        model = cp.validate_model(cp.CompositeModel(
            (cp.Constituent(2, tau=1.0), cp.Constituent(2, tau=1.0)),
            op.kron(SZ, I2) + 0.7 * op.kron(I2, SZ)))
        rho0 = product_state(st.pure_state([0.6, 0.8]),
                             st.pure_state([1 / np.sqrt(2), 1j / np.sqrt(2)]))
        cp.require_full_rank(rho0, model)
        traj = ig.integrate(rho0, lambda m: cp.composite_rhs(m, model),
                            ig.IntegratorConfig(t_max=5.0, sample_dt=1.0))
        assert all(s.purity >= 1 - 1e-9 and s.entropy <= 1e-9 for s in traj.samples)

    def test_global_gibbs_is_fixed_point(self):
        model = two_qubit_model(coupling=0.5)
        constants = eq.constant_set([model.H])
        rho = eq.gibbs_state(constants, eq.MultiplierVector(beta=0.9))
        assert np.linalg.norm(cp.composite_rhs(rho, model), ord="fro") <= 1e-9

    def test_product_rule_for_noninteracting_independent(self):
        # product rule: rhs = rhs1 (x) rho2 + rho1 (x) rhs2
        model = two_qubit_model(coupling=0.0)
        rho1 = st.random_full_rank(2, seed=11)
        rho2 = st.random_full_rank(2, seed=12)
        rho = product_state(rho1, rho2)
        got = cp.composite_rhs(rho, model)
        m1 = sea.validate_model(sea.SingleConstituentModel(H=SZ, tau=1.0))
        m2 = sea.validate_model(sea.SingleConstituentModel(H=0.7 * SZ, tau=0.6))
        want = op.kron(sea.sea_rhs(rho1, m1), rho2.matrix) + \
            op.kron(rho1.matrix, sea.sea_rhs(rho2, m2))
        assert np.abs(got - want).max() <= 1e-9

    def test_trace_and_energy_conservation(self):
        model = two_qubit_model(coupling=0.35)
        for seed in range(5):
            rho = st.random_full_rank(4, seed=20 + seed)
            rhs = cp.composite_rhs(rho, model)
            assert abs(np.trace(rhs)) <= 1e-10
            assert abs(np.trace(model.H @ rhs).real) <= \
                1e-8 * max(1.0, np.linalg.norm(model.H))

    @pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6])
    def test_traceless_at_trial_state_with_negative_reduced_eigenvalue(self, eps):
        hb = np.diag([0.0, 0.5, 1.3])
        h = op.kron(SZ, np.eye(3)) + op.kron(I2, hb) + 0.2 * op.kron(SZ, hb)
        model = cp.validate_model(cp.CompositeModel(
            constituents=(cp.Constituent(2, tau=1.0), cp.Constituent(3, tau=0.6)),
            H=h))
        rho = op.kron(np.array([[0.7, 0.1], [0.1, 0.3]]),
                      np.diag([0.6, 0.4 + eps, -eps]))
        assert abs(np.trace(cp.composite_rhs(rho, model))) <= 1e-14

    @pytest.mark.parametrize("offset", [1e2, 1e4, 1e6])
    def test_an_energy_offset_costs_the_dissipator_no_precision(self, offset):
        # V(J) carries the offset times Tr rho(J'); the kernel's operands
        # are centred at their trace means, where the offset drops out
        h = op.kron(SZ, I2) + 0.7 * op.kron(I2, SZ) + 0.3 * op.kron(SX, SX)
        constituents = (cp.Constituent(2, tau=1.0), cp.Constituent(2, tau=0.6))
        rho = st.random_full_rank(4, seed=3)
        want = cp.dissipative_term(rho, cp.validate_model(cp.CompositeModel(constituents, h)))
        got = cp.dissipative_term(rho, cp.validate_model(
            cp.CompositeModel(constituents, h + offset * np.eye(4))))
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        assert np.array_equal(cp.CompositeModel(constituents, h).H, h)

    def test_lifted_generator_means_conserved(self):
        h = op.kron(SZ, I2) + op.kron(I2, SZ) + 0.25 * op.kron(SZ, SZ)
        model = cp.validate_model(cp.CompositeModel(
            constituents=(cp.Constituent(2, generators=(SZ,), tau=1.0),
                          cp.Constituent(2, tau=1.0)),
            H=h))
        lifted, = model.generators
        for seed in range(3):
            rho = st.random_full_rank(4, seed=30 + seed)
            rhs = cp.composite_rhs(rho, model)
            assert abs(np.trace(lifted @ rhs).real) <= 1e-8

    def test_single_constituent_matches_sea_module(self):
        model = cp.validate_model(cp.CompositeModel(
            constituents=(cp.Constituent(3, tau=1.3),),
            H=np.diag([0.0, 1.0, 2.0]).astype(complex)))
        single = sea.validate_model(sea.SingleConstituentModel(
            H=np.diag([0.0, 1.0, 2.0]), tau=1.3))
        for seed in range(5):
            rho = st.random_full_rank(3, seed=40 + seed)
            assert np.abs(cp.composite_rhs(rho, model) -
                          sea.sea_rhs(rho, single)).max() <= 1e-10


class TestEntropyProduction:
    def test_zero_on_pure_product(self):
        model = two_qubit_model(coupling=0.4)
        rho = product_state(st.pure_state([1, 0]), st.pure_state([0, 1]))
        total, per = cp.composite_entropy_production(rho, model)
        assert total == 0.0 and all(g == 0.0 for g in per)

    def test_zero_at_global_gibbs(self):
        model = two_qubit_model(coupling=0.5)
        rho = eq.gibbs_state(eq.constant_set([model.H]), eq.MultiplierVector(1.1))
        total, per = cp.composite_entropy_production(rho, model)
        assert abs(total) <= 1e-10

    def test_nonnegative_and_matches_pairing(self):
        model = two_qubit_model(coupling=0.3)
        for seed in range(10):
            rho = st.random_full_rank(4, seed=50 + seed)
            total, per = cp.composite_entropy_production(rho, model)
            assert all(g >= -1e-12 for g in per)
            pairing = cp.entropy_rate_pairing(rho, model)
            assert pairing == pytest.approx(total, rel=1e-7, abs=1e-12)

    def test_matches_entropy_slope_along_trajectory(self):
        model = two_qubit_model(coupling=0.2)
        rho0 = st.random_full_rank(4, seed=60)
        dt = 0.002
        cfg = ig.IntegratorConfig(method="rk4", t_max=0.5, dt_init=dt,
                                  dt_min=dt, dt_max=dt)
        obs = ig.Observables(
            energy_op=model.H,
            g_rate=lambda m: cp.composite_entropy_production(m, model)[0])
        traj = ig.integrate(rho0, lambda m: cp.composite_rhs(m, model), cfg, obs)
        t = traj.times
        s = traj.column("entropy")
        g = traj.column("g_rate")
        checked = 0
        for i in range(1, len(t) - 1):
            fd = (s[i + 1] - s[i - 1]) / (t[i + 1] - t[i - 1])
            if g[i] > 1e-6:
                assert fd == pytest.approx(g[i], rel=1e-3)
                checked += 1
        assert checked > 10


class TestSeparability:
    def test_additive_hamiltonian_separable(self):
        model = two_qubit_model(coupling=0.0)
        ok, residual = cp.is_separable(model, (0,))
        assert ok and residual <= 1e-10

    def test_coupled_hamiltonian_not_separable(self):
        model = two_qubit_model(coupling=0.5)
        ok, residual = cp.is_separable(model, (0,))
        assert not ok
        # the extraction leaves exactly the coupling term
        assert residual == pytest.approx(0.5 * np.linalg.norm(op.kron(SZ, SZ)), abs=1e-10)

    def test_trivial_partition_separable(self):
        model = cp.validate_model(cp.CompositeModel(
            constituents=(cp.Constituent(2, tau=1.0),), H=SZ))
        ok, residual = cp.is_separable(model, (0,))
        assert ok


# each subsystem function takes the block K alone; K' is its complement
SUBSYSTEM_CALLS = {
    "is_separable": lambda model, block: cp.is_separable(model, block),
    "is_independent_state": lambda model, block: cp.is_independent_state(
        st.random_full_rank(4, seed=72), model, block),
    "reduced_rhs": lambda model, block: cp.reduced_rhs(
        st.random_full_rank(4, seed=72), model, block),
    # a singular entangled state: the block is checked before the dissipator
    "reduced_rhs_of_bell": lambda model, block: cp.reduced_rhs(
        st.pure_state(np.array([1, 0, 0, 1]) / np.sqrt(2)), model, block),
}


@pytest.mark.parametrize("call", SUBSYSTEM_CALLS.values(), ids=SUBSYSTEM_CALLS.keys())
@pytest.mark.parametrize("block, error", [((2,), DimensionMismatchError), ((), ValueError)],
                         ids=["out-of-range", "empty"])
def test_block_out_of_range_or_empty_raises(call, block, error):
    with pytest.raises(error):
        call(two_qubit_model(), block)


# a constituent index is held to the block rule: it has no empty case
@pytest.mark.parametrize("call", [cp.reduced_state, reduced_hamiltonian, reduced_log],
                         ids=["reduced_state", "reduced_hamiltonian", "reduced_log"])
@pytest.mark.parametrize("j", [2, -1])
def test_constituent_index_out_of_range_raises(call, j):
    with pytest.raises(DimensionMismatchError):
        call(st.random_full_rank(4, seed=72), two_qubit_model(), j)


class TestIndependence:
    def test_product_state_independent(self):
        model = two_qubit_model()
        rho = product_state(st.random_full_rank(2, seed=70),
                            st.random_full_rank(2, seed=71))
        ok, dist = cp.is_independent_state(rho, model, (0,))
        assert ok and dist <= 1e-12

    def test_bell_state_not_independent(self):
        model = two_qubit_model()
        bell = st.pure_state(np.array([1, 0, 0, 1]) / np.sqrt(2))
        ok, dist = cp.is_independent_state(bell, model, (0,))
        assert not ok
        product = op.kron(I2 / 2, I2 / 2)
        assert dist == pytest.approx(np.linalg.norm(bell.matrix - product), abs=1e-12)

    def test_subadditivity(self):
        model = two_qubit_model()
        for seed in range(50):
            rho = st.random_full_rank(4, seed=100 + seed)
            s_total = st.entropy(rho)
            s1 = st.entropy(cp.reduced_state(rho, model, 0))
            s2 = st.entropy(cp.reduced_state(rho, model, 1))
            assert s_total <= s1 + s2 + 1e-9

    def test_subadditivity_equality_on_products(self):
        rho1 = st.random_full_rank(2, seed=80)
        rho2 = st.random_full_rank(2, seed=81)
        rho = product_state(rho1, rho2)
        assert st.entropy(rho) == pytest.approx(
            st.entropy(rho1) + st.entropy(rho2), abs=1e-9)


class TestReducedRhs:
    def test_partial_trace_consistency(self):
        model = two_qubit_model(coupling=0.3)
        for seed in range(5):
            rho = st.random_full_rank(4, seed=90 + seed)
            full = cp.composite_rhs(rho, model)
            for block in ((0,), (1,)):
                got = cp.reduced_rhs(rho, model, block)
                want = op.partial_trace(full, [2, 2], keep=list(block))
                assert np.abs(got - want).max() <= 1e-9

    def test_noninteracting_independent_equals_single(self):
        model = two_qubit_model(coupling=0.0)
        rho1 = st.random_full_rank(2, seed=95)
        rho2 = st.random_full_rank(2, seed=96)
        rho = product_state(rho1, rho2)
        got = cp.reduced_rhs(rho, model, (0,))
        single = sea.validate_model(sea.SingleConstituentModel(H=SZ, tau=1.0))
        assert np.abs(got - sea.sea_rhs(rho1, single)).max() <= 1e-9

    def test_trace_zero(self):
        model = two_qubit_model(coupling=0.4)
        rho = st.random_full_rank(4, seed=97)
        got = cp.reduced_rhs(rho, model, (1,))
        assert abs(np.trace(got)) <= 1e-10

    def test_no_signalling_from_a_non_interacting_constituent(self):
        # A condition of Beretta, Mod. Phys. Lett. A 20, 977 (2005): with
        # H = H_A (x) I + I (x) H_B, the reduced dynamics of A on a
        # correlated state does not see H_B.  H_B' commutes with H_B but
        # moves its levels and mean energy.  A has a generator that lies
        # outside span{I, H_A} (so d_A = 3), which keeps its dissipator on.
        rng = np.random.default_rng(21)
        u_a = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        h_a, x_a = [(u_a * rng.normal(size=3)) @ u_a.conj().T for _ in range(2)]
        h_b = op.hermitize(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u_b = np.linalg.eigh(h_b)[1]
        h_b2 = (u_b * rng.normal(size=2)) @ u_b.conj().T
        models = [cp.validate_model(cp.CompositeModel(
            (cp.Constituent(3, (x_a,), tau=1.3), cp.Constituent(2, tau=0.7)),
            op.kron(h_a, np.eye(2)) + op.kron(np.eye(3), hb))) for hb in (h_b, h_b2)]
        for seed in range(5):
            rho = st.random_full_rank(6, seed=110 + seed)
            assert not cp.is_independent_state(rho, models[0], (0,))[0]
            got = [cp.reduced_rhs(rho, model, (0,)) for model in models]
            rho_a = cp.reduced_state(rho, models[0], 0)
            assert np.abs(got[0] + 1j * op.commutator(h_a, rho_a)).max() > 1e-3
            assert np.abs(got[1] - got[0]).max() <= 1e-12

    def test_no_signalling_through_the_rest_of_a_non_interacting_constituent(self):
        # A does not interact and B-C do, on a full-rank state that
        # correlates A with B-C.  A unitary U on B-C leaves A's reduced
        # dynamics as it is: W(A) = Tr_BC((I (x) rho(BC)) ln rho) is
        # invariant by the cyclicity of the partial trace, and V(A) moves by
        # a multiple of the identity only.  Both depend on rho(A') = rho(BC).
        # A's generator lies outside span{I, H_A}, which keeps its
        # dissipator on.
        rng = np.random.default_rng(33)
        u_a = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        h_a, x_a = [(u_a * v) @ u_a.conj().T for v in ([0.0, 0.6, 1.5], [1.0, -1.0, 0.2])]
        h_bc = op.hermitize(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        model = cp.validate_model(cp.CompositeModel(
            (cp.Constituent(3, (x_a,), tau=1.3), cp.Constituent(2, tau=0.7),
             cp.Constituent(2, tau=0.9)),
            op.kron(h_a, np.eye(4)) + op.kron(np.eye(3), h_bc)))
        for seed in range(5):
            rho = st.random_full_rank(12, seed=130 + seed)
            assert not cp.is_independent_state(rho, model, (0,))[0]
            u = op.kron(np.eye(3), np.linalg.qr(rng.normal(size=(4, 4))
                                                + 1j * rng.normal(size=(4, 4)))[0])
            moved = st.validate(u @ rho.matrix @ u.conj().T)
            got = [cp.reduced_rhs(r, model, [0]) for r in (rho, moved)]
            rho_a = cp.reduced_state(rho, model, 0)
            assert np.abs(got[0] + 1j * op.commutator(h_a, rho_a)).max() > 1e-3
            assert np.abs(got[1] - got[0]).max() <= 1e-12 * np.abs(got[0]).max()


class TestCompositeConstants:
    """The law keeps the mean of C when C is in the span of {I, H, lifted
    generators}: read off the rate Tr(C rhs) of the mean."""

    def test_hamiltonian_and_identity_are_constants(self):
        model = two_qubit_model(coupling=0.3)
        for seed in range(5):
            rhs = cp.composite_rhs(st.random_full_rank(4, seed=90 + seed), model)
            assert abs(np.trace(model.H @ rhs).real) <= 1e-12
            assert abs(np.trace(rhs)) <= 1e-12

    def test_local_hamiltonian_not_constant_when_interacting(self):
        h = op.kron(SZ, I2) + 0.7 * op.kron(I2, SZ) + 0.5 * op.kron(SX, SX)
        model = cp.validate_model(cp.CompositeModel(
            constituents=(cp.Constituent(2, tau=1.0), cp.Constituent(2, tau=1.0)),
            H=h))
        c = op.kron(SZ, I2)
        assert not op.commutation_check(c, h)[0]
        # trajectory oracle: the mean moves at finite rate
        rho = st.random_full_rank(4, seed=98)
        drift = abs(np.trace(c @ cp.composite_rhs(rho, model)).real)
        assert drift > 1e-6


class TestIndependencePersistence:
    def test_separable_independent_stay_product(self):
        model = two_qubit_model(coupling=0.0)
        rho0 = product_state(st.random_full_rank(2, seed=201),
                             st.random_full_rank(2, seed=202))
        cfg = ig.IntegratorConfig(t_max=10.0, dt_max=0.5, rel_tol=1e-9,
                                  abs_tol=1e-11)
        traj = thinned(ig.integrate(rho0, lambda m: cp.composite_rhs(m, model), cfg), 5)
        for s in traj.samples:
            _, dist = cp.is_independent_state(s.rho, model, (0,))
            assert dist <= 1e-6

    def test_entropy_rate_additivity(self):
        model = two_qubit_model(coupling=0.0)
        m1 = sea.validate_model(sea.SingleConstituentModel(H=SZ, tau=1.0))
        m2 = sea.validate_model(sea.SingleConstituentModel(H=0.7 * SZ, tau=0.6))
        rho1 = st.random_full_rank(2, seed=203)
        rho2 = st.random_full_rank(2, seed=204)
        rho = product_state(rho1, rho2)
        total, _ = cp.composite_entropy_production(rho, model)
        s1 = sea.entropy_production_rate(rho1, m1)
        s2 = sea.entropy_production_rate(rho2, m2)
        assert abs(total - s1 - s2) <= 1e-6


class TestEntanglementTriggersDissipation:
    def test_dissipator_zero_at_pure_product_then_grows(self):
        model = two_qubit_model(coupling=0.6)
        pure = product_state(st.pure_state([np.cos(0.4), np.sin(0.4)]),
                             st.pure_state([np.cos(1.0), 1j * np.sin(1.0)]))
        assert np.linalg.norm(cp.dissipative_term(pure, model), ord="fro") <= 1e-10
        # regularized start: interaction entangles the state and the
        # dissipative term switches on; the mixing floor keeps the smallest
        # eigenvalue above the integrator noise scale
        rho0 = st.mix_with_identity(pure, 1e-6)
        cfg = ig.IntegratorConfig(t_max=3.0, dt_max=0.2, rel_tol=1e-9,
                                  abs_tol=1e-11)
        traj = thinned(ig.integrate(rho0, lambda m: cp.composite_rhs(m, model), cfg), 5)
        norms = [np.linalg.norm(cp.dissipative_term(s.rho, model), ord="fro")
                 for s in traj.samples]
        assert max(norms) > 1e-6


class TestKernelVector:
    """<psi| rhs |psi> at a kernel vector psi of a rank-7 3-qubit state,
    mixed with weight epsilon back in: whether the composite law keeps
    rho >= 0 near the state boundary (the boundary case of the roadmap)."""

    EPSILONS = (1e-4, 1e-6, 1e-8, 1e-10)

    @staticmethod
    def model():
        dims = [2, 2, 2]
        h = (op.embed_factors({0: SZ}, dims) + 0.7 * op.embed_factors({1: SZ}, dims)
             + 1.3 * op.embed_factors({2: SZ}, dims)
             + 0.4 * (op.embed_factors({0: SX, 1: SX}, dims)
                      + op.embed_factors({0: SY, 1: SY}, dims))
             + 0.3 * op.embed_factors({1: SZ, 2: SZ}, dims))
        return cp.validate_model(cp.CompositeModel(
            (cp.Constituent(2, tau=1.0), cp.Constituent(2, tau=0.6),
             cp.Constituent(2, (SZ,), tau=1.4)), h))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_the_kernel_weight_grows_like_the_log_of_one_over_epsilon(self, seed):
        model = self.model()
        p, u = np.linalg.eigh(st.random_full_rank(8, seed=seed).matrix)
        p[0] = 0.0
        rank7 = (u * (p / p.sum())) @ u.conj().T
        psi = u[:, 0]
        rates = np.array([
            (psi.conj() @ cp.composite_rhs((1 - eps) * rank7 + eps * np.outer(psi, psi.conj()),
                                           model) @ psi).real
            for eps in self.EPSILONS])
        # the law pushes weight back onto the kernel vector: a barrier, and
        # no loss of positivity
        assert (rates > 0).all()
        # equal steps per two decades of epsilon: a + b ln(1/epsilon)
        steps = np.diff(rates)
        assert (steps > 0).all()
        assert np.ptp(steps) <= 0.01 * steps.mean()
        if seed == 1:
            assert rates == pytest.approx([0.0474, 0.0670, 0.0866, 0.1062], abs=1e-4)


class TestThreeConstituents:
    """Interleaving stress: middle factors, noncontiguous blocks, mixed dims."""

    @staticmethod
    def three_qubit_model():
        h = (op.kron_all([SZ, I2, I2]) + 0.6 * op.kron_all([I2, SZ, I2])
             + 0.3 * op.kron_all([I2, I2, SZ])
             + 0.2 * op.kron_all([SX, SX, I2])
             + 0.15 * op.kron_all([I2, SX, SX]))
        return cp.validate_model(cp.CompositeModel(
            constituents=(cp.Constituent(2, tau=1.0),
                          cp.Constituent(2, tau=0.7),
                          cp.Constituent(2, tau=0.4)),
            H=h))

    def test_conservation_three_qubits(self):
        model = self.three_qubit_model()
        for seed in range(3):
            rho = st.random_full_rank(8, seed=300 + seed)
            rhs = cp.composite_rhs(rho, model)
            assert abs(np.trace(rhs)) <= 1e-10
            assert abs(np.trace(model.H @ rhs).real) <= \
                1e-8 * max(1.0, np.linalg.norm(model.H))

    def test_entropy_production_nonnegative_three_qubits(self):
        model = self.three_qubit_model()
        for seed in range(3):
            rho = st.random_full_rank(8, seed=310 + seed)
            total, per = cp.composite_entropy_production(rho, model)
            assert all(g >= -1e-12 for g in per)
            pairing = cp.entropy_rate_pairing(rho, model)
            assert pairing == pytest.approx(total, rel=1e-7, abs=1e-10)

    def test_reduced_rhs_noncontiguous_block(self):
        # block {0, 2} skips the middle factor: partial-trace consistency
        # exercises the interleaved embedding inside the subsystem
        model = self.three_qubit_model()
        for seed in range(3):
            rho = st.random_full_rank(8, seed=320 + seed)
            full = cp.composite_rhs(rho, model)
            got = cp.reduced_rhs(rho, model, (0, 2))
            want = op.partial_trace(full, [2, 2, 2], keep=[0, 2])
            assert np.abs(got - want).max() <= 1e-9

    def test_reduced_rhs_middle_factor(self):
        model = self.three_qubit_model()
        rho = st.random_full_rank(8, seed=330)
        full = cp.composite_rhs(rho, model)
        got = cp.reduced_rhs(rho, model, (1,))
        want = op.partial_trace(full, [2, 2, 2], keep=[1])
        assert np.abs(got - want).max() <= 1e-9

    def test_pairwise_separability_verdicts(self):
        model = self.three_qubit_model()
        # constituents 1 and 2 interact across the {0,1}|{2} cut
        ok, residual = cp.is_separable(model, (0, 1))
        assert not ok and residual == pytest.approx(
            0.15 * np.linalg.norm(op.kron_all([I2, SX, SX])), abs=1e-10)


class TestMixedFactorDims:
    """A qubit coupled to a qutrit: unequal factor dimensions."""

    @staticmethod
    def qubit_qutrit_model(coupling=0.0):
        h3 = np.diag([0.0, 1.0, 2.0]).astype(complex)
        x2 = np.diag([1.0, -1.0]).astype(complex)
        x3 = np.diag([1.0, 0.0, -1.0]).astype(complex)
        h = op.kron(SZ, np.eye(3)) + op.kron(I2, h3) \
            + coupling * op.kron(x2, x3)
        return cp.validate_model(cp.CompositeModel(
            constituents=(cp.Constituent(2, tau=1.0),
                          cp.Constituent(3, tau=0.5)),
            H=h)), h3

    def test_reduced_hamiltonian_with_coupling(self):
        model, h3 = self.qubit_qutrit_model(coupling=0.4)
        rho2 = st.random_full_rank(2, seed=400)
        rho3 = st.random_full_rank(3, seed=401)
        rho = st.StateOperator(op.kron(rho2.matrix, rho3.matrix))
        x3 = np.diag([1.0, 0.0, -1.0])
        want = SZ + st.mean(h3, rho3) * I2 \
            + 0.4 * st.mean(x3, rho3) * np.diag([1.0, -1.0])
        got = reduced_hamiltonian(rho, model, 0)
        assert np.abs(got - want).max() <= 1e-10

    def test_conservation_and_gram_positivity(self):
        model, _ = self.qubit_qutrit_model(coupling=0.3)
        for seed in range(3):
            rho = st.random_full_rank(6, seed=410 + seed)
            rhs = cp.composite_rhs(rho, model)
            assert abs(np.trace(rhs)) <= 1e-10
            assert abs(np.trace(model.H @ rhs).real) <= \
                1e-8 * max(1.0, np.linalg.norm(model.H))
            _, per = cp.composite_entropy_production(rho, model)
            assert all(g >= -1e-12 for g in per)

    def test_product_rule_noninteracting(self):
        model, h3 = self.qubit_qutrit_model(coupling=0.0)
        rho2 = st.random_full_rank(2, seed=420)
        rho3 = st.random_full_rank(3, seed=421)
        rho = st.StateOperator(op.kron(rho2.matrix, rho3.matrix))
        m2 = sea.validate_model(sea.SingleConstituentModel(H=SZ, tau=1.0))
        m3 = sea.validate_model(sea.SingleConstituentModel(H=h3, tau=0.5))
        want = op.kron(sea.sea_rhs(rho2, m2), rho3.matrix) + \
            op.kron(rho2.matrix, sea.sea_rhs(rho3, m3))
        got = cp.composite_rhs(rho, model)
        assert np.abs(got - want).max() <= 1e-9


class TestStackedPass:
    """The stacked pass over a composite's constituents against a reference
    built one constituent at a time from partial traces, explicit
    embeddings and one kernel call per constituent."""

    # (local term, coupling operator, generators, tau) of one constituent;
    # every term on a constituent with generators commutes with them
    QUBIT = (SZ, SX, (), 0.8)
    QUBIT_Z = (0.9 * SZ, SZ, (SZ,), 0.6)
    QUBIT_B = (0.8 * SZ, SX, (), 0.5)
    QUTRIT = (np.diag([0.0, 1.0, 2.3]), np.diag([1.0, 0.0, -1.0]),
              (np.diag([0.0, 1.0, 0.0]),), 1.3)
    QUTRIT_B = (np.diag([0.0, 0.7, 1.5]), np.diag([0.5, -1.0, 0.0]),
                (np.diag([1.0, 0.0, 0.0]),), 0.7)
    # a kind of two qubits; three kinds; a kind of two qutrits whose
    # generators differ
    LAYOUTS = {"qubit-qutrit-qubit": (QUBIT, QUTRIT, QUBIT_B),
               "three-kinds": (QUBIT_Z, QUTRIT, QUBIT_B),
               "qutrit-qutrit-qubit": (QUTRIT, QUTRIT_B, QUBIT)}

    @classmethod
    def model(cls, layout):
        """Local terms plus a coupling between every pair of constituents."""
        factors = cls.LAYOUTS[layout]
        dims = [len(f[0]) for f in factors]
        h = sum(op.embed_factors({j: f[0]}, dims) for j, f in enumerate(factors))
        for i in range(len(dims)):
            for j in range(i + 1, len(dims)):
                h = h + 0.3 / (i + j) * op.embed_factors(
                    {i: factors[i][1], j: factors[j][1]}, dims)
        return cp.validate_model(cp.CompositeModel(
            tuple(cp.Constituent(d, gens, tau)
                  for d, (_, _, gens, tau) in zip(dims, factors)),
            H=h, units=op.UnitSystem(hbar=0.9)))

    @staticmethod
    def reference(rho, model):
        """Per constituent (rho(J), V(J), W(J), {D(J), rho(J)}, g(J)), and
        the dissipative term sum_J (tau(J)/hbar^2) {D(J), rho(J)} (x) rho(J')."""
        dims, m = model.dims, rho.matrix
        p, u = np.linalg.eigh(m)
        log_full = (u * np.log(p)) @ u.conj().T
        per, diss = [], np.zeros_like(m)
        for j, c in enumerate(model.constituents):
            others = [i for i in range(len(dims)) if i != j]
            rho_j = op.partial_trace(m, dims, keep=[j])
            rho_rest = op.partial_trace(m, dims, keep=others)
            embed = op.tensor_interleave(np.eye(dims[j]), [j], rho_rest, dims)
            v = op.hermitize(op.partial_trace(embed @ model.H, dims, keep=[j]))
            w = op.hermitize(op.partial_trace(embed @ log_full, dims, keep=[j]))
            half, g = log_operator_kernel(rho_j, [v, *c.generators], w)
            acomm = op.plus_adjoint(half)
            per.append((rho_j, v, w, acomm, g))
            diss += c.tau / model.units.hbar**2 * op.tensor_interleave(
                acomm, [j], rho_rest, dims)
        return per, diss

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_matches_the_per_constituent_reference(self, layout):
        model = self.model(layout)
        kinds = {(c.dim, len(c.generators)) for c in model.constituents}
        assert len(kinds) == (3 if layout == "three-kinds" else 2)
        for seed in range(3):
            rho = st.random_full_rank(model.dim, seed=600 + seed)
            per, diss = self.reference(rho, model)
            assert np.abs(cp.dissipative_term(rho, model) - diss).max() <= 1e-13
            _, g = cp.composite_entropy_production(rho, model)
            assert np.abs(np.array(g) - [r[4] for r in per]).max() <= 1e-13
            for j, (rho_j, v, w, _, _) in enumerate(per):
                assert np.abs(cp.reduced_state(rho, model, j) - rho_j).max() <= 1e-13
                assert np.abs(reduced_hamiltonian(rho, model, j) - v).max() <= 1e-13
                assert np.abs(reduced_log(rho, model, j) - w).max() <= 1e-13

    def test_reduced_rhs_is_the_partial_trace_of_the_rhs(self):
        model = self.model("qubit-qutrit-qubit")
        rho = st.random_full_rank(12, seed=610)
        full = cp.composite_rhs(rho, model)
        for block in ((0, 2), (1,)):
            got = cp.reduced_rhs(rho, model, block)
            want = op.partial_trace(full, model.dims, keep=block)
            assert np.abs(got - want).max() <= 1e-12

    def test_pure_product_is_an_exact_zero(self):
        model = self.model("three-kinds")
        rho = product_state(st.pure_state([np.cos(0.3), np.sin(0.3)]),
                            st.pure_state([0.6, 0.0, 0.8j]),
                            st.pure_state([1.0, 1.0j]))
        assert cp.is_pure_product(rho, model)
        assert not cp.dissipative_term(rho, model).any()
        assert cp.composite_entropy_production(rho, model) == (0.0, [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_one_eigendecomposition_per_rhs(self, shape, monkeypatch):
        # the global eigh gives ln rho; the kernel rows take rho(J) as it is
        model = self.model("three-kinds")
        rho = np.stack([st.random_full_rank(model.dim, seed=620 + i).matrix
                        for i in range(int(np.prod(shape)))]).reshape(*shape, 12, 12)
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        for state in (rho, st.StateOperator(rho)):
            calls.clear()
            cp.composite_rhs(state, model)
            assert calls == [rho.shape]

    def test_kinds_are_cached_on_the_model_and_read_only(self):
        model = self.model("qubit-qutrit-qubit")
        kinds = model._kinds
        assert model._kinds is kinds
        assert [k.members.tolist() for k in kinds] == [[0, 2], [1]]
        assert not any(a.flags.writeable for kind in kinds for a in kind[1:])
        # each member's scatter row inverts its gather map
        for kind in kinds:
            for i, gather in enumerate(kind.gather):
                flat = gather.ravel()
                assert np.array_equal(flat[kind.scatter[i] - i * flat.size],
                                      np.arange(flat.size))
