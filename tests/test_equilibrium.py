import numpy as np
import pytest

from seaqt import equilibrium as eq
from seaqt import sea
from seaqt import states as st
from seaqt.errors import TargetInfeasibleError


@pytest.fixture
def two_level():
    return eq.constant_set([np.diag([0.0, 1.0])])


class TestGibbsState:
    def test_zero_multipliers_give_maximally_mixed(self, two_level):
        rho = eq.gibbs_state(two_level, eq.MultiplierVector(beta=0.0))
        assert np.allclose(rho.matrix, np.eye(2) / 2)

    def test_two_level_closed_form(self, two_level):
        rho = eq.gibbs_state(two_level, eq.MultiplierVector(beta=np.log(3)))
        assert np.allclose(rho.matrix, np.diag([0.75, 0.25]))

    def test_large_beta_approaches_ground_projector(self, two_level):
        rho = eq.gibbs_state(two_level, eq.MultiplierVector(beta=50.0))
        assert np.abs(rho.matrix - np.diag([1.0, 0.0])).max() <= 1e-10

    def test_huge_beta_does_not_overflow(self, two_level):
        rho = eq.gibbs_state(two_level, eq.MultiplierVector(beta=2000.0))
        assert np.isfinite(rho.matrix).all()

    def test_full_rank(self, two_level):
        rho = eq.gibbs_state(two_level, eq.MultiplierVector(beta=3.0))
        assert rho.min_eigenvalue() > 0


class TestPartitionFunction:
    def test_beta_zero_gives_dim(self, two_level):
        assert np.exp(eq.log_partition_function(two_level, eq.MultiplierVector(0.0))) \
            == pytest.approx(2.0)

    def test_two_level_value(self, two_level):
        z = np.exp(eq.log_partition_function(two_level, eq.MultiplierVector(np.log(3))))
        assert z == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_positive_and_log_consistent(self, two_level):
        for beta in (-3.0, 0.5, 7.0):
            z = np.exp(eq.log_partition_function(two_level, eq.MultiplierVector(beta)))
            lz = eq.log_partition_function(two_level, eq.MultiplierVector(beta))
            assert z > 0
            assert np.log(z) == pytest.approx(lz, abs=1e-12)


class TestSolveMultipliers:
    def test_midpoint_target_gives_beta_zero(self, two_level):
        m = eq.solve_multipliers(two_level, [0.5])
        assert abs(m.beta) <= 1e-8

    def test_quarter_target_closed_form(self, two_level):
        m = eq.solve_multipliers(two_level, [0.25])
        assert m.beta == pytest.approx(np.log(3), abs=1e-10)

    def test_round_trip_on_three_level_systems(self):
        h = np.diag([0.0, 1.0, 2.0])
        x = np.diag([1.0, -1.0, 0.5])
        constants = eq.constant_set([h, x])
        rng = np.random.default_rng(101)
        for _ in range(6):
            m_true = eq.MultiplierVector(beta=float(rng.uniform(-1.5, 1.5)),
                                         gammas=(float(rng.uniform(-1, 1)),))
            targets = eq.means_at(constants, m_true)
            m_rec = eq.solve_multipliers(constants, targets)
            assert np.abs(m_rec.as_array() - m_true.as_array()).max() <= 1e-8

    def test_converges_where_line_search_reaches_round_off(self):
        # near the optimum the predicted decrease of the dual (about 1e-19)
        # is below its round-off; the line search must not halve the step
        # into a stall at residual 1.7e-10
        rng = np.random.default_rng(206)
        h = np.diag(rng.uniform(0, 2, 8))
        c = np.diag(rng.uniform(-1, 1, 8))
        m_true = eq.MultiplierVector(beta=float(rng.uniform(0.2, 1.5)),
                                     gammas=(float(rng.uniform(-1, 1)),))
        constants = eq.constant_set([h, c])
        targets = eq.means_at(constants, m_true)
        m_rec = eq.solve_multipliers(constants, targets)
        assert np.abs(eq.means_at(constants, m_rec) - targets).max() <= 1e-10
        assert np.abs(m_rec.as_array() - m_true.as_array()).max() <= 1e-8

    def test_boundary_target_rejected(self, two_level):
        with pytest.raises(TargetInfeasibleError):
            eq.solve_multipliers(two_level, [0.0])

    def test_outside_range_rejected(self, two_level):
        with pytest.raises(TargetInfeasibleError):
            eq.solve_multipliers(two_level, [1.2])


class TestGibbsIdentity:
    def test_beta_zero(self, two_level):
        m = eq.MultiplierVector(0.0)
        rho = eq.gibbs_state(two_level, m)
        assert st.entropy(rho) == pytest.approx(np.log(2), abs=1e-12)
        assert eq.gibbs_identity_residual(two_level, m) <= 1e-12

    def test_two_level_closed_form(self, two_level):
        assert eq.gibbs_identity_residual(
            two_level, eq.MultiplierVector(np.log(3))) <= 1e-10

    def test_random_multipliers_four_level(self):
        h = np.diag([0.0, 0.5, 1.25, 2.0])
        c = np.diag([1.0, 0.0, -1.0, 0.5])
        constants = eq.constant_set([h, c])
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = eq.MultiplierVector(beta=float(rng.uniform(-2, 2)),
                                    gammas=(float(rng.uniform(-1.5, 1.5)),))
            assert eq.gibbs_identity_residual(constants, m) <= 1e-8


class TestMaximumEntropyProperty:
    def test_gibbs_beats_constrained_random_states(self, two_level):
        m = eq.solve_multipliers(two_level, [0.3])
        rho_star = eq.gibbs_state(two_level, m)
        s_star = st.entropy(rho_star)
        h = two_level.H
        rng = np.random.default_rng(55)
        count = 0
        while count < 300:
            a = st.random_full_rank(2, seed=int(rng.integers(1 << 30)))
            b = st.random_full_rank(2, seed=int(rng.integers(1 << 30)))
            ea, eb = st.mean(h, a), st.mean(h, b)
            if not (min(ea, eb) <= 0.3 <= max(ea, eb)) or abs(ea - eb) < 1e-12:
                continue
            lam = (0.3 - eb) / (ea - eb)
            mix = st.StateOperator(lam * a.matrix + (1 - lam) * b.matrix)
            assert st.mean(h, mix) == pytest.approx(0.3, abs=1e-10)
            assert st.entropy(mix) <= s_star + 1e-9
            count += 1


class TestClassify:
    def setup_method(self):
        self.h = np.diag([0.0, 1.0, 2.0])
        self.constants = eq.constant_set([self.h])
        self.model = sea.validate_model(sea.SingleConstituentModel(H=self.h, tau=1.0))

    def test_gibbs_is_stable(self):
        rho = eq.gibbs_state(self.constants, eq.MultiplierVector(beta=0.8))
        assert eq.classify(rho, self.constants, self.model) == eq.STABLE_EQUILIBRIUM

    def test_excited_projector_is_equilibrium_not_stable(self):
        rho = st.pure_state([0, 1, 0])
        assert eq.classify(rho, self.constants, self.model) == eq.EQUILIBRIUM

    def test_ground_projector_is_stable(self):
        # the only state with the minimum energy is the ground projector itself
        rho = st.pure_state([1, 0, 0])
        assert eq.classify(rho, self.constants, self.model) == eq.STABLE_EQUILIBRIUM

    def test_coherent_superposition_is_nonequilibrium(self):
        rho = st.pure_state(np.array([1.0, 1.0, 0.0]) / np.sqrt(2))
        assert eq.classify(rho, self.constants, self.model) == eq.NON_EQUILIBRIUM

    def test_degenerate_ground_rank_one_not_stable(self):
        h = np.diag([0.0, 0.0, 1.0])
        constants = eq.constant_set([h])
        model = sea.validate_model(sea.SingleConstituentModel(H=h, tau=1.0))
        rho = st.pure_state([1, 0, 0])
        assert eq.classify(rho, constants, model) == eq.EQUILIBRIUM


class TestGibbsStatesAreFixedPoints:
    def test_sea_rhs_vanishes(self):
        h = np.diag([0.0, 0.6, 1.7])
        constants = eq.constant_set([h])
        model = sea.validate_model(sea.SingleConstituentModel(H=h, tau=1.0))
        for beta in (-1.0, 0.0, 1.2, 4.0):
            rho = eq.gibbs_state(constants, eq.MultiplierVector(beta))
            assert np.linalg.norm(sea.sea_rhs(rho, model), ord="fro") <= 1e-9
            assert sea.is_equilibrium(rho, model).is_equilibrium
