import numpy as np
import pytest

from seaqt import states as st
from seaqt.errors import NotHermitianError, NotPositiveError, TraceError

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


class TestValidate:
    def test_maximally_mixed_accepted(self):
        rho = st.validate(np.eye(3) / 3)
        assert np.allclose(rho.matrix, np.eye(3) / 3)

    def test_round_off_negativity_clamped(self):
        rho = st.validate(np.diag([1.0, -1e-12]))
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))
        assert rho.eigenvalues[-1] == 0.0

    def test_genuine_negativity_rejected(self):
        with pytest.raises(NotPositiveError):
            st.validate(np.diag([0.9, -0.1]))

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitianError):
            st.validate(np.array([[0.5, 0.3], [0.0, 0.5]]))

    def test_far_trace_rejected(self):
        with pytest.raises(TraceError):
            st.validate(np.diag([1.0, 0.5]))

    def test_near_trace_renormalized(self):
        rho = st.validate(np.diag([0.5, 0.5]) * (1 + 1e-8))
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-14)

    def test_validated_state_comes_back_as_it_is(self):
        rho = st.random_full_rank(3, seed=1)
        assert st.validate(rho) is rho


class TestMeanVariance:
    def test_mean_identity(self):
        rho = st.random_full_rank(3, seed=5)
        assert st.mean(np.eye(3), rho) == pytest.approx(1.0, abs=1e-12)

    def test_mean_sz_on_ground(self):
        assert st.mean(SZ, st.pure_state([1, 0])) == pytest.approx(1.0)

    def test_mean_energy_of_gibbs(self):
        rho = st.gibbs_seed(1.0, np.diag([0.0, 1.0]))
        want = np.exp(-1) / (1 + np.exp(-1))
        assert st.mean(np.diag([0.0, 1.0]), rho) == pytest.approx(want, abs=1e-12)

    def test_variance_vanishes_on_aligned_pure_state(self):
        assert st.variance(SZ, st.pure_state([1, 0])) == pytest.approx(0.0, abs=1e-12)

    def test_variance_sz_maximally_mixed(self):
        assert st.variance(SZ, st.validate(np.eye(2) / 2)) == pytest.approx(1.0)

    def test_variance_sx_on_ground(self):
        assert st.variance(SX, st.pure_state([1, 0])) == pytest.approx(1.0)


class TestEntropy:
    def test_pure_state_zero(self):
        assert st.entropy(st.pure_state([0, 1])) == pytest.approx(0.0, abs=1e-14)

    def test_maximally_mixed(self):
        assert st.entropy(st.validate(np.eye(2) / 2)) == pytest.approx(np.log(2))

    def test_two_level_value(self):
        rho = st.validate(np.diag([0.75, 0.25]))
        want = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
        assert st.entropy(rho) == pytest.approx(want, abs=1e-14)
        assert want == pytest.approx(0.56233, abs=1e-5)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(3)
        rho = st.random_full_rank(4, seed=8)
        h = st.random_hermitian(4, rng)
        vals, u = np.linalg.eigh(h)
        rotated = st.StateOperator(u @ rho.matrix @ u.conj().T)
        assert abs(st.entropy(rotated) - st.entropy(rho)) <= 1e-10

    def test_bounds(self):
        for seed in range(10):
            rho = st.random_full_rank(3, seed=seed)
            s = st.entropy(rho)
            assert -1e-12 <= s <= np.log(3) + 1e-12

    def test_k_scaling(self):
        rho = st.validate(np.diag([0.6, 0.4]))
        assert st.entropy(rho, k=2.5) == pytest.approx(2.5 * st.entropy(rho))


class TestRhoLogRho:
    def test_pure_state_gives_null_operator(self):
        assert np.abs(st.rho_log_rho(st.pure_state([1, 0]))).max() == 0.0

    def test_maximally_mixed(self):
        b = st.rho_log_rho(st.validate(np.eye(3) / 3))
        assert np.allclose(b, -np.log(3) / 3 * np.eye(3))

    def test_diagonal_values(self):
        b = st.rho_log_rho(st.validate(np.diag([0.75, 0.25])))
        assert np.allclose(b, np.diag([0.75 * np.log(0.75), 0.25 * np.log(0.25)]))

    def test_trace_is_minus_entropy(self):
        rho = st.random_full_rank(4, seed=21)
        assert np.trace(st.rho_log_rho(rho)).real == pytest.approx(-st.entropy(rho))


class TestDeviation:
    def test_identity_gives_zero(self):
        rho = st.random_full_rank(3, seed=2)
        assert np.abs(st.deviation(np.eye(3), rho)).max() <= 1e-12

    def test_traceless_observable_unchanged_at_mixed(self):
        assert np.allclose(st.deviation(SZ, st.validate(np.eye(2) / 2)), SZ)

    def test_projected_mean(self):
        got = st.deviation(SZ, st.pure_state([1, 0]))
        assert np.allclose(got, SZ - np.eye(2))

    def test_zero_mean_property(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            rho = st.random_full_rank(3, seed=seed)
            f = st.random_hermitian(3, rng)
            assert abs(st.mean(st.deviation(f, rho), rho)) <= 1e-12


def covariance_product(f, g, rho) -> float:
    """(F, G) = Tr(rho {Delta F, Delta G}), read off ``covariance_table``."""
    return float(st.covariance_table(*st.in_eigenbasis(rho, [f, g]))[1][0, 1])


class TestCovarianceProduct:
    def test_identity_slot_vanishes(self):
        rng = np.random.default_rng(12)
        rho = st.random_full_rank(3, seed=4)
        g = st.random_hermitian(3, rng)
        assert covariance_product(np.eye(3), g, rho) == pytest.approx(0.0, abs=1e-12)

    def test_relates_to_variance(self):
        mixed = st.validate(np.eye(2) / 2)
        assert covariance_product(SZ, SZ, mixed) == pytest.approx(2 * st.variance(SZ, mixed))

    def test_orthogonal_paulis_at_mixed(self):
        mixed = st.validate(np.eye(2) / 2)
        assert covariance_product(SX, SZ, mixed) == pytest.approx(0.0, abs=1e-12)

    def test_gram_positive_semidefinite(self):
        rng = np.random.default_rng(15)
        rho = st.random_full_rank(4, seed=14)
        ops = [st.random_hermitian(4, rng) for _ in range(6)]
        gram = np.array([[covariance_product(a, b, rho) for b in ops] for a in ops])
        assert np.linalg.eigvalsh(gram)[0] >= -1e-10


class TestCovarianceWithLog:
    def test_pure_state_zero(self):
        rng = np.random.default_rng(18)
        f = st.random_hermitian(2, rng)
        assert st.covariance_with_log(f, st.pure_state([1, 0])) == pytest.approx(0.0, abs=1e-12)

    def test_identity_zero(self):
        rho = st.random_full_rank(3, seed=30)
        assert st.covariance_with_log(np.eye(3), rho) == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_direct_formula_full_rank(self):
        # brute-force oracle: Tr(rho {Delta F, Delta ln rho}) with explicit log
        rng = np.random.default_rng(20)
        for seed in range(8):
            dim = 2 + seed % 3
            rho = st.random_full_rank(dim, seed=100 + seed)
            f = st.random_hermitian(dim, rng)
            p, u = np.linalg.eigh(rho.matrix)
            log_rho = (u * np.log(p)) @ u.conj().T
            dlog = log_rho - np.eye(dim) * np.trace(rho.matrix @ log_rho).real
            df = st.deviation(f, rho)
            direct = np.trace(rho.matrix @ (df @ dlog + dlog @ df)).real
            assert st.covariance_with_log(f, rho) == pytest.approx(direct, abs=1e-10)

    def test_specific_two_level_case(self):
        rho = st.validate(np.diag([0.75, 0.25]))
        p = np.array([0.75, 0.25])
        log_rho = np.diag(np.log(p))
        dlog = log_rho - np.eye(2) * (p @ np.log(p))
        dz = st.deviation(SZ, rho)
        direct = np.trace(rho.matrix @ (dz @ dlog + dlog @ dz)).real
        assert st.covariance_with_log(SZ, rho) == pytest.approx(direct, abs=1e-12)


class TestDistance:
    def test_self_distance_zero(self):
        rho = st.random_full_rank(3, seed=6)
        assert st.distance(rho, rho) == 0.0

    def test_orthogonal_projectors(self):
        assert st.distance(st.pure_state([1, 0]), st.pure_state([0, 1])) == \
            pytest.approx(np.sqrt(2))

    def test_triangle_inequality(self):
        for seed in range(10):
            a = st.random_full_rank(3, seed=3 * seed)
            b = st.random_full_rank(3, seed=3 * seed + 1)
            c = st.random_full_rank(3, seed=3 * seed + 2)
            assert st.distance(a, c) <= st.distance(a, b) + st.distance(b, c) + 1e-12


class TestConstructors:
    def test_pure_state_projector(self):
        assert np.allclose(st.pure_state([1, 0]).matrix, np.diag([1.0, 0.0]))

    def test_pure_state_normalizes(self):
        rho = st.pure_state([2, 0])
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))

    def test_pure_state_rejects_zero(self):
        with pytest.raises(ValueError):
            st.pure_state([0, 0])

    def test_mix_with_identity(self):
        rho = st.mix_with_identity(st.validate(np.diag([1.0, 0.0])), 0.1)
        assert np.allclose(rho.matrix, np.diag([0.95, 0.05]))

    def test_mix_epsilon_range(self):
        with pytest.raises(ValueError):
            st.mix_with_identity(st.validate(np.eye(2) / 2), 1.5)

    def test_random_full_rank_deterministic(self):
        a = st.random_full_rank(3, seed=42)
        b = st.random_full_rank(3, seed=42)
        assert np.array_equal(a.matrix, b.matrix)

    def test_random_full_rank_floor(self):
        for seed in range(20):
            rho = st.random_full_rank(4, seed=seed)
            assert rho.min_eigenvalue() >= 1e-4 - 1e-12

    def test_gibbs_seed_two_level(self):
        rho = st.gibbs_seed(np.log(3), np.diag([0.0, 1.0]))
        assert np.allclose(rho.matrix, np.diag([0.75, 0.25]))
