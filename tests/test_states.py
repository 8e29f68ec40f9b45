import ast
from pathlib import Path

import numpy as np
import pytest

import cofactor_reference as ref
from references import (covariance_with_log, deviation, gibbs_seed, min_eigenvalue,
                        random_hermitian, variance)
from seaqt import states as st
from seaqt.errors import NotHermitianError, NotPositiveError, TraceError

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

SRC = Path(st.__file__).resolve().parent


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

    def test_nan_rejected(self):
        with pytest.raises(NotHermitianError, match="^state operator has a non-finite entry$"):
            st.validate(np.array([[np.nan, 0.0], [0.0, 1.0]]))

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
        rho = gibbs_seed(1.0, np.diag([0.0, 1.0]))
        want = np.exp(-1) / (1 + np.exp(-1))
        assert st.mean(np.diag([0.0, 1.0]), rho) == pytest.approx(want, abs=1e-12)

    def test_variance_vanishes_on_aligned_pure_state(self):
        assert variance(SZ, st.pure_state([1, 0])) == pytest.approx(0.0, abs=1e-12)

    def test_variance_sz_maximally_mixed(self):
        assert variance(SZ, st.validate(np.eye(2) / 2)) == pytest.approx(1.0)

    def test_variance_sx_on_ground(self):
        assert variance(SX, st.pure_state([1, 0])) == pytest.approx(1.0)


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
        h = random_hermitian(4, rng)
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


@pytest.mark.parametrize("n", [4, 3], ids=["N=d", "N!=d"])
class TestStackedSpectralFunctions:
    """Each spectral function on a (N, d, d) stack, d = 4, against the loop
    over its members."""

    @staticmethod
    def members(n):
        return [st.random_full_rank(4, seed=s) for s in range(n)]

    @pytest.mark.parametrize("fn", [st.log_operator, st.rho_log_rho],
                             ids=["log_operator", "rho_log_rho"])
    def test_operator_valued(self, n, fn):
        members = self.members(n)
        stack = st.StateOperator(np.stack([m.matrix for m in members]))
        want = np.stack([fn(m) for m in members])
        assert np.abs(fn(stack) - want).max() <= 1e-13

    def test_entropy_and_purity_per_member(self, n):
        members = self.members(n)
        stack = st.StateOperator(np.stack([m.matrix for m in members]))
        assert isinstance(st.entropy(members[0], k=2.0), float)
        assert isinstance(members[0].purity(), float)
        assert np.allclose(st.entropy(stack, k=2.0),
                           [st.entropy(m, k=2.0) for m in members], rtol=0, atol=1e-14)
        assert np.allclose(stack.purity(), [m.purity() for m in members],
                           rtol=0, atol=1e-14)


class TestDeviation:
    def test_identity_gives_zero(self):
        rho = st.random_full_rank(3, seed=2)
        assert np.abs(deviation(np.eye(3), rho)).max() <= 1e-12

    def test_traceless_observable_unchanged_at_mixed(self):
        assert np.allclose(deviation(SZ, st.validate(np.eye(2) / 2)), SZ)

    def test_projected_mean(self):
        got = deviation(SZ, st.pure_state([1, 0]))
        assert np.allclose(got, SZ - np.eye(2))

    def test_zero_mean_property(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            rho = st.random_full_rank(3, seed=seed)
            f = random_hermitian(3, rng)
            assert abs(st.mean(deviation(f, rho), rho)) <= 1e-12


def covariance_product(f, g, rho) -> float:
    """(F, G) = Tr(rho {Delta F, Delta G}), read off ``covariance_table``."""
    return float(st.covariance_table(rho, [f, g])[1][0, 1])


class TestCovarianceTable:
    """The one covariance body against the explicit pair table, on each of
    its call shapes: ``covariance_table``, and ``covariance`` on the
    ``operator_products``, with the ``real_dots`` of one more matrix."""

    @staticmethod
    def check(rho, ops, got, products, dots, extra):
        means, table = got
        n = len(ops)
        assert np.abs(means - [np.trace(rho @ f).real for f in ops]).max() <= 1e-13
        assert np.abs(table - ref.pair_table(rho, list(ops))).max() <= 1e-13
        a, b = np.triu_indices(n)
        sym = [(ops[i] @ ops[j] + ops[j] @ ops[i]) / 2 for i, j in zip(a, b)]
        assert np.abs(products[n + 1:] - sym).max() <= 1e-14
        assert np.array_equal(products[1:n + 1], ops)
        assert np.array_equal(products[0], np.eye(len(rho)))
        assert np.array_equal(dots[0], means)
        want = [np.vdot(extra, f).real for f in ops]
        assert np.abs(dots[1] - want).max() <= 1e-14

    @staticmethod
    def products(rho, ops, rng):
        """``operator_products`` of ops, the ``real_dots`` of rho against the
        operators over those against the identity (its trace), and the
        ``real_dots`` of a random Hermitian Y per member, with Y: member axes
        first."""
        n, d = ops.shape[-3], rho.shape[-1]
        ops = ops if ops.ndim == 3 else np.moveaxis(ops, -3, 0)
        products = st.operator_products(ops)
        extra = np.reshape(
            [random_hermitian(d, rng) for _ in range(rho[..., 0, 0].size)], rho.shape)
        rho_dots = st.real_dots(rho, products)
        means, _ = st.covariance(rho_dots, n)
        dots = np.stack([rho_dots[..., 1:n + 1] / rho_dots[..., :1],
                         st.real_dots(extra, products)[..., 1:n + 1]])
        assert np.array_equal(dots[0], means)
        return np.moveaxis(products, 0, -3), np.moveaxis(dots, 0, -2), extra

    def test_one_state(self):
        rng = np.random.default_rng(40)
        rho = st.random_full_rank(4, seed=41)
        ops = np.stack([random_hermitian(4, rng) for _ in range(3)])
        self.check(rho.matrix, ops, st.covariance_table(rho, ops),
                   *self.products(rho.matrix, ops, rng))

    def test_stack_with_shared_operators(self):
        rng = np.random.default_rng(42)
        stack = np.stack([st.random_full_rank(3, seed=s).matrix for s in range(5)])
        ops = np.stack([random_hermitian(3, rng) for _ in range(2)])
        got = st.covariance_table(stack, ops)
        products, dots, extra = self.products(stack, ops, rng)
        assert got[1].shape == (5, 2, 2)
        for i, m in enumerate(stack):
            self.check(m, ops, [a[i] for a in got], products, dots[i], extra[i])

    def test_stack_with_per_member_operators(self):
        rng = np.random.default_rng(43)
        stack = np.stack([st.random_full_rank(3, seed=s).matrix
                          for s in range(6)]).reshape(2, 3, 3, 3)
        ops = np.stack([random_hermitian(3, rng)
                        for _ in range(24)]).reshape(2, 3, 4, 3, 3)
        got = st.covariance_table(stack, ops)
        products, dots, extra = self.products(stack, ops, rng)
        assert got[1].shape == (2, 3, 4, 4)
        for i in np.ndindex(2, 3):
            self.check(stack[i], ops[i], [a[i] for a in got], products[i], dots[i],
                       extra[i])


class TestCovarianceProduct:
    def test_identity_slot_vanishes(self):
        rng = np.random.default_rng(12)
        rho = st.random_full_rank(3, seed=4)
        g = random_hermitian(3, rng)
        assert covariance_product(np.eye(3), g, rho) == pytest.approx(0.0, abs=1e-12)

    def test_relates_to_variance(self):
        mixed = st.validate(np.eye(2) / 2)
        assert covariance_product(SZ, SZ, mixed) == pytest.approx(2 * variance(SZ, mixed))

    def test_orthogonal_paulis_at_mixed(self):
        mixed = st.validate(np.eye(2) / 2)
        assert covariance_product(SX, SZ, mixed) == pytest.approx(0.0, abs=1e-12)

    def test_gram_positive_semidefinite(self):
        rng = np.random.default_rng(15)
        rho = st.random_full_rank(4, seed=14)
        ops = [random_hermitian(4, rng) for _ in range(6)]
        gram = np.array([[covariance_product(a, b, rho) for b in ops] for a in ops])
        assert np.linalg.eigvalsh(gram)[0] >= -1e-10


class TestCovarianceWithLog:
    def test_pure_state_zero(self):
        rng = np.random.default_rng(18)
        f = random_hermitian(2, rng)
        assert covariance_with_log(f, st.pure_state([1, 0])) == pytest.approx(0.0, abs=1e-12)

    def test_identity_zero(self):
        rho = st.random_full_rank(3, seed=30)
        assert covariance_with_log(np.eye(3), rho) == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_direct_formula_full_rank(self):
        # brute-force oracle: Tr(rho {Delta F, Delta ln rho}) with explicit log
        rng = np.random.default_rng(20)
        for seed in range(8):
            dim = 2 + seed % 3
            rho = st.random_full_rank(dim, seed=100 + seed)
            f = random_hermitian(dim, rng)
            p, u = np.linalg.eigh(rho.matrix)
            log_rho = (u * np.log(p)) @ u.conj().T
            dlog = log_rho - np.eye(dim) * np.trace(rho.matrix @ log_rho).real
            df = deviation(f, rho)
            direct = np.trace(rho.matrix @ (df @ dlog + dlog @ df)).real
            assert covariance_with_log(f, rho) == pytest.approx(direct, abs=1e-10)

    def test_specific_two_level_case(self):
        rho = st.validate(np.diag([0.75, 0.25]))
        p = np.array([0.75, 0.25])
        log_rho = np.diag(np.log(p))
        dlog = log_rho - np.eye(2) * (p @ np.log(p))
        dz = deviation(SZ, rho)
        direct = np.trace(rho.matrix @ (dz @ dlog + dlog @ dz)).real
        assert covariance_with_log(SZ, rho) == pytest.approx(direct, abs=1e-12)


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
            assert min_eigenvalue(rho) >= 1e-4 - 1e-12

    @pytest.mark.parametrize("min_eig", [0.25, 0.3, -0.01, np.nan])
    def test_random_full_rank_min_eig_outside_0_to_1_over_dim_rejected(self, min_eig):
        with pytest.raises(ValueError, match="min_eig"):
            st.random_full_rank(4, seed=1, min_eig=min_eig)

    @pytest.mark.parametrize("min_eig", [0.0, 0.2, 0.25 - 1e-9])
    def test_random_full_rank_meets_min_eig_up_to_1_over_dim(self, min_eig):
        for seed in range(5):
            rho = st.random_full_rank(4, seed=seed, min_eig=min_eig)
            assert min_eigenvalue(rho) >= min_eig - 1e-12

    def test_gibbs_seed_two_level(self):
        rho = gibbs_seed(np.log(3), np.diag([0.0, 1.0]))
        assert np.allclose(rho.matrix, np.diag([0.75, 0.25]))


def _tests_for_the_state_type(node) -> bool:
    """Whether ``node`` is a call isinstance(x, ...) whose classes name
    StateOperator, bare or as a module attribute, alone or in a tuple."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        return False
    return any(isinstance(n, ast.Name) and n.id == "StateOperator"
               or isinstance(n, ast.Attribute) and n.attr == "StateOperator"
               for n in ast.walk(node.args[1]))


def test_only_states_decides_by_the_state_type():
    # the library takes arrays inside: a public function coerces its
    # argument once, through states.matrix_and_spectrum, and no other
    # module chooses what it does by whether it got a StateOperator
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             if path.name != "states.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if _tests_for_the_state_type(node)]
    assert found == []
    states = ast.parse((SRC / "states.py").read_text())
    assert any(_tests_for_the_state_type(node) for node in ast.walk(states))
