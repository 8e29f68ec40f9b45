import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from references import gibbs_seed, hermitian_basis
from seaqt import composite as cp
from seaqt import equilibrium as eq
from seaqt import operators as op
from seaqt import sea
from seaqt import states as st
from seaqt.errors import NonCommutingGeneratorError, NonPositiveTauError

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


# ---------------------------------------------------------------------------
# Independent 2-level oracle: explicit eigensolver plus the hand-expanded
# two-by-two determinant of the dissipative term.  Shares no code with the
# library's dissipator kernel.
# ---------------------------------------------------------------------------

def _eig2(m):
    """Closed-form spectral decomposition of a Hermitian 2x2 matrix."""
    a = m[0, 0].real
    d = m[1, 1].real
    g = m[0, 1]
    mid = 0.5 * (a + d)
    s = np.sqrt(max(0.25 * (a - d) ** 2 + abs(g) ** 2, 0.0))
    lam = (mid + s, mid - s)
    if abs(g) > 1e-300:
        v1 = np.array([g, lam[0] - a], dtype=complex)
        v2 = np.array([g, lam[1] - a], dtype=complex)
    else:
        v1 = np.array([1.0, 0.0], dtype=complex) if a >= d else np.array([0.0, 1.0], dtype=complex)
        v2 = np.array([0.0, 1.0], dtype=complex) if a >= d else np.array([1.0, 0.0], dtype=complex)
    v1 = v1 / np.linalg.norm(v1)
    v2 = v2 / np.linalg.norm(v2)
    return lam, (v1, v2)


def sea_rhs_qubit_oracle(rho_m, h, tau=1.0, hbar=1.0):
    """Hand-expanded single-generator qubit form:

    rhs = -(i/hbar) [H, rho]
          - (tau/hbar^2) [ (H,H) * 2 (rho ln rho - Tr(rho ln rho) rho)
                           - (H, ln rho) * ({H, rho} - 2 Tr(rho H) rho) ]
    """
    lam, (v1, v2) = _eig2(rho_m)

    def plogp(p):
        return p * np.log(p) if p > 1e-15 else 0.0

    b = plogp(lam[0]) * np.outer(v1, v1.conj()) + plogp(lam[1]) * np.outer(v2, v2.conj())
    tr_b = plogp(lam[0]) + plogp(lam[1])
    h_mean = np.trace(rho_m @ h).real
    hh = 2.0 * (np.trace(rho_m @ h @ h).real - h_mean ** 2)
    h_log = 2.0 * (np.trace(h @ b).real - h_mean * tr_b)
    acomm_log = 2.0 * (b - tr_b * rho_m)
    acomm_h = h @ rho_m + rho_m @ h - 2.0 * h_mean * rho_m
    dd = hh * acomm_log - h_log * acomm_h
    ham = -1j / hbar * (h @ rho_m - rho_m @ h)
    return ham - tau / hbar**2 * dd


class TestModelValidation:
    def test_empty_generator_list_accepted(self):
        model = sea.validate_model(sea.SingleConstituentModel(H=SZ, tau=1.0))
        assert model.tau == 1.0

    def test_h_as_generator_accepted(self):
        with pytest.warns(sea.GramConditionWarning):
            sea.validate_model(sea.SingleConstituentModel(H=SZ, generators=(SZ,), tau=1.0))

    def test_non_commuting_generator_rejected(self):
        with pytest.raises(NonCommutingGeneratorError):
            sea.validate_model(sea.SingleConstituentModel(H=SZ, generators=(SX,), tau=1.0))

    def test_non_positive_tau_rejected(self):
        with pytest.raises(NonPositiveTauError):
            sea.validate_model(sea.SingleConstituentModel(H=SZ, tau=0.0))

    def test_nan_tau_and_units_rejected(self):
        with pytest.raises(NonPositiveTauError):
            sea.validate_model(sea.SingleConstituentModel(H=SZ, tau=np.nan))
        with pytest.raises(NonPositiveTauError):
            cp.validate_model(cp.CompositeModel((cp.Constituent(2, (), np.nan),), SZ))
        with pytest.raises(ValueError, match="strictly positive"):
            op.UnitSystem(k_B=np.nan)

    def test_degenerate_generators_warn(self):
        model = sea.SingleConstituentModel(H=SZ, generators=(SZ, SZ), tau=1.0)
        with pytest.warns(sea.GramConditionWarning):
            sea.validate_model(model)

    def test_gram_condition_number_of_a_matrix_and_of_its_state(self):
        h = np.diag([0.0, 1.0, 2.5]).astype(complex)
        model = sea.validate_model(sea.SingleConstituentModel(
            H=h, generators=(np.diag([1.0, -1.0, 0.3]),), tau=1.0))
        rho = st.random_full_rank(3, seed=5)
        cond = sea.gram_condition_number(rho, model)
        assert np.isfinite(cond) and cond >= 1.0
        assert sea.gram_condition_number(rho.matrix, model) == cond


@pytest.fixture
def qubit_model():
    return sea.validate_model(
        sea.SingleConstituentModel(H=np.diag([0.0, 1.0]).astype(complex), tau=1.0))


class TestDissipator:
    def test_pure_state_gives_zero(self, qubit_model):
        rho = st.pure_state([1 / np.sqrt(2), 1j / np.sqrt(2)])
        d = sea.dissipator_anticommutator(rho, qubit_model)
        assert np.abs(d).max() <= 1e-12

    def test_gibbs_is_fixed_point(self, qubit_model):
        rho = gibbs_seed(0.7, qubit_model.H)
        d = sea.dissipator_anticommutator(rho, qubit_model)
        assert np.abs(d).max() <= 1e-10

    def test_matches_two_level_oracle(self, qubit_model):
        rho = st.validate(np.diag([0.7, 0.3]))
        got = sea.dissipator_anticommutator(rho, qubit_model)
        lam, (v1, v2) = _eig2(rho.matrix)
        b = sum(p * np.log(p) * np.outer(v, v.conj())
                for p, v in zip(lam, (v1, v2)))
        tr_b = sum(p * np.log(p) for p in lam)
        h = qubit_model.H
        h_mean = np.trace(rho.matrix @ h).real
        hh = 2.0 * (np.trace(rho.matrix @ h @ h).real - h_mean ** 2)
        h_log = 2.0 * (np.trace(h @ b).real - h_mean * tr_b)
        want = hh * 2.0 * (b - tr_b * rho.matrix) \
            - h_log * (h @ rho.matrix + rho.matrix @ h - 2 * h_mean * rho.matrix)
        assert np.abs(got - want).max() <= 1e-10

    def test_trace_of_pairing_vanishes(self, qubit_model):
        for seed in range(5):
            rho = st.random_full_rank(2, seed=seed)
            d = sea.dissipator_anticommutator(rho, qubit_model)
            assert abs(np.trace(d)) <= 1e-12


class TestSeaRhs:
    def test_pure_state_reduces_to_schroedinger(self, qubit_model):
        rho = st.pure_state([np.cos(0.3), np.sin(0.3)])
        rhs = sea.sea_rhs(rho, qubit_model)
        ham = -1j * (qubit_model.H @ rho.matrix - rho.matrix @ qubit_model.H)
        assert np.abs(rhs - ham).max() <= 1e-12

    def test_maximally_mixed_is_stationary(self, qubit_model):
        rhs = sea.sea_rhs(st.validate(np.eye(2) / 2), qubit_model)
        assert np.abs(rhs).max() <= 1e-12

    def test_oracle_equivalence_100_random_states(self):
        # frozen oracle check across two Hamiltonians, 100 seeded states
        hams = [np.diag([0.0, 1.0]).astype(complex), SZ + 0.4 * SX]
        for h in hams:
            model = sea.validate_model(sea.SingleConstituentModel(H=h, tau=0.8))
            for seed in range(50):
                rho = st.random_full_rank(2, seed=seed)
                got = sea.sea_rhs(rho, model)
                want = sea_rhs_qubit_oracle(rho.matrix, model.H, tau=0.8)
                assert np.abs(got - want).max() <= 1e-10

    def test_trace_conservation(self, qubit_model):
        for seed in range(10):
            rho = st.random_full_rank(2, seed=seed)
            assert abs(np.trace(sea.sea_rhs(rho, qubit_model))) <= 1e-10

    @pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6])
    def test_traceless_at_trial_state_with_negative_eigenvalue(self, eps):
        # the clipped spectrum sums to 1 + eps; the dissipator must still
        # be traceless there, not off by a multiple of eps
        h = np.diag([0.0, 1.0, 2.0, 3.0])
        x = np.diag([1.0, -1.0, 0.5, 0.2])
        model = sea.validate_model(sea.SingleConstituentModel(H=h, generators=(x,)))
        rho = np.diag([0.6, 0.3, 0.1 + eps, -eps]).astype(complex)
        assert abs(np.trace(sea.sea_rhs(rho, model))) <= 1e-14

    def test_energy_conservation(self):
        for dim, seeds in ((2, range(5)), (3, range(5)), (4, range(5))):
            h = np.diag(np.arange(dim, dtype=float))
            model = sea.validate_model(sea.SingleConstituentModel(H=h, tau=1.0))
            for seed in seeds:
                rho = st.random_full_rank(dim, seed=seed)
                rhs = sea.sea_rhs(rho, model)
                drift = abs(np.trace(h @ rhs).real)
                assert drift <= 1e-8 * max(1.0, np.linalg.norm(h))

    def test_generator_mean_conservation(self):
        h = np.diag([0.0, 1.0, 2.0])
        x = np.diag([1.0, -1.0, 0.5])
        model = sea.validate_model(
            sea.SingleConstituentModel(H=h, generators=(x,), tau=1.0))
        for seed in range(5):
            rho = st.random_full_rank(3, seed=seed)
            rhs = sea.sea_rhs(rho, model)
            assert abs(np.trace(x @ rhs).real) <= 1e-8


class TestEntropyProduction:
    def test_gram_determinant_zero_on_pure(self, qubit_model):
        assert abs(sea.gram_determinant_g(st.pure_state([0, 1]), qubit_model)) <= 1e-12

    def test_gram_determinant_zero_at_gibbs(self, qubit_model):
        rho = gibbs_seed(1.3, qubit_model.H)
        assert abs(sea.gram_determinant_g(rho, qubit_model)) <= 1e-12

    def test_two_level_scalar_oracle(self, qubit_model):
        rho = st.validate(np.diag([0.7, 0.3]))
        p = np.array([0.7, 0.3])
        e = np.array([0.0, 1.0])
        # scalar Gram entries for commuting rho, H
        lnp = np.log(p)
        log_mean, h_mean = p @ lnp, p @ e
        ll = 2 * (p @ lnp**2 - log_mean**2)
        hh = 2 * (p @ e**2 - h_mean**2)
        hl = 2 * (p @ (e * lnp) - h_mean * log_mean)
        want = ll * hh - hl * hl
        assert sea.gram_determinant_g(rho, qubit_model) == pytest.approx(want, abs=1e-12)
        assert sea.entropy_production_rate(rho, qubit_model) == pytest.approx(want, rel=1e-12)

    def test_nonnegative_on_random_states(self):
        h = np.diag([0.0, 1.0, 2.5])
        model = sea.validate_model(sea.SingleConstituentModel(H=h, tau=1.0))
        for seed in range(50):
            rho = st.random_full_rank(3, seed=seed)
            assert sea.gram_determinant_g(rho, model) >= -1e-12

    def test_rate_matches_pairing_on_full_rank(self):
        h = np.diag([0.0, 0.7, 1.9])
        model = sea.validate_model(sea.SingleConstituentModel(H=h, tau=1.4))
        for seed in range(10):
            rho = st.random_full_rank(3, seed=seed)
            rate = sea.entropy_production_rate(rho, model)
            pairing = sea.entropy_rate_pairing(rho, model)
            assert pairing == pytest.approx(rate, rel=1e-8, abs=1e-12)


def mean_rate(c, model) -> float:
    """max |d Tr(C rho)/dt| = |Tr(C sea_rhs(rho))| over seeded full-rank states."""
    return max(abs(np.trace(c @ sea.sea_rhs(st.random_full_rank(model.dim, seed=seed),
                                            model)).real)
               for seed in range(8))


class TestConstantsOfMotion:
    """The law keeps the mean of C iff [C, H] = 0 and C lies in span{I, H,
    X, ..., Y}: read off the rate Tr(C rhs) of the mean."""

    def test_hamiltonian_is_constant(self, qubit_model):
        assert mean_rate(qubit_model.H, qubit_model) <= 1e-12

    def test_affine_combination_is_constant(self, qubit_model):
        c = 3 * np.eye(2) - 2 * qubit_model.H
        assert mean_rate(c, qubit_model) <= 1e-12

    def test_complement_projector_in_span(self):
        # for H = diag(0, 1): C = diag(1, 0) = I - H commutes and sits in span
        model = sea.validate_model(
            sea.SingleConstituentModel(H=np.diag([0.0, 1.0]), tau=1.0))
        assert mean_rate(np.diag([1.0, 0.0]), model) <= 1e-12

    def test_degenerate_commuting_but_outside_span(self):
        # H = diag(0, 1, 1): C = diag(0, 1, -1) commutes with H yet is not a
        # combination of I and H, so the dissipative term moves its mean
        h = np.diag([0.0, 1.0, 1.0])
        model = sea.validate_model(sea.SingleConstituentModel(H=h, tau=1.0))
        c = np.diag([0.0, 1.0, -1.0])
        assert op.commutation_check(c, h)[0]
        assert mean_rate(c, model) > 1e-3

    def test_non_constant_drifts_along_trajectory(self):
        # finite-difference oracle: one short RK4 step, mean value moves
        h = np.diag([0.0, 1.0, 1.0])
        model = sea.validate_model(sea.SingleConstituentModel(H=h, tau=1.0))
        c = np.diag([0.0, 1.0, -1.0])
        rho = st.random_full_rank(3, seed=77)
        dt = 1e-4
        m = rho.matrix
        k1 = sea.sea_rhs(m, model)
        k2 = sea.sea_rhs(m + 0.5 * dt * k1, model)
        k3 = sea.sea_rhs(m + 0.5 * dt * k2, model)
        k4 = sea.sea_rhs(m + dt * k3, model)
        stepped = m + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        drift = abs(np.trace(c @ stepped).real - np.trace(c @ m).real) / dt
        assert drift > 1e-6


class TestEquilibriumDetection:
    def test_gibbs_is_equilibrium(self, qubit_model):
        rho = gibbs_seed(0.9, qubit_model.H)
        report = sea.is_equilibrium(rho, qubit_model)
        assert report.is_equilibrium
        assert report.rhs_norm <= 1e-9

    def test_eigenprojector_is_equilibrium(self, qubit_model):
        rho = st.pure_state([0, 1])
        report = sea.is_equilibrium(rho, qubit_model)
        assert report.is_equilibrium
        assert report.rhs_norm <= 1e-9

    def test_partial_support_gibbs_form(self, qubit_model):
        rho = st.validate(np.diag([0.7, 0.3]))
        assert sea.is_equilibrium(rho, qubit_model).is_equilibrium

    def test_coherence_breaks_equilibrium(self, qubit_model):
        m = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
        report = sea.is_equilibrium(st.validate(m), qubit_model)
        assert not report.commutes
        assert not report.is_equilibrium

    def test_non_gibbs_spectrum_on_degenerate_levels(self):
        # commutes with H but populations on the degenerate pair differ, so
        # no multiplier fit reproduces the spectrum
        h = np.diag([0.0, 1.0, 1.0])
        model = sea.validate_model(sea.SingleConstituentModel(H=h, tau=1.0))
        rho = st.validate(np.diag([0.5, 0.4, 0.1]))
        report = sea.is_equilibrium(rho, model)
        assert report.commutes and not report.spectral_match


class TestGibbsFixedPoints:
    def test_rhs_norm_small_at_gibbs(self):
        for dim in (2, 3, 4):
            h = np.diag(np.linspace(0.0, 1.5, dim))
            model = sea.validate_model(sea.SingleConstituentModel(H=h, tau=1.0))
            constants = eq.constant_set([h])
            m = eq.MultiplierVector(beta=1.1)
            rho = eq.gibbs_state(constants, m)
            assert np.linalg.norm(sea.sea_rhs(rho, model), ord="fro") <= 1e-9


def dissipative_jacobian(rho, model, eps=1e-6):
    """The central-difference Jacobian of rho -> -{D, rho} (tau = hbar = 1)
    as a d^2 x d^2 matrix over the trace-orthonormal Hermitian basis."""
    basis = np.array(hermitian_basis(model.dim))

    def f(m):
        return -op.plus_adjoint(sea._velocity(m, model))

    cols = [(f(rho + eps * q) - f(rho - eps * q)) / (2.0 * eps) for q in basis]
    return np.array([[np.trace(q @ c).real for c in cols] for q in basis])


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(seed=hs.integers(0, 2**31 - 1), dim=hs.sampled_from([2, 3, 4, 5]),
       n_gen=hs.integers(0, 1))
def test_linearization_at_generalized_gibbs_states(seed, dim, n_gen):
    """The closed-form spectrum of the dissipative term's Jacobian at rho =
    diag(p), ln p affine in diagonal H and generators: 2 + n zeros (trace, H
    and the generators), -2 det G on the other d - 2 - n population
    directions, and -2 det G m(p_i, p_j) twice per coherence pair, with m the
    arithmetic over the logarithmic mean of p_i and p_j."""
    n_gen = min(n_gen, dim - 2)
    rng = np.random.default_rng(seed)
    # The central difference carries an absolute round-off of about 1e-16 /
    # eps times the operators' scale, so the diagonals are orthonormal to one
    # another and to the identity's (det G of order 1), and ln p spans 2 (its
    # eps^2 / p^2 truncation error stays near 1e-10).
    q = np.linalg.qr(np.column_stack([np.ones(dim), rng.normal(size=(dim, n_gen + 1))]))[0]
    h, *gens = [np.diag(np.sqrt(dim) * q[:, k]) for k in range(1, n_gen + 2)]
    model = sea.SingleConstituentModel(H=h, generators=tuple(gens))
    log_p = sum(rng.normal() * np.diag(f) for f in [h, *gens])
    p = np.exp(2.0 * (log_p - log_p.max()) / np.ptp(log_p))
    p /= p.sum()
    rho = np.diag(p).astype(complex)
    det = np.linalg.det(st.covariance_table(rho, model.operator_stack)[1])
    i, j = np.triu_indices(dim, k=1)
    m = (p[i] + p[j]) / 2 * (np.log(p[i]) - np.log(p[j])) / (p[i] - p[j])
    want = np.sort(np.concatenate([np.zeros(2 + n_gen),
                                   np.full(dim - 2 - n_gen, -2.0 * det),
                                   np.repeat(-2.0 * det * m, 2)]))
    got = np.linalg.eigvals(dissipative_jacobian(rho, model))
    tol = 1e-7 * np.abs(want).max()
    assert np.abs(got.imag).max() <= tol
    assert np.abs(np.sort(got.real) - want).max() <= tol


@pytest.mark.parametrize("offset", [1e2, 1e4, 1e6])
def test_an_energy_offset_costs_the_dissipator_no_precision(offset):
    # H + c I changes no physics; the kernel's operators are centred at their
    # trace means once per model, so the uncentred products' loss of about
    # c^2 eps is gone, while the model's own H is left as given
    rho = st.random_full_rank(3, seed=3)
    h = np.diag([0.0, 1.0, 2.0])
    want = sea.dissipator_anticommutator(rho, sea.SingleConstituentModel(H=h))
    model = sea.SingleConstituentModel(H=h + offset * np.eye(3))
    got = sea.dissipator_anticommutator(rho, model)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.array_equal(model.H, h + offset * np.eye(3))
