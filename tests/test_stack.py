"""A (..., d, d) stack of states through the kernel, the rhs functions and
the integrator: every member must come out as it does on its own."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from references import log_operator_kernel, random_hermitian
from seaqt import cli
from seaqt import composite as cp
from seaqt import ensemble as en
from seaqt import integrate as ig
from seaqt import lindblad as lb
from seaqt import operators as op
from seaqt import sea
from seaqt import states as st
from seaqt.errors import (SingularCompositeStateError, StateInvalidError,
                          StepUnderflowError)


def random_unitary(dim, rng):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(x)
    return q


def commuting_model(dim, n_gen, rng):
    """H and n_gen generators diagonal in one random eigenbasis."""
    u = random_unitary(dim, rng)
    h, *gens = [op.hermitize((u * rng.normal(size=dim)) @ u.conj().T)
                for _ in range(n_gen + 1)]
    return sea.SingleConstituentModel(H=h, generators=tuple(gens))


def mixed_stack(dim, rng):
    """Three full-rank members, then a pure member, then a trial point whose
    smallest eigenvalue -1e-9 the spectral form clips to 0."""
    members = [st.random_full_rank(dim, seed=int(rng.integers(2**31))).matrix
               for _ in range(3)]
    members.append(st.pure_state(rng.normal(size=dim) + 1j * rng.normal(size=dim)).matrix)
    p = rng.uniform(0.5, 1.5, dim)
    p = p / p.sum()
    p[-1] -= 1e-9
    p[0] += 1e-9
    u = random_unitary(dim, rng)
    members.append(op.hermitize((u * p) @ u.conj().T))
    return np.stack(members)


@settings(max_examples=48, deadline=None, database=None, derandomize=True)
@given(seed=hs.integers(0, 2**31 - 1), dim=hs.sampled_from([2, 3, 4, 8]),
       n_gen=hs.integers(0, 2))
def test_stacked_sea_rhs_matches_the_member_loop(seed, dim, n_gen):
    rng = np.random.default_rng(seed)
    model = commuting_model(dim, n_gen, rng)
    stack = mixed_stack(dim, rng)
    got = sea.sea_rhs(stack, model)
    want = np.stack([sea.sea_rhs(m, model) for m in stack])
    assert got.shape == stack.shape
    assert np.abs(got - want).max() <= 1e-14
    g = sea.gram_determinant_g(stack, model)
    assert g.shape == (len(stack),)
    assert np.abs(g - [sea.gram_determinant_g(m, model) for m in stack]).max() <= 1e-14
    # the pure member's dissipator is an exact zero, inside the stack too
    assert not sea.dissipator_anticommutator(stack, model)[3].any()
    # the clipped member's rhs stays traceless
    assert abs(np.trace(got[4])) <= 1e-14


@settings(max_examples=24, deadline=None, database=None, derandomize=True)
@given(seed=hs.integers(0, 2**31 - 1), dim=hs.sampled_from([2, 3, 4]),
       n_gen=hs.integers(0, 2))
def test_kernel_takes_per_member_operators(seed, dim, n_gen):
    # the composite law's layout: each member has its own log operator and
    # operators (k, n, d, d), as the reduced W(J), V(J) of a constituent kind
    rng = np.random.default_rng(seed)
    stack = mixed_stack(dim, rng)
    spec = st.matrix_and_spectrum(stack)[1]
    rho_q, = st.spectral_matrices(spec.eigenvectors, spec.eigenvalues)
    ops = np.stack([[random_hermitian(dim, rng) for _ in range(n_gen + 2)]
                    for _ in stack])
    half, g = log_operator_kernel(rho_q, ops[:, 1:], ops[:, 0])
    assert half.shape == stack.shape and g.shape == (len(stack),)
    for i in range(len(stack)):
        want, g_i = log_operator_kernel(rho_q[i], ops[i, 1:], ops[i, 0])
        assert np.abs(half[i] - want).max() <= 1e-14
        assert abs(g[i] - g_i) <= 1e-14


def test_a_two_axis_stack_is_evaluated_per_member():
    rng = np.random.default_rng(3)
    model = commuting_model(3, 1, rng)
    stack = mixed_stack(3, rng)[:4].reshape(2, 2, 3, 3)
    got = sea.sea_rhs(stack, model)
    for i in range(2):
        for j in range(2):
            assert np.abs(got[i, j] - sea.sea_rhs(stack[i, j], model)).max() <= 1e-14


def test_linear_and_composite_rhs_accept_a_stack():
    rng = np.random.default_rng(11)
    h = np.diag([0.0, 0.7, 1.9]).astype(complex)
    a = np.zeros((3, 3), dtype=complex)
    a[0, 2] = 0.6
    lmodel = lb.lindblad_model(-h, jump_ops=(a,))
    rates = lb.pauli_rates(rng.uniform(0.1, 1.0, (3, 3)), np.diag(h).real)
    dmodel = lb.double_commutator(np.diag([1.0, -1.0, 0.3]), 0.5, h)
    stack = np.stack([st.random_full_rank(3, seed=s).matrix for s in range(4)])
    for rhs in (lambda m: lb.kl_rhs(m, lmodel), lambda m: lb.pauli_rhs(m, rates),
                lambda m: lb.kl_rhs(m, dmodel)):
        want = np.stack([rhs(m) for m in stack])
        assert np.abs(rhs(stack) - want).max() <= 1e-14
    model = cp.validate_model(cp.CompositeModel(
        (cp.Constituent(2, (), 1.0), cp.Constituent(2, (), 0.5)),
        np.kron(np.diag([0.0, 1.0]), np.eye(2)) + np.kron(np.eye(2), np.diag([0.0, 1.3]))))
    stack = np.stack([st.random_full_rank(4, seed=s).matrix for s in range(3)])
    want = np.stack([cp.composite_rhs(m, model) for m in stack])
    assert np.abs(cp.composite_rhs(stack, model) - want).max() <= 1e-14
    want = np.stack([cp.dissipative_term(m, model) for m in stack])
    assert np.abs(cp.dissipative_term(stack, model) - want).max() <= 1e-14


def qubit_qutrit_model():
    """Two kinds of constituent, a plain qubit and a qutrit with one
    generator, under an entangling coupling that the generator commutes with."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    h3, x3 = np.diag([0.0, 1.0, 2.3]), np.diag([1.0, 0.0, -1.0])
    h = np.kron(sz, np.eye(3)) + np.kron(np.eye(2), h3) + 0.4 * np.kron(sx, x3)
    return cp.validate_model(cp.CompositeModel(
        (cp.Constituent(2, (), 0.8), cp.Constituent(3, (np.diag([0.0, 1.0, 0.0]),), 1.3)),
        h, units=op.UnitSystem(hbar=0.9)))


def composite_mixed_stack(rng):
    """Three full-rank members, an exact pure product, and a trial point
    with an eigenvalue of -1e-12."""
    members = [st.random_full_rank(6, seed=int(rng.integers(2**31))).matrix
               for _ in range(3)]
    members.append(np.kron(st.pure_state([0.6, 0.8j]).matrix,
                           st.pure_state([1.0, 0.0, 1.0j]).matrix))
    p = rng.uniform(0.5, 1.5, 6)
    p = p / p.sum()
    p[-1], p[0] = -1e-12, p[0] + p[-1] + 1e-12
    u = random_unitary(6, rng)
    members.append(op.hermitize((u * p) @ u.conj().T))
    return np.stack(members)


def test_stacked_composite_pass_matches_the_member_loop():
    model = qubit_qutrit_model()
    assert len(model._kinds) == 2
    stack = composite_mixed_stack(np.random.default_rng(21))
    for f in (cp.composite_rhs, cp.dissipative_term):
        got = f(stack, model)
        assert got.shape == stack.shape
        assert np.abs(got - np.stack([f(m, model) for m in stack])).max() <= 1e-14
    total, per = cp.composite_entropy_production(stack, model)
    assert total.shape == (5,) and per.shape == (5, 2)
    loop = [cp.composite_entropy_production(m, model) for m in stack]
    assert np.abs(total - [t for t, _ in loop]).max() <= 1e-14
    assert np.abs(per - [g for _, g in loop]).max() <= 1e-14
    # the pure product's terms are exact zeros, inside the stack too
    assert cp.is_pure_product(stack, model).tolist() == [False, False, False, True, False]
    assert not cp.dissipative_term(stack, model)[3].any()
    assert not per[3].any()


def clipped_trial_state(dim, clip, rng):
    """A trial point in a random eigenbasis whose smallest eigenvalue is
    -clip, which the kernel's spectral form clips to 0."""
    p = rng.uniform(0.5, 1.5, dim)
    p = p / p.sum()
    p[-1], p[0] = -clip, p[0] + p[-1] + clip
    u = random_unitary(dim, rng)
    return op.hermitize((u * p) @ u.conj().T)


def assert_conserving(rhs, ops, scale):
    """Each member of the rhs stack is traceless and leaves the mean of each
    operator unchanged, to round-off of its scale."""
    for x in rhs:
        assert abs(np.trace(x)) <= 1e-14 * scale
        for f in ops:
            assert abs(np.trace(f @ x)) <= 1e-13 * scale * np.abs(f).max()


CLIPS = [1e-12, 1e-9, 1e-6]


@pytest.mark.parametrize("clip", CLIPS)
def test_single_rhs_at_clipped_trial_states(clip):
    # the row-form kernel from the single-system law: the clipped spectrum
    # is renormalized inside the kernel and its sum joins the coefficients
    rng = np.random.default_rng(int(-np.log10(clip)))
    model = commuting_model(4, 2, rng)
    stack = np.stack([clipped_trial_state(4, clip, rng) for _ in range(3)])
    assert (np.linalg.eigvalsh(stack)[:, 0] < 0).all()
    rhs = sea.sea_rhs(stack, model)
    assert np.array_equal(rhs, rhs.conj().swapaxes(-1, -2))
    assert_conserving(rhs, model.operator_list(), max(1.0, np.abs(rhs).max()))
    assert np.abs(rhs - np.stack([sea.sea_rhs(m, model) for m in stack])).max() <= 1e-14


@pytest.mark.parametrize("clip", CLIPS)
def test_composite_rhs_at_clipped_trial_states(clip):
    # the same kernel from the composite law: the qubit's reduced state of
    # a product trial point carries the clipped eigenvalue
    rng = np.random.default_rng(int(-np.log10(clip)))
    model = qubit_qutrit_model()
    stack = np.stack([np.kron(clipped_trial_state(2, clip, rng),
                              st.random_full_rank(3, seed=int(rng.integers(2**31))).matrix)
                      for _ in range(3)])
    reduced = cp.reduced_state(stack[0], model, 0)
    assert isinstance(reduced, np.ndarray) and np.linalg.eigvalsh(reduced)[0] < 0
    term = cp.dissipative_term(stack, model)
    assert np.array_equal(term, term.conj().swapaxes(-1, -2))
    lifted = [model.H, *model.generators]
    rhs = cp.composite_rhs(stack, model)
    assert_conserving(rhs, lifted, max(1.0, np.abs(rhs).max()))
    for f in (cp.composite_rhs, cp.dissipative_term):
        assert np.abs(f(stack, model) - np.stack([f(m, model) for m in stack])).max() <= 1e-14


def test_a_singular_state_stack_names_the_member():
    model = cp.validate_model(cp.CompositeModel(
        (cp.Constituent(2, (), 1.0), cp.Constituent(2, (), 0.5)),
        np.kron(np.diag([0.0, 1.0]), np.eye(2)) + np.kron(np.eye(2), np.diag([0.0, 1.3]))))
    bell = st.pure_state(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)).matrix
    stack = st.StateOperator(np.stack([st.random_full_rank(4, seed=1).matrix, bell]))
    with pytest.raises(SingularCompositeStateError, match=r"\(member 1\)") as info:
        cp.require_full_rank(stack, model)
    assert info.value.member == 1


def test_the_composite_law_ignores_the_argument_type():
    # the law is a function of the Hermitian matrix: a StateOperator and its
    # matrix give the same bits, a singular member included (the law's
    # trial-point extension); the domain is the named check's alone
    model = cp.validate_model(cp.CompositeModel(
        (cp.Constituent(2, (), 1.0), cp.Constituent(2, (), 0.5)),
        np.kron(np.diag([0.0, 1.0]), np.eye(2)) + np.kron(np.eye(2), np.diag([0.0, 1.3]))
        + 0.4 * np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]])))
    full = st.random_full_rank(4, seed=1).matrix
    bell = st.pure_state(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)).matrix
    stack_laws = [cp.composite_rhs, cp.dissipative_term,
                  lambda rho, model: np.concatenate(
                      [np.ravel(x) for x in cp.composite_entropy_production(rho, model)])]
    # the reduced equation of motion takes one state, not a stack
    state_laws = [*stack_laws, lambda rho, model: cp.reduced_rhs(rho, model, [0])]
    for m, laws in ((full, state_laws), (np.stack([full, bell]), stack_laws),
                    (bell, state_laws)):
        for law in laws:
            got = law(m, model)
            assert np.isfinite(got).all()
            assert np.array_equal(law(st.StateOperator(m), model), got)
    cp.require_full_rank(full, model)
    with pytest.raises(SingularCompositeStateError, match=r"\(member 1\)") as info:
        cp.require_full_rank(np.stack([full, bell]), model)
    assert info.value.member == 1
    with pytest.raises(SingularCompositeStateError, match="below the log floor") as info:
        cp.require_full_rank(bell, model)
    assert info.value.member is None


@pytest.mark.parametrize("kind", ["single", "composite"])
def test_the_dissipative_equilibrium_norm_is_per_member(kind):
    units = op.UnitSystem()
    if kind == "single":
        model = sea.SingleConstituentModel(H=np.diag([0.0, 0.7, 1.9]).astype(complex))
        dim = 3
    else:
        model = cp.validate_model(cp.CompositeModel(
            (cp.Constituent(2, (), 1.0), cp.Constituent(2, (), 0.5)),
            np.kron(np.diag([0.0, 1.0]), np.eye(2)) + np.kron(np.eye(2), np.diag([0.0, 1.3]))))
        dim = 4
    *_, eq_norm = cli.build_dynamics(kind, model, "sea",
                                     {"equilibrium_detection": "dissipative"}, units)
    stack = np.stack([st.random_full_rank(dim, seed=s).matrix for s in range(3)])
    got = eq_norm(stack)
    assert got.shape == (3,)
    assert np.abs(got - [eq_norm(m) for m in stack]).max() <= 1e-15
    assert got.min() > 0


def test_stacked_integration_matches_member_by_member():
    rng = np.random.default_rng(5)
    model = commuting_model(4, 1, rng)
    members = [st.random_full_rank(4, seed=s).matrix for s in range(6)]
    config = ig.IntegratorConfig(t_max=2.0, sample_dt=0.5)
    obs = ig.Observables(energy_op=model.H, generator_ops=model.generators,
                         g_rate=lambda m: sea.gram_determinant_g(m, model))

    def rhs(m):
        return sea.sea_rhs(m, model)

    traj = ig.integrate(np.stack(members), rhs, config, observables=obs)
    assert traj.times == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0], abs=1e-12)
    assert traj.column("entropy").shape == (5, 6)
    for i, m in enumerate(members):
        alone = ig.integrate(m, rhs, config, observables=obs)
        assert np.abs(traj.final.rho[i] - alone.final.rho).max() <= 1e-7
        for name in ("entropy", "energy", "g_rate", "purity", "min_eig"):
            assert np.abs(traj.column(name)[:, i] - alone.column(name)).max() <= 1e-7


def test_g_rate_is_called_once_per_sample_on_the_stack():
    rng = np.random.default_rng(6)
    model = commuting_model(3, 1, rng)
    stack = np.stack([st.random_full_rank(3, seed=s).matrix for s in range(4)])
    calls = []

    def g_rate(m):
        calls.append(m.shape)
        return sea.gram_determinant_g(m, model)

    traj = ig.integrate(stack, lambda m: sea.sea_rhs(m, model),
                        ig.IntegratorConfig(t_max=1.0, sample_dt=0.25),
                        observables=ig.Observables(g_rate=g_rate))
    assert calls == [stack.shape] * len(traj.samples)
    assert traj.column("g_rate").shape == (len(traj.samples), 4)


def test_a_stack_of_one_is_the_single_state_run():
    rng = np.random.default_rng(8)
    model = commuting_model(3, 2, rng)
    rho0 = st.random_full_rank(3, seed=4).matrix
    config = ig.IntegratorConfig(t_max=3.0)

    def rhs(m):
        return sea.sea_rhs(m, model)

    alone = ig.integrate(rho0, rhs, config)
    stacked = ig.integrate(rho0[None], rhs, config)
    assert stacked.stats == alone.stats
    assert len(stacked.samples) == len(alone.samples)
    for a, b in zip(stacked.samples, alone.samples):
        assert a.t == b.t
        assert np.abs(a.rho[0] - b.rho).max() <= 1e-14


def kick_member(k, push):
    """An rhs that is zero except on member k, where it is ``push(member)``."""
    def rhs(m):
        out = np.zeros_like(m)
        out[k] = push(m[k])
        return out
    return rhs


def test_projection_failure_names_the_member():
    # a constant push has a zero error estimate, so the step is accepted and
    # the projection meets the negative eigenvalue
    stack = np.stack([st.random_full_rank(2, seed=s).matrix for s in range(4)])
    rhs = kick_member(2, lambda m: np.diag([-10.0, 10.0]).astype(complex))
    config = ig.IntegratorConfig(t_max=1.0, dt_init=0.1)
    with pytest.raises(StateInvalidError, match=r"member 2\)") as info:
        ig.integrate(stack, rhs, config)
    assert info.value.member == 2
    mu = en.measure([(0.25, m) for m in stack])
    with pytest.raises(StateInvalidError) as info:
        en.integrate_support(mu, rhs, config)
    assert info.value.__notes__ == ["support point 2"]


def test_step_underflow_names_the_member():
    h = np.diag([0.0, 1e4]).astype(complex)
    stack = np.stack([st.random_full_rank(2, seed=s).matrix for s in range(3)])
    rhs = kick_member(1, lambda m: -1j * op.commutator(h, m))
    config = ig.IntegratorConfig(t_max=1.0, dt_init=1e-2, dt_min=1e-2, dt_max=1e-2)
    with pytest.raises(StepUnderflowError, match=r"member 1\)") as info:
        ig.integrate(stack, rhs, config)
    assert info.value.member == 1


def test_single_state_errors_name_no_member():
    rho = st.random_full_rank(2, seed=0).matrix
    config = ig.IntegratorConfig(t_max=1.0, dt_init=0.1)
    with pytest.raises(StateInvalidError) as info:
        ig.integrate(rho, lambda m: np.diag([-10.0, 10.0]).astype(complex), config)
    assert info.value.member is None
    assert "member" not in str(info.value)
